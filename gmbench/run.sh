#!/usr/bin/env bash
# Build the gridmon benchmark from source and run one workload:
#
#   bash gmbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the repository root.  `--trace 0` runs the end-to-end
# binary (default allocator); `--trace 1` the traced one, built with
# gperf's counting allocator.  Build output goes to $CARGO_TARGET_DIR
# (default .bench_build).  The last line of standard output is the
# result object; everything else goes to standard error.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
bin=gmbench
features=()
prev=
for arg in "$@"; do
  if [[ $prev == --trace && $arg == 1 ]]; then
    bin=gmbench-traced
    features=(--features alloc)
  fi
  prev=$arg
done
cargo build --release --offline --quiet --manifest-path gmbench/Cargo.toml --bin "$bin" "${features[@]}" 1>&2
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
