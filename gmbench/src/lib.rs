//! # gmbench — the gridmon benchmark
//!
//! Runs one named workload of paper-profile points and prints, as the
//! last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0`: the end-to-end metrics, timed with observability off
//!   (`run_s`, `setup_s`, `peak_rss_mib`, `point_ok_ratio`).
//! * `--trace 1`: a separate traced run giving the per-layer metrics —
//!   public counters read after each run, the metrics registry and
//!   trace ring, and layer probes timed on inputs sized from each
//!   point's post-run state.
//!
//! Every number is taken from outside the program: by timing calls into
//! the workspace crates' public functions and reading their public
//! state.  The catalogue of workloads and metrics is in [`catalog`].

pub mod calib;
pub mod catalog;
pub mod check;
pub mod exec;
pub mod layers;
pub mod probes;
pub mod sweep;

use catalog::{Plan, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use gridmon_core::figures::PointSpec;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

const USAGE: &str =
    "usage: gmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]  (run from the repository root)";

/// `--seconds` when not given (the `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Where the committed figure CSVs live, relative to the repository root.
const RESULTS_DIR: &str = "results";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(catalog::workload(&name).ok_or_else(|| {
                    let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: exec::Tally,
    pub metrics: Metrics,
    /// Per-layer metrics that do not apply to this workload, or whose
    /// evidence is incomplete, with the reason.  Reported as 0.
    pub absent: BTreeMap<&'static str, String>,
    /// Per-point detail for the log line before the result.
    pub detail: Vec<(String, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    // Display prints the shortest exact decimal, never an exponent.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run one workload as the arguments ask.
pub fn run(args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let results = Path::new(RESULTS_DIR);
    let mut out = match (args.workload.plan, args.trace) {
        (Plan::Serial(points), false) => {
            serial_end_to_end(&specs(points), args.seed, budget, results)
        }
        (Plan::Serial(points), true) => layers::traced(&specs(points), args.seed, results),
        (Plan::Sweep(sets), false) => sweep::end_to_end(sets, args.seed, budget, results),
        (Plan::Sweep(sets), true) => sweep::traced(sets, args.seed, results),
    };
    if args.trace {
        for m in &PER_LAYER {
            if !out.metrics.contains_key(m.name) {
                out.absent
                    .entry(m.name)
                    .or_insert_with(|| "does not apply to this workload".to_string());
                out.metrics.insert(m.name, (0.0, m.unit));
            }
        }
    }
    out
}

fn specs(points: &[(gridmon_core::figures::SeriesId, u32)]) -> Vec<PointSpec> {
    points
        .iter()
        .map(|&(series, x)| PointSpec { series, x })
        .collect()
}

/// The committed-figure check applies at the default seed only; at any
/// other seed the determinism check stands alone.
pub fn wants_reference(seed: u64) -> bool {
    seed == DEFAULT_SEED
}

fn serial_end_to_end(points: &[PointSpec], seed: u64, budget: Duration, results: &Path) -> Outcome {
    let refs = wants_reference(seed).then(|| exec::references(points, results));
    let mut log = exec::run_passes(
        points,
        budget,
        PointSpec::key,
        |p| exec::execute(p, seed),
        |i, s| match &refs {
            Some(refs) => check::compare(&s.cells, refs[i].as_ref()?),
            None => Ok(()),
        },
    );
    exec::top_up_setup(points, seed, &mut log);
    let run_s: f64 = log.run.iter().map(|r| exec::median(r)).sum();
    let setup_s: f64 = log.setup.iter().map(|s| exec::median(s)).sum();
    let mut out = Outcome {
        detail: points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.key(),
                    format!(
                        "run_s median {:.4} over {} runs (raw wall {:?}), setup_s median {:.6} over {}",
                        exec::median(&log.run[i]),
                        log.run[i].len(),
                        log.raw_run[i].iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>(),
                        exec::median(&log.setup[i]),
                        log.setup[i].len()
                    ),
                )
            })
            .collect(),
        ..Outcome::default()
    };
    out.metrics.insert("run_s", (run_s, "s"));
    out.metrics.insert("setup_s", (setup_s, "s"));
    out.metrics
        .insert("peak_rss_mib", (exec::peak_rss_mib(), "MiB"));
    out.metrics
        .insert("point_ok_ratio", (log.tally.ok_ratio(), "ratio"));
    out.tally = log.tally;
    out
}

/// Command-line entry point; returns the process exit code.
pub fn main_entry() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gmbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if !Path::new(RESULTS_DIR).is_dir() {
        eprintln!("gmbench: run from the repository root (no {RESULTS_DIR}/ here)\n{USAGE}");
        return 2;
    }
    let out = run(&args);
    for (err, n) in &out.tally.errors {
        eprintln!("gmbench: FAILED x{n}: {err}");
    }
    let want: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    let metrics: Metrics = out
        .metrics
        .iter()
        .filter(|(k, _)| want.contains(k))
        .map(|(k, v)| (*k, *v))
        .collect();
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .chain(
            out.absent
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(&format!("absent {k}")), json_str(v))),
        )
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"detail\": {{{}}}}}",
        json_str(args.workload.name),
        args.seed,
        detail.join(", ")
    );
    let correct = out.tally.failed == 0 && out.tally.attempted > 0 && metrics.len() == want.len();
    println!(
        "{}",
        result_json(
            correct,
            out.tally.attempted.max(1),
            out.tally.failed,
            &metrics
        )
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload user-storm --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.name, "user-storm");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let d = parse_args(&argv("--workload giis-aggregation")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload user-storm --trace 2",
            "--workload user-storm --seconds 0",
            "--workload user-storm --seed",
            "--workload user-storm --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("run_s", (1.25, "s"));
        m.insert("point_ok_ratio", (f64::NAN, "ratio"));
        let line = result_json(true, 8, 0, &m);
        let v = gtrace::json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(8.0));
        assert_eq!(
            v.get("metrics")
                .and_then(|x| x.get("run_s"))
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {")
        );
    }
}
