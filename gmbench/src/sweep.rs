//! The runner workload: whole experiment sets through
//! `gridmon_runner::run_set_profiled` at one worker per core, first into
//! an empty scratch result cache (cold), then again from it (warm).

use crate::exec::{self, guarded, Tally};
use crate::{calib, check, Outcome};
use gperf::PerfSink;
use gridmon_core::figures::{enumerate_set, PointSpec, SetData};
use gridmon_core::runcfg::Measurement;
use gridmon_core::ObsMode;
use gridmon_runner::RunnerConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Scratch result caches live in the build directory, which git ignores;
/// each is removed when its sweep pair is done.
fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(format!(
        ".bench_build/gmbench-sweep-{}-{tag}",
        std::process::id()
    ))
}

/// One sweep over `sets`.
struct Sweep {
    /// Wall seconds, and the same normalized by calibration readings
    /// taken on every core just before and after (see [`crate::calib`]).
    wall_s: f64,
    norm_s: f64,
    /// Every phase of the sink but `execute`, normalized.
    setup_s: f64,
    points: Vec<(PointSpec, Measurement)>,
    sink: PerfSink,
}

fn points_of(set: u32, data: SetData) -> Result<Vec<(PointSpec, Measurement)>, String> {
    let specs = enumerate_set(set, 1.0).map_err(|e| e.to_string())?;
    let ms: Vec<Measurement> = data.series.into_iter().flat_map(|(_, pts)| pts).collect();
    if ms.len() != specs.len() {
        return Err(format!(
            "set {set}: {} results for {} points",
            ms.len(),
            specs.len()
        ));
    }
    Ok(specs.into_iter().zip(ms).collect())
}

fn sweep(sets: &[u32], seed: u64, cache: &Path, obs: ObsMode) -> Result<Sweep, String> {
    let rc = RunnerConfig {
        jobs: 0,
        cache_dir: Some(cache.to_path_buf()),
        quiet: true,
    };
    let mut sink = PerfSink::new();
    let mut points = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = calib::reading_all_cores(cores);
    let t0 = Instant::now();
    for &set in sets {
        let mut cfg = exec::base_cfg(set, seed);
        cfg.obs = obs;
        let (data, _) = gridmon_runner::run_set_profiled(set, &cfg, 1.0, &rc, Some(&mut sink))
            .map_err(|e| e.to_string())?;
        points.extend(points_of(set, data)?);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = calib::reading_all_cores(cores);
    let setup_s: f64 = sink
        .phases
        .entries()
        .iter()
        .filter(|(name, _)| name != "execute")
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    Ok(Sweep {
        wall_s,
        norm_s: calib::normalize(wall_s, before, after),
        setup_s: calib::normalize(setup_s, before, after),
        points,
        sink,
    })
}

fn point_count(sets: &[u32]) -> u64 {
    sets.iter()
        .map(|&s| enumerate_set(s, 1.0).map_or(0, |v| v.len() as u64))
        .sum()
}

/// Checks a sweep's points: committed figures (default seed), the first
/// cold sweep (determinism) and, for a warm sweep, the cold one.
struct Checker {
    references: Option<BTreeMap<String, Result<[String; 4], String>>>,
    first: BTreeMap<String, String>,
}

impl Checker {
    fn new(sets: &[u32], seed: u64, results: &Path) -> Checker {
        let references = crate::wants_reference(seed).then(|| {
            sets.iter()
                .flat_map(|&s| enumerate_set(s, 1.0).unwrap_or_default())
                .map(|p| (p.key(), check::reference_cells(results, &p)))
                .collect()
        });
        Checker {
            references,
            first: BTreeMap::new(),
        }
    }

    fn check(&mut self, p: &PointSpec, m: &Measurement) -> Result<(), String> {
        let key = p.key();
        if let Some(refs) = &self.references {
            let want = refs
                .get(&key)
                .ok_or("point missing from the reference set")?;
            check::compare(&check::figure_cells(p.series.set(), m), want.as_ref()?)?;
        }
        let got = format!("{m:?}");
        match self.first.get(&key) {
            Some(first) if *first != got => Err(format!("sweep result differs: {got} vs {first}")),
            Some(_) => Ok(()),
            None => {
                self.first.insert(key, got);
                Ok(())
            }
        }
    }

    fn record(&mut self, tally: &mut Tally, sets: &[u32], what: &str, s: &Result<Sweep, String>) {
        match s {
            Ok(s) => {
                for (p, m) in &s.points {
                    let outcome = self.check(p, m);
                    tally.record(&format!("{what} {}", p.key()), outcome);
                }
            }
            Err(e) => {
                let n = point_count(sets);
                tally.attempted += n;
                tally.failed += n;
                *tally
                    .errors
                    .entry(format!("{what} sweep: {e}"))
                    .or_default() += n;
            }
        }
    }
}

/// A cold sweep into a fresh scratch cache and the warm sweep after it.
fn cold_warm(
    sets: &[u32],
    seed: u64,
    tag: &str,
    obs: ObsMode,
) -> (Result<Sweep, String>, Result<Sweep, String>) {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let cold = guarded(|| sweep(sets, seed, &dir, obs)).and_then(|r| r);
    let warm = match &cold {
        Ok(_) => guarded(|| sweep(sets, seed, &dir, obs)).and_then(|r| r),
        Err(_) => Err("the cold sweep failed".to_string()),
    };
    let _ = std::fs::remove_dir_all(&dir);
    (cold, warm)
}

pub fn end_to_end(sets: &[u32], seed: u64, budget: Duration, results: &Path) -> Outcome {
    let mut checker = Checker::new(sets, seed, results);
    let mut tally = Tally::default();
    let (mut cold_s, mut raw_s, mut setup_s, mut warm_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut reps = 0;
    while reps < exec::MIN_PASSES || t0.elapsed() < budget {
        let (cold, warm) = cold_warm(sets, seed, &reps.to_string(), ObsMode::OFF);
        checker.record(&mut tally, sets, "cold", &cold);
        checker.record(&mut tally, sets, "warm", &warm);
        if let (Ok(c), Ok(w)) = (&cold, &warm) {
            cold_s.push(c.norm_s);
            raw_s.push(c.wall_s);
            setup_s.push(c.setup_s);
            warm_s.push(w.wall_s);
        }
        reps += 1;
    }
    let mut out = Outcome {
        detail: vec![(
            "sweep".to_string(),
            format!(
                "{reps} cold+warm pairs; cold run_s median {:.4} (raw wall {:?}), warm wall median {:.5}, setup_s median {:.5}",
                exec::median(&cold_s),
                raw_s.iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>(),
                exec::median(&warm_s),
                exec::median(&setup_s)
            ),
        )],
        ..Outcome::default()
    };
    out.metrics.insert("run_s", (exec::median(&cold_s), "s"));
    out.metrics.insert("setup_s", (exec::median(&setup_s), "s"));
    out.metrics
        .insert("peak_rss_mib", (exec::peak_rss_mib(), "MiB"));
    out.metrics
        .insert("point_ok_ratio", (tally.ok_ratio(), "ratio"));
    out.tally = tally;
    out
}

pub fn traced(sets: &[u32], seed: u64, results: &Path) -> Outcome {
    let mut checker = Checker::new(sets, seed, results);
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    gperf::alloc::reset_peak();
    let a0 = gperf::alloc::stats();
    let (cold, warm) = cold_warm(sets, seed, "off", ObsMode::OFF);
    let a1 = gperf::alloc::stats();
    let metrics_on = ObsMode {
        trace: false,
        metrics: true,
    };
    let (observed, _) = cold_warm(sets, seed, "metrics", metrics_on);
    checker.record(&mut tally, sets, "cold", &cold);
    checker.record(&mut tally, sets, "warm", &warm);
    checker.record(&mut tally, sets, "metrics-on", &observed);

    let mut put = |name: &'static str, v: f64| {
        let unit = crate::catalog::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("count", |m| m.unit);
        out.metrics.insert(name, (v, unit));
    };
    if let Ok(c) = &cold {
        let t = c.sink.totals();
        let busy: Vec<f64> = c.sink.pool.busy.iter().map(Duration::as_secs_f64).collect();
        let max = busy.iter().copied().fold(0.0, f64::max);
        let min = busy.iter().copied().fold(f64::INFINITY, f64::min);
        put("runner.pool_busy_share", c.sink.pool.busy_share());
        put(
            "runner.imbalance_s",
            if busy.is_empty() { 0.0 } else { max - min },
        );
        put("runner.points_executed", t.executed as f64);
        put(
            "runner.cache_bytes_written",
            c.sink.cache.bytes_written as f64,
        );
        put("simcore.events", t.events as f64);
        put("simcore.popped", t.popped as f64);
        put("simcore.advances", t.advances as f64);
        if t.exec_wall > Duration::ZERO {
            put(
                "simcore.events_per_s",
                t.events as f64 / t.exec_wall.as_secs_f64(),
            );
        }
        put(
            "workload.completions",
            c.points.iter().map(|(_, m)| m.completions as f64).sum(),
        );
        put(
            "workload.refused",
            c.points.iter().map(|(_, m)| m.refused as f64).sum(),
        );
        if let (Some(a0), Some(a1)) = (a0, a1) {
            put("alloc.allocs", (a1.allocs - a0.allocs) as f64);
            put("alloc.peak_bytes", a1.peak as f64);
            if t.events > 0 {
                put(
                    "alloc.allocs_per_event",
                    (a1.allocs - a0.allocs) as f64 / t.events as f64,
                );
            }
        }
        if let Ok(o) = &observed {
            put(
                "trace.metrics_overhead_pct",
                (o.norm_s / c.norm_s - 1.0) * 100.0,
            );
        }
    }
    if let Ok(w) = &warm {
        put("runner.warm_sweep_s", w.wall_s);
    }
    if a0.is_none() {
        for name in ["alloc.allocs", "alloc.allocs_per_event", "alloc.peak_bytes"] {
            out.absent.insert(
                name,
                "built without the counting allocator (use the traced binary)".into(),
            );
        }
    }
    out.tally = tally;
    out
}
