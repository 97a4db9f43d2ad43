//! Executing points from outside the program: compile, run, time, check.
//! A panic in one point is that point's failure, not the run's.

use crate::{calib, check};
use gridmon_core::deploy::Harness;
use gridmon_core::experiments::set5;
use gridmon_core::figures::PointSpec;
use gridmon_core::runcfg::RunConfig;
use gridmon_core::{scenario, ObsMode};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Setup samples per point: each timed pass gives one; compile-only
/// repetitions top them up to at least this many, and until they add up
/// to [`SETUP_MIN_S`] (small deployments compile in well under a
/// millisecond, so one sample would be mostly timer and cache noise).
pub const SETUP_SAMPLES: usize = 5;
pub const SETUP_MIN_S: f64 = 0.05;
pub const SETUP_MAX_SAMPLES: usize = 400;
pub const SETUP_BATCH_S: f64 = 0.01;

/// Executions per point at least, so the determinism check always has
/// two runs to compare.
pub const MIN_PASSES: usize = 2;

/// The paper-profile base configuration of a set; Set-5 points run under
/// the canonical fault schedule, exactly as `figures` runs them.
pub fn base_cfg(set: u32, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper(seed);
    if set == 5 {
        cfg.faults = set5::default_spec();
    }
    cfg
}

/// The configuration one point runs under (its derived seed included).
pub fn point_cfg(p: &PointSpec, seed: u64, obs: ObsMode) -> RunConfig {
    let mut cfg = p.cfg_for(&base_cfg(p.series.set(), seed));
    cfg.obs = obs;
    cfg
}

/// Deploy one point; returns the harness and the host time `compile` took.
pub fn compile(p: &PointSpec, seed: u64, obs: ObsMode) -> (Harness, Duration) {
    let spec = p.series.catalogue_spec();
    let cfg = point_cfg(p, seed, obs);
    let t0 = Instant::now();
    let h = scenario::compile(&spec, p.x, &cfg)
        .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", p.key()));
    (h, t0.elapsed())
}

/// Run `f`, turning a panic into an error carrying its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Attempted and failed point executions, with the distinct failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<String, u64>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            *self.errors.entry(format!("{what}: {e}")).or_default() += 1;
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// One timed execution of a point.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Normalized host seconds (see [`calib`]).
    pub setup_s: f64,
    pub run_s: f64,
    /// The run's raw wall seconds.
    pub raw_run_s: f64,
    /// Exact identity of the run (see [`check::identity`]).
    pub identity: String,
    /// The four figure cells the run produced.
    pub cells: [String; 4],
}

/// Compile and run one point with observability off.  `run_s` covers
/// the run and the harness' teardown; `setup_s` covers `compile`.  Both
/// are normalized by calibration readings taken just before and after.
pub fn execute(p: &PointSpec, seed: u64) -> Sample {
    let c0 = calib::reading();
    let (mut h, setup) = compile(p, seed, ObsMode::OFF);
    let c1 = calib::reading();
    let t0 = Instant::now();
    let m = h.run_and_measure(f64::from(p.x));
    let events = h.eng.fired;
    drop(h);
    let run = t0.elapsed().as_secs_f64();
    let c2 = calib::reading();
    Sample {
        setup_s: calib::normalize(setup.as_secs_f64(), c0, c1),
        run_s: calib::normalize(run, c1, c2),
        raw_run_s: run,
        identity: check::identity(&m, events),
        cells: check::figure_cells(p.series.set(), &m),
    }
}

/// Per-point timing samples of a serial workload.
#[derive(Debug, Default)]
pub struct PassLog {
    pub run: Vec<Vec<f64>>,
    pub raw_run: Vec<Vec<f64>>,
    pub setup: Vec<Vec<f64>>,
    pub passes: usize,
    pub tally: Tally,
}

/// Run every point in order, pass after pass, until `budget` has elapsed
/// and at least [`MIN_PASSES`] passes are done.  Each execution is
/// checked by `check` (the committed-figure check, if any) and against
/// the point's first execution (determinism); a panic or a failed check
/// counts as one failed point and the run goes on.
pub fn run_passes<P>(
    points: &[P],
    budget: Duration,
    what: impl Fn(&P) -> String,
    mut exec: impl FnMut(&P) -> Sample,
    check: impl Fn(usize, &Sample) -> Result<(), String>,
) -> PassLog {
    let mut log = PassLog {
        run: vec![Vec::new(); points.len()],
        raw_run: vec![Vec::new(); points.len()],
        setup: vec![Vec::new(); points.len()],
        ..PassLog::default()
    };
    let mut first: Vec<Option<String>> = vec![None; points.len()];
    let t0 = Instant::now();
    while log.passes < MIN_PASSES || t0.elapsed() < budget {
        for (i, p) in points.iter().enumerate() {
            let outcome = guarded(|| exec(p)).and_then(|s| {
                check(i, &s)?;
                match &first[i] {
                    Some(id) if *id != s.identity => {
                        return Err(format!(
                            "run differs from the first: {} vs {id}",
                            s.identity
                        ))
                    }
                    Some(_) => {}
                    None => first[i] = Some(s.identity.clone()),
                }
                log.run[i].push(s.run_s);
                log.raw_run[i].push(s.raw_run_s);
                log.setup[i].push(s.setup_s);
                Ok(())
            });
            log.tally.record(&what(p), outcome);
        }
        log.passes += 1;
    }
    log
}

/// The committed-figure check at the default seed: the expected cells of
/// each point, or the reason they cannot be read (which fails the point).
pub fn references(points: &[PointSpec], results: &Path) -> Vec<Result<[String; 4], String>> {
    points
        .iter()
        .map(|p| check::reference_cells(results, p))
        .collect()
}

/// Top the setup samples of each point up with compile-only repetitions
/// (see [`SETUP_SAMPLES`]; a point that never ran is skipped), in
/// batches of about [`SETUP_BATCH_S`] between two calibration readings.
pub fn top_up_setup(points: &[PointSpec], seed: u64, log: &mut PassLog) {
    let short = |s: &[f64]| {
        s.len() < SETUP_SAMPLES
            || (s.iter().sum::<f64>() < SETUP_MIN_S && s.len() < SETUP_MAX_SAMPLES)
    };
    for (i, p) in points.iter().enumerate() {
        while !log.setup[i].is_empty() && short(&log.setup[i]) {
            let before = calib::reading();
            let t0 = Instant::now();
            let mut raw = Vec::new();
            while raw.is_empty() || t0.elapsed().as_secs_f64() < SETUP_BATCH_S {
                match guarded(|| compile(p, seed, ObsMode::OFF).1) {
                    Ok(d) => raw.push(d.as_secs_f64()),
                    Err(_) => return,
                }
            }
            let after = calib::reading();
            log.setup[i].extend(raw.iter().map(|&r| calib::normalize(r, before, after)));
        }
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(run_s: f64, id: &str) -> Sample {
        Sample {
            setup_s: 0.001,
            run_s,
            raw_run_s: run_s,
            identity: id.to_string(),
            cells: Default::default(),
        }
    }

    #[test]
    fn a_panicking_point_counts_once_per_pass_and_the_run_goes_on() {
        let points = ["a", "boom", "c"];
        let mut ran = Vec::new();
        let log = run_passes(
            &points,
            Duration::ZERO,
            |p| p.to_string(),
            |p| {
                ran.push(*p);
                if *p == "boom" {
                    panic!("deliberate failure");
                }
                sample(0.5, p)
            },
            |_, _| Ok(()),
        );
        assert_eq!(log.passes, MIN_PASSES);
        assert_eq!(log.tally.attempted, 3 * MIN_PASSES as u64);
        assert_eq!(log.tally.failed, MIN_PASSES as u64);
        assert_eq!(ran, ["a", "boom", "c"].repeat(MIN_PASSES));
        assert_eq!(
            log.run[2],
            vec![0.5; MIN_PASSES],
            "the point after the failure ran"
        );
        assert!(log.run[1].is_empty());
        assert!(log
            .tally
            .errors
            .keys()
            .all(|k| k.contains("deliberate failure")));
    }

    #[test]
    fn one_failed_check_is_one_failed_point() {
        let points = [0, 1];
        let log = run_passes(
            &points,
            Duration::ZERO,
            |p| p.to_string(),
            |p| sample(0.1, &p.to_string()),
            |i, _| {
                if i == 1 {
                    Err("cells differ".into())
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(log.tally.failed, MIN_PASSES as u64);
        assert!((log.tally.ok_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_run_that_differs_from_the_first_fails_the_determinism_check() {
        let points = ["p"];
        let mut n = 0;
        let log = run_passes(
            &points,
            Duration::ZERO,
            |p| p.to_string(),
            |_| {
                n += 1;
                sample(0.1, if n == 1 { "x" } else { "y" })
            },
            |_, _| Ok(()),
        );
        assert_eq!(log.tally.attempted, MIN_PASSES as u64);
        assert_eq!(log.tally.failed, MIN_PASSES as u64 - 1);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
