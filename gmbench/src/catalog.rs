//! What the benchmark runs and what it reports: the four workloads and
//! every metric, each with the layer it belongs to and the end-to-end
//! metric and workload a change to that layer should move.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use gridmon_core::experiments::{Set1Series, Set2Series, Set4Series, Set5Series, Set6Series};
use gridmon_core::figures::SeriesId;

/// The workload seed when none is given (HPDC'03, Seattle) — the seed the
/// committed `results/figNN.csv` files were generated with.
pub const DEFAULT_SEED: u64 = 20030622;

/// How a workload executes its points.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Paper-profile points, run in order on one thread.
    Serial(&'static [(SeriesId, u32)]),
    /// Whole experiment sets through `gridmon_runner::run_set_profiled`
    /// at one worker per core, first into an empty result cache, then warm.
    Sweep(&'static [u32]),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub plan: Plan,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "giis-aggregation",
        why: "set4 GIIS query part x=500 and query all x=200, set6 GIIS flat and 6-branch x=200: aggregation of 200-500 GRIS subtrees; host time in mds glue, ldapdir search, big flows",
        plan: Plan::Serial(&[
            (SeriesId::S4(Set4Series::GiisQueryPart), 500),
            (SeriesId::S4(Set4Series::GiisQueryAll), 200),
            (SeriesId::S6(Set6Series::FlatGiis), 200),
            (SeriesId::S6(Set6Series::Federated6), 200),
        ]),
    },
    Workload {
        name: "user-storm",
        why: "set1 GRIS(cache), Hawkeye Agent, ProducerServlet(lucky), set2 GIIS, 600 closed-loop users each: simcore dispatch, simnet admission, clients; GIIS glue on a tiny DIT",
        plan: Plan::Serial(&[
            (SeriesId::S1(Set1Series::GrisCache), 600),
            (SeriesId::S1(Set1Series::HawkeyeAgent), 600),
            (SeriesId::S1(Set1Series::ProducerServletLucky), 600),
            (SeriesId::S2(Set2Series::Giis), 600),
        ]),
    },
    Workload {
        name: "match-and-registry",
        why: "set4 Manager x=1000 scans every ad, set2 Manager x=500 answers by index, set2 Registry(lucky) x=600, set5 producer churn x=5: classad matching, relsql reads and writes",
        plan: Plan::Serial(&[
            (SeriesId::S4(Set4Series::HawkeyeManager), 1000),
            (SeriesId::S2(Set2Series::HawkeyeManager), 500),
            (SeriesId::S2(Set2Series::RegistryLucky), 600),
            (SeriesId::S5(Set5Series::RgmaRegistry), 5),
        ]),
    },
    Workload {
        name: "sweep-cold-warm",
        why: "all 54 points of sets 3 and 5 via run_set_profiled at one job per core, into an empty result cache and then warm: runner pool, per-point overhead, cache, fault injection",
        plan: Plan::Sweep(&[3, 5]),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric's value comes about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum How {
    /// A deterministic count: identical on every run of the same code
    /// and seed.
    Exact,
    /// A host measurement — time (or a ratio with one in it) or memory —
    /// which varies from run to run.
    Measured,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub how: How,
    /// The end-to-end metric and workload a change in this one should
    /// move (and, where it matters, where it should not).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: How,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        how,
        moves,
    }
}

use Better::{Higher, Lower};
use How::{Exact, Measured};

/// Reported with `--trace 0`, timed with observability off.  `bound` is
/// the share of the parent's median by which the metric may worsen.
pub const END_TO_END: [(Metric, f64); 4] = [
    (
        m(
            "run_s",
            "s",
            Lower,
            Measured,
            "host seconds to run the points at the calibration reference speed, median per point over passes (sweep: cold sweep wall)",
        ),
        0.25,
    ),
    (
        m(
            "setup_s",
            "s",
            Lower,
            Measured,
            "host seconds in scenario::compile at reference speed, median per point (sweep: non-execute phases of its PerfSink)",
        ),
        0.25,
    ),
    (
        m("peak_rss_mib", "MiB", Lower, Measured, "VmHWM of the process that ran the workload"),
        0.10,
    ),
    (
        m(
            "point_ok_ratio",
            "ratio",
            Higher,
            Exact,
            "points that ran and passed their output checks / points attempted (1 - point_fail_ratio)",
        ),
        0.01,
    ),
];

/// Reported with `--trace 1`, from a separate traced run.
pub const PER_LAYER: [Metric; 55] = [
    // simcore
    m(
        "simcore.events",
        "count",
        Lower,
        Exact,
        "run_s on user-storm; almost nothing on giis-aggregation",
    ),
    m(
        "simcore.popped",
        "count",
        Lower,
        Exact,
        "run_s on user-storm",
    ),
    m(
        "simcore.advances",
        "count",
        Lower,
        Exact,
        "run_s on user-storm",
    ),
    m(
        "simcore.events_per_s",
        "1/s",
        Higher,
        Measured,
        "run_s on user-storm",
    ),
    m(
        "simcore.dispatch_ns",
        "ns",
        Lower,
        Measured,
        "run_s on user-storm; almost nothing on giis-aggregation",
    ),
    m(
        "simcore.dispatch_probe_depth",
        "count",
        Higher,
        Exact,
        "probe input: calendar depth at window end",
    ),
    // simnet
    m(
        "simnet.requests_handled",
        "count",
        Higher,
        Exact,
        "behaviour context; run_s on user-storm",
    ),
    m(
        "simnet.oneways_received",
        "count",
        Higher,
        Exact,
        "behaviour context",
    ),
    m(
        "simnet.conns_refused",
        "count",
        Lower,
        Exact,
        "run_s on user-storm (admission)",
    ),
    m(
        "simnet.gsi_handshakes",
        "count",
        Lower,
        Exact,
        "run_s on user-storm (admission)",
    ),
    m(
        "simnet.flow_starts",
        "count",
        Lower,
        Exact,
        "run_s on giis-aggregation (pull storms)",
    ),
    m(
        "simnet.flow_rate_updates",
        "count",
        Lower,
        Exact,
        "run_s on giis-aggregation and user-storm",
    ),
    m(
        "simnet.relevel_us",
        "us",
        Lower,
        Measured,
        "run_s on giis-aggregation (pull storms) and user-storm (admission)",
    ),
    m(
        "simnet.relevel_probe_flows",
        "count",
        Higher,
        Exact,
        "probe input: the point's concurrent users",
    ),
    // ldapdir
    m(
        "ldapdir.searches",
        "count",
        Higher,
        Exact,
        "run_s on giis-aggregation",
    ),
    m(
        "ldapdir.aggregated_entries",
        "count",
        Higher,
        Exact,
        "run_s and peak_rss_mib on giis-aggregation",
    ),
    m(
        "ldapdir.search_us.all",
        "us",
        Lower,
        Measured,
        "run_s on giis-aggregation; no change on match-and-registry",
    ),
    m(
        "ldapdir.search_us.part",
        "us",
        Lower,
        Measured,
        "run_s on giis-aggregation; no change on match-and-registry",
    ),
    m(
        "ldapdir.search_probe_entries",
        "count",
        Higher,
        Exact,
        "probe input: entries of the point's largest GIIS",
    ),
    // mds
    m(
        "mds.cache_hits",
        "count",
        Higher,
        Exact,
        "run_s on giis-aggregation",
    ),
    m(
        "mds.cache_misses",
        "count",
        Lower,
        Exact,
        "run_s on giis-aggregation",
    ),
    m(
        "mds.cache_hit_ratio",
        "ratio",
        Higher,
        Exact,
        "run_s on giis-aggregation",
    ),
    m(
        "mds.giis_pulls",
        "count",
        Lower,
        Exact,
        "run_s and setup_s on giis-aggregation",
    ),
    m(
        "mds.registrations",
        "count",
        Lower,
        Exact,
        "run_s on giis-aggregation",
    ),
    m(
        "mds.gris_provider_runs",
        "count",
        Lower,
        Exact,
        "run_s on user-storm",
    ),
    m(
        "mds.host_us_per_query",
        "us",
        Lower,
        Measured,
        "run_s on giis-aggregation",
    ),
    // rgma + relsql
    m(
        "rgma.registry_lookups",
        "count",
        Higher,
        Exact,
        "run_s on match-and-registry",
    ),
    m(
        "rgma.registrations",
        "count",
        Lower,
        Exact,
        "run_s on match-and-registry (churn point)",
    ),
    m(
        "rgma.producer_queries",
        "count",
        Higher,
        Exact,
        "run_s on user-storm",
    ),
    m(
        "rgma.consumer_queries",
        "count",
        Higher,
        Exact,
        "run_s on match-and-registry (churn point)",
    ),
    m(
        "relsql.lookup_us",
        "us",
        Lower,
        Measured,
        "run_s on match-and-registry (lookup points)",
    ),
    m(
        "relsql.write_us",
        "us",
        Lower,
        Measured,
        "run_s on match-and-registry (churn point, not the lookup point)",
    ),
    m(
        "relsql.probe_rows",
        "count",
        Higher,
        Exact,
        "probe input: the Registry's row count",
    ),
    // hawkeye + classad
    m(
        "hawkeye.queries",
        "count",
        Higher,
        Exact,
        "run_s on match-and-registry",
    ),
    m(
        "hawkeye.ads_received",
        "count",
        Higher,
        Exact,
        "run_s on match-and-registry",
    ),
    m(
        "hawkeye.pool_size",
        "count",
        Higher,
        Exact,
        "probe input context: ads resident in the Managers",
    ),
    m(
        "hawkeye.host_us_per_query",
        "us",
        Lower,
        Measured,
        "run_s on match-and-registry",
    ),
    m(
        "classad.match_evals",
        "count",
        Lower,
        Exact,
        "run_s on match-and-registry, only through the set-4 point",
    ),
    m(
        "classad.match_ns",
        "ns",
        Lower,
        Measured,
        "run_s on match-and-registry, only through the set-4 point",
    ),
    m(
        "classad.probe_ads",
        "count",
        Higher,
        Exact,
        "probe input: the Managers' resident ads",
    ),
    // workload + faults (behaviour context: a change that moves them changed behaviour)
    m(
        "workload.completions",
        "count",
        Higher,
        Exact,
        "behaviour context",
    ),
    m(
        "workload.refused",
        "count",
        Lower,
        Exact,
        "behaviour context",
    ),
    m("faults.events", "count", Lower, Exact, "behaviour context"),
    // scenario + core deploy
    m(
        "setup.services",
        "count",
        Lower,
        Exact,
        "setup_s on giis-aggregation",
    ),
    m(
        "setup.us_per_service",
        "us",
        Lower,
        Measured,
        "setup_s on giis-aggregation",
    ),
    // alloc
    m("alloc.allocs", "count", Lower, Exact, "run_s everywhere"),
    m(
        "alloc.allocs_per_event",
        "allocs/event",
        Lower,
        Exact,
        "run_s everywhere",
    ),
    m(
        "alloc.peak_bytes",
        "bytes",
        Lower,
        Exact,
        "peak_rss_mib on giis-aggregation",
    ),
    // runner (sweep only)
    m(
        "runner.pool_busy_share",
        "ratio",
        Higher,
        Measured,
        "run_s on sweep-cold-warm only",
    ),
    m(
        "runner.imbalance_s",
        "s",
        Lower,
        Measured,
        "run_s on sweep-cold-warm only",
    ),
    m(
        "runner.points_executed",
        "count",
        Higher,
        Exact,
        "run_s on sweep-cold-warm only",
    ),
    m(
        "runner.cache_bytes_written",
        "bytes",
        Lower,
        Exact,
        "run_s on sweep-cold-warm only",
    ),
    m(
        "runner.warm_sweep_s",
        "s",
        Lower,
        Measured,
        "the warm half of sweep-cold-warm",
    ),
    // trace
    m(
        "trace.metrics_overhead_pct",
        "%",
        Lower,
        Measured,
        "none: cost of the metrics registry, which run_s excludes",
    ),
    m(
        "trace.dropped",
        "count",
        Lower,
        Exact,
        "none: events the trace ring dropped",
    ),
];

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`: the names the benchmark contract
/// admits.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n:?}");
        }
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
    }

    #[test]
    fn readme_documents_every_metric() {
        let readme = include_str!("../README.md");
        for m in &PER_LAYER {
            let kind = match m.how {
                How::Exact => "exact",
                How::Measured => "measured",
            };
            let row = format!(
                "| `{}` | {} | {} | {kind} | {} |",
                m.name,
                m.unit,
                m.better.as_str(),
                m.moves
            );
            assert!(readme.contains(&row), "README.md lacks {row}");
        }
        for (m, _) in &END_TO_END {
            assert!(
                readme.contains(&format!("`{}` —", m.name)),
                "README.md lacks {}",
                m.name
            );
        }
    }

    #[test]
    fn valid_name_rejects_what_the_contract_rejects() {
        assert!(valid_name("ldapdir.search_us.all"));
        assert!(valid_name("0x-1_a"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("run/s"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside gmbench/");
        let doc = gtrace::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or(&[])
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(|n| n.as_str())
                        .unwrap_or("")
                        .to_string()
                })
                .collect()
        };
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), want);
        for (e, w) in doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap_or(&[])
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(
                e.get("why").and_then(|y| y.as_str()),
                Some(w.why),
                "{}",
                w.name
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let want: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.name).collect();
        assert_eq!(names("end_to_end"), want);
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), want);
        for (key, metrics) in [
            (
                "end_to_end",
                END_TO_END.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            ),
            ("per_layer", PER_LAYER.to_vec()),
        ] {
            let entries = doc.get(key).and_then(|v| v.as_arr()).unwrap_or(&[]);
            for (e, m) in entries.iter().zip(&metrics) {
                assert_eq!(
                    e.get("unit").and_then(|u| u.as_str()),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    e.get("better").and_then(|u| u.as_str()),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(crate::RUN_SECONDS as f64)
        );
        let entries = doc
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .unwrap_or(&[]);
        for (e, (m, bound)) in entries.iter().zip(&END_TO_END) {
            assert_eq!(
                e.get("bound").and_then(|b| b.as_f64()),
                Some(*bound),
                "{}",
                m.name
            );
        }
    }
}
