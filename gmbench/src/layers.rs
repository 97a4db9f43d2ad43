//! The traced run of a serial workload: per-layer work counts and unit
//! costs, read from outside after each point has run.
//!
//! Each point runs three times:
//! 1. observability off (with the counting allocator, in the traced
//!    binary): host time, allocations, the public service and engine
//!    counters, and the layer probes sized from the post-run state;
//! 2. metrics registry on: the registry's counters, and the metrics
//!    overhead against run 1;
//! 3. trace ring on: `FlowStart`/`FlowRate` counts, kept only when the
//!    ring dropped nothing.
//!
//! Runs 2 and 3 must measure exactly what run 1 measured.

use crate::exec::{self, guarded, Tally};
use crate::probes::{self, Probe};
use crate::{calib, check, Outcome};
use classad::ClassAd;
use gridmon_core::deploy::Harness;
use gridmon_core::figures::PointSpec;
use gridmon_core::ObsMode;
use hawkeye::Manager;
use mds::{Giis, Gris};
use rgma::Registry;
use simnet::trace::{Ev, ObsReport};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Per-layer values of a workload, summed over its points.
#[derive(Debug, Default)]
pub struct Acc {
    pub sums: BTreeMap<&'static str, f64>,
    /// Probe per-call costs and input sizes, one entry per point where
    /// the probed layer is deployed.
    pub probes: BTreeMap<&'static str, Vec<f64>>,
    pub absent: BTreeMap<&'static str, String>,
}

impl Acc {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.sums.entry(name).or_default();
        *e = e.max(v);
    }

    fn probe(&mut self, cost: &'static str, size: &'static str, p: Probe, scale: f64) {
        self.probes
            .entry(cost)
            .or_default()
            .push(p.ns_per_call * scale);
        self.probes.entry(size).or_default().push(p.size as f64);
    }

    fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den` under `name`, or absent when the denominator is zero.
    fn ratio(&mut self, name: &'static str, num: f64, den: f64, why: &str) {
        if den > 0.0 {
            self.sums.insert(name, num / den);
        } else {
            self.absent.insert(name, why.to_string());
        }
    }
}

const NS_PER_US: f64 = 1e-3;

/// What the probes are sized from, read from one point's post-run state.
#[derive(Debug, Default)]
struct PostRun {
    /// Entries of the largest GIIS (the one the users query).
    giis_entries: usize,
    /// Rows of the Registry tables.
    registry_rows: usize,
    /// The Managers' resident ads.
    ads: Vec<ClassAd>,
}

/// Run 1's harvest of the public counters of one point's harness.
fn counters(h: &mut Harness, acc: &mut Acc) -> PostRun {
    let mut registries = Vec::new();
    let mut managers = Vec::new();
    let mut largest_giis = 0usize;
    for (key, slot) in h.net.services.iter() {
        acc.add(
            "simnet.requests_handled",
            slot.stats.requests_handled as f64,
        );
        acc.add(
            "simnet.oneways_received",
            slot.stats.oneways_received as f64,
        );
        acc.add("simnet.conns_refused", slot.stats.conns_refused as f64);
        if let Some(g) = h.net.service_as::<Giis>(key) {
            acc.add("ldapdir.aggregated_entries", g.aggregated_entries() as f64);
            acc.add("mds.giis_pulls", g.pulls as f64);
            acc.add("mds.registrations", g.registrations_seen as f64);
            largest_giis = largest_giis.max(g.aggregated_entries());
        }
        if let Some(g) = h.net.service_as::<Gris>(key) {
            acc.add("mds.gris_provider_runs", g.provider_runs as f64);
        }
        if let Some(r) = h.net.service_as::<Registry>(key) {
            acc.add("rgma.registry_lookups", r.lookups as f64);
            acc.add("rgma.registrations", r.registrations as f64);
            registries.push(key);
        }
        if let Some(m) = h.net.service_as::<Manager>(key) {
            acc.add("hawkeye.queries", m.queries as f64);
            acc.add("hawkeye.ads_received", m.ads_received as f64);
            acc.add("hawkeye.pool_size", m.pool_size() as f64);
            managers.push(key);
        }
    }
    acc.add("setup.services", h.net.services.len() as f64);
    acc.add("simcore.events", h.eng.fired as f64);
    acc.add("simcore.popped", h.eng.popped as f64);
    acc.add("simcore.advances", h.eng.advances as f64);
    let registry_rows = registries
        .iter()
        .filter_map(|&k| {
            h.net
                .service_as_mut::<Registry>(k)
                .map(|r| r.producer_count())
        })
        .sum();
    // A Manager's resident ads: the advertiser fleet's `simNNNN`
    // machines and the testbed hosts its agents run on.
    let hosts: Vec<String> = h
        .net
        .topo
        .node_ids()
        .map(|n| h.net.topo.node(n).name.clone())
        .collect();
    let mut ads = Vec::new();
    for &k in &managers {
        if let Some(m) = h.net.service_as::<Manager>(k) {
            let fleet = (0..m.pool_size()).map(|i| format!("sim{i:04}"));
            ads.extend(
                fleet
                    .chain(hosts.iter().cloned())
                    .filter_map(|name| m.ad_of(&name).cloned()),
            );
        }
    }
    PostRun {
        giis_entries: largest_giis,
        registry_rows,
        ads,
    }
}

/// The layer probes of one point, sized from its post-run state.
fn probe_point(p: &PointSpec, h: &Harness, post: &PostRun, acc: &mut Acc) -> Result<(), String> {
    let pr = probes::dispatch(h.eng.pending())?;
    acc.probe(
        "simcore.dispatch_ns",
        "simcore.dispatch_probe_depth",
        pr,
        1.0,
    );

    let spec = p.series.catalogue_spec();
    let server = h
        .net
        .topo
        .find_node(&spec.watch)
        .ok_or_else(|| format!("no watched host {:?}", spec.watch))?;
    let users = spec.workload.users.eval(p.x) as usize;
    let pr = probes::relevel(&h.net.topo, server, &h.uc, users)?;
    acc.probe(
        "simnet.relevel_us",
        "simnet.relevel_probe_flows",
        pr,
        NS_PER_US,
    );

    if post.giis_entries > 0 {
        let (all, part) = probes::ldap_search(post.giis_entries)?;
        acc.probe(
            "ldapdir.search_us.all",
            "ldapdir.search_probe_entries",
            all,
            NS_PER_US,
        );
        acc.probes
            .entry("ldapdir.search_us.part")
            .or_default()
            .push(part.ns_per_call * NS_PER_US);
    }
    if post.registry_rows > 0 {
        let (lookup, write) = probes::relsql(post.registry_rows)?;
        acc.probe("relsql.lookup_us", "relsql.probe_rows", lookup, NS_PER_US);
        acc.probes
            .entry("relsql.write_us")
            .or_default()
            .push(write.ns_per_call * NS_PER_US);
    }
    if !post.ads.is_empty() {
        let pr = probes::classad_match(&post.ads)?;
        acc.probe("classad.match_ns", "classad.probe_ads", pr, 1.0);
    }
    Ok(())
}

/// Normalized host seconds (see [`calib`]) of run 1 (observability off)
/// and run 2 (metrics on), and of run 1's set-up.
#[derive(Debug, Default)]
struct Times {
    off_s: f64,
    metrics_s: f64,
    setup_s: f64,
}

/// Observed run `obs` of a point; checks it measured what run 1 did.
/// Returns the report and the run's normalized host seconds.
fn observed(
    p: &PointSpec,
    seed: u64,
    obs: ObsMode,
    want: &str,
) -> Result<(ObsReport, f64), String> {
    let (mut h, _) = exec::compile(p, seed, obs);
    let c0 = calib::reading();
    let t0 = Instant::now();
    let op = h.run_and_observe(f64::from(p.x));
    let secs = calib::normalize(t0.elapsed().as_secs_f64(), c0, calib::reading());
    let got = check::identity(&op.m, h.eng.fired);
    if got != want {
        return Err(format!(
            "observed run ({}) differs: {got} vs {want}",
            obs.fingerprint()
        ));
    }
    Ok((op.report, secs))
}

fn metric_total(report: &ObsReport, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.total)
        .sum()
}

/// Fault events the injector reported (not the refusals they caused).
const FAULT_COUNTERS: [&str; 6] = [
    "fault.crashes",
    "fault.restarts",
    "fault.freezes",
    "fault.heals",
    "fault.partitions",
    "fault.conn_bursts",
];

fn traced_point(
    p: &PointSpec,
    seed: u64,
    reference: Option<&Result<[String; 4], String>>,
    acc: &mut Acc,
    times: &mut Times,
    flows: &mut FlowCounts,
    detail: &mut Vec<(String, String)>,
) -> Result<(), String> {
    // Run 1: observability off.
    gperf::alloc::reset_peak();
    let c0 = calib::reading();
    let (mut h, setup) = exec::compile(p, seed, ObsMode::OFF);
    let c1 = calib::reading();
    let a0 = gperf::alloc::stats();
    let t0 = Instant::now();
    let m = h.run_and_measure(f64::from(p.x));
    let run = t0.elapsed().as_secs_f64();
    let a1 = gperf::alloc::stats();
    let c2 = calib::reading();
    if let Some(r) = reference {
        check::compare(&check::figure_cells(p.series.set(), &m), r.as_ref()?)?;
    }
    let want = check::identity(&m, h.eng.fired);
    if let (Some(a0), Some(a1)) = (a0, a1) {
        acc.add("alloc.allocs", (a1.allocs - a0.allocs) as f64);
        acc.max("alloc.peak_bytes", a1.peak as f64);
    }
    acc.add("workload.completions", m.completions as f64);
    acc.add("workload.refused", m.refused as f64);
    let post = counters(&mut h, acc);
    probe_point(p, &h, &post, acc)?;
    let h_events = h.eng.fired;
    drop(h);

    // Run 2: metrics registry on.
    let (report, metrics_s) = observed(
        p,
        seed,
        ObsMode {
            trace: false,
            metrics: true,
        },
        &want,
    )?;
    for (metric, counter) in [
        ("ldapdir.searches", "mds.ldap_searches"),
        ("mds.cache_hits", "mds.cache_hits"),
        ("mds.cache_misses", "mds.cache_misses"),
        ("simnet.gsi_handshakes", "gsi.handshakes"),
        ("rgma.producer_queries", "rgma.producer_queries"),
        ("rgma.consumer_queries", "rgma.consumer_queries"),
        ("classad.match_evals", "hawkeye.match_evals"),
    ] {
        acc.add(metric, metric_total(&report, counter));
    }
    acc.add(
        "faults.events",
        FAULT_COUNTERS
            .iter()
            .map(|c| metric_total(&report, c))
            .sum(),
    );

    // Run 3: trace ring on.
    let (report, _) = observed(
        p,
        seed,
        ObsMode {
            trace: true,
            metrics: false,
        },
        &want,
    )?;
    acc.add("trace.dropped", report.dropped as f64);
    let point_flows = report
        .events
        .iter()
        .fold((0u64, 0u64), |(s, r), e| match e.ev {
            Ev::FlowStart { .. } => (s + 1, r),
            Ev::FlowRate { .. } => (s, r + 1),
            _ => (s, r),
        });
    if report.dropped == 0 {
        flows.starts += point_flows.0;
        flows.rate_updates += point_flows.1;
    } else {
        flows.incomplete.push(p.key());
    }

    times.off_s += calib::normalize(run, c1, c2);
    times.metrics_s += metrics_s;
    times.setup_s += calib::normalize(setup.as_secs_f64(), c0, c1);
    detail.push((
        p.key(),
        format!(
            "events {}, trace.dropped {}, flow_starts {}, flow_rate_updates {}",
            h_events,
            report.dropped,
            if report.dropped == 0 {
                point_flows.0.to_string()
            } else {
                "absent".into()
            },
            if report.dropped == 0 {
                point_flows.1.to_string()
            } else {
                "absent".into()
            },
        ),
    ));
    Ok(())
}

#[derive(Debug, Default)]
struct FlowCounts {
    starts: u64,
    rate_updates: u64,
    /// Points whose trace ring dropped events.
    incomplete: Vec<String>,
}

/// The traced run of a serial workload.
pub fn traced(points: &[PointSpec], seed: u64, results: &Path) -> Outcome {
    let refs = crate::wants_reference(seed).then(|| exec::references(points, results));
    let mut acc = Acc::default();
    let mut times = Times::default();
    let mut flows = FlowCounts::default();
    let mut tally = Tally::default();
    let mut detail = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let reference = refs.as_ref().map(|r| &r[i]);
        let outcome = guarded(|| {
            traced_point(
                p,
                seed,
                reference,
                &mut acc,
                &mut times,
                &mut flows,
                &mut detail,
            )
        })
        .and_then(|r| r);
        tally.record(&p.key(), outcome);
    }
    finish(&mut acc, &times, &flows);
    let mut out = Outcome {
        tally,
        absent: std::mem::take(&mut acc.absent),
        detail,
        ..Outcome::default()
    };
    crate::catalog::PER_LAYER.iter().for_each(|m| {
        if let Some(&v) = acc.sums.get(m.name) {
            out.metrics.insert(m.name, (v, m.unit));
        } else if let Some(vs) = acc.probes.get(m.name) {
            out.metrics
                .insert(m.name, (vs.iter().sum::<f64>() / vs.len() as f64, m.unit));
        }
    });
    out
}

/// Ratios and the metrics that need the whole workload.
fn finish(acc: &mut Acc, times: &Times, flows: &FlowCounts) {
    let events = acc.get("simcore.events");
    acc.ratio("simcore.events_per_s", events, times.off_s, "no point ran");
    acc.ratio(
        "mds.cache_hit_ratio",
        acc.get("mds.cache_hits"),
        acc.get("mds.cache_hits") + acc.get("mds.cache_misses"),
        "no MDS search reached a cache",
    );
    acc.ratio(
        "mds.host_us_per_query",
        times.off_s * 1e6,
        acc.get("ldapdir.searches"),
        "no LDAP search ran",
    );
    acc.ratio(
        "hawkeye.host_us_per_query",
        times.off_s * 1e6,
        acc.get("hawkeye.queries"),
        "no Hawkeye Manager query ran",
    );
    acc.ratio(
        "setup.us_per_service",
        times.setup_s * 1e6,
        acc.get("setup.services"),
        "no service was deployed",
    );
    acc.ratio(
        "trace.metrics_overhead_pct",
        (times.metrics_s - times.off_s) * 100.0,
        times.off_s,
        "no point ran",
    );
    if gperf::alloc::stats().is_some() {
        acc.ratio(
            "alloc.allocs_per_event",
            acc.get("alloc.allocs"),
            events,
            "no event fired",
        );
    } else {
        for name in ["alloc.allocs", "alloc.allocs_per_event", "alloc.peak_bytes"] {
            acc.sums.remove(name);
            acc.absent.insert(
                name,
                "built without the counting allocator (use the traced binary)".into(),
            );
        }
    }
    if flows.incomplete.is_empty() {
        acc.add("simnet.flow_starts", flows.starts as f64);
        acc.add("simnet.flow_rate_updates", flows.rate_updates as f64);
    } else {
        let why = format!("trace.dropped > 0 on {}", flows.incomplete.join(", "));
        acc.absent.insert("simnet.flow_starts", why.clone());
        acc.absent.insert("simnet.flow_rate_updates", why);
    }
}
