//! Layer probes: a layer's public function called repeatedly on an input
//! sized from one point's post-run state, and timed from outside.
//!
//! Every probe returns the size of the input it was built from and
//! checks that the call did non-trivial work (a non-empty search result,
//! a match count above zero, ...), so a probe can never time an empty
//! call.

use classad::{matchmaker, parse_expr, ClassAd, CompiledExpr};
use gridmon_core::deploy::giis_suffix;
use ldapdir::{Dit, Filter, Scope};
use relsql::{Database, SqlValue};
use simcore::{Engine, SimDuration, SimTime};
use simnet::flow::FlowNet;
use simnet::{LinkId, NodeId, Topology};
use std::hint::black_box;
use std::time::Instant;

/// One probe result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Host nanoseconds per call (median of several timed batches).
    pub ns_per_call: f64,
    /// The size of the input the probe was built from.
    pub size: u64,
}

/// Timed batches per probe, and the host time one batch aims for.
const BATCHES: usize = 7;
const BATCH_NS: f64 = 4e6;

/// Median nanoseconds per call of `f`, in batches sized so each takes
/// about [`BATCH_NS`].  `f` returns the call's answer, which must be
/// non-zero every time.
fn time_per_call(what: &str, mut f: impl FnMut() -> u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let answer = black_box(f());
    let once = t0.elapsed().as_nanos().max(1) as f64;
    if answer == 0 {
        return Err(format!("{what}: the probe call did no work"));
    }
    let calls = (BATCH_NS / once).ceil().clamp(1.0, 1e6) as u64;
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    Ok(per_call[BATCHES / 2])
}

/// Events one dispatch-probe call fires beyond the initial ones.
const DISPATCH_EVENTS: u64 = 20_000;

/// `simcore.dispatch_ns`: a self-rescheduling event churn on an
/// [`Engine`] whose calendar holds `depth` pending events (the point's
/// calendar depth at window end).  Reports nanoseconds per event.
pub fn dispatch(depth: usize) -> Result<Probe, String> {
    struct W {
        left: u64,
    }
    fn tick(w: &mut W, eng: &mut Engine<W>) {
        if w.left > 0 {
            w.left -= 1;
            eng.schedule_in(SimDuration(1 + (w.left % 97) * 13), tick);
        }
    }
    let depth = depth.max(1);
    let fired = depth as u64 + DISPATCH_EVENTS;
    let ns = time_per_call("simcore dispatch", || {
        let mut eng: Engine<W> = Engine::new(1);
        let mut w = W {
            left: DISPATCH_EVENTS,
        };
        for i in 0..depth as u64 {
            eng.schedule_at(SimTime(i % 1000), tick);
        }
        eng.run_to_completion(&mut w);
        if eng.fired == fired {
            eng.fired
        } else {
            0
        }
    })?;
    Ok(Probe {
        ns_per_call: ns / fired as f64,
        size: depth as u64,
    })
}

/// `simnet.relevel_us`: start `flows` concurrent response flows from
/// `server` to the client hosts on the testbed topology (each start
/// re-levels the fair shares), then drain them to completion.
pub fn relevel(
    topo: &Topology,
    server: NodeId,
    clients: &[NodeId],
    flows: usize,
) -> Result<Probe, String> {
    if clients.is_empty() || flows == 0 {
        return Err("simnet relevel: no client hosts or no flows".into());
    }
    let paths: Vec<Vec<LinkId>> = (0..flows)
        .map(|i| topo.route(server, clients[i % clients.len()]).to_vec())
        .collect();
    if paths.iter().any(Vec::is_empty) {
        return Err("simnet relevel: a client shares the server's host".into());
    }
    let ns = time_per_call("simnet relevel", || {
        let mut net = FlowNet::new();
        let mut now = SimTime::ZERO;
        for (i, path) in paths.iter().enumerate() {
            net.start(
                topo,
                now,
                path.clone(),
                20_000 + (i as u64 % 7) * 5_000,
                i as u64,
            );
        }
        let mut done = 0;
        while let Some(t) = net.next_completion(now) {
            now = t;
            done += net.advance(topo, now).len();
        }
        if done == flows {
            done as u64
        } else {
            0
        }
    })?;
    Ok(Probe {
        ns_per_call: ns,
        size: flows as u64,
    })
}

/// A GIIS-shaped directory of at least `entries` entries: whole GRIS
/// subtrees of `mds::default_providers` grafted under `giis_suffix()`.
fn giis_dit(entries: usize) -> Dit {
    let suffix = giis_suffix();
    let mut dit = Dit::new(suffix.clone());
    let mut i = 0;
    while dit.len() < entries {
        let graft = suffix.child("Mds-Vo-name", &format!("sub-{i}-0"));
        for provider in mds::default_providers(&graft, &format!("host{i}"), 10, None) {
            for e in provider.entries {
                dit.add_with_parents(e)
                    .expect("generated provider entries have unique DNs");
            }
        }
        i += 1;
    }
    dit
}

/// `ldapdir.search_us.all` and `.part`: `Dit::search` over a GIIS-sized
/// directory with the two GIIS workload queries — everything, and the
/// cpu device groups only.
pub fn ldap_search(entries: usize) -> Result<(Probe, Probe), String> {
    let dit = giis_dit(entries);
    let base = giis_suffix();
    let all = Filter::any();
    let part = Filter::parse("(mds-device-group-name=cpu)").expect("valid filter");
    let size = dit.len() as u64;
    let search = |filter: &Filter, what: &str| {
        time_per_call(what, || dit.search(&base, Scope::Sub, filter).len() as u64).map(|ns| Probe {
            ns_per_call: ns,
            size,
        })
    };
    Ok((
        search(&all, "ldap search all")?,
        search(&part, "ldap search part")?,
    ))
}

/// The Registry's table, with `rows` registrations spread over the
/// canonical producer tables the way producer servlets register them.
fn registry_db(rows: usize) -> (Database, Vec<String>) {
    let tables: Vec<String> = rgma::producer::default_producers("site", 10)
        .into_iter()
        .map(|p| p.table)
        .collect();
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE producers (id INT PRIMARY KEY, servlet INT, tablename TEXT, predicate TEXT)",
    )
    .expect("schema");
    for i in 0..rows {
        db.insert_row(
            "producers",
            vec![
                SqlValue::Int(i as i64 + 1),
                SqlValue::Int(i as i64 / tables.len() as i64),
                SqlValue::Text(tables[i % tables.len()].clone()),
                SqlValue::Text(format!("site='s{}'", i / tables.len())),
            ],
        )
        .expect("insert");
    }
    (db, tables)
}

/// `relsql.lookup_us` (the Registry's lookup SELECT over its row count)
/// and `relsql.write_us` (an `insert_row` + `delete_where_eq` pair).
pub fn relsql(rows: usize) -> Result<(Probe, Probe), String> {
    let (mut db, tables) = registry_db(rows);
    let sql = format!("SELECT id FROM producers WHERE tablename = '{}'", tables[0]);
    let lookup = time_per_call("relsql lookup", || {
        db.execute(&sql).map_or(0, |r| r.rows.len() as u64)
    })?;
    let id = SqlValue::Int(i64::MAX);
    let write = time_per_call("relsql write", || {
        let row = vec![
            id.clone(),
            SqlValue::Int(0),
            SqlValue::Text(tables[1].clone()),
            SqlValue::Text("site='probe'".into()),
        ];
        if db.insert_row("producers", row).is_err() {
            return 0;
        }
        db.delete_where_eq("producers", "id", &id).unwrap_or(0) as u64
    })?;
    let size = rows as u64;
    Ok((
        Probe {
            ns_per_call: lookup,
            size,
        },
        Probe {
            ns_per_call: write,
            size,
        },
    ))
}

/// The constraint the match probe evaluates: true of every Hawkeye
/// startd ad, so a scan over a populated pool matches every ad.
pub const MATCH_CONSTRAINT: &str = "OpSys == \"LINUX\" && ModuleCount > 0";

/// `classad.match_ns`: `matches_constraint_compiled` over a Manager's
/// resident ads; nanoseconds per ad.
pub fn classad_match(ads: &[ClassAd]) -> Result<Probe, String> {
    if ads.is_empty() {
        return Err("classad match: no resident ads".into());
    }
    let expr = parse_expr(MATCH_CONSTRAINT).map_err(|e| format!("{e:?}"))?;
    let compiled = CompiledExpr::compile(&expr);
    let ns = time_per_call("classad match", || {
        ads.iter()
            .filter(|ad| matchmaker::matches_constraint_compiled(ad, &compiled))
            .count() as u64
    })?;
    Ok(Probe {
        ns_per_call: ns / ads.len() as f64,
        size: ads.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_their_input_sizes() {
        let p = dispatch(50).unwrap();
        assert_eq!(p.size, 50);
        assert!(p.ns_per_call > 0.0);

        let dit = giis_dit(500);
        assert!(dit.len() >= 500);
        let (all, part) = ldap_search(500).unwrap();
        assert_eq!(all.size, dit.len() as u64);
        assert_eq!(part.size, all.size);

        let (lookup, write) = relsql(40).unwrap();
        assert_eq!((lookup.size, write.size), (40, 40));
    }

    #[test]
    fn an_empty_answer_is_an_error_not_a_timing() {
        assert!(time_per_call("nothing", || 0).is_err());
        // An empty registry matches nothing: the lookup probe refuses it.
        assert!(relsql(0).is_err());
        assert!(classad_match(&[]).is_err());
    }

    #[test]
    fn match_probe_matches_hawkeye_ads() {
        let agent = hawkeye::Agent::new("lucky4", hawkeye::default_modules("lucky4", 11));
        let ads = vec![agent.build_startd_ad(); 3];
        let p = classad_match(&ads).unwrap();
        assert_eq!(p.size, 3);
    }

    #[test]
    fn relevel_drains_every_flow() {
        let tb = testbed_topology();
        let p = relevel(&tb.0, tb.1, &tb.2, 30).unwrap();
        assert_eq!(p.size, 30);
        assert!(relevel(&tb.0, tb.1, &[], 30).is_err());
    }

    fn testbed_topology() -> (Topology, NodeId, Vec<NodeId>) {
        let h = gridmon_core::deploy::Harness::new(gridmon_core::RunConfig::quick(1));
        let server = h.lucky("lucky0");
        let uc = h.uc.clone();
        (h.net.topo, server, uc)
    }
}
