//! Incremental max-min fair-share vs the from-scratch water-filler.
//!
//! `FlowNet` re-levels only the connected component a mutation touches;
//! the oracle (`gridmon_diff::flownet::water_fill`) water-fills every live
//! flow from scratch, from the `(token, path)` pairs the test recorded as
//! it started them.  After every mutation of a random schedule the two
//! must agree on every flow's rate, bit for bit.

use std::collections::BTreeMap;

use gridmon_diff::flownet::water_fill;
use proptest::prelude::*;
use simcore::{SimRng, SimTime};
use simnet::flow::{FlowKey, FlowNet, FlowToken};
use simnet::topology::{LinkId, Topology};

fn build_topology(link_caps: &[f64], seed_latency_us: u64) -> (Topology, Vec<LinkId>) {
    let mut t = Topology::new();
    let _ = t.add_node("host", 1, 1.0);
    let links = link_caps
        .iter()
        .enumerate()
        .map(|(i, &cap)| {
            t.add_link(
                format!("l{i}"),
                cap,
                simcore::SimDuration::from_micros(seed_latency_us),
            )
        })
        .collect();
    (t, links)
}

/// A `FlowNet` plus the `(token, path)` of every live flow, in key order:
/// the oracle's input.
struct Tracked {
    net: FlowNet,
    live: BTreeMap<FlowKey, (FlowToken, Vec<LinkId>)>,
}

impl Tracked {
    fn new() -> Self {
        Tracked {
            net: FlowNet::new(),
            live: BTreeMap::new(),
        }
    }

    fn start(
        &mut self,
        topo: &Topology,
        now: SimTime,
        path: Vec<LinkId>,
        bytes: u64,
        token: FlowToken,
    ) -> FlowKey {
        let k = self.net.start(topo, now, path.clone(), bytes, token);
        self.live.insert(k, (token, path));
        k
    }

    fn abort(&mut self, topo: &Topology, k: FlowKey) {
        assert_eq!(
            self.net.abort(topo, k),
            self.live.remove(&k).map(|(t, _)| t)
        );
    }

    /// Advance to `now`, dropping the flows the net reports completed.
    fn advance(&mut self, topo: &Topology, now: SimTime) {
        let done = self.net.advance(topo, now);
        self.live.retain(|_, (tok, _)| !done.contains(tok));
    }

    /// Assert the incremental rate vector equals the oracle's, bit for bit.
    fn assert_matches_oracle(&self, topo: &Topology, context: &str) {
        let mut fast = Vec::new();
        self.net
            .for_each_rate(|tok, r| fast.push((tok, r.to_bits())));
        let flows: Vec<(FlowToken, &[LinkId])> = self
            .live
            .values()
            .map(|(tok, path)| (*tok, path.as_slice()))
            .collect();
        let slow: Vec<(FlowToken, u64)> = water_fill(topo, &flows)
            .into_iter()
            .map(|(tok, r)| (tok, r.to_bits()))
            .collect();
        assert_eq!(
            fast, slow,
            "incremental diverged from reference after {context}"
        );
    }
}

proptest! {
    /// Random link-capacity vectors and start/abort/complete schedules:
    /// the incremental kernel tracks the oracle through every mutation.
    #[test]
    fn random_schedule_agrees(
        caps in proptest::collection::vec(0.1f64..20.0, 1..8),
        seed in any::<u64>(),
        steps in 20usize..120,
    ) {
        let caps_bps: Vec<f64> = caps.iter().map(|c| c * 1e6).collect();
        let (topo, links) = build_topology(&caps_bps, 5);
        let mut t = Tracked::new();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime(0);
        let mut live = Vec::new();
        for step in 0..steps as u64 {
            match rng.next_below(4) {
                0 | 1 => {
                    // Start: biased toward short, overlapping paths.
                    let mut path = Vec::new();
                    for &l in &links {
                        if rng.chance(0.35) {
                            path.push(l);
                        }
                    }
                    let bytes = rng.next_below(100_000);
                    live.push(t.start(&topo, now, path, bytes, step));
                }
                2 => {
                    if !live.is_empty() {
                        let i = rng.next_below(live.len() as u64) as usize;
                        let k = live.swap_remove(i);
                        t.abort(&topo, k);
                    }
                }
                _ => {
                    if let Some(next) = t.net.next_completion(now) {
                        now = next;
                        t.advance(&topo, now);
                        live.retain(|&k| t.net.rate_of(k).is_some());
                    }
                }
            }
            t.assert_matches_oracle(&topo, &format!("step {step}"));
        }
        // Drain: completions must keep agreeing until the net is empty.
        while let Some(next) = t.net.next_completion(now) {
            now = next;
            t.advance(&topo, now);
            t.assert_matches_oracle(&topo, "drain");
        }
        prop_assert_eq!(t.net.active(), 0);
        prop_assert!(t.live.is_empty());
    }

    /// Capacity changes (fault injection) re-level with every link as a
    /// seed and must leave the net in a state the oracle reproduces.
    #[test]
    fn capacity_change_resyncs(seed in any::<u64>()) {
        let (topo, links) = build_topology(&[4e6, 8e6, 2e6], 1);
        let mut t = Tracked::new();
        let mut rng = SimRng::new(seed);
        for tok in 0..12u64 {
            let mut path = Vec::new();
            for &l in &links {
                if rng.chance(0.5) {
                    path.push(l);
                }
            }
            t.start(&topo, SimTime(0), path, 10_000 + tok, tok);
        }
        t.net.capacity_changed(&topo);
        t.assert_matches_oracle(&topo, "capacity_changed");
        // And incremental mutations on top of the resync still agree.
        let k = t.start(&topo, SimTime(0), vec![links[1]], 5000, 99);
        t.assert_matches_oracle(&topo, "start after capacity_changed");
        t.abort(&topo, k);
        t.assert_matches_oracle(&topo, "abort after capacity_changed");
    }

    /// Link capacities drawn from {1, 2, 4} Mbit/s, so bottleneck shares
    /// tie across links, and paths that may cross a link more than once
    /// (a flow contending with itself).  This is where the kernel's
    /// explicit lowest-index tie-break and per-crossing accounting must
    /// reproduce the oracle's ascending scan.  Capacities also change
    /// mid-schedule, within the same set.
    #[test]
    fn tied_shares_and_revisited_links_agree(
        caps in proptest::collection::vec(0u32..3, 2..6),
        seed in any::<u64>(),
        steps in 40usize..160,
    ) {
        let caps_bps: Vec<f64> = caps.iter().map(|&c| f64::from(1u32 << c) * 1e6).collect();
        let (mut topo, links) = build_topology(&caps_bps, 2);
        let mut t = Tracked::new();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime(0);
        let mut live = Vec::new();
        for step in 0..steps as u64 {
            match rng.next_below(6) {
                0..=2 => {
                    // One to four hops, each drawn independently: repeats
                    // make a flow cross the same link twice.
                    let hops = 1 + rng.next_below(4);
                    let path: Vec<LinkId> = (0..hops)
                        .map(|_| links[rng.next_below(links.len() as u64) as usize])
                        .collect();
                    let bytes = 1_000 + rng.next_below(50_000);
                    live.push(t.start(&topo, now, path, bytes, step));
                }
                3 => {
                    if !live.is_empty() {
                        let i = rng.next_below(live.len() as u64) as usize;
                        let k = live.swap_remove(i);
                        t.abort(&topo, k);
                    }
                }
                4 => {
                    let l = links[rng.next_below(links.len() as u64) as usize];
                    topo.link_mut(l).capacity_bps = f64::from(1u32 << rng.next_below(3)) * 1e6;
                    t.net.capacity_changed(&topo);
                }
                _ => {
                    if let Some(next) = t.net.next_completion(now) {
                        now = next;
                        t.advance(&topo, now);
                        live.retain(|&k| t.net.rate_of(k).is_some());
                    }
                }
            }
            t.assert_matches_oracle(&topo, &format!("step {step}"));
        }
        while let Some(next) = t.net.next_completion(now) {
            now = next;
            t.advance(&topo, now);
            t.assert_matches_oracle(&topo, "drain");
        }
        prop_assert_eq!(t.net.active(), 0);
        prop_assert!(t.live.is_empty());
    }
}
