//! The from-scratch max-min fair-share water-filler: the oracle for
//! `simnet::flow::FlowNet`'s incremental re-leveling.

use simnet::flow::{FlowToken, LOCAL_RATE_BITS_PER_US};
use simnet::topology::{LinkId, Topology};

/// Water-fill every flow in `flows` (the live `(token, path)` pairs, in
/// flow-key order) over every link of `topo`, returning `(token, rate)` in
/// the same order, rates in bits/µs.  Bottleneck links are scanned in
/// ascending index order with a strictly-smaller comparison and flows are
/// fixed in input order.
pub fn water_fill(topo: &Topology, flows: &[(FlowToken, &[LinkId])]) -> Vec<(FlowToken, f64)> {
    let n_links = topo.link_count();
    // Residual capacity per link in bits/µs and number of unfixed flows
    // crossing it.
    let mut residual: Vec<f64> = (0..n_links)
        .map(|i| topo.link(LinkId(i as u32)).capacity_bps / 1e6)
        .collect();
    let mut crossing: Vec<u32> = vec![0; n_links];

    let mut rates: Vec<f64> = vec![0.0; flows.len()];
    let mut unfixed: Vec<usize> = Vec::with_capacity(flows.len());
    for (i, (_, path)) in flows.iter().enumerate() {
        if path.is_empty() {
            rates[i] = LOCAL_RATE_BITS_PER_US;
        } else {
            for l in *path {
                crossing[l.0 as usize] += 1;
            }
            unfixed.push(i);
        }
    }

    // Water-filling: repeatedly find the bottleneck link (minimum fair
    // share), fix all flows crossing it at that share, and remove their
    // demand from other links.
    while !unfixed.is_empty() {
        let mut bottleneck: Option<(usize, f64)> = None;
        for l in 0..n_links {
            if crossing[l] > 0 {
                let share = residual[l] / crossing[l] as f64;
                if bottleneck.is_none_or(|(_, s)| share < s) {
                    bottleneck = Some((l, share));
                }
            }
        }
        let Some((bl, share)) = bottleneck else { break };
        let share = share.max(0.0);
        // Fix every unfixed flow crossing the bottleneck.
        let mut still_unfixed = Vec::with_capacity(unfixed.len());
        for &i in &unfixed {
            let path = flows[i].1;
            if path.iter().any(|l| l.0 as usize == bl) {
                for l in path {
                    let li = l.0 as usize;
                    crossing[li] -= 1;
                    residual[li] = (residual[li] - share).max(0.0);
                }
                rates[i] = share.max(1e-9);
            } else {
                still_unfixed.push(i);
            }
        }
        debug_assert!(still_unfixed.len() < unfixed.len(), "water-filling stuck");
        unfixed = still_unfixed;
    }
    flows.iter().map(|&(tok, _)| tok).zip(rates).collect()
}
