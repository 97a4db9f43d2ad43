//! Host-speed calibration.
//!
//! Shared cloud hosts run the same code at very different speeds from
//! one second to the next: a busy neighbour on the other hyperthread of
//! the core slows a run by up to ~2.5x, in episodes lasting seconds, with
//! no stolen time to show for it.  Raw wall times of one build then
//! spread by 30% or more between runs.  So every timed interval is
//! bracketed by readings of two fixed kernels on the same thread, and
//! reported divided by the host's slowness at the time: the geometric
//! mean of each kernel's time over its reference time.  One kernel churns
//! a small ordered map; the other builds and queries a directory of
//! string-keyed entries, allocating and cloning as the simulator's
//! directory and database code does.  Neither alone tracks how hard
//! contention hits the simulator; their geometric mean roughly halves
//! the spread between runs that either leaves.  Both are the benchmark's
//! own code and call nothing in the workspace, so a change to the
//! program cannot move them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel calls per reading (a reading uses their median).
const CALLS: usize = 3;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Ordered-map churn, a sort and small allocations on ~200 KB.
pub fn map_churn() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = BTreeMap::new();
    for _ in 0..4000 {
        let k = xorshift(&mut x) % 8192;
        map.insert(k, k.wrapping_mul(3));
    }
    let mut acc = 0u64;
    for _ in 0..4000 {
        let k = xorshift(&mut x) % 8192;
        if let Some(v) = map.get(&k) {
            acc = acc.wrapping_add(*v);
        }
        map.remove(&(xorshift(&mut x) % 8192));
    }
    let mut v: Vec<u64> = (0..8192).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    let boxes: Vec<Box<[u64; 2]>> = (0..2000).map(|i| Box::new([acc, v[i]])).collect();
    acc.wrapping_add(boxes.iter().map(|b| b[1] & 0xff).sum::<u64>())
}

/// Build a directory of 2500 string-keyed entries of six attributes,
/// then answer ten subtree queries with a filter, cloning the hits.
pub fn directory() -> u64 {
    let mut x = 0xABCDu64;
    let mut dir: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for i in 0..2500u64 {
        let attrs = (0..6)
            .map(|j| {
                (
                    format!("mds-attr-{j}"),
                    format!("value-{}-{j}", xorshift(&mut x) % 1000),
                )
            })
            .collect();
        dir.insert(
            format!("o=grid,ou=site{:03},cn=host{i:06}", xorshift(&mut x) % 50),
            attrs,
        );
    }
    let mut hits = 0u64;
    for _ in 0..10 {
        let site = format!("o=grid,ou=site{:03},", xorshift(&mut x) % 50);
        let found: Vec<String> = dir
            .range(site.clone()..)
            .take_while(|(k, _)| k.starts_with(&site))
            .flat_map(|(_, attrs)| {
                attrs
                    .iter()
                    .filter(|(a, v)| a.ends_with('3') || v.contains("-7"))
                    .map(|(_, v)| v.clone())
            })
            .collect();
        hits += found.len() as u64;
    }
    hits
}

/// The kernels and their reference seconds: about their time on an idle
/// core of a 2.0 GHz Xeon cloud VM.  Only the unit of normalized times
/// depends on these.
const KERNELS: [(fn() -> u64, f64); 2] = [(map_churn, 1.28e-3), (directory, 3.13e-3)];

fn median_time(kernel: fn() -> u64) -> f64 {
    let mut t: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[CALLS / 2]
}

/// The host's slowness on this thread now: 1.0 at reference speed.
pub fn reading() -> f64 {
    let logs: f64 = KERNELS
        .iter()
        .map(|&(kernel, reference)| (median_time(kernel) / reference).ln())
        .sum();
    (logs / KERNELS.len() as f64).exp()
}

/// `raw` seconds measured between two readings, at reference speed.
pub fn normalize(raw: f64, before: f64, after: f64) -> f64 {
    raw / ((before + after) / 2.0)
}

/// One reading per core, taken on that many threads at once and
/// averaged — for intervals in which every core works (the sweep's pool).
pub fn reading_all_cores(threads: usize) -> f64 {
    let readings: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(reading)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    readings.iter().sum::<f64>() / readings.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        assert_eq!(map_churn(), map_churn());
        assert_eq!(directory(), directory());
        assert!(directory() > 0, "the directory queries find entries");
    }

    #[test]
    fn normalizing_divides_out_the_slowness() {
        assert!((normalize(2.0, 1.0, 1.0) - 2.0).abs() < 1e-12);
        // A host running at half speed doubles the raw time and the
        // slowness alike; the normalized time stays put.
        assert!((normalize(4.0, 2.0, 2.0) - 2.0).abs() < 1e-12);
        let r = reading();
        assert!(r.is_finite() && r > 0.0);
        assert!(reading_all_cores(2) > 0.0);
    }
}
