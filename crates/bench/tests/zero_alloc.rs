//! Pinned steady-state allocation behaviour of the two innermost kernels.
//!
//! The closure pool exists so that the schedule/fire loop — the inner
//! loop of every experiment — performs **zero** heap allocations once
//! warm.  The first test pins that property under the counting
//! allocator: it warms a set-1-shaped world (periodic per-host probe
//! events that reschedule themselves, like the GRIS cache refreshers),
//! then runs thousands of further events and asserts the process
//! allocation counter did not move at all.  The second pins the same
//! for `FlowNet`'s fair-share water-filler, which re-levels on every flow
//! start and finish.  The third pins the copy-on-write `ClassAd`: the
//! Hawkeye Manager clones a resident ad into every status reply and
//! sizes it, which must cost a reference count, not a deep copy and a
//! re-print.
//!
//! Runs only with `--features alloc-profile` (which compiles the
//! counting global allocator in); without it the tests are no-ops so
//! plain `cargo test` stays green.

use std::hint::black_box;
use std::sync::Mutex;

use simcore::{Engine, SimDuration, SimTime};
use simnet::flow::FlowNet;
use simnet::topology::LinkId;
use testbed::Testbed;

/// The allocation counter is process-wide: each test holds this for its
/// whole body so the others' allocations never land in its window.
static COUNTER: Mutex<()> = Mutex::new(());

/// The measured world: per-host counters bumped by self-rescheduling
/// probe events, the shape of the set-1 MDS refresh loop.
struct World {
    fired: Vec<u64>,
}

fn arm(eng: &mut Engine<World>, host: usize, period: SimDuration) {
    eng.schedule_in(period, move |w: &mut World, e: &mut Engine<World>| {
        w.fired[host] += 1;
        arm(e, host, period);
    });
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    let _serial = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let Some(_) = gperf::alloc::stats() else {
        eprintln!("count-alloc not compiled in; skipping (run with --features alloc-profile)");
        return;
    };

    const HOSTS: usize = 50;
    let mut world = World {
        fired: vec![0; HOSTS],
    };
    let mut eng: Engine<World> = Engine::new(20030622);
    for h in 0..HOSTS {
        // Co-prime-ish periods so the heap sees interleaved orderings,
        // not one synchronized batch.
        arm(&mut eng, h, SimDuration::from_micros(900 + 7 * h as u64));
    }

    // Warm-up: size the heap, the slot table and the closure pool.
    eng.run_until(&mut world, SimTime::from_secs_f64(0.5));
    let fired_warm: u64 = world.fired.iter().sum();
    assert!(fired_warm > 10_000, "warm-up fired {fired_warm}");

    // Steady state: every event must recycle its own buffer.
    let before = gperf::alloc::stats().unwrap();
    eng.run_until(&mut world, SimTime::from_secs(1));
    let after = gperf::alloc::stats().unwrap();

    let fired: u64 = world.fired.iter().sum::<u64>() - fired_warm;
    assert!(fired > 10_000, "measured window fired {fired}");
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state loop allocated {} times over {} events",
        after.allocs - before.allocs,
        fired
    );
    assert_eq!(after.bytes_total, before.bytes_total);
}

#[test]
fn warm_flownet_relevel_allocates_nothing() {
    let _serial = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let Some(_) = gperf::alloc::stats() else {
        eprintln!("count-alloc not compiled in; skipping (run with --features alloc-profile)");
        return;
    };

    let tb = Testbed::standard();
    let mut topo = tb.topo;
    // Every UC -> Lucky route crosses the shared WAN link, so all flows
    // fall into one component and every start/abort re-levels all of them.
    let routes: Vec<Vec<LinkId>> = tb
        .uc
        .iter()
        .flat_map(|&c| tb.lucky.iter().map(move |&s| (c, s)))
        .map(|(c, s)| topo.route(c, s).to_vec())
        .collect();
    let now = SimTime::ZERO;
    let mut net = FlowNet::new();
    for i in 0..50 {
        net.start(
            &topo,
            now,
            routes[i % routes.len()].clone(),
            1 << 30,
            i as u64,
        );
    }

    // `start` takes its path by value: build every cycle's path up front.
    const CYCLES: usize = 2_000;
    let mut paths = (0..2 * CYCLES).map(|i| routes[(7 * i + 3) % routes.len()].clone());
    let warm: Vec<Vec<LinkId>> = paths.by_ref().take(CYCLES).collect();
    let measured: Vec<Vec<LinkId>> = paths.collect();
    let cycle = |net: &mut FlowNet, topo: &_, path: Vec<LinkId>| {
        let k = net.start(topo, now, path, 1 << 20, u64::MAX);
        assert_eq!(net.abort(topo, k), Some(u64::MAX));
    };

    // Warm-up: size the filler's scratch, the per-link flow lists and the
    // slab's free list.
    for path in warm {
        cycle(&mut net, &topo, path);
    }
    net.capacity_changed(&topo);

    let wan = topo.find_link("wan-uc-to-anl").expect("WAN link");
    let before = gperf::alloc::stats().unwrap();
    for path in measured {
        cycle(&mut net, &topo, path);
    }
    topo.link_mut(wan).capacity_bps /= 2.0;
    net.capacity_changed(&topo);
    let after = gperf::alloc::stats().unwrap();

    assert_eq!(net.active(), 50);
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "warm re-leveling allocated {} times over {CYCLES} start/abort cycles",
        after.allocs - before.allocs
    );
    assert_eq!(after.bytes_total, before.bytes_total);
}

#[test]
fn warm_classad_clone_and_wire_size_allocate_nothing() {
    let _serial = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let Some(_) = gperf::alloc::stats() else {
        eprintln!("count-alloc not compiled in; skipping (run with --features alloc-profile)");
        return;
    };

    // A Startd ad as the Hawkeye Manager stores it: 11 modules merged.
    let agent = hawkeye::Agent::new("lucky4", hawkeye::default_modules("lucky4", 11));
    let ad = agent.build_startd_ad();
    let size = ad.wire_size();
    assert_eq!(size, ad.to_string().len() as u64);

    // Before ads were copy-on-write, a deep clone plus a re-print made
    // 26 allocations per round (26,000 here).
    const ROUNDS: usize = 1_000;
    let before = gperf::alloc::stats().unwrap();
    for _ in 0..ROUNDS {
        let reply = black_box(&ad).clone();
        assert_eq!(black_box(&reply).wire_size(), size);
        drop(reply);
    }
    let after = gperf::alloc::stats().unwrap();

    assert_eq!(
        after.allocs - before.allocs,
        0,
        "{ROUNDS} clone/wire_size/drop rounds allocated {} times",
        after.allocs - before.allocs
    );
    assert_eq!(after.bytes_total, before.bytes_total);
}
