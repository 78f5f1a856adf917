//! Panic-safety regression for the parallel engine: `run_parallel`
//! `drain()`s the routers and output buffers into `UnsafeCell` shards, so
//! before the restore guard a worker panic unwinding through
//! `thread::scope` left the `Network` with zero routers (and a panic on
//! the main thread hung the scope join forever). These tests inject a
//! panicking router step and assert the network comes back intact.

use noc_sim::{Engine, Network, SimConfig, TopologyKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Silence the injected panics: every test here *expects* an unwind from
/// `arm_router_panic`, and those worker backtraces would drown the test
/// output. Real assertion failures still print.
fn quiet_panics() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected router panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn net() -> Network {
    let cfg = SimConfig {
        injection_rate: 0.1,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    Network::new(cfg)
}

#[test]
fn worker_panic_restores_router_state() {
    quiet_panics();
    let mut n = net();
    let full = n.router_count();
    assert_eq!(full, 64);
    n.arm_router_panic(37, 10);
    let err = catch_unwind(AssertUnwindSafe(|| Engine::Parallel(3).run(&mut n, 50)))
        .expect_err("armed panic did not fire");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>");
    assert!(
        msg.contains("injected router panic"),
        "unexpected panic payload: {msg}"
    );
    // The drop guard must have restored every drained router and output
    // buffer — before the fix this was 0 and the network was unusable.
    assert_eq!(n.router_count(), full, "routers lost on unwind");
    // The network stays structurally sound: read-out paths must not
    // panic or see empty state.
    let _ = n.router_stats();
    assert_eq!(n.router_obs().len(), full);
    let _ = n.is_drained();
}

#[test]
fn panic_on_first_cycle_restores_router_state() {
    // Cycle 0 panics before any epoch completes — the guard must restore
    // even when no cycle ever committed.
    quiet_panics();
    let mut n = net();
    let full = n.router_count();
    n.arm_router_panic(0, 0);
    let err = catch_unwind(AssertUnwindSafe(|| Engine::Parallel(2).run(&mut n, 5)));
    assert!(err.is_err(), "armed panic did not fire");
    assert_eq!(n.router_count(), full);
}

#[test]
fn single_threaded_and_sequential_paths_unaffected() {
    // threads == 1 takes the in-order body, which never drains the
    // routers; the armed panic still propagates and the network
    // still holds its routers.
    quiet_panics();
    let mut n = net();
    let full = n.router_count();
    n.arm_router_panic(12, 3);
    let err = catch_unwind(AssertUnwindSafe(|| Engine::Parallel(1).run(&mut n, 10)));
    assert!(err.is_err(), "armed panic did not fire");
    assert_eq!(n.router_count(), full);
}

#[test]
fn unpoisoned_run_matches_sequential_after_fix() {
    // The guard must not perturb the normal path: par stays bit-identical
    // to seq on a short run.
    quiet_panics();
    let mut a = net();
    let mut b = net();
    a.stats.set_window(0, 200);
    b.stats.set_window(0, 200);
    a.run(200);
    Engine::Parallel(3).run(&mut b, 200);
    assert_eq!(a.now, b.now);
    assert_eq!(a.stats.flits_ejected, b.stats.flits_ejected);
    assert_eq!(a.stats.latency_sum, b.stats.latency_sum);
    assert_eq!(a.total_flits_injected(), b.total_flits_injected());
}
