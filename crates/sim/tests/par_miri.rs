//! Miri target for the parallel engine's unsafe shard protocol.
//!
//! `cargo miri test -p noc-sim --test par_miri` interprets a real
//! threaded `run_parallel` under Miri's data-race detector and borrow
//! checker — the dynamic complement to the exhaustive-but-abstract model
//! in `crates/mc`. The run is deliberately tiny (Miri executes every
//! instruction interpretively, ~1000× slower than native): a few cycles
//! are enough to cross every synchronization edge of the epoch/done/stop
//! protocol at least once — publish, worker step, signal, commit, stop.

use noc_sim::{Engine, Network, SimConfig, TopologyKind};

fn tiny() -> Network {
    let cfg = SimConfig {
        injection_rate: 0.05,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    Network::new(cfg)
}

/// Under Miri this is the soundness check; under plain `cargo test` it
/// degenerates to a fast seq/par equivalence smoke test.
#[test]
fn run_parallel_tiny_threaded() {
    // Enough cycles for flits to traverse a hop and credits to return,
    // few enough that Miri finishes in minutes.
    let cycles = if cfg!(miri) { 4 } else { 64 };
    let mut seq = tiny();
    let mut par = tiny();
    seq.run(cycles);
    Engine::Parallel(2).run(&mut par, cycles);
    assert_eq!(seq.now, par.now);
    assert_eq!(
        seq.total_flits_injected(),
        par.total_flits_injected(),
        "parallel engine diverged from sequential under the tiny config"
    );
    assert_eq!(seq.stats.flits_ejected, par.stats.flits_ejected);
}

/// Back-to-back parallel runs on one network reuse the same cells and
/// respawn the worker scope — the resurrection path Miri should also see.
#[test]
fn run_parallel_twice_reuses_state() {
    let cycles = if cfg!(miri) { 2 } else { 32 };
    let mut net = tiny();
    Engine::Parallel(2).run(&mut net, cycles);
    Engine::Parallel(2).run(&mut net, cycles);
    assert_eq!(net.now, 2 * cycles);
}
