//! The flattened-butterfly / UGAL scenario: a throughput-oriented network
//! (§5.4's "data supply networks") where allocator matching quality
//! directly buys saturation bandwidth, and where the VC class structure
//! (message × resource classes) is exercised end to end.
//!
//! Compares the switch allocators' saturation rates and shows how UGAL
//! shifts traffic to non-minimal routes under adversarial (tornado)
//! traffic.
//!
//! Run with `cargo run --release --example fbfly_ugal`.

use noc_core::SwitchAllocatorKind;
use noc_sim::sim::{latency_curve, run_sim, saturation_rate};
use noc_sim::{SimConfig, TopologyKind, TrafficPattern};

fn main() {
    let base = SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 4);
    println!("flattened butterfly 4x4 (concentration 4, P=10), 2x2x4 VCs, UGAL routing\n");

    // --- saturation under uniform traffic, per switch allocator ---------
    println!("uniform random traffic:");
    for (label, kind) in [
        (
            "sep_if",
            SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
        ),
        (
            "sep_of",
            SwitchAllocatorKind::SepOf(noc_arbiter::ArbiterKind::RoundRobin),
        ),
        ("wf", SwitchAllocatorKind::Wavefront),
    ] {
        let cfg = SimConfig {
            sa_kind: kind,
            ..base.clone()
        };
        let sat = saturation_rate(&cfg, 2_000, 4_000, &run_sim);
        println!("  {label:<8} saturation ~{sat:.3} flits/cycle/terminal");
    }

    // --- adversarial traffic: UGAL's reason to exist --------------------
    // Tornado-like permutations concentrate load on single rows; minimal
    // routing alone would bottleneck, Valiant detours restore balance.
    println!("\ntornado traffic, wf switch allocator:");
    let cfg = SimConfig {
        sa_kind: SwitchAllocatorKind::Wavefront,
        pattern: TrafficPattern::Tornado,
        ..base.clone()
    };
    let rates = [0.1, 0.2, 0.3, 0.4];
    for r in latency_curve(&cfg, &rates, 2_000, 4_000, &run_sim) {
        println!(
            "  rate {:>5.2}: latency {:>7.2} cycles, throughput {:.3}, stable={}",
            r.offered, r.avg_latency, r.throughput, r.stable
        );
    }

    // --- UGAL route-choice split under both patterns ---------------------
    println!("\nUGAL minimal vs non-minimal route choices (rate 0.35):");
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Tornado] {
        let mut net = noc_sim::Network::new(SimConfig {
            pattern,
            injection_rate: 0.35,
            ..base.clone()
        });
        net.stats.set_window(0, u64::MAX);
        net.run(4_000);
        let (min, non) = net.ugal_split();
        println!(
            "  {:<8} {min} minimal, {non} non-minimal ({:.1}% diverted)",
            pattern.label(),
            100.0 * non as f64 / (min + non).max(1) as f64
        );
    }
}
