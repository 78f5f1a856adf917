//! Latency-throughput characterization of the 8×8 mesh — the motivating
//! workload of Figure 13(a–c): how does the choice of switch allocator
//! shape the latency curve of a latency-sensitive (e.g. cache-coherence)
//! interconnect?
//!
//! Run with `cargo run --release --example mesh_latency [C] [pattern]`
//! where `C` is the number of VCs per class (default 2) and `pattern` one
//! of `uniform|bitcomp|transpose|tornado|shuffle`.

use noc_core::SwitchAllocatorKind;
use noc_sim::sim::{latency_curve, run_sim};
use noc_sim::{SimConfig, TopologyKind, TrafficPattern};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let c: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let pattern = match args.get(2).map(String::as_str) {
        Some("bitcomp") => TrafficPattern::BitComplement,
        Some("transpose") => TrafficPattern::Transpose,
        Some("tornado") => TrafficPattern::Tornado,
        Some("shuffle") => TrafficPattern::Shuffle,
        _ => TrafficPattern::UniformRandom,
    };
    let base = SimConfig {
        pattern,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, c)
    };
    let rates: Vec<f64> = (1..=9).map(|i| 0.05 * i as f64).collect();
    println!(
        "mesh 8x8, {} VCs ({}), {} traffic",
        base.vc_spec().total_vcs(),
        base.vc_spec().label(),
        pattern.label()
    );
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>8}",
        "alloc", "rate", "latency", "thruput", "stable"
    );
    for (label, kind) in [
        (
            "sep_if",
            SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
        ),
        ("wf", SwitchAllocatorKind::Wavefront),
    ] {
        let cfg = SimConfig {
            sa_kind: kind,
            ..base.clone()
        };
        for r in latency_curve(&cfg, &rates, 2_000, 4_000, &run_sim) {
            println!(
                "{:<8} {:>8.3} {:>10.2} {:>10.3} {:>8}",
                label, r.offered, r.avg_latency, r.throughput, r.stable
            );
        }
    }
}
