//! End-to-end network invariants across allocator configurations: no flit
//! loss, drainage (deadlock freedom at the tested loads), determinism, and
//! request/reply transaction closure.

use noc_core::{SpecMode, SwitchAllocatorKind};
use noc_sim::{Network, SimConfig, TopologyKind, TrafficPattern};

fn drain(net: &mut Network, max_cycles: u64) -> bool {
    for _ in 0..max_cycles {
        net.step();
        if net.is_drained() {
            return true;
        }
    }
    false
}

fn all_router_configs() -> Vec<SimConfig> {
    use noc_arbiter::ArbiterKind::RoundRobin;
    let mut cfgs = Vec::new();
    for topo in [TopologyKind::Mesh8x8, TopologyKind::FlattenedButterfly4x4] {
        for sa in [
            SwitchAllocatorKind::SepIf(RoundRobin),
            SwitchAllocatorKind::SepOf(RoundRobin),
            SwitchAllocatorKind::Wavefront,
        ] {
            for mode in SpecMode::ALL {
                cfgs.push(SimConfig {
                    sa_kind: sa,
                    spec_mode: mode,
                    injection_rate: 0.15,
                    ..SimConfig::paper_baseline(topo, 2)
                });
            }
        }
    }
    cfgs
}

#[test]
fn conservation_and_drainage_across_all_configurations() {
    for mut cfg in all_router_configs() {
        let label = format!("{} {:?} {:?}", cfg.label(), cfg.sa_kind, cfg.spec_mode);
        let mut net = Network::new(cfg.clone());
        net.stats.set_window(0, u64::MAX);
        net.run(1_500);
        let injected_so_far = net.total_flits_injected();
        assert!(injected_so_far > 300, "{label}: injected {injected_so_far}");
        cfg.injection_rate = 0.0;
        // Stop traffic by rebuilding config in place (same network state).
        *netcfg_mut(&mut net) = cfg;
        assert!(drain(&mut net, 5_000), "{label}: failed to drain");
        assert_eq!(
            net.total_flits_injected(),
            net.stats.flits_ejected,
            "{label}: flits lost or duplicated"
        );
    }
}

// Helper to mutate the network's config (injection rate) mid-run.
fn netcfg_mut(net: &mut Network) -> &mut SimConfig {
    net.config_mut()
}

#[test]
fn sparse_vc_allocator_works_in_network() {
    let cfg = SimConfig {
        injection_rate: 0.2,
        ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
    };
    let r = noc_sim::run_sim(&cfg, 1_000, 3_000);
    assert!(r.stable);
    assert!(r.avg_latency.is_finite());
}

#[test]
fn all_traffic_patterns_deliver() {
    for pattern in [
        TrafficPattern::UniformRandom,
        TrafficPattern::BitComplement,
        TrafficPattern::Transpose,
        TrafficPattern::Tornado,
        TrafficPattern::Shuffle,
    ] {
        let cfg = SimConfig {
            pattern,
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
        };
        let r = noc_sim::run_sim(&cfg, 1_500, 3_000);
        assert!(r.stable, "{pattern:?}");
        assert!(r.throughput > 0.05, "{pattern:?}: {}", r.throughput);
    }
}

#[test]
fn seeds_change_results_but_reruns_do_not() {
    let base = SimConfig {
        injection_rate: 0.2,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
    };
    let run = |seed: u64| {
        let cfg = SimConfig {
            seed,
            ..base.clone()
        };
        let r = noc_sim::run_sim(&cfg, 1_000, 2_000);
        (r.avg_latency, r.throughput)
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn request_and_reply_latencies_are_both_measured() {
    let cfg = SimConfig {
        injection_rate: 0.15,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
    };
    let r = noc_sim::run_sim(&cfg, 1_500, 4_000);
    assert!(r.request_latency.is_finite());
    assert!(r.reply_latency.is_finite());
    // Both classes travel the same network; their latencies are similar.
    let ratio = r.request_latency / r.reply_latency;
    assert!((0.5..2.0).contains(&ratio), "{ratio}");
}

#[test]
fn buffer_depth_sensitivity_monotone_near_saturation() {
    // Deeper buffers cannot hurt saturation throughput (ablation from
    // DESIGN.md §6).
    let mk = |depth: usize| SimConfig {
        buf_depth: depth,
        injection_rate: 0.3,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    let shallow = noc_sim::run_sim(&mk(4), 1_500, 3_000);
    let deep = noc_sim::run_sim(&mk(16), 1_500, 3_000);
    assert!(deep.throughput >= shallow.throughput * 0.98);
}
