//! Scaled-down reproductions of the paper's headline claims, runnable as
//! part of the regular test suite. The full-scale numbers come from the
//! `noc fig` entries of `noc-bench`'s registry (see EXPERIMENTS.md).

use noc_core::{AllocatorKind, VcAllocSpec};
use noc_quality::{sw_quality_curve, vc_quality_curve, SwQualityConfig, VcQualityConfig};
use noc_sim::{run_sim, SimConfig, TopologyKind};

#[test]
fn fig4_claim_96_of_256_legal_transitions() {
    let spec = VcAllocSpec::fbfly(4);
    assert_eq!(spec.legal_transition_count(), 96);
    assert_eq!(spec.total_vcs() * spec.total_vcs(), 256);
}

#[test]
fn fig7_claim_vc_quality_ordering_and_bounds() {
    // wf = 1 everywhere; sep_if >= sep_of; separable degrade with C.
    let mk = |spec: VcAllocSpec| VcQualityConfig {
        spec,
        trials: 600,
        seed: 5,
    };
    let rates = [0.6, 1.0];
    for c in [2usize, 4] {
        let cfg = mk(VcAllocSpec::fbfly(c));
        let wf = vc_quality_curve(&cfg, AllocatorKind::Wavefront, &rates);
        assert!((wf.min_quality() - 1.0).abs() < 1e-9, "wf C={c}");
        let qi = vc_quality_curve(&cfg, AllocatorKind::SepIfRr, &rates).min_quality();
        let qo = vc_quality_curve(&cfg, AllocatorKind::SepOfRr, &rates).min_quality();
        assert!(qi >= qo, "C={c}: sep_if {qi} < sep_of {qo}");
        assert!(qo < 1.0, "C={c}: separable should lose quality");
    }
    // §4.3.2: sep_of up to ~25% worse than wf under high load.
    let cfg = mk(VcAllocSpec::fbfly(4));
    let qo = vc_quality_curve(&cfg, AllocatorKind::SepOfRr, &[1.0]).points[0].quality();
    assert!(qo < 0.85, "sep_of at full load: {qo}");
    assert!(qo > 0.6, "sep_of at full load: {qo}");
}

#[test]
fn fig12_claim_switch_quality_shapes() {
    use noc_arbiter::ArbiterKind::RoundRobin;
    use noc_core::SwitchAllocatorKind::{SepIf, SepOf, Wavefront};
    let cfg = SwQualityConfig {
        ports: 10,
        vcs: 16,
        trials: 500,
        seed: 6,
    };
    // At high rate on the largest config: wf > sep_of > sep_if.
    let q = |k| sw_quality_curve(&cfg, k, &[1.0]).points[0].quality();
    let (qi, qo, qw) = (q(SepIf(RoundRobin)), q(SepOf(RoundRobin)), q(Wavefront));
    assert!(qw > qo && qo > qi, "ordering violated: {qi} {qo} {qw}");
}

#[test]
fn section_5_3_3_claim_wavefront_gains_throughput_on_large_fbfly() {
    // Scaled-down check of the ">20% for 2x2x4" claim: at an offered load
    // between the sep_if and wf saturation points, wf must remain stable
    // while sep_if saturates.
    use noc_core::SwitchAllocatorKind;
    let base = SimConfig {
        injection_rate: 0.53,
        ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 4)
    };
    let sep = run_sim(&base, 2_000, 4_000);
    let wf = run_sim(
        &SimConfig {
            sa_kind: SwitchAllocatorKind::Wavefront,
            ..base.clone()
        },
        2_000,
        4_000,
    );
    assert!(wf.stable, "wf should sustain 0.53 on fbfly 2x2x4");
    assert!(
        !sep.stable || sep.avg_latency > 2.0 * wf.avg_latency,
        "sep_if unexpectedly comfortable: {} vs wf {}",
        sep.avg_latency,
        wf.avg_latency
    );
}

#[test]
fn section_5_3_3_claim_speculation_cuts_mesh_zero_load_latency() {
    use noc_core::SpecMode;
    let base = SimConfig {
        injection_rate: 0.01,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    let spec = run_sim(&base, 1_500, 6_000).avg_latency;
    let nonspec = run_sim(
        &SimConfig {
            spec_mode: SpecMode::NonSpeculative,
            ..base.clone()
        },
        1_500,
        6_000,
    )
    .avg_latency;
    let gain = (nonspec - spec) / nonspec;
    // Paper: up to 23%; we assert a healthy band.
    assert!(
        (0.10..0.40).contains(&gain),
        "speculation zero-load gain {gain:.2} out of band (spec {spec}, nonspec {nonspec})"
    );
}

#[test]
fn section_4_3_3_claim_vc_allocator_choice_barely_matters_at_network_level() {
    // "the choice of VC allocator does not significantly affect the
    // latency-throughput characteristics". Compare sep_if vs wf VC
    // allocators at a moderate load.
    let base = SimConfig {
        injection_rate: 0.25,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
    };
    let a = run_sim(&base, 2_000, 4_000);
    let b = run_sim(
        &SimConfig {
            vca_kind: AllocatorKind::Wavefront,
            ..base.clone()
        },
        2_000,
        4_000,
    );
    assert!(a.stable && b.stable);
    let diff = (a.avg_latency - b.avg_latency).abs() / a.avg_latency;
    assert!(
        diff < 0.05,
        "VC allocator changed latency by {:.1}%",
        diff * 100.0
    );
}

#[test]
fn section_5_2_claim_pessimistic_equals_conventional_at_low_load() {
    use noc_core::SpecMode;
    let base = SimConfig {
        injection_rate: 0.05,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
    };
    let pess = run_sim(&base, 1_500, 4_000).avg_latency;
    let conv = run_sim(
        &SimConfig {
            spec_mode: SpecMode::Conventional,
            ..base.clone()
        },
        1_500,
        4_000,
    )
    .avg_latency;
    let diff = (pess - conv).abs() / conv;
    assert!(
        diff < 0.03,
        "low-load divergence {diff:.3} (pess {pess}, conv {conv})"
    );
}
