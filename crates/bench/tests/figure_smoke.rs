//! Smoke tests for every figure's data pipeline at reduced scale, so the
//! series behind `noc fig` cannot bit-rot between full runs.

use noc_bench::figures::*;
use noc_bench::points::DesignPoint;
use noc_bench::DESIGN_POINTS;
use noc_sim::{run_sim, Run, SimConfig, TopologyKind};

fn small_points() -> Vec<&'static DesignPoint> {
    // One mesh and one fbfly point keep runtime reasonable.
    vec![&DESIGN_POINTS[0], &DESIGN_POINTS[3]]
}

#[test]
fn fig05_06_vc_cost_pipeline() {
    for point in small_points() {
        let data = vc_cost_data(point);
        assert_eq!(data.len(), 5, "five variants per subfigure");
        for p in &data {
            // Sparse always synthesizes at these sizes.
            let s = p
                .sparse
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", p.variant));
            assert!(s.delay_ns > 0.0 && s.area_um2 > 0.0 && s.power_mw > 0.0);
            if let Ok(d) = &p.dense {
                assert!(s.area_um2 < d.area_um2, "{}: sparse not smaller", p.variant);
            }
        }
    }
}

#[test]
fn fig10_11_sw_cost_pipeline() {
    for point in small_points() {
        let data = sw_cost_data(point);
        assert_eq!(data.len(), 5);
        for p in &data {
            let [ns, pess, conv] = &p.modes;
            let (ns, pess, conv) = (
                ns.as_ref().unwrap(),
                pess.as_ref().unwrap(),
                conv.as_ref().unwrap(),
            );
            assert!(
                ns.delay_ns <= pess.delay_ns + 1e-9 && pess.delay_ns <= conv.delay_ns + 1e-9,
                "{}: {} / {} / {}",
                p.variant,
                ns.delay_ns,
                pess.delay_ns,
                conv.delay_ns
            );
            // Speculative variants carry two allocators: more area.
            assert!(pess.area_um2 > 1.5 * ns.area_um2, "{}", p.variant);
        }
    }
}

#[test]
fn fig07_quality_pipeline() {
    let curves = vc_quality_data(&DESIGN_POINTS[0], 200);
    assert_eq!(curves.len(), 3);
    for c in &curves {
        assert_eq!(c.points.len(), quality_rates().len());
        // mesh 2x1x1: everyone at quality 1.
        assert!((c.min_quality() - 1.0).abs() < 1e-9, "{}", c.label);
    }
}

#[test]
fn fig12_quality_pipeline() {
    let curves = sw_quality_data(&DESIGN_POINTS[5], 200);
    assert_eq!(curves.len(), 3);
    let min_if = curves[0].min_quality();
    let min_wf = curves[2].min_quality();
    assert!(min_wf > min_if, "wf {min_wf} !> sep_if {min_if}");
}

#[test]
fn fig13_latency_pipeline() {
    let point = DesignPoint {
        tag: 'x',
        topology: TopologyKind::FlattenedButterfly4x4,
        vcs_per_class: 1,
    };
    let curves = sa_latency_data_with(&point, 500, 1_000, &run_sim);
    assert_eq!(curves.len(), 3);
    for c in &curves {
        assert_eq!(c.results.len(), point.rate_grid().len());
        // Lowest rate must be stable and fast.
        assert!(c.results[0].stable, "{}", c.label);
        assert!(c.results[0].avg_latency < 30.0, "{}", c.label);
    }
}

#[test]
fn fig14_speculation_pipeline() {
    let point = DesignPoint {
        tag: 'x',
        topology: TopologyKind::Mesh8x8,
        vcs_per_class: 1,
    };
    let curves = spec_latency_data_with(&point, 500, 1_500, &run_sim);
    assert_eq!(curves.len(), 3);
    let (ns, conv, pess) = (&curves[0], &curves[1], &curves[2]);
    assert_eq!(ns.label, "nonspec");
    assert_eq!(conv.label, "spec_gnt");
    assert_eq!(pess.label, "spec_req");
    // Speculation shows up even in a short run at the lowest rate.
    assert!(
        pess.min_rate_latency() < ns.min_rate_latency(),
        "pess {} !< nonspec {}",
        pess.min_rate_latency(),
        ns.min_rate_latency()
    );
}

/// Figures 13/14 measure every point after a fixed warmup. MSER, run on
/// the sep_if / pessimistic baseline of each design point at about 80 %
/// of its committed Figure 13 saturation, must find the transient over
/// within that warmup. An unstable run has no steady state and MSER
/// clamps at half the run, so stability is asserted first.
#[test]
fn fig13_warmup_covers_the_transient() {
    let fig = noc_bench::figure("fig13").unwrap();
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig13.txt"),
    )
    .unwrap();
    // One `sep_if ... | saturation ~X` row per subfigure, (a) to (f).
    let saturation: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("sep_if "))
        .map(|l| l.rsplit('~').next().unwrap().trim().parse().unwrap())
        .collect();
    assert_eq!(saturation.len(), DESIGN_POINTS.len());
    for (point, sat) in DESIGN_POINTS.iter().zip(saturation) {
        let cfg = SimConfig {
            injection_rate: 0.8 * sat,
            ..SimConfig::paper_baseline(point.topology, point.vcs_per_class)
        };
        let r = Run::new(&cfg, fig.warmup, fig.measure)
            .seeds(2)
            .finish()
            .result;
        let label = format!("({}) @ {:.3}", point.tag, cfg.injection_rate);
        assert!(r.stable, "{label}: unstable");
        let warmup = r.warmup_detected.unwrap();
        assert!(
            warmup <= fig.warmup,
            "{label}: MSER warmup {warmup} > fixed {}",
            fig.warmup
        );
        eprintln!("{label}: MSER warmup {warmup}");
    }
}
