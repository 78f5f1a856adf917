//! End-to-end verification: the runtime invariant checker must stay silent
//! on every workload of the bench matrix, and the static checker must prove
//! every simulated configuration deadlock-free.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_bench::workload_matrix;
use noc_check::{check_design, RouteModel};
use noc_sim::{Run, SimConfig, SimResult, StrictChecker, TopologyKind};

fn run_verified(cfg: &SimConfig, warmup: u64, measure: u64) -> (SimResult, StrictChecker) {
    let out = Run::new(cfg, warmup, measure).verify().finish();
    (out.result, out.verify.expect("checker attached"))
}

#[test]
fn bench_matrix_runs_with_zero_invariant_violations() {
    for (name, cfg) in workload_matrix() {
        let (res, rep) = run_verified(&cfg, 200, 600);
        assert!(
            rep.passed(),
            "{name}: {} violations, e.g. {:?}",
            rep.total_violations,
            rep.violations.first()
        );
        assert!(rep.checks > 0, "{name}: checker did not run");
        assert!(res.throughput > 0.0, "{name}: no traffic delivered");
    }
}

#[test]
fn torus_runs_with_zero_invariant_violations() {
    let cfg = SimConfig {
        injection_rate: 0.15,
        ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 2)
    };
    let (_, rep) = run_verified(&cfg, 300, 900);
    assert!(rep.passed(), "torus: {:?}", rep.violations.first());
}

#[test]
fn every_bench_workload_is_statically_deadlock_free() {
    for (name, cfg) in workload_matrix() {
        let topo = cfg.topology.build();
        let model = RouteModel::Simulator(cfg.routing());
        let rep = check_design(&name, &topo, &model, &cfg.vc_spec());
        assert!(rep.passed(), "{name}:\n{}", rep.render());
    }
}
