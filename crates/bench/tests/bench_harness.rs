//! Integration tests for the `noc bench` harness: report schema,
//! round-trip through the JSON reader, and the regression gate.

use noc_bench::{bench_workload, compare_baseline, parse_report, run_bench, BenchParams};
use noc_obs::{validate_json, Phase};
use noc_sim::{Engine, SimConfig, TopologyKind};

fn tiny_params() -> BenchParams {
    BenchParams {
        quick: true,
        warmup: 200,
        measure: 600,
        reps: 1,
        engine: Engine::Sequential,
    }
}

#[test]
fn report_is_valid_json_and_round_trips() {
    let report = run_bench(&tiny_params(), |_| {});
    assert_eq!(report.workloads.len(), 7);
    let json = report.to_json();
    validate_json(&json).expect("bench report must be strict JSON");
    let parsed = parse_report(&json).expect("own report must parse");
    assert_eq!(parsed.schema, "noc-bench/v1");
    assert!(parsed.quick);
    assert_eq!(parsed.engine, "seq");
    assert_eq!(parsed.created_unix, report.created_unix);
    assert_eq!(parsed.workloads.len(), report.workloads.len());
    for (w, (name, cps)) in report.workloads.iter().zip(&parsed.workloads) {
        assert_eq!(&w.name, name);
        assert!(
            (w.cycles_per_sec - cps).abs() <= w.cycles_per_sec * 1e-12,
            "cycles_per_sec must survive the round trip"
        );
    }
    // Every workload must have measured something.
    for w in &report.workloads {
        assert!(w.cycles_per_sec > 0.0, "{}", w.name);
        assert!(w.result.avg_latency.is_finite(), "{}", w.name);
        assert!(w.profile.wall_nanos > 0, "{}: profile not stamped", w.name);
    }
}

#[test]
fn regression_gate_fires_on_injected_slowdown() {
    let report = run_bench(&tiny_params(), |_| {});
    let mut baseline = parse_report(&report.to_json()).unwrap();
    // Comparing a report against itself always passes.
    let ok = compare_baseline(&report, &baseline, 15.0);
    assert!(ok.is_ok(), "self-comparison failed: {ok:?}");
    // A baseline claiming 2x the throughput means this run is a 50%
    // regression — far beyond any tolerance below 50%.
    for (_, cps) in &mut baseline.workloads {
        *cps *= 2.0;
    }
    let err = compare_baseline(&report, &baseline, 15.0);
    let regressions = err.expect_err("2x-faster baseline must trip the gate");
    assert_eq!(regressions.len(), report.workloads.len());
    // ... but a tolerance above 50% lets it pass.
    assert!(compare_baseline(&report, &baseline, 60.0).is_ok());
}

#[test]
fn disjoint_baseline_is_an_error_not_a_pass() {
    let report = run_bench(&tiny_params(), |_| {});
    let mut baseline = parse_report(&report.to_json()).unwrap();
    for (name, _) in &mut baseline.workloads {
        name.push_str("_renamed");
    }
    assert!(
        compare_baseline(&report, &baseline, 15.0).is_err(),
        "zero compared workloads must not count as a pass"
    );
}

#[test]
fn wrong_schema_is_rejected() {
    let err = parse_report(r#"{"schema":"noc-bench/v0","workloads":[]}"#);
    assert!(err.is_err());
    let err = parse_report("not json at all");
    assert!(err.is_err());
}

#[test]
fn profile_comes_from_the_engine_that_was_timed() {
    // On an idle network the engine shows in the profile: the in-order
    // body times every router's (empty) allocation phases; the active-set
    // body skips every router, so it attributes exactly nothing to them.
    let idle = SimConfig {
        injection_rate: 0.0,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    let vc_alloc_nanos = |engine| {
        let params = BenchParams {
            engine,
            ..tiny_params()
        };
        let w = bench_workload("idle".to_string(), &idle, &params);
        assert!(w.profile.wall_nanos > 0, "profile not stamped");
        w.profile.nanos(Phase::VcAlloc)
    };
    assert!(vc_alloc_nanos(Engine::Sequential) > 0);
    assert_eq!(vc_alloc_nanos(Engine::ActiveSet), 0);
}
