//! Differential tests proving the fast-path engine cycle-exact.
//!
//! The active-set (idle-router-skipping) engine exists purely for speed; it
//! must be *bit-identical* to the sequential reference on every workload.
//! Two layers of evidence:
//!
//! 1. **Result equivalence** — the full bench workload matrix (mesh and
//!    flattened butterfly, every injection rate), three seeds each, run on
//!    both engines: the `SimResult` JSON must match byte for byte.
//! 2. **Trace equivalence** — the same workloads run with a [`DigestSink`]
//!    attached: the order-sensitive FNV-1a digest over every flit event
//!    must match, and on a mismatch the test names the first diverging
//!    cycle so the bug is bisectable.
//!
//! Layers 3 and 4 extend the contract to the telemetry and anatomy dumps,
//! and layer 5 to composition: every observer attached to one run, on any
//! engine, reproduces what each observer reports alone on `seq`.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_bench::workload_matrix;
use noc_obs::{
    metrics_jsonl, window_jsonl, AnatomyCollector, AnatomyHeader, DigestSink, ANATOMY_SCHEMA,
};
use noc_sim::{run_sim_engine, Engine, Network, Run, SimConfig, TelemetryOptions};

const WARMUP: u64 = 500;
const MEASURE: u64 = 1500;
const TRACE_CYCLES: u64 = 1000;
const SEEDS: u64 = 3;

/// The non-reference engine under test.
const FAST: Engine = Engine::ActiveSet;

fn seeded(cfg: &SimConfig, off: u64) -> SimConfig {
    let mut cfg = cfg.clone();
    cfg.seed = cfg.seed.wrapping_add(off);
    cfg
}

/// Layer 1: identical `SimResult` JSON across engines for every workload
/// with the given name prefix, across seeds.
fn assert_results_identical(prefix: &str) {
    for (name, cfg) in workload_matrix() {
        if !name.starts_with(prefix) {
            continue;
        }
        for off in 0..SEEDS {
            let cfg = seeded(&cfg, off);
            let reference = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential).to_json();
            let got = run_sim_engine(&cfg, WARMUP, MEASURE, FAST).to_json();
            assert_eq!(
                got,
                reference,
                "{name} seed+{off}: engine '{}' diverged from sequential SimResult",
                FAST.label()
            );
        }
    }
}

/// Runs `cfg` for `cycles` cycles on `engine` with a digest sink attached
/// and returns the finished sink.
fn trace_digest(cfg: &SimConfig, engine: Engine, cycles: u64) -> DigestSink {
    let mut net = Network::with_sink(cfg.clone(), DigestSink::with_cycle_digests());
    engine.run(&mut net, cycles);
    let mut sink = net.sink;
    sink.finish_cycles(cycles);
    sink
}

/// Layer 2: identical flit-event digests across engines; a mismatch
/// reports the first cycle whose cumulative digest differs.
fn assert_traces_identical(prefix: &str) {
    for (name, cfg) in workload_matrix() {
        if !name.starts_with(prefix) {
            continue;
        }
        let reference = trace_digest(&cfg, Engine::Sequential, TRACE_CYCLES);
        let got = trace_digest(&cfg, FAST, TRACE_CYCLES);
        if got.digest() != reference.digest() {
            let cycle =
                DigestSink::first_divergence(got.cycle_digests(), reference.cycle_digests());
            panic!(
                "{name}: engine '{}' trace digest {:#018x} != sequential {:#018x} \
                 ({} vs {} events); first diverging cycle: {:?}",
                FAST.label(),
                got.digest(),
                reference.digest(),
                got.events(),
                reference.events(),
                cycle
            );
        }
        assert_eq!(
            got.events(),
            reference.events(),
            "{name}: engine '{}' event count diverged with equal digests",
            FAST.label()
        );
    }
}

#[test]
fn mesh_results_bit_identical_across_engines() {
    assert_results_identical("mesh8x8");
}

#[test]
fn fbfly_results_bit_identical_across_engines() {
    assert_results_identical("fbfly4x4");
}

#[test]
fn mesh_flit_traces_identical_across_engines() {
    assert_traces_identical("mesh8x8");
}

#[test]
fn fbfly_flit_traces_identical_across_engines() {
    assert_traces_identical("fbfly4x4");
}

/// Flight-recorder settings of the recorded layers: no watchdog, so a run
/// cannot trip.
fn recording() -> TelemetryOptions {
    TelemetryOptions {
        watchdog: None,
        ..TelemetryOptions::recording()
    }
}

/// Runs `cfg` with the flight recorder attached and returns every telemetry
/// window as its dump-file JSONL line, plus the result JSON.
fn telemetry_lines(cfg: &SimConfig, engine: Engine) -> (String, Vec<String>) {
    let mut lines = Vec::new();
    let run = Run::new(cfg, WARMUP, MEASURE).engine(engine);
    let outcome = run
        .telemetry(recording())
        .run(|snap| lines.push(window_jsonl(snap)));
    let out = match outcome {
        Ok(out) => out,
        Err(trip) => panic!("run cannot trip without a watchdog: {}", trip.describe()),
    };
    (out.result.to_json(), lines)
}

/// Layer 3: the flight recorder is part of the cycle-exact contract. Every
/// per-window JSONL line — per-router counters, stall mix, matching-quality
/// samples — must be byte-identical across engines, so a recorded dump is
/// reproducible evidence regardless of which engine produced it.
#[test]
fn telemetry_dumps_byte_identical_across_engines() {
    for (name, cfg) in workload_matrix() {
        // One mid-load workload per topology keeps the recorded layer
        // cheap; the result/trace layers above already sweep the matrix.
        if name != "mesh8x8_c2_r0.25" && name != "fbfly4x4_c2_r0.2" {
            continue;
        }
        let (ref_json, ref_lines) = telemetry_lines(&cfg, Engine::Sequential);
        assert!(
            !ref_lines.is_empty(),
            "{name}: recorder produced no windows"
        );
        let (got_json, got_lines) = telemetry_lines(&cfg, FAST);
        assert_eq!(
            got_json,
            ref_json,
            "{name}: engine '{}' recorded-run SimResult diverged",
            FAST.label()
        );
        assert_eq!(
            got_lines,
            ref_lines,
            "{name}: engine '{}' telemetry windows diverged",
            FAST.label()
        );
    }
}

/// Runs `cfg` with the per-packet latency ledger attached and returns the
/// result JSON plus the full `noc-anatomy/v1` dump text.
fn anatomy_dump(cfg: &SimConfig, engine: Engine) -> (String, String) {
    let run = Run::new(cfg, WARMUP, MEASURE).engine(engine);
    let out = run.anatomy(1 << 16, 4).finish();
    let col = out.anatomy.expect("ledger attached");
    (out.result.to_json(), anatomy_jsonl(cfg, &col))
}

/// The `noc-anatomy/v1` dump text of a finished ledger.
fn anatomy_jsonl(cfg: &SimConfig, col: &AnatomyCollector) -> String {
    let header = AnatomyHeader {
        digest: cfg.digest(WARMUP, MEASURE, ANATOMY_SCHEMA),
        label: cfg.label(),
        routers: cfg.topology.build().num_routers(),
        warmup: WARMUP,
        measure: MEASURE,
        capacity: 1 << 16,
        top_k: 4,
    };
    col.to_jsonl(&header)
}

/// Layer 4: the latency-anatomy ledger is part of the cycle-exact contract.
/// Hop records cross the engine boundary (drained in router-id order) and
/// fold on ejection, so the full dump — totals, histograms, every retained
/// per-packet row, the top-K waterfalls — must be byte-identical across
/// engines, and attaching the ledger must not perturb the result.
#[test]
fn anatomy_dumps_byte_identical_across_engines() {
    for (name, cfg) in workload_matrix() {
        // Same two mid-load workloads as the telemetry layer: the
        // result/trace layers above already sweep the matrix.
        if name != "mesh8x8_c2_r0.25" && name != "fbfly4x4_c2_r0.2" {
            continue;
        }
        let plain = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential).to_json();
        let (ref_json, ref_dump) = anatomy_dump(&cfg, Engine::Sequential);
        assert_eq!(
            ref_json, plain,
            "{name}: attaching the anatomy ledger changed the sequential SimResult"
        );
        let (got_json, got_dump) = anatomy_dump(&cfg, FAST);
        assert_eq!(
            got_json,
            ref_json,
            "{name}: engine '{}' anatomy-run SimResult diverged",
            FAST.label()
        );
        assert_eq!(
            got_dump,
            ref_dump,
            "{name}: engine '{}' anatomy dump diverged",
            FAST.label()
        );
    }
}

/// Layer 5: observers compose. One run with the trace sink, profiler,
/// flight recorder (and the metrics export derived from its windows),
/// anatomy ledger and invariant checker
/// all attached — on each engine — must reproduce, byte for byte, what each
/// observer reports when attached alone on the sequential engine, and the
/// checker must find nothing.
#[test]
fn observers_compose_on_every_engine() {
    for (name, cfg) in workload_matrix() {
        if name != "mesh8x8_c2_r0.25" && name != "fbfly4x4_c2_r0.2" {
            continue;
        }
        // Each observer alone, on seq.
        let plain = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential).to_json_full();
        let ref_trace = trace_digest(&cfg, Engine::Sequential, WARMUP + MEASURE);
        let mut ref_snaps = Vec::new();
        let recorded = Run::new(&cfg, WARMUP, MEASURE)
            .telemetry(recording())
            .run(|snap| ref_snaps.push(snap.clone()))
            .expect("no watchdog to trip");
        let ref_metrics = metrics_jsonl(&recorded.router_obs, &ref_snaps);
        let (_, ref_windows) = telemetry_lines(&cfg, Engine::Sequential);
        let (_, ref_anatomy) = anatomy_dump(&cfg, Engine::Sequential);

        for engine in [Engine::Sequential, Engine::ActiveSet] {
            let tag = format!("{name} on '{}'", engine.label());
            let mut sink = DigestSink::with_cycle_digests();
            let mut snaps = Vec::new();
            let run = Run::new(&cfg, WARMUP, MEASURE).engine(engine);
            let outcome = run
                .sink(&mut sink)
                .profile()
                .telemetry(recording())
                .anatomy(1 << 16, 4)
                .verify()
                .run(|snap| snaps.push(snap.clone()));
            let mut out = match outcome {
                Ok(out) => out,
                Err(trip) => panic!("{tag}: tripped without a watchdog: {}", trip.describe()),
            };
            sink.finish_cycles(WARMUP + MEASURE);

            let report = out.verify.expect("checker attached");
            assert!(report.checks > 0, "{tag}: checker did not run");
            assert!(report.passed(), "{tag}: {:?}", report.violations.first());
            let profile = out.profile.expect("profiler attached");
            assert_eq!(
                profile.cycles,
                WARMUP + MEASURE,
                "{tag}: profile not stamped"
            );

            assert_eq!(sink.digest(), ref_trace.digest(), "{tag}: trace digest");
            assert_eq!(sink.events(), ref_trace.events(), "{tag}: trace events");
            assert_eq!(
                metrics_jsonl(&out.router_obs, &snaps),
                ref_metrics,
                "{tag}: metrics export"
            );
            let windows: Vec<String> = snaps.iter().map(window_jsonl).collect();
            assert_eq!(windows, ref_windows, "{tag}: telemetry windows");
            let col = out.anatomy.expect("ledger attached");
            assert_eq!(
                anatomy_jsonl(&cfg, &col),
                ref_anatomy,
                "{tag}: anatomy dump"
            );
            // The recorder's summary is the one part of the result an
            // observer adds; without it the result is the plain run's.
            assert!(out.result.telemetry.is_some(), "{tag}: no telemetry block");
            out.result.telemetry = None;
            assert_eq!(out.result.to_json_full(), plain, "{tag}: SimResult");
        }
    }
}
