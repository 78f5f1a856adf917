//! Differential tests proving that skipping idle routers is cycle-exact.
//!
//! Production ([`Network::run`], and so [`Run`] and every `run_sim*`) does
//! not step a router that holds no flit. The reference here is the same
//! cycle body with skipping off — `run_in_order(.., false, ..)` on a
//! [`Network`] with the same observers enabled, every router stepped every
//! cycle — and production must be *bit-identical* to it on every workload.
//! Two layers of evidence:
//!
//! 1. **Result equivalence** — the full bench workload matrix (mesh and
//!    flattened butterfly, every injection rate), three seeds each: the
//!    `SimResult` JSON must match byte for byte.
//! 2. **Trace equivalence** — the same workloads run with a [`DigestSink`]
//!    attached: the order-sensitive FNV-1a digest over every flit event
//!    must match, and on a mismatch the test names the first diverging
//!    cycle so the bug is bisectable.
//!
//! Layers 3 and 4 extend the contract to the telemetry and anatomy dumps,
//! and layer 5 to composition: all observers on one production run
//! reproduce what each reports alone on the reference.
//!
//! When a layer fails, `crates/sim/tests/router_live_sets.rs` steps one
//! router beside a twin that skips, and names the router-level cause.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_bench::workload_matrix;
use noc_obs::{
    metrics_jsonl, AnatomyCollector, AnatomyHeader, DigestSink, FlightRecorder, NopProfiler,
    NopSink, ToJson, TraceSink, WindowSnapshot, ANATOMY_CAPACITY, ANATOMY_SCHEMA,
};
use noc_sim::{run_sim, summarize, Network, Run, SimConfig, TelemetryOptions};

const WARMUP: u64 = 500;
const MEASURE: u64 = 1500;
const TRACE_CYCLES: u64 = 1000;
const SEEDS: u64 = 3;

fn seeded(cfg: &SimConfig, off: u64) -> SimConfig {
    let mut cfg = cfg.clone();
    cfg.seed = cfg.seed.wrapping_add(off);
    cfg
}

/// The reference: `cfg` measured over `[WARMUP, WARMUP + MEASURE)` with the
/// observers `observe` enables, every router stepped for `cycles` cycles.
fn reference<S: TraceSink>(
    cfg: &SimConfig,
    sink: S,
    cycles: u64,
    observe: impl FnOnce(&mut Network<S>),
) -> Network<S> {
    let mut net = Network::with_sink(cfg.clone(), sink);
    net.stats.set_window(WARMUP, WARMUP + MEASURE);
    observe(&mut net);
    net.run_in_order(cycles, false, &mut NopProfiler);
    net
}

/// The reference's plain run, as `Run` would summarize it.
fn reference_result(cfg: &SimConfig) -> noc_sim::SimResult {
    summarize(&reference(cfg, NopSink, WARMUP + MEASURE, |_| {}))
}

/// Layer 1: production's `SimResult` JSON is the reference's for every
/// workload with the given name prefix, across seeds.
fn assert_results_identical(prefix: &str) {
    for (name, cfg) in workload_matrix() {
        if !name.starts_with(prefix) {
            continue;
        }
        for off in 0..SEEDS {
            let cfg = seeded(&cfg, off);
            assert_eq!(
                run_sim(&cfg, WARMUP, MEASURE).to_json(),
                reference_result(&cfg).to_json(),
                "{name} seed+{off}: production diverged from the reference SimResult"
            );
        }
    }
}

/// The finished digest sink of a network run for `cycles` cycles.
fn finished(net: Network<DigestSink>, cycles: u64) -> DigestSink {
    let mut sink = net.sink;
    sink.finish_cycles(cycles);
    sink
}

/// The reference's flit-event digest over `cycles` cycles.
fn reference_trace(cfg: &SimConfig, cycles: u64) -> DigestSink {
    let sink = DigestSink::with_cycle_digests();
    finished(reference(cfg, sink, cycles, |_| {}), cycles)
}

/// Layer 2: identical flit-event digests; a mismatch reports the first
/// cycle whose cumulative digest differs.
fn assert_traces_identical(prefix: &str) {
    for (name, cfg) in workload_matrix() {
        if !name.starts_with(prefix) {
            continue;
        }
        let reference = reference_trace(&cfg, TRACE_CYCLES);
        let mut net = Network::with_sink(cfg.clone(), DigestSink::with_cycle_digests());
        net.run(TRACE_CYCLES);
        let got = finished(net, TRACE_CYCLES);
        if got.digest() != reference.digest() {
            let cycle =
                DigestSink::first_divergence(got.cycle_digests(), reference.cycle_digests());
            panic!(
                "{name}: production trace digest {:#018x} != reference {:#018x} \
                 ({} vs {} events); first diverging cycle: {:?}",
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
            "{name}: event count diverged with equal digests"
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
    let mut opts = TelemetryOptions::recording();
    opts.watchdog = None;
    opts
}

/// The reference with the recording flight recorder on (100-cycle
/// windows, every one kept), read after the run.
fn reference_recorded(cfg: &SimConfig) -> (Network, Vec<WindowSnapshot>) {
    let net = reference(cfg, NopSink, WARMUP + MEASURE, |net| {
        net.enable_telemetry(FlightRecorder::recording());
    });
    let snaps: Vec<WindowSnapshot> = net
        .telemetry
        .iter()
        .flat_map(|r| r.ring())
        .cloned()
        .collect();
    assert_eq!(snaps.len() as u64, (WARMUP + MEASURE) / 100);
    (net, snaps)
}

/// The two mid-load workloads, one per topology, of the observer layers:
/// the result/trace layers above already sweep the matrix.
fn observed_workloads() -> impl Iterator<Item = (String, SimConfig)> {
    (workload_matrix().into_iter())
        .filter(|(name, _)| name == "mesh8x8_c2_r0.25" || name == "fbfly4x4_c2_r0.2")
}

/// Layer 3: the flight recorder is part of the cycle-exact contract. Every
/// per-window JSONL line — per-router counters, stall mix, matching-quality
/// samples — must be byte-identical to the reference's, so a recorded dump
/// is evidence of the configuration, not of which routers were skipped.
#[test]
fn telemetry_dumps_byte_identical_across_engines() {
    for (name, cfg) in observed_workloads() {
        let (net, ref_snaps) = reference_recorded(&cfg);
        let mut lines = Vec::new();
        let out = Run::new(&cfg, WARMUP, MEASURE)
            .telemetry(recording())
            .run(|snap| lines.push(snap.to_json()))
            .expect("no watchdog to trip");
        assert_eq!(
            out.result.to_json(),
            summarize(&net).to_json(),
            "{name}: recorded-run SimResult diverged"
        );
        let ref_lines: Vec<String> = ref_snaps.iter().map(ToJson::to_json).collect();
        assert_eq!(lines, ref_lines, "{name}: telemetry windows diverged");
    }
}

/// The reference's `noc-anatomy/v1` dump text.
fn reference_anatomy(cfg: &SimConfig) -> String {
    let net = reference(cfg, NopSink, WARMUP + MEASURE, |net| {
        net.enable_anatomy(4);
    });
    anatomy_jsonl(cfg, net.anatomy.as_ref().expect("ledger attached"))
}

/// The `noc-anatomy/v1` dump text of a finished ledger.
fn anatomy_jsonl(cfg: &SimConfig, col: &AnatomyCollector) -> String {
    let header = AnatomyHeader {
        digest: cfg.digest(WARMUP, MEASURE, ANATOMY_SCHEMA),
        label: cfg.label(),
        routers: cfg.topology.build().num_routers(),
        warmup: WARMUP,
        measure: MEASURE,
        capacity: ANATOMY_CAPACITY as u64,
        top_k: 4,
    };
    col.to_jsonl(&header)
}

/// Layer 4: the latency-anatomy ledger is part of the cycle-exact contract.
/// Hop records are drained in router-id order and fold on ejection, so the
/// full dump — totals, histograms, every retained per-packet row, the top-K
/// waterfalls — must be byte-identical to the reference's, and attaching
/// the ledger must not perturb the result.
#[test]
fn anatomy_dumps_byte_identical_across_engines() {
    for (name, cfg) in observed_workloads() {
        let out = Run::new(&cfg, WARMUP, MEASURE).anatomy(4).finish();
        let col = out.anatomy.expect("ledger attached");
        assert_eq!(
            out.result.to_json(),
            reference_result(&cfg).to_json(),
            "{name}: the anatomy run's SimResult is not the plain reference's"
        );
        assert_eq!(
            anatomy_jsonl(&cfg, &col),
            reference_anatomy(&cfg),
            "{name}: anatomy dump diverged"
        );
    }
}

/// Layer 5: observers compose. One production run with the trace sink,
/// profiler, flight recorder, metrics export, anatomy ledger and invariant
/// checker all attached must
/// reproduce, byte for byte, what each observer reports when attached alone
/// to the reference, and the checker must find nothing.
#[test]
fn observers_compose_on_one_run() {
    for (name, cfg) in observed_workloads() {
        let plain = reference_result(&cfg).to_json_full();
        let ref_trace = reference_trace(&cfg, WARMUP + MEASURE);
        let (recorded, ref_snaps) = reference_recorded(&cfg);
        let ref_metrics = metrics_jsonl(&recorded.router_obs());
        let ref_anatomy = reference_anatomy(&cfg);

        let mut sink = DigestSink::with_cycle_digests();
        let mut snaps = Vec::new();
        let mut out = Run::new(&cfg, WARMUP, MEASURE)
            .sink(&mut sink)
            .profile()
            .telemetry(recording())
            .anatomy(4)
            .verify()
            .run(|snap| snaps.push(snap.clone()))
            .expect("no watchdog to trip");
        sink.finish_cycles(WARMUP + MEASURE);

        let report = out.verify.expect("checker attached");
        assert!(report.checks > 0, "{name}: checker did not run");
        assert!(report.passed(), "{name}: {:?}", report.violations.first());
        let profile = out.profile.expect("profiler attached");
        assert_eq!(
            profile.cycles,
            WARMUP + MEASURE,
            "{name}: profile not stamped"
        );

        assert_eq!(sink.digest(), ref_trace.digest(), "{name}: trace digest");
        assert_eq!(sink.events(), ref_trace.events(), "{name}: trace events");
        assert_eq!(
            metrics_jsonl(&out.router_obs),
            ref_metrics,
            "{name}: metrics export"
        );
        assert_eq!(snaps, ref_snaps, "{name}: telemetry windows");
        let col = out.anatomy.expect("ledger attached");
        assert_eq!(
            anatomy_jsonl(&cfg, &col),
            ref_anatomy,
            "{name}: anatomy dump"
        );
        // The recorder's summary is the one part of the result an
        // observer adds; without it the result is the plain run's.
        assert!(out.result.telemetry.is_some(), "{name}: no telemetry block");
        out.result.telemetry = None;
        assert_eq!(out.result.to_json_full(), plain, "{name}: SimResult");
    }
}
