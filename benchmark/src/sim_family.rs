//! The simulation family: one whole `run_sim_engine` call per rep, the
//! default path `noc sim` and every sweep point take.
//!
//! Simulated time (cycles, latency, accepted rate) and host time (cycles
//! per second, the ladder's nanoseconds) never mix: every metric says
//! which it is.

use crate::common::{Checks, Values};
use crate::expected::{self, Expectations};
use crate::meter::{Budget, Meter, Samples};
use crate::metrics::{ENGINES, PHASES};
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use noc_obs::{Phase, Profiler, PHASES as OBS_PHASES};
use noc_sim::{run_sim_engine, run_sim_profiled, summarize, Engine, Network, SimConfig, SimResult};
use std::hint::black_box;
use std::time::Instant;

/// Cycles the set-up warm-up network runs: enough to fault in the router,
/// allocator and traffic code before the first timed rep.
const SETUP_CYCLES: u64 = 300;
/// Cycles per engine batch on the pre-warmed ladder network.
const ENGINE_BATCH: u64 = 1_000;
/// Batches per engine.
const ENGINE_ROUNDS: usize = 3;
/// Point reps per side (tracing off / on) in the ladder.
const LADDER_REPS: usize = 5;
/// Accepted throughput, averaged over the leading reps, must be within
/// this share of offered load.
const ACCEPTED_TOLERANCE: f64 = 0.02;

/// One simulation point of the benchmark.
#[derive(Clone, Debug)]
pub struct SimCase {
    /// Key into `expected.json`.
    pub label: &'static str,
    /// Rep `i` simulates this configuration with `seed + i`.
    pub cfg: SimConfig,
    pub warmup: u64,
    pub measure: u64,
    /// The simulated metrics are means over exactly this many leading reps,
    /// so they repeat for a seed however many reps the time budget allows.
    pub det_reps: usize,
    /// A workload of its own (not the probe): also assert accepted ≈
    /// offered and engine equivalence.
    pub full_checks: bool,
}

impl SimCase {
    pub fn cycles(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The configuration rep `i` simulates.
    pub fn rep_cfg(&self, i: usize) -> SimConfig {
        SimConfig {
            seed: self.cfg.seed.wrapping_add(i as u64),
            ..self.cfg.clone()
        }
    }
}

/// What [`measure`] found.
pub struct SimMeasured {
    pub setup: Samples,
    pub reps: Samples,
    pub values: Values,
}

fn setup(case: &SimCase) {
    let mut net = Network::new(case.cfg.clone());
    Engine::Sequential.run(&mut net, SETUP_CYCLES);
    black_box(net.total_flits_injected());
}

/// Set-up, the timed reps, and the output checks of an untraced run.
pub fn measure(
    case: &SimCase,
    meter: &mut Meter,
    budget: Budget,
    setup_reps: usize,
    checks: &mut Checks,
) -> SimMeasured {
    let setup = meter.run(Budget::Reps(setup_reps), |_| setup(case));
    let start = Instant::now();
    let mut reps = Samples::default();
    let (mut latency, mut accepted) = (Vec::new(), Vec::new());
    let mut first = None;
    while budget.more(reps.reps(), start.elapsed().as_secs_f64()) {
        let i = reps.reps();
        let cfg = case.rep_cfg(i);
        let (r, sample) =
            meter.timed(|| run_sim_engine(&cfg, case.warmup, case.measure, Engine::Sequential));
        reps.0.push(sample);
        checks.op(r.stable, || format!("{} rep {i} is not stable", case.label));
        if i < case.det_reps {
            latency.push(r.avg_latency);
            accepted.push(r.throughput);
        }
        first.get_or_insert(r);
    }
    let (latency, accepted) = (stats::mean(&latency), stats::mean(&accepted));
    if case.full_checks {
        // One rep's window is too short for 2 % to be outside sampling
        // noise; the mean over the leading reps is not.
        let offered = case.cfg.injection_rate;
        checks.op(
            (accepted - offered).abs() <= ACCEPTED_TOLERANCE * offered,
            || format!("{}: accepted {accepted} vs offered {offered}", case.label),
        );
        let first = first.expect("at least one rep ran");
        let mismatches = engine_mismatches(case, &first.to_json_full());
        checks.ops(2, mismatches, "engines differ from seq (to_json_full)");
    }
    let values = vec![
        (
            "sim_cycles_per_s".to_string(),
            case.cycles() as f64 / reps.cal_estimate(),
        ),
        ("sim_latency_cycles".to_string(), latency),
        ("sim_accepted_rate".to_string(), accepted),
    ];
    SimMeasured {
        setup,
        reps,
        values,
    }
}

/// Runs rep 0 on the active-set and 2-thread parallel engines and counts
/// how many differ byte-wise from the sequential result.
fn engine_mismatches(case: &SimCase, seq_json: &str) -> u64 {
    [Engine::ActiveSet, Engine::Parallel(2)]
        .into_iter()
        .filter(|&engine| {
            let r = run_sim_engine(&case.rep_cfg(0), case.warmup, case.measure, engine);
            r.to_json_full() != seq_json
        })
        .count() as u64
}

/// `run_sim_engine`'s body, one span per step. With the tracer off this is
/// the untraced side of the overhead comparison.
fn point(
    case: &SimCase,
    tracer: &Tracer,
    parent: Option<SpanId>,
    request_id: u64,
) -> (SimResult, String) {
    tracer.scope("sim.point", parent, request_id, |me| {
        let mut net = tracer.scope("network.construct", me, request_id, |_| {
            Network::new(case.rep_cfg(0))
        });
        net.stats
            .set_window(case.warmup, case.warmup + case.measure);
        tracer.scope("sim.warmup_run", me, request_id, |_| {
            Engine::Sequential.run(&mut net, case.warmup);
        });
        tracer.scope("sim.measured_run", me, request_id, |_| {
            Engine::Sequential.run(&mut net, case.measure);
        });
        let result = tracer.scope("sim.summarize", me, request_id, |_| summarize(&net));
        let json = tracer.scope("sim.to_json", me, request_id, |_| result.to_json_full());
        (result, json)
    })
}

/// The point with tracing off and on, taking turns so that a drift of the
/// box hits both sides alike. Returns the two median walls and the point's
/// `to_json_full`.
fn timed_points(case: &SimCase, tracer: &Tracer) -> (f64, f64, String) {
    let off = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut json = String::new();
    for k in 0..LADDER_REPS {
        let start = Instant::now();
        black_box(point(case, &off, None, 0));
        untraced.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        json = point(case, tracer, None, 1 + k as u64).1;
        traced.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&untraced), stats::median(&traced), json)
}

/// What the sim rung of the ladder found.
pub struct SimLadder {
    pub values: Values,
    /// Traced over untraced wall of the point, minus one.
    pub trace_overhead_share: f64,
    /// `to_json_full` of rep 0 — a cached point, as the `obs` rung parses it.
    pub json: String,
    pub result: SimResult,
}

/// The network / router-phase / sim rungs for one simulation point.
pub fn ladder(
    case: &SimCase,
    tracer: &Tracer,
    expectations: &Expectations,
    checks: &mut Checks,
) -> SimLadder {
    let mut values = Values::new();
    let cfg = case.rep_cfg(0);

    // The point, tracing off then on.
    let (untraced_s, traced_s, json) = timed_points(case, tracer);
    let direct = run_sim_engine(&cfg, case.warmup, case.measure, Engine::Sequential);
    checks.op(direct.to_json_full() == json, || {
        format!("{}: spanned point differs from run_sim_engine", case.label)
    });
    let spans = tracer.spans();
    for share in trace::child_coverage(&spans, "sim.point") {
        checks.op(share >= 0.95, || {
            format!(
                "{}: child spans cover only {share:.3} of sim.point",
                case.label
            )
        });
    }
    let span_median = |name: &str| stats::median(&trace::durations_s(&spans, name));

    // Router phases, from the existing profiled run.
    let start = Instant::now();
    let (profiled, prof): (SimResult, Profiler) = run_sim_profiled(&cfg, case.warmup, case.measure);
    let profiled_s = start.elapsed().as_secs_f64();
    checks.op(profiled.to_json_full() == json, || {
        format!("{}: profiled run differs from the plain run", case.label)
    });
    let shares = prof.shares();
    for (phase, name) in OBS_PHASES.into_iter().zip(PHASES) {
        values.push((format!("router.phase.{name}.share"), shares[phase as usize]));
        values.push((
            format!("router.phase.{name}.ns_per_event"),
            prof.nanos(phase) as f64 / prof.events(phase).max(1) as f64,
        ));
    }
    values.push(("router.phase.other_share".to_string(), prof.other_share()));
    values.push(("sim.profiled_slowdown".to_string(), profiled_s / untraced_s));

    // Engines, in batches on one pre-warmed network: all engines are
    // cycle-identical, so they can take turns advancing it.
    values.push((
        "network.construct_ms".to_string(),
        span_median("network.construct") * 1e3,
    ));
    let engines = [
        Engine::Sequential,
        Engine::ActiveSet,
        Engine::Parallel(1),
        Engine::Parallel(2),
    ];
    let mut net = Network::new(cfg.clone());
    Engine::Sequential.run(&mut net, case.warmup);
    let mut per_engine = vec![Vec::new(); engines.len()];
    tracer.scope("network.engines", None, 0, |me| {
        for _ in 0..ENGINE_ROUNDS {
            for (k, engine) in engines.into_iter().enumerate() {
                let start = Instant::now();
                tracer.scope(&format!("network.run.{}", ENGINES[k]), me, 0, |_| {
                    engine.run(&mut net, ENGINE_BATCH);
                });
                per_engine[k].push(start.elapsed().as_secs_f64() * 1e9 / ENGINE_BATCH as f64);
            }
        }
    });
    black_box(net.total_flits_injected());
    for (name, ns) in ENGINES.into_iter().zip(&per_engine) {
        values.push((format!("network.{name}.ns_per_cycle"), stats::median(ns)));
    }
    values.push((
        "network.ns_per_router_cycle".to_string(),
        stats::median(&per_engine[0]) / net.router_count() as f64,
    ));

    // The point's bookkeeping and exact event counts.
    let hops = prof.events(Phase::Traversal);
    values.push((
        "sim.summarize_us".to_string(),
        span_median("sim.summarize") * 1e6,
    ));
    values.push((
        "sim.to_json_us".to_string(),
        span_median("sim.to_json") * 1e6,
    ));
    values.push(("sim.flit_hops".to_string(), hops as f64));
    values.push((
        "sim.vc_alloc_events".to_string(),
        prof.events(Phase::VcAlloc) as f64,
    ));
    values.push((
        "sim.sw_alloc_events".to_string(),
        prof.events(Phase::SwAlloc) as f64,
    ));
    values.push((
        "sim.host_ns_per_flit_hop".to_string(),
        untraced_s * 1e9 / hops.max(1) as f64,
    ));
    let mismatches = engine_mismatches(case, &json);
    checks.ops(2, mismatches, "engines differ from seq (to_json_full)");
    values.push(("sim.engine_mismatches".to_string(), mismatches as f64));
    let changed = expectations
        .get(case.label, case.cfg.seed)
        .is_some_and(|want| want.digest != expected::digest(&json));
    values.push((
        "sim.digest_changed".to_string(),
        f64::from(u8::from(changed)),
    ));

    SimLadder {
        values,
        trace_overhead_share: traced_s / untraced_s - 1.0,
        json,
        result: direct,
    }
}
