//! Rungs that need no workload input: the arbiter floor under every
//! allocator, an idle router's fixed cost, the JSON reader every cached
//! point goes through, and the Fig. 7/12 quality loops as users run them.

use crate::common::Values;
use crate::stats;
use crate::trace::Tracer;
use noc_arbiter::bank::ArbiterBank;
use noc_arbiter::ArbiterKind;
use noc_core::{AllocatorKind, SwitchAllocatorKind, VcAllocSpec};
use noc_obs::{JsonValue, NopProfiler, NopSink};
use noc_quality::{sw_quality_curve, vc_quality_curve, SwQualityConfig, VcQualityConfig};
use noc_sim::router::{Router, RouterConfig, RouterOutputs};
use noc_sim::{RoutingKind, SimResult, TopologyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const ARBITER_WIDTH: usize = 16;
const ARBITER_COUNT: usize = 64;
const ARBITER_PICKS: usize = 400_000;
const IDLE_STEPS: u64 = 50_000;
const JSON_PARSES: usize = 40;
/// The issue's trial count for the quality loops.
const QUALITY_TRIALS: usize = 2_000;
const QUALITY_RATE: f64 = 0.5;
const BATCHES: usize = 3;

fn median_of_batches(mut batch_s: impl FnMut() -> f64) -> f64 {
    stats::median(&(0..BATCHES).map(|_| batch_s()).collect::<Vec<_>>())
}

/// `ArbiterBank::arbitrate` + `update` on random 16-bit request words.
fn arbiter_ns_per_pick(kind: ArbiterKind, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let words: Vec<u64> = (0..4096)
        .map(|_| rng.next_u64() & ((1 << ARBITER_WIDTH) - 1))
        .collect();
    let mut bank = ArbiterBank::new(kind, ARBITER_COUNT, ARBITER_WIDTH);
    median_of_batches(|| {
        let start = Instant::now();
        let mut wins = 0usize;
        for k in 0..ARBITER_PICKS {
            let a = k % ARBITER_COUNT;
            if let Some(w) = bank.arbitrate(a, words[k % words.len()]) {
                bank.update(a, w);
                wins += w;
            }
        }
        black_box(wins);
        start.elapsed().as_secs_f64() * 1e9 / ARBITER_PICKS as f64
    })
}

/// `Router::new` + `step_into` on a router that never receives a flit.
fn idle_step_ns(topology: TopologyKind, spec: VcAllocSpec, routing: RoutingKind) -> f64 {
    let topo = topology.build();
    median_of_batches(|| {
        let start = Instant::now();
        let mut router = Router::new(0, RouterConfig::paper_default(spec.clone(), routing));
        let mut out = RouterOutputs::with_capacity(router.ports());
        for now in 0..IDLE_STEPS {
            router.step_into(&topo, now, &mut out, &mut NopSink, &mut NopProfiler);
        }
        black_box(out.is_empty());
        start.elapsed().as_secs_f64() * 1e9 / IDLE_STEPS as f64
    })
}

/// The workload-independent rungs. `point_json` is a cached point as the
/// store holds it (`SimResult::to_json_full`).
pub fn ladder(seed: u64, point_json: &str, tracer: &Tracer) -> Values {
    let mut values = Values::new();
    tracer.scope("arbiter", None, 0, |_| {
        for (name, kind) in [
            ("rr", ArbiterKind::RoundRobin),
            ("matrix", ArbiterKind::Matrix),
        ] {
            values.push((
                format!("arbiter.{name}.w{ARBITER_WIDTH}.ns_per_pick"),
                arbiter_ns_per_pick(kind, seed),
            ));
        }
    });
    tracer.scope("router.idle", None, 0, |_| {
        values.push((
            "router.idle_step_ns.p5v4".to_string(),
            idle_step_ns(
                TopologyKind::Mesh8x8,
                VcAllocSpec::mesh(2),
                RoutingKind::DimensionOrder,
            ),
        ));
        values.push((
            "router.idle_step_ns.p10v16".to_string(),
            idle_step_ns(
                TopologyKind::FlattenedButterfly4x4,
                VcAllocSpec::fbfly(4),
                RoutingKind::Ugal { threshold: 3 },
            ),
        ));
    });
    tracer.scope("obs.json", None, 0, |_| {
        let parse_s = median_of_batches(|| {
            let start = Instant::now();
            for _ in 0..JSON_PARSES {
                black_box(JsonValue::parse(black_box(point_json))).ok();
            }
            start.elapsed().as_secs_f64() / JSON_PARSES as f64
        });
        values.push((
            "obs.json_parse_mb_per_s".to_string(),
            point_json.len() as f64 / 1e6 / parse_s,
        ));
        let from_json_s = median_of_batches(|| {
            let start = Instant::now();
            for _ in 0..JSON_PARSES {
                black_box(SimResult::from_json(black_box(point_json))).ok();
            }
            start.elapsed().as_secs_f64() / JSON_PARSES as f64
        });
        values.push(("obs.simresult_from_json_us".to_string(), from_json_s * 1e6));
    });
    tracer.scope("quality", None, 0, |_| {
        let start = Instant::now();
        black_box(vc_quality_curve(
            &VcQualityConfig {
                spec: VcAllocSpec::mesh(2),
                trials: QUALITY_TRIALS,
                seed,
            },
            AllocatorKind::SepIfRr,
            &[QUALITY_RATE],
        ));
        values.push((
            "quality.vc_curve_ms".to_string(),
            start.elapsed().as_secs_f64() * 1e3,
        ));
        let start = Instant::now();
        black_box(sw_quality_curve(
            &SwQualityConfig {
                ports: 5,
                vcs: 4,
                trials: QUALITY_TRIALS,
                seed,
            },
            SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin),
            &[QUALITY_RATE],
        ));
        values.push((
            "quality.sw_curve_ms".to_string(),
            start.elapsed().as_secs_f64() * 1e3,
        ));
    });
    values
}
