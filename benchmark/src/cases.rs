//! What each workload runs: inputs built in code from `--seed`, never from
//! env-sized presets. The code under test receives only these inputs.
//!
//! Every run reports all ten end-to-end metrics, so besides the family a
//! workload drives at full size it runs a short fixed probe of each other
//! family; the sizes below say which is which. Tune counts, never names.

use crate::alloc_family::AllocCase;
use crate::metrics::Family;
use crate::serve_family::ServeCase;
use crate::sim_family::SimCase;
use crate::sweep_family::SweepCase;
use noc_arbiter::ArbiterKind;
use noc_bench::sweep::{SweepGrid, SweepSpec};
use noc_core::{SpecMode, SwitchAllocatorKind};
use noc_sim::{SimConfig, TopologyKind};

/// The paper's publication date, as `SimConfig::paper_baseline` uses it.
pub const DEFAULT_SEED: u64 = 0x5c09_2009;
/// Never used while a change is being written; claims must hold here too.
pub const HELD_OUT_SEED: u64 = 0x0b5e_55ed;

/// Seeds cross the serve wire as JSON numbers, exact up to 2^53.
const WIRE_SEED_MASK: u64 = (1 << 53) - 1;

/// The inputs of one run: a full-size case for the workload's own family
/// and probe-size cases for the others.
pub struct Plan {
    pub native: Family,
    pub sim: SimCase,
    pub alloc: AllocCase,
    pub sweep: SweepCase,
    pub serve: ServeCase,
}

fn mesh(rate: f64, seed: u64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        seed,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
    }
}

/// The three sim workloads and the sim probe, in that order. Windows give
/// ~0.2 s per rep on the reference box: the calibration loop tracks the
/// box's drift only over reps that short.
pub fn sim_cases(seed: u64) -> [SimCase; 4] {
    let native = |label, cfg, warmup, measure| SimCase {
        label,
        cfg,
        warmup,
        measure,
        det_reps: 16,
        full_checks: true,
    };
    [
        // P=5, V=4; sparse sep_if/rr VCA, sep_if/rr SA, pessimistic.
        native("mesh_heavy", mesh(0.36, seed), 500, 1_500),
        native("mesh_idle", mesh(0.05, seed), 1_000, 7_000),
        // P=10, V=16, UGAL; wavefront SA, grant masking.
        native(
            "fbfly_wf",
            SimConfig {
                injection_rate: 0.30,
                seed,
                sa_kind: SwitchAllocatorKind::Wavefront,
                spec_mode: SpecMode::Conventional,
                ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 4)
            },
            500,
            2_000,
        ),
        SimCase {
            label: "sim_probe",
            cfg: mesh(0.20, seed),
            warmup: 300,
            measure: 900,
            det_reps: 20,
            full_checks: false,
        },
    ]
}

fn alloc_case(seed: u64, native: bool) -> AllocCase {
    AllocCase {
        seed,
        sets: if native { 1_000 } else { 125 },
        reps: if native { 5 } else { 16 },
    }
}

/// Mesh C∈{1,2} and fbfly C=2 × SA {sep_if, sep_of, wf} × `rates`.
fn sweep_spec(name: &str, seed: u64, rates: &[f64], warmup: u64, measure: u64) -> SweepSpec {
    let grid = |topology, vcs: Vec<usize>| SweepGrid {
        topology: vec![topology],
        vcs,
        sa: vec![
            SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin),
            SwitchAllocatorKind::SepOf(ArbiterKind::RoundRobin),
            SwitchAllocatorKind::Wavefront,
        ],
        rates: rates.to_vec(),
        seeds: vec![seed],
        warmup,
        measure,
        ..SweepGrid::default()
    };
    SweepSpec {
        name: name.to_string(),
        grids: vec![
            grid(TopologyKind::Mesh8x8, vec![1, 2]),
            grid(TopologyKind::FlattenedButterfly4x4, vec![2]),
        ],
    }
}

fn sweep_case(seed: u64, native: bool) -> SweepCase {
    let rates: Vec<f64> = (1..=8).map(|i| f64::from(i) * 0.05).collect();
    if native {
        // 3 × 3 × 8 = 72 points.
        SweepCase {
            spec: sweep_spec("bench-cold", seed, &rates, 100, 300),
            warm_spec: sweep_spec("bench-warmup", seed, &rates[..1], 100, 300),
            reps: 3,
        }
    } else {
        // 3 × 3 × 2 = 18 points.
        SweepCase {
            spec: sweep_spec("bench-probe", seed, &[0.1, 0.3], 100, 300),
            warm_spec: sweep_spec("bench-warmup", seed, &rates[..1], 50, 100),
            reps: 10,
        }
    }
}

fn serve_case(seed: u64, native: bool) -> ServeCase {
    let seed = seed & WIRE_SEED_MASK;
    if native {
        // Two 16-point grids sharing 8 points: 24 unique digests.
        ServeCase {
            seed,
            rate_hundredths: (1..=24).collect(),
            grid: 16,
            stride: 8,
            warmup: 200,
            measure: 600,
            min_requests: 400,
            ladder_requests: 200,
        }
    } else {
        ServeCase {
            seed,
            rate_hundredths: (1..=6).map(|i| 5 * i).collect(),
            grid: 4,
            stride: 2,
            warmup: 100,
            measure: 300,
            min_requests: 120,
            ladder_requests: 60,
        }
    }
}

/// The inputs of `workload` at `seed`; `None` for an unknown name.
pub fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let native = crate::metrics::workload(workload)?.family;
    let [heavy, idle, fbfly, probe] = sim_cases(seed);
    let sim = match workload {
        "mesh_heavy" => heavy,
        "mesh_idle" => idle,
        "fbfly_wf" => fbfly,
        _ => probe,
    };
    Some(Plan {
        native,
        sim,
        alloc: alloc_case(seed, native == Family::Alloc),
        sweep: sweep_case(seed, native == Family::Sweep),
        serve: serve_case(seed, native == Family::Serve),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn every_workload_has_a_plan_sized_for_its_family() {
        for w in &WORKLOADS {
            let p = plan(w.name, DEFAULT_SEED).expect("plan");
            assert_eq!(p.native, w.family);
            assert_eq!(p.sim.full_checks, w.family == Family::Sim);
            assert_eq!(p.sweep.spec.expand().len() == 72, w.family == Family::Sweep);
            assert_eq!(p.serve.grid == 16, w.family == Family::Serve);
            assert_eq!(p.alloc.sets >= 1_000, w.family == Family::Alloc);
        }
        assert!(plan("nope", 1).is_none());
    }

    #[test]
    fn the_seed_reaches_every_generated_input() {
        let (a, b) = (
            plan("sweep_cold", 7).expect("plan"),
            plan("sweep_cold", 8).expect("plan"),
        );
        assert_ne!(a.sim.cfg.seed, b.sim.cfg.seed);
        assert_ne!(a.alloc.seed, b.alloc.seed);
        assert_ne!(a.sweep.spec.digest(), b.sweep.spec.digest());
        assert_ne!(a.serve.seed, b.serve.seed);
        // And the same seed gives the same inputs.
        let c = plan("sweep_cold", 7).expect("plan");
        assert_eq!(a.sweep.spec.digest(), c.sweep.spec.digest());
        assert_eq!(a.sim.rep_cfg(3).seed, c.sim.rep_cfg(3).seed);
        assert!(plan("serve_warm", u64::MAX).expect("plan").serve.seed < 1 << 53);
    }
}
