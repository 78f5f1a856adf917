//! The allocator family: the paper's §3.1 open-loop method. Request sets
//! are generated up front with the quality crate's generators and replayed
//! through `allocate_into`, so `core` does all the work and the router,
//! network and sweep layers none.

use crate::common::{Checks, Values};
use crate::meter::{Budget, Meter, Samples};
use crate::metrics::{ALLOCS, FAT_CELL, RATES, SHAPES};
use crate::trace::Tracer;
use noc_arbiter::ArbiterKind;
use noc_core::{
    validate_switch_grants, validate_vc_grants, AllocatorKind, BitMatrix, DenseVcAllocator, OutVc,
    SparseVcAllocator, SpecAllocResult, SpecMode, SpeculativeSwitchAllocator, SwitchAllocator,
    SwitchAllocatorKind, SwitchGrant, SwitchRequests, VcAllocSpec, VcAllocator, VcRequest,
};
use noc_quality::sw_quality::{max_switch_grants, random_sw_requests};
use noc_quality::vc_quality::random_vc_requests;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const REQUEST_RATES: [f64; 2] = [0.05, 0.5];
/// Every this-many-th grant set of every cell is validated.
const VALIDATE_EVERY: usize = 8;
/// Request sets the matching-efficiency metrics use: the maximum-size
/// reference is two orders of magnitude slower than the allocators.
const EFFICIENCY_SETS: usize = 200;

const SEP_IF: SwitchAllocatorKind = SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin);
const SEP_OF: SwitchAllocatorKind = SwitchAllocatorKind::SepOf(ArbiterKind::RoundRobin);

/// Size of the replayed mix.
#[derive(Clone, Debug)]
pub struct AllocCase {
    pub seed: u64,
    /// Request sets per stream (the paper uses 10 000; the issue asks for
    /// at least 1 000 at full size).
    pub sets: usize,
    /// Timed reps: at least this many for the workload itself, exactly this
    /// many for a probe.
    pub reps: usize,
}

fn shape_spec(shape: usize) -> VcAllocSpec {
    match shape {
        0 => VcAllocSpec::mesh(2),
        _ => VcAllocSpec::fbfly(4),
    }
}

/// The request streams of one shape at one rate. Every allocator of a kind
/// sees the same sequence, as in the paper's method.
pub struct Streams {
    spec: VcAllocSpec,
    vc: Vec<Vec<Option<VcRequest>>>,
    /// Open loop: every output VC is free in every trial.
    free: BitMatrix,
    sw: Vec<SwitchRequests>,
    /// Each switch request set split at random into non-speculative and
    /// speculative halves — an input VC bids one way or the other.
    spec_pairs: Vec<(SwitchRequests, SwitchRequests)>,
}

impl Streams {
    pub fn generate(seed: u64, shape: usize, rate: usize, sets: usize) -> Streams {
        let spec = shape_spec(shape);
        let (ports, vcs) = (spec.ports(), spec.total_vcs());
        let mut rng = StdRng::seed_from_u64(seed ^ ((shape as u64) << 8 | rate as u64) << 32);
        let p = REQUEST_RATES[rate];
        let vc = (0..sets)
            .map(|_| random_vc_requests(&spec, &mut rng, p))
            .collect();
        let sw: Vec<SwitchRequests> = (0..sets)
            .map(|_| random_sw_requests(ports, vcs, &mut rng, p))
            .collect();
        let spec_pairs = (0..sets)
            .map(|_| {
                let all = random_sw_requests(ports, vcs, &mut rng, p);
                let mut nonspec = SwitchRequests::new(ports, vcs);
                let mut speculative = SwitchRequests::new(ports, vcs);
                for port in 0..ports {
                    for v in 0..vcs {
                        if let Some(out) = all.get(port, v) {
                            if rng.gen_bool(0.5) {
                                nonspec.request(port, v, out);
                            } else {
                                speculative.request(port, v, out);
                            }
                        }
                    }
                }
                (nonspec, speculative)
            })
            .collect();
        let mut free = BitMatrix::new(ports, vcs);
        for port in 0..ports {
            for v in 0..vcs {
                free.set(port, v, true);
            }
        }
        Streams {
            spec,
            vc,
            free,
            sw,
            spec_pairs,
        }
    }

    pub fn sets(&self) -> usize {
        self.vc.len()
    }

    /// A stable fingerprint of the generated inputs (for the seed test).
    #[cfg(test)]
    fn fingerprint(&self) -> String {
        format!("{:?}{:?}", self.vc, self.spec_pairs.len())
            + &self
                .sw
                .iter()
                .chain(self.spec_pairs.iter().flat_map(|(a, b)| [a, b]))
                .map(|r| format!("{:?}", r.port_matrix()))
                .collect::<String>()
    }
}

/// One allocator under test.
enum Unit {
    Vc(Box<dyn VcAllocator>),
    Sw(Box<dyn SwitchAllocator + Send>),
    Spec(SpeculativeSwitchAllocator),
}

/// Reusable grant buffers, so `allocate_into` never allocates in the loop.
#[derive(Default)]
struct Grants {
    vc: Vec<Option<OutVc>>,
    sw: Vec<SwitchGrant>,
    spec: SpecAllocResult,
}

fn sorted(grants: &[SwitchGrant]) -> Vec<(usize, usize, usize)> {
    let mut v: Vec<_> = grants
        .iter()
        .map(|g| (g.in_port, g.vc, g.out_port))
        .collect();
    v.sort_unstable();
    v
}

impl Grants {
    /// Whether two grant sets are the same grants (switch grants in any
    /// order).
    fn same_as(&self, other: &Grants) -> bool {
        self.vc == other.vc
            && sorted(&self.sw) == sorted(&other.sw)
            && sorted(&self.spec.nonspec) == sorted(&other.spec.nonspec)
            && sorted(&self.spec.spec) == sorted(&other.spec.spec)
            && sorted(&self.spec.masked) == sorted(&other.spec.masked)
    }
}

impl Unit {
    /// Kernel (`reference == false`) or scalar reference of allocator
    /// `alloc` (index into [`ALLOCS`]); the sparse VC allocator has no
    /// reference.
    fn build(alloc: usize, spec: &VcAllocSpec, reference: bool) -> Option<Unit> {
        let (ports, vcs) = (spec.ports(), spec.total_vcs());
        let dense = |kind| {
            Unit::Vc(Box::new(if reference {
                DenseVcAllocator::new_reference(spec.clone(), kind)
            } else {
                DenseVcAllocator::new(spec.clone(), kind)
            }))
        };
        let switch = |kind: SwitchAllocatorKind| {
            Unit::Sw(if reference {
                kind.build_reference(ports, vcs)
            } else {
                kind.build(ports, vcs)
            })
        };
        let speculative = |mode| {
            Unit::Spec(if reference {
                SpeculativeSwitchAllocator::new_reference(SEP_IF, ports, vcs, mode)
            } else {
                SpeculativeSwitchAllocator::new(SEP_IF, ports, vcs, mode)
            })
        };
        Some(match ALLOCS[alloc] {
            "vc_sparse_sepif" if reference => return None,
            "vc_sparse_sepif" => Unit::Vc(Box::new(SparseVcAllocator::new(
                spec.clone(),
                AllocatorKind::SepIfRr,
            ))),
            "vc_dense_sepif" => dense(AllocatorKind::SepIfRr),
            "vc_dense_wf" => dense(AllocatorKind::Wavefront),
            "sw_sepif" => switch(SEP_IF),
            "sw_sepof" => switch(SEP_OF),
            "sw_wf" => switch(SwitchAllocatorKind::Wavefront),
            "spec_pess" => speculative(SpecMode::Pessimistic),
            "spec_conv" => speculative(SpecMode::Conventional),
            other => unreachable!("unknown allocator {other}"),
        })
    }

    /// One `allocate_into` call on request set `i`.
    #[inline]
    fn step(&mut self, s: &Streams, i: usize, out: &mut Grants) {
        match self {
            Unit::Vc(a) => a.allocate_into(&s.vc[i], &s.free, &mut out.vc),
            Unit::Sw(a) => a.allocate_into(&s.sw[i], &mut out.sw),
            Unit::Spec(a) => a.allocate_into(&s.spec_pairs[i].0, &s.spec_pairs[i].1, &mut out.spec),
        }
    }

    /// One pass over the stream.
    fn replay(&mut self, s: &Streams, out: &mut Grants) {
        for i in 0..s.sets() {
            self.step(s, i, out);
            black_box(&mut *out);
        }
    }

    /// Whether the grants just produced for set `i` are structurally valid.
    fn valid(&self, s: &Streams, i: usize, out: &Grants) -> bool {
        match self {
            Unit::Vc(_) => validate_vc_grants(&s.spec, &s.vc[i], &s.free, &out.vc).is_ok(),
            Unit::Sw(_) => validate_switch_grants(&s.sw[i], &out.sw).is_ok(),
            Unit::Spec(_) => {
                let (nonspec, speculative) = &s.spec_pairs[i];
                let mut attempted = out.spec.spec.clone();
                attempted.extend_from_slice(&out.spec.masked);
                // Surviving speculative grants must not collide with the
                // non-speculative ones on any port.
                let clash = out.spec.spec.iter().any(|g| {
                    out.spec
                        .nonspec
                        .iter()
                        .any(|n| n.in_port == g.in_port || n.out_port == g.out_port)
                });
                validate_switch_grants(nonspec, &out.spec.nonspec).is_ok()
                    && validate_switch_grants(speculative, &attempted).is_ok()
                    && !clash
            }
        }
    }
}

/// One `<alloc>.<shape>.<rate>` cell.
struct Cell {
    name: String,
    alloc: usize,
    stream: usize,
    unit: Unit,
}

/// Everything set-up builds: the streams and one allocator per cell.
pub struct Ready {
    streams: Vec<Streams>,
    cells: Vec<Cell>,
    grants: Grants,
}

pub fn setup(case: &AllocCase) -> Ready {
    let mut streams = Vec::new();
    for shape in 0..SHAPES.len() {
        for rate in 0..RATES.len() {
            streams.push(Streams::generate(case.seed, shape, rate, case.sets));
        }
    }
    let mut cells = Vec::new();
    for alloc in 0..ALLOCS.len() {
        for shape in 0..SHAPES.len() {
            for rate in 0..RATES.len() {
                let stream = shape * RATES.len() + rate;
                cells.push(Cell {
                    name: format!("{}.{}.{}", ALLOCS[alloc], SHAPES[shape], RATES[rate]),
                    alloc,
                    stream,
                    unit: Unit::build(alloc, &streams[stream].spec, false)
                        .expect("every allocator has a kernel"),
                });
            }
        }
    }
    Ready {
        streams,
        cells,
        grants: Grants::default(),
    }
}

impl Ready {
    /// `allocate_into` calls in one rep of the whole mix.
    fn calls(&self, case: &AllocCase) -> usize {
        self.cells.len() * case.sets
    }

    /// Every cell replays its stream once: equal calls per cell.
    fn replay_all(&mut self) {
        for cell in &mut self.cells {
            cell.unit
                .replay(&self.streams[cell.stream], &mut self.grants);
        }
    }

    /// Replays every cell once from power-on state, validating a sample of
    /// the grant sets. Returns `(checked, invalid)`.
    fn validate(&mut self) -> (u64, u64) {
        let (mut checked, mut invalid) = (0, 0);
        for cell in &mut self.cells {
            let s = &self.streams[cell.stream];
            let mut unit =
                Unit::build(cell.alloc, &s.spec, false).expect("every allocator has a kernel");
            for i in 0..s.sets() {
                unit.step(s, i, &mut self.grants);
                if i % VALIDATE_EVERY == 0 {
                    checked += 1;
                    invalid += u64::from(!unit.valid(s, i, &self.grants));
                }
            }
        }
        (checked, invalid)
    }
}

pub struct AllocMeasured {
    pub setup: Samples,
    pub reps: Samples,
    pub values: Values,
}

/// Set-up, the timed reps, and the output checks of an untraced run.
pub fn measure(
    case: &AllocCase,
    meter: &mut Meter,
    budget: Budget,
    setup_reps: usize,
    checks: &mut Checks,
) -> AllocMeasured {
    let mut ready = None;
    let setup = meter.run(Budget::Reps(setup_reps), |_| {
        let mut r = setup(case);
        // The warm-up rep.
        r.replay_all();
        ready = Some(r);
    });
    let mut ready = ready.expect("set-up ran at least once");
    let reps = meter.run(budget, |_| ready.replay_all());
    let (checked, invalid) = ready.validate();
    checks.ops(checked, invalid, "sampled grant sets are invalid");
    let values = vec![(
        "allocs_per_s".to_string(),
        ready.calls(case) as f64 / reps.cal_estimate(),
    )];
    AllocMeasured {
        setup,
        reps,
        values,
    }
}

pub struct AllocLadder {
    pub values: Values,
    pub trace_overhead_share: f64,
}

/// The `core` rung: per-cell cost, kernel against scalar reference, and
/// the useful-to-attempted ratios.
pub fn ladder(case: &AllocCase, tracer: &Tracer, checks: &mut Checks) -> AllocLadder {
    let mut values = Values::new();
    let mut ready = setup(case);
    ready.replay_all();

    // The mix with tracing off, then with one span per cell.
    let start = Instant::now();
    ready.replay_all();
    let untraced_s = start.elapsed().as_secs_f64();
    let calls_per_cell = case.sets as f64;
    let start = Instant::now();
    tracer.scope("core.mix", None, 0, |me| {
        for cell in &mut ready.cells {
            let cell_start = Instant::now();
            tracer.scope(&format!("core.{}", cell.name), me, 0, |_| {
                cell.unit
                    .replay(&ready.streams[cell.stream], &mut ready.grants);
            });
            values.push((
                format!("core.{}.ns_per_call", cell.name),
                cell_start.elapsed().as_secs_f64() * 1e9 / calls_per_cell,
            ));
        }
    });
    let traced_s = start.elapsed().as_secs_f64();
    let (checked, invalid) = ready.validate();
    checks.ops(checked, invalid, "sampled grant sets are invalid");

    // Kernel against reference on the fat, busy cell; grants must agree.
    let fat = SHAPES.len() * RATES.len() - 1;
    let s = &ready.streams[fat];
    let (mut kernel_out, mut reference_out) = (Grants::default(), Grants::default());
    for alloc in 1..ALLOCS.len() {
        let mut kernel = Unit::build(alloc, &s.spec, false).expect("kernel exists");
        let mut reference = Unit::build(alloc, &s.spec, true).expect("reference exists");
        let mut mismatches = 0;
        for i in 0..s.sets() {
            kernel.step(s, i, &mut kernel_out);
            reference.step(s, i, &mut reference_out);
            mismatches += u64::from(!kernel_out.same_as(&reference_out));
        }
        checks.ops(
            s.sets() as u64,
            mismatches,
            &format!("{} grants differ from the reference", ALLOCS[alloc]),
        );
        let time = |unit: &mut Unit, out: &mut Grants| {
            let start = Instant::now();
            unit.replay(s, out);
            start.elapsed().as_secs_f64()
        };
        // One more pass each from the same priority state.
        let kernel_s = time(&mut kernel, &mut kernel_out);
        let reference_s = time(&mut reference, &mut reference_out);
        values.push((
            format!("core.{}.{FAT_CELL}.ref_ratio", ALLOCS[alloc]),
            reference_s / kernel_s,
        ));
    }

    // Grants over maximum-matching grants, and masked over speculative.
    let sets = s.sets().min(EFFICIENCY_SETS);
    let mut max_vc = DenseVcAllocator::new(s.spec.clone(), AllocatorKind::MaxSize);
    let max_vc_grants: usize = (0..sets)
        .map(|i| max_vc.allocate(&s.vc[i], &s.free).iter().flatten().count())
        .sum();
    let max_sw_grants: usize = (0..sets).map(|i| max_switch_grants(&s.sw[i])).sum();
    for alloc in 0..ALLOCS.len() {
        let mut unit = Unit::build(alloc, &s.spec, false).expect("kernel exists");
        // Fresh buffers: a unit only ever writes its own kind of grant.
        let mut out = Grants::default();
        let (mut granted, mut survived, mut masked) = (0usize, 0usize, 0usize);
        for i in 0..sets {
            unit.step(s, i, &mut out);
            granted += out.vc.iter().flatten().count() + out.sw.len();
            survived += out.spec.spec.len();
            masked += out.spec.masked.len();
        }
        match unit {
            Unit::Vc(_) => values.push((
                format!("core.{}.{FAT_CELL}.match_efficiency", ALLOCS[alloc]),
                granted as f64 / max_vc_grants.max(1) as f64,
            )),
            Unit::Sw(_) => values.push((
                format!("core.{}.{FAT_CELL}.match_efficiency", ALLOCS[alloc]),
                granted as f64 / max_sw_grants.max(1) as f64,
            )),
            Unit::Spec(_) => values.push((
                format!("core.{}.{FAT_CELL}.spec_kill_share", ALLOCS[alloc]),
                masked as f64 / (survived + masked).max(1) as f64,
            )),
        }
    }

    AllocLadder {
        values,
        trace_overhead_share: traced_s / untraced_s - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_the_same_streams_and_another_seed_different_ones() {
        let a = Streams::generate(7, 1, 1, 20);
        let b = Streams::generate(7, 1, 1, 20);
        let c = Streams::generate(8, 1, 1, 20);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Shapes and rates draw from separate streams.
        assert_ne!(
            Streams::generate(7, 0, 1, 20).fingerprint(),
            Streams::generate(7, 0, 0, 20).fingerprint()
        );
    }

    #[test]
    fn every_cell_produces_valid_grants_and_kernels_match_references() {
        let case = AllocCase {
            seed: 3,
            sets: 40,
            reps: 1,
        };
        let mut ready = setup(&case);
        assert_eq!(ready.cells.len(), 32);
        assert_eq!(ready.calls(&case), 32 * 40);
        ready.replay_all();
        let (checked, invalid) = ready.validate();
        assert_eq!((checked, invalid), (32 * 5, 0));
        let mut checks = Checks::default();
        let ladder = ladder(&case, &Tracer::new(true), &mut checks);
        assert_eq!(checks.failed, 0);
        assert_eq!(ladder.values.len(), 32 + 7 + 6 + 2);
        for (name, v) in &ladder.values {
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
            if name.ends_with("match_efficiency") {
                assert!(*v <= 1.0, "{name} = {v}");
            }
        }
    }
}
