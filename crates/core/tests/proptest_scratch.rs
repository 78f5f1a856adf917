//! Differential property tests for the scratch-buffer allocator paths.
//!
//! Every allocator exposes two entry points: `allocate`, which returns a
//! freshly allocated grant vector, and `allocate_into`, which reuses
//! caller-provided scratch buffers (the router hot path — zero heap
//! allocation per cycle). The two must be *grant-for-grant identical*,
//! including across multi-round sequences where the scratch buffers carry
//! stale contents from earlier rounds and the allocators carry priority
//! state. Each comparison therefore feeds the same request sequence to two
//! fresh instances of the same architecture — one per path — so priority
//! updates evolve independently and any divergence compounds visibly.

use noc_core::{
    AllocatorKind, BitMatrix, DenseVcAllocator, OutVc, SparseVcAllocator, SpecAllocResult,
    SpecMode, SpeculativeSwitchAllocator, SwitchAllocatorKind, SwitchRequests, VcAllocSpec,
    VcAllocator, VcRequest,
};
use proptest::prelude::*;

/// The five paper allocator variants (§5): separable input-/output-first
/// with round-robin or matrix arbiters, and wavefront.
const VC_KINDS: [AllocatorKind; 5] = [
    AllocatorKind::SepIfRr,
    AllocatorKind::SepIfMatrix,
    AllocatorKind::SepOfRr,
    AllocatorKind::SepOfMatrix,
    AllocatorKind::Wavefront,
];

fn sw_kinds() -> [SwitchAllocatorKind; 5] {
    use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
    [
        SwitchAllocatorKind::SepIf(RoundRobin),
        SwitchAllocatorKind::SepIf(Matrix),
        SwitchAllocatorKind::SepOf(RoundRobin),
        SwitchAllocatorKind::SepOf(Matrix),
        SwitchAllocatorKind::Wavefront,
    ]
}

/// Strategy: a VC spec drawn from the paper's families with small ports.
fn spec_strategy() -> impl Strategy<Value = VcAllocSpec> {
    (2usize..=5, 1usize..=2, prop::bool::ANY).prop_map(|(ports, c, fb)| {
        if fb {
            VcAllocSpec::fbfly(c).with_ports(ports)
        } else {
            VcAllocSpec::mesh(c).with_ports(ports)
        }
    })
}

/// Strategy: one VC-allocation round for `spec` — legal per-VC requests
/// plus a free-VC mask.
fn vc_round(spec: VcAllocSpec) -> impl Strategy<Value = (Vec<Option<VcRequest>>, BitMatrix)> {
    let v = spec.total_vcs();
    let ports = spec.ports();
    let n = ports * v;
    (
        proptest::collection::vec(proptest::option::of((0..ports, proptest::num::u8::ANY)), n),
        proptest::collection::vec(proptest::bool::ANY, n),
    )
        .prop_map(move |(raw, free_bits)| {
            let reqs: Vec<Option<VcRequest>> = raw
                .iter()
                .enumerate()
                .map(|(g, r)| {
                    r.map(|(port, class_pick)| {
                        let (_, ir, _) = spec.vc_class(g % v);
                        let succ = spec.rc_successors(ir);
                        let class = succ[class_pick as usize % succ.len()];
                        VcRequest::one_class(port, class)
                    })
                })
                .collect();
            let mut free = BitMatrix::new(ports, v);
            for p in 0..ports {
                for vc in 0..v {
                    if free_bits[p * v + vc] {
                        free.set(p, vc, true);
                    }
                }
            }
            (reqs, free)
        })
}

/// Strategy: a spec plus a short sequence of rounds against it.
#[allow(clippy::type_complexity)]
fn vc_sequence() -> impl Strategy<Value = (VcAllocSpec, Vec<(Vec<Option<VcRequest>>, BitMatrix)>)> {
    spec_strategy().prop_flat_map(|spec| {
        let rounds = proptest::collection::vec(vc_round(spec.clone()), 1..5);
        rounds.prop_map(move |rs| (spec.clone(), rs))
    })
}

/// Builds a switch-request matrix from raw bytes.
fn sw_requests(ports: usize, vcs: usize, raw: &[Option<u8>]) -> SwitchRequests {
    let mut reqs = SwitchRequests::new(ports, vcs);
    for i in 0..ports {
        for v in 0..vcs {
            if let Some(Some(o)) = raw.get(i * vcs + v) {
                reqs.request(i, v, *o as usize % ports);
            }
        }
    }
    reqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Sparse VC allocator: `allocate` is `allocate_into` on a new result
    // vector, so what differs between the two sides is only the buffer —
    // one is empty every round, the other still holds the previous
    // round's grants. Same grants, every round, all variants.
    #[test]
    fn sparse_vc_scratch_path_matches_fresh_path((spec, rounds) in vc_sequence()) {
        for kind in VC_KINDS {
            let mut fresh = SparseVcAllocator::new(spec.clone(), kind);
            let mut scratch = SparseVcAllocator::new(spec.clone(), kind);
            let mut out: Vec<Option<OutVc>> = Vec::new();
            for (round, (reqs, free)) in rounds.iter().enumerate() {
                let a = fresh.allocate(reqs, free);
                scratch.allocate_into(reqs, free, &mut out);
                prop_assert_eq!(&a, &out, "{:?} round {}", kind, round);
            }
        }
    }

    // Dense organization: same contract, same variants.
    #[test]
    fn dense_vc_scratch_path_matches_fresh_path((spec, rounds) in vc_sequence()) {
        for kind in VC_KINDS {
            let mut fresh = DenseVcAllocator::new(spec.clone(), kind);
            let mut scratch = DenseVcAllocator::new(spec.clone(), kind);
            let mut out: Vec<Option<OutVc>> = Vec::new();
            for (round, (reqs, free)) in rounds.iter().enumerate() {
                let a = fresh.allocate(reqs, free);
                scratch.allocate_into(reqs, free, &mut out);
                prop_assert_eq!(&a, &out, "{:?} round {}", kind, round);
            }
        }
    }

    // Switch allocators: the returned grant list must match the
    // buffer-reusing path exactly, for all five variants, across rounds
    // (round-robin and matrix priorities update between rounds).
    #[test]
    fn switch_scratch_path_matches_fresh_path(
        ports in 2usize..7,
        vcs in 1usize..5,
        raw_rounds in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(proptest::num::u8::ANY), 42), 1..5)
    ) {
        for kind in sw_kinds() {
            let mut fresh = kind.build(ports, vcs);
            let mut scratch = kind.build(ports, vcs);
            let mut out = Vec::new();
            for (round, raw) in raw_rounds.iter().enumerate() {
                let reqs = sw_requests(ports, vcs, raw);
                let a = fresh.allocate(&reqs);
                scratch.allocate_into(&reqs, &mut out);
                prop_assert_eq!(&a, &out, "{:?} round {}", kind, round);
            }
        }
    }

    // The speculative composition wrapper: nonspec grants, surviving
    // spec grants and masked grants must all match between the fresh and
    // the scratch ([`SpecAllocResult`] reuse) paths.
    #[test]
    fn speculative_scratch_path_matches_fresh_path(
        ports in 2usize..6,
        vcs in 1usize..4,
        raw_rounds in proptest::collection::vec(
            (proptest::collection::vec(proptest::option::of(proptest::num::u8::ANY), 24),
             proptest::collection::vec(proptest::option::of(proptest::num::u8::ANY), 24)),
            1..4)
    ) {
        use noc_arbiter::ArbiterKind::RoundRobin;
        for mode in [SpecMode::NonSpeculative, SpecMode::Conventional, SpecMode::Pessimistic] {
            let mut fresh = SpeculativeSwitchAllocator::new(
                SwitchAllocatorKind::SepIf(RoundRobin), ports, vcs, mode,
            );
            let mut scratch = SpeculativeSwitchAllocator::new(
                SwitchAllocatorKind::SepIf(RoundRobin), ports, vcs, mode,
            );
            let mut out = SpecAllocResult::default();
            for (round, (raw_ns, raw_sp)) in raw_rounds.iter().enumerate() {
                let ns = sw_requests(ports, vcs, raw_ns);
                let sp = sw_requests(ports, vcs, raw_sp);
                let a = fresh.allocate(&ns, &sp);
                scratch.allocate_into(&ns, &sp, &mut out);
                prop_assert_eq!(&a.nonspec, &out.nonspec, "{:?} round {} nonspec", mode, round);
                prop_assert_eq!(&a.spec, &out.spec, "{:?} round {} spec", mode, round);
                prop_assert_eq!(&a.masked, &out.masked, "{:?} round {} masked", mode, round);
            }
        }
    }
}
