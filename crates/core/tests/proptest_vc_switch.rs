//! Property-based tests for VC and switch allocation invariants.

use noc_core::{
    validate_live_vc_grants, validate_switch_grants, validate_vc_grants, AllocatorKind, BitMatrix,
    DenseVcAllocator, OutVc, SparseVcAllocator, SpecMode, SpeculativeSwitchAllocator,
    SwitchAllocatorKind, SwitchRequests, VcAllocSpec, VcAllocator, VcRequest, VcRequestSet,
};
use proptest::prelude::*;

/// Strategy: a VC spec from each of the paper's three families (mesh,
/// fbfly, torus) with 1 to 4 VCs per class on 2 to 10 ports: up to the
/// shipped P = 10, V = 16 flattened butterfly, and through the torus's
/// all-to-all class relation.
fn spec_strategy() -> impl Strategy<Value = VcAllocSpec> {
    (2usize..=10, 1usize..=4, 0usize..3).prop_map(|(ports, c, family)| {
        let spec = match family {
            0 => VcAllocSpec::mesh(c),
            1 => VcAllocSpec::fbfly(c),
            _ => VcAllocSpec::torus(c),
        };
        spec.with_ports(ports)
    })
}

/// One request shape per workload.
#[derive(Clone, Copy)]
enum Classes {
    /// One legal successor class per request.
    One,
    /// A random non-empty subset of the legal successor classes.
    Subset,
}

/// Strategy: a workload for a given spec — per input VC an optional
/// (port, classes) request plus an availability mask.
fn workload(
    spec: VcAllocSpec,
    shape: Classes,
) -> impl Strategy<Value = (VcAllocSpec, Vec<Option<VcRequest>>, BitMatrix)> {
    let v = spec.total_vcs();
    let n = spec.ports() * v;
    let ports = spec.ports();
    let spec2 = spec.clone();
    (
        proptest::collection::vec(
            proptest::option::of((0..ports, proptest::num::u8::ANY, proptest::num::u8::ANY)),
            n,
        ),
        proptest::collection::vec(proptest::bool::ANY, ports * v),
    )
        .prop_map(move |(raw, free_bits)| {
            let reqs: Vec<Option<VcRequest>> = raw
                .iter()
                .enumerate()
                .map(|(g, r)| {
                    r.map(|(out_port, class_pick, subset)| {
                        let (_, ir, _) = spec2.vc_class(g % v);
                        let succ = spec2.rc_successors(ir);
                        let first = succ[class_pick as usize % succ.len()];
                        let classes = match shape {
                            Classes::One => vec![first],
                            Classes::Subset => (succ.iter().enumerate())
                                .filter(|&(i, &c)| c == first || subset >> i & 1 == 1)
                                .map(|(_, &c)| c)
                                .collect(),
                        };
                        VcRequest { out_port, classes }
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
            (spec2.clone(), reqs, free)
        })
}

fn vc_workload(
    shape: Classes,
) -> impl Strategy<Value = (VcAllocSpec, Vec<Option<VcRequest>>, BitMatrix)> {
    spec_strategy().prop_flat_map(move |spec| workload(spec, shape))
}

/// Strategy: a spec plus a short sequence of rounds against it.
#[allow(clippy::type_complexity)]
fn vc_rounds(
    shape: Classes,
) -> impl Strategy<Value = (VcAllocSpec, Vec<(Vec<Option<VcRequest>>, BitMatrix)>)> {
    spec_strategy().prop_flat_map(move |spec| {
        let rounds = proptest::collection::vec(workload(spec.clone(), shape), 1..6);
        rounds.prop_map(move |rs| {
            let rounds = rs.into_iter().map(|(_, reqs, free)| (reqs, free)).collect();
            (spec.clone(), rounds)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The two entries of a VC allocator are one round: an allocator driven
    // through its request-slot entry and a twin driven through its live-set
    // entry grant the same output VCs every round (the live list ascending)
    // and end in the same priority state, for all five variants, dense and
    // sparse. The live set is reused across rounds, so its idle slots carry
    // stale ports and classes.
    #[test]
    fn slot_entry_and_live_entry_are_one_round((spec, rounds) in vc_rounds(Classes::Subset)) {
        let kinds = [
            AllocatorKind::SepIfRr,
            AllocatorKind::SepIfMatrix,
            AllocatorKind::SepOfRr,
            AllocatorKind::SepOfMatrix,
            AllocatorKind::Wavefront,
        ];
        for kind in kinds {
            for sparse in [false, true] {
                let build = || -> Box<dyn VcAllocator> {
                    if sparse {
                        Box::new(SparseVcAllocator::new(spec.clone(), kind))
                    } else {
                        Box::new(DenseVcAllocator::new(spec.clone(), kind))
                    }
                };
                let (mut by_slots, mut by_live) = (build(), build());
                let mut set = VcRequestSet::new(spec.ports() * spec.total_vcs());
                let mut slots: Vec<Option<OutVc>> = Vec::new();
                let mut live: Vec<(usize, OutVc)> = Vec::new();
                for (round, (reqs, free)) in rounds.iter().enumerate() {
                    by_slots.allocate_into(reqs, free, &mut slots);
                    set.clear();
                    for (g, req) in reqs.iter().enumerate() {
                        if let Some(req) = req {
                            set.request(g, req.out_port, req.class_mask());
                        }
                    }
                    by_live.allocate_live(&set, free, &mut live);
                    prop_assert!(
                        validate_live_vc_grants(&spec, &set, free, &live).is_ok(),
                        "{kind:?} sparse={sparse} round {round}"
                    );
                    let listed: Vec<(usize, OutVc)> = slots
                        .iter()
                        .enumerate()
                        .filter_map(|(g, grant)| grant.map(|grant| (g, grant)))
                        .collect();
                    prop_assert_eq!(
                        &listed, &live,
                        "{:?} sparse={} round {}", kind, sparse, round
                    );
                }
                // Post-state: the same probe round through the same entry.
                let (reqs, free) = &rounds[0];
                prop_assert_eq!(
                    by_slots.allocate(reqs, free),
                    by_live.allocate(reqs, free),
                    "{:?} sparse={}: priority state diverged", kind, sparse
                );
            }
        }
    }

    #[test]
    fn dense_vc_grants_always_valid((spec, reqs, free) in vc_workload(Classes::Subset)) {
        for kind in AllocatorKind::COST_FIGURE_KINDS {
            let mut a = DenseVcAllocator::new(spec.clone(), kind);
            let g = a.allocate(&reqs, &free);
            prop_assert!(validate_vc_grants(&spec, &reqs, &free, &g).is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn sparse_vc_grants_always_valid((spec, reqs, free) in vc_workload(Classes::Subset)) {
        for kind in AllocatorKind::COST_FIGURE_KINDS {
            let mut a = SparseVcAllocator::new(spec.clone(), kind);
            let g = a.allocate(&reqs, &free);
            prop_assert!(validate_vc_grants(&spec, &reqs, &free, &g).is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn sparse_and_dense_grant_counts_match_exactly((spec, reqs, free) in vc_workload(Classes::Subset)) {
        // Message classes are independent, so splitting the allocator per
        // class must not change behaviour (grant-for-grant) for the
        // separable architectures whose arbiters see identical orderings.
        for kind in [AllocatorKind::SepIfRr, AllocatorKind::SepOfRr, AllocatorKind::MaxSize] {
            let mut d = DenseVcAllocator::new(spec.clone(), kind);
            let mut s = SparseVcAllocator::new(spec.clone(), kind);
            let gd = d.allocate(&reqs, &free);
            let gs = s.allocate(&reqs, &free);
            let nd = gd.iter().filter(|g| g.is_some()).count();
            let ns = gs.iter().filter(|g| g.is_some()).count();
            prop_assert_eq!(nd, ns, "{:?}", kind);
        }
    }

    #[test]
    fn wavefront_vc_allocation_is_maximum((spec, reqs, free) in vc_workload(Classes::One)) {
        // §4.3.2: with class-granular requests, maximal = maximum, so the
        // wavefront grant count must equal the MaxSize count. One class per
        // request: if VC a asks for classes {x, y} and VC b for {x}, with
        // one free VC in each, granting a its x is maximal with one grant
        // where the maximum is two.
        let mut wf = DenseVcAllocator::new(spec.clone(), AllocatorKind::Wavefront);
        let mut ms = DenseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
        let nw = wf.allocate(&reqs, &free).iter().filter(|g| g.is_some()).count();
        let nm = ms.allocate(&reqs, &free).iter().filter(|g| g.is_some()).count();
        prop_assert_eq!(nw, nm);
    }

    #[test]
    fn switch_grants_always_valid(
        ports in 2usize..7,
        vcs in 1usize..5,
        raw in proptest::collection::vec(proptest::option::of(proptest::num::u8::ANY), 42)
    ) {
        use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
        let mut reqs = SwitchRequests::new(ports, vcs);
        for i in 0..ports {
            for v in 0..vcs {
                if let Some(Some(o)) = raw.get(i * vcs + v) {
                    reqs.request(i, v, *o as usize % ports);
                }
            }
        }
        for kind in [
            SwitchAllocatorKind::SepIf(RoundRobin),
            SwitchAllocatorKind::SepIf(Matrix),
            SwitchAllocatorKind::SepOf(RoundRobin),
            SwitchAllocatorKind::SepOf(Matrix),
            SwitchAllocatorKind::Wavefront,
        ] {
            let mut a = kind.build(ports, vcs);
            prop_assert_eq!((a.ports(), a.vcs()), (ports, vcs), "{:?}", kind);
            let g = a.allocate(&reqs);
            prop_assert!(validate_switch_grants(&reqs, &g).is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn speculative_composition_is_conflict_free(
        ports in 2usize..6,
        vcs in 1usize..4,
        raw_ns in proptest::collection::vec(proptest::option::of(proptest::num::u8::ANY), 24),
        raw_sp in proptest::collection::vec(proptest::option::of(proptest::num::u8::ANY), 24)
    ) {
        use noc_arbiter::ArbiterKind::RoundRobin;
        let build = |raw: &[Option<u8>]| {
            let mut reqs = SwitchRequests::new(ports, vcs);
            for i in 0..ports {
                for v in 0..vcs {
                    if let Some(Some(o)) = raw.get(i * vcs + v) {
                        reqs.request(i, v, *o as usize % ports);
                    }
                }
            }
            reqs
        };
        let ns = build(&raw_ns);
        let sp = build(&raw_sp);
        for mode in [SpecMode::Conventional, SpecMode::Pessimistic] {
            let mut a = SpeculativeSwitchAllocator::new(
                SwitchAllocatorKind::SepIf(RoundRobin), ports, vcs, mode,
            );
            let res = a.allocate(&ns, &sp);
            // The union of nonspec grants and surviving spec grants must
            // itself satisfy the one-per-input / one-per-output rule.
            let mut in_used = vec![false; ports];
            let mut out_used = vec![false; ports];
            for g in res.nonspec.iter().chain(&res.spec) {
                prop_assert!(!std::mem::replace(&mut in_used[g.in_port], true), "{mode:?}");
                prop_assert!(!std::mem::replace(&mut out_used[g.out_port], true), "{mode:?}");
            }
            // §5.2: the pessimistic mask is built from the non-speculative
            // requests, not the grants, so no surviving speculative grant
            // uses a port that a non-speculative request wants.
            if mode == SpecMode::Pessimistic {
                for g in &res.spec {
                    prop_assert!(!ns.input_active(g.in_port), "{g:?} at a requesting input");
                    prop_assert!(!ns.output_requested(g.out_port), "{g:?} at a requested output");
                }
            }
        }
    }
}
