//! Differential test layer: bit-parallel allocator kernels vs their scalar
//! oracles.
//!
//! Every router-facing allocator in this crate is a `u64` kernel; the
//! element-wise implementation it was derived from is kept in
//! `noc_core::reference`. This suite drives each kernel / oracle pair with
//! identical request streams and asserts grant-identical behaviour:
//!
//! * the wavefront core — exhaustively over **every** request matrix up to
//!   4×4 across multi-round priority-rotation sequences, randomly (via the
//!   vendored proptest shim) over 5×5–16×16 matrices with matrix-case
//!   minimization on failure, and on arrays one to four words wide,
//!   including the entry-fed path's rotating state from start diagonals
//!   on both sides of every word boundary;
//! * the three switch allocators (per-VC request matrices, including the
//!   wavefront pre-selection arbiters);
//! * the separable VC allocator, with sparse free-VC masks and the class
//!   legality structure, up to the paper's widest router (fbfly C = 4:
//!   `P*V = 160`) and at the `V = 64` / `P = 64` limits, past which a
//!   router is rejected;
//! * the sparse VC allocator, against `M` scalar dense sub-allocators fed
//!   per-class projections — the construction §4.2 describes;
//! * the speculation mask, where the AND-NOT kill must agree with the
//!   scalar `Vec<bool>` masking for every mode.
//!
//! The textbook `n × n` separable allocators have one (scalar)
//! implementation and so no pair; `tests/allocator_properties.rs` holds
//! their properties.
//!
//! Priority state is part of the contract: each comparison drives one
//! allocator pair through a whole sequence of rounds, so a single divergent
//! pointer update surfaces as a grant mismatch in a later round even if the
//! grants of the divergent round happen to coincide.

use noc_core::reference::{
    mask_speculative, wavefront_with_diagonal_into, SparseVcAllocator as ProjectedSparseVcAllocator,
};
use noc_core::{
    validate_vc_grants, AllocatorKind, BitMatrix, DenseVcAllocator, SparseVcAllocator,
    SpecAllocResult, SpecError, SpecMode, SpeculativeSwitchAllocator, SwitchAllocatorKind,
    SwitchGrant, SwitchRequests, VcAllocSpec, VcAllocator, VcRequest, WavefrontAllocator,
};
use proptest::prelude::*;

/// The `n × n` allocator kinds with both a kernel and a scalar oracle
/// ([`AllocatorKind::build_reference`] is `build` for every other kind).
const PAIRED_KINDS: [AllocatorKind; 1] = [AllocatorKind::Wavefront];

/// Drives kernel and reference allocators of `kind` through `rounds`
/// identical allocation rounds of `requests`, returning the first round
/// whose grant matrices differ.
fn first_mismatch(kind: AllocatorKind, requests: &BitMatrix, rounds: usize) -> Option<usize> {
    let (r, c) = (requests.num_rows(), requests.num_cols());
    let mut kernel = kind.build(r, c);
    let mut reference = kind.build_reference(r, c);
    (0..rounds).find(|_| kernel.allocate(requests) != reference.allocate(requests))
}

/// Exhaustive differential sweep: every request matrix with `r * c` entry
/// bits, three rounds per matrix so rotated priorities are compared too.
fn exhaustive_dims(kind: AllocatorKind, r: usize, c: usize) {
    for pattern in 0u32..1 << (r * c) {
        let requests = BitMatrix::from_entries(
            r,
            c,
            (0..r * c)
                .filter(|i| pattern >> i & 1 != 0)
                .map(|i| (i / c, i % c)),
        );
        if let Some(round) = first_mismatch(kind, &requests, 3) {
            panic!(
                "{}: kernel and reference grants diverge at round {round} on {r}x{c} \
                 pattern {pattern:#x}:\n{requests:?}",
                kind.label()
            );
        }
    }
}

#[test]
fn exhaustive_small_matrices_all_variants() {
    for kind in PAIRED_KINDS {
        for r in 1..=4 {
            for c in 1..=4 {
                exhaustive_dims(kind, r, c);
            }
        }
    }
}

/// A full multi-round sequence of *distinct* matrices: priority state
/// carried across rounds must evolve identically on both sides.
fn sequence_matches(kind: AllocatorKind, seq: &[BitMatrix]) -> bool {
    let Some(first) = seq.first() else {
        return true;
    };
    let (r, c) = (first.num_rows(), first.num_cols());
    let mut kernel = kind.build(r, c);
    let mut reference = kind.build_reference(r, c);
    seq.iter()
        .all(|m| kernel.allocate(m) == reference.allocate(m))
}

fn bits_to_matrix(bits: &[Vec<bool>]) -> BitMatrix {
    let r = bits.len();
    let c = bits.first().map_or(0, Vec::len);
    BitMatrix::from_entries(
        r,
        c,
        (0..r).flat_map(|i| (0..c).filter_map(move |j| bits[i][j].then_some((i, j)))),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random larger matrices (5×5–16×16), one matrix repeated across
    // rounds. On failure the matrix is minimized with the proptest shim's
    // matrix minimizer before being reported.
    #[test]
    fn random_large_matrices_all_variants(
        (r, c) in (5usize..=16, 5usize..=16),
        density in 0.05f64..0.9,
        seed in proptest::num::u64::ANY,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bits: Vec<Vec<bool>> =
            (0..r).map(|_| (0..c).map(|_| rng.gen_bool(density)).collect()).collect();
        for kind in PAIRED_KINDS {
            let fails = |b: &[Vec<bool>]| first_mismatch(kind, &bits_to_matrix(b), 5).is_some();
            if fails(&bits) {
                let min = proptest::minimize::matrix(bits.clone(), fails);
                panic!(
                    "{}: kernel and reference grants diverge on {r}x{c}; minimized \
                     counterexample:\n{}",
                    kind.label(),
                    proptest::minimize::render(&min)
                );
            }
        }
    }

    // Random multi-round sequences of *different* matrices, so divergent
    // priority updates in early rounds surface later.
    #[test]
    fn random_round_sequences_all_variants(
        (r, c) in (5usize..=12, 5usize..=12),
        rounds in 2usize..=10,
        density in 0.1f64..0.8,
        seed in proptest::num::u64::ANY,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let seq: Vec<BitMatrix> = (0..rounds)
            .map(|_| {
                BitMatrix::from_entries(r, c, (0..r).flat_map(|i| {
                    (0..c).filter(|_| rng.gen_bool(density)).map(move |j| (i, j)).collect::<Vec<_>>()
                }))
            })
            .collect();
        for kind in PAIRED_KINDS {
            prop_assert!(
                sequence_matches(kind, &seq),
                "{}: diverged on a {rounds}-round {r}x{c} sequence (seed {seed})",
                kind.label()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Wavefront arrays wider than one word
// ---------------------------------------------------------------------------

fn random_matrix(rng: &mut impl rand::Rng, r: usize, c: usize, density: f64) -> BitMatrix {
    let mut m = BitMatrix::new(r, c);
    for i in 0..r {
        for j in 0..c {
            if rng.gen_bool(density) {
                m.set(i, j, true);
            }
        }
    }
    m
}

#[test]
fn wide_wavefront_matches_reference_from_random_diagonals() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3a7e);
    for n in [64usize, 65, 80, 128, 160, 192, 200] {
        // Square, wide, tall, and lopsided enough that whole words of the
        // row or column sets are tied off.
        for (r, c) in [(n, n), (n / 2 + 3, n), (n, n / 3 + 1), (n, 1), (2, n)] {
            let kernel = WavefrontAllocator::new(r, c);
            for density in [0.01, 0.05, 0.4] {
                let requests = random_matrix(&mut rng, r, c, density);
                for _ in 0..4 {
                    // Any start is legal; it wraps at the array side.
                    let start = rng.gen_range(0..2 * n);
                    let mut want = BitMatrix::new(r, c);
                    wavefront_with_diagonal_into(r, c, &requests, start, &mut want);
                    assert_eq!(
                        kernel.allocate_with_diagonal(&requests, start),
                        want,
                        "{r}x{c} density {density} start {start}"
                    );
                }
            }
            // The rotating state through the scratch-reusing entry point.
            let mut kernel = AllocatorKind::Wavefront.build(r, c);
            let mut reference = AllocatorKind::Wavefront.build_reference(r, c);
            let (mut kg, mut rg) = (BitMatrix::new(r, c), BitMatrix::new(r, c));
            for round in 0..6 {
                let requests = random_matrix(&mut rng, r, c, 0.03);
                kernel.allocate_into(&requests, &mut kg);
                reference.allocate_into(&requests, &mut rg);
                assert_eq!(kg, rg, "{r}x{c} round {round}");
            }
        }
    }
}

/// The entry-fed kernel ([`noc_core::Allocator::allocate_entries`]) against
/// the scalar oracle's rotating state, sweeping from start diagonals on
/// both sides of every word boundary. Each start runs a stream of calls
/// from almost every diagonal empty to saturation, where the sweep exits
/// early; a saturated call is followed by a sparse one, so a diagonal or
/// occupied word the early exit left stale would be granted there. Entries
/// arrive shuffled, and grants must come back in ascending row order.
#[test]
fn entry_fed_wavefront_keeps_the_reference_rotation() {
    use rand::{Rng, SeedableRng};
    const DENSITIES: [f64; 8] = [1.0, 0.005, 0.6, 0.02, 1.0, 0.1, 0.005, 0.3];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xe7d1);
    for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 160, 200] {
        for (r, c) in [(n, n), (n, n / 2 + 1), (n / 3 + 1, n)] {
            let starts = (64..n).step_by(64).flat_map(|b| [b - 1, b]);
            let mut kernel = AllocatorKind::Wavefront.build(r, c);
            let mut reference = AllocatorKind::Wavefront.build_reference(r, c);
            let idle = BitMatrix::new(r, c);
            let (mut entries, mut got) = (Vec::new(), Vec::new());
            // The diagonal both allocators start their next call from.
            let mut at = 0;
            for start in [0].into_iter().chain(starts).chain([n - 1]) {
                while at != start {
                    kernel.allocate_entries(&[], &mut got);
                    assert!(got.is_empty());
                    reference.allocate(&idle);
                    at = (at + 1) % n;
                }
                for (call, &density) in DENSITIES.iter().enumerate() {
                    let requests = random_matrix(&mut rng, r, c, density);
                    entries.clear();
                    entries.extend(requests.iter_set());
                    for k in (1..entries.len()).rev() {
                        entries.swap(k, rng.gen_range(0..=k));
                    }
                    kernel.allocate_entries(&entries, &mut got);
                    let want: Vec<_> = reference.allocate(&requests).iter_set().collect();
                    assert_eq!(
                        got, want,
                        "{r}x{c} from diagonal {start}, call {call} at density {density}"
                    );
                    at = (at + 1) % n;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Switch allocation
// ---------------------------------------------------------------------------

const SWITCH_KINDS: [SwitchAllocatorKind; 5] = [
    SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
    SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::Matrix),
    SwitchAllocatorKind::SepOf(noc_arbiter::ArbiterKind::RoundRobin),
    SwitchAllocatorKind::SepOf(noc_arbiter::ArbiterKind::Matrix),
    SwitchAllocatorKind::Wavefront,
];

fn sorted(mut grants: Vec<SwitchGrant>) -> Vec<SwitchGrant> {
    grants.sort_by_key(|g| (g.in_port, g.vc, g.out_port));
    grants
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Switch allocators: kernel vs scalar reference over random per-VC
    // request matrices, multi-round.
    #[test]
    fn switch_allocators_match_reference(
        (ports, vcs) in (2usize..=8, 1usize..=6),
        rounds in 1usize..=8,
        density in 0.05f64..0.9,
        seed in proptest::num::u64::ANY,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut streams: Vec<SwitchRequests> = Vec::new();
        for _ in 0..rounds {
            let mut reqs = SwitchRequests::new(ports, vcs);
            for p in 0..ports {
                for v in 0..vcs {
                    if rng.gen_bool(density) {
                        reqs.request(p, v, rng.gen_range(0..ports));
                    }
                }
            }
            streams.push(reqs);
        }
        for kind in SWITCH_KINDS {
            let mut kernel = kind.build(ports, vcs);
            let mut reference = kind.build_reference(ports, vcs);
            for (round, reqs) in streams.iter().enumerate() {
                let kg = sorted(kernel.allocate(reqs));
                let rg = sorted(reference.allocate(reqs));
                prop_assert_eq!(
                    &kg, &rg,
                    "{:?}: switch grants diverge at round {} ({}p, {}v, seed {})",
                    kind, round, ports, vcs, seed
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VC allocation (sparse free-VC masks, class legality)
// ---------------------------------------------------------------------------

/// Random legal VC-allocation workload for `spec`: per input VC an optional
/// request to a random port with a random legal successor class, plus a
/// sparse random free-VC mask.
fn random_vc_workload(
    spec: &VcAllocSpec,
    rng: &mut impl rand::Rng,
    req_rate: f64,
    free_rate: f64,
) -> (Vec<Option<VcRequest>>, BitMatrix) {
    let v = spec.total_vcs();
    let n = spec.ports() * v;
    let reqs: Vec<Option<VcRequest>> = (0..n)
        .map(|g| {
            rng.gen_bool(req_rate).then(|| {
                let (_, ir, _) = spec.vc_class(g % v);
                let succ = spec.rc_successors(ir);
                let class = succ[rng.gen_range(0..succ.len())];
                VcRequest::one_class(rng.gen_range(0..spec.ports()), class)
            })
        })
        .collect();
    let mut free = BitMatrix::new(spec.ports(), v);
    for p in 0..spec.ports() {
        for vc in 0..v {
            if rng.gen_bool(free_rate) {
                free.set(p, vc, true);
            }
        }
    }
    (reqs, free)
}

/// Drives `kernel` and `oracle` through `rounds` rounds of one evolving
/// workload and asserts identical grants every round. Granted output VCs
/// become busy and busy ones are released at random, so the free map each
/// round depends on every earlier grant: a single divergent priority update
/// surfaces later even if that round's grants happen to coincide.
fn assert_same_grants_over_rounds(
    label: &str,
    spec: &VcAllocSpec,
    kernel: &mut dyn VcAllocator,
    oracle: &mut dyn VcAllocator,
    rounds: usize,
    rng: &mut impl rand::Rng,
) {
    let (_, mut free) = random_vc_workload(spec, rng, 0.0, 0.5);
    let mut kg = Vec::new();
    for round in 0..rounds {
        let req_rate = [0.05, 0.3, 0.6, 0.9][round % 4];
        let (reqs, _) = random_vc_workload(spec, rng, req_rate, 0.0);
        kernel.allocate_into(&reqs, &free, &mut kg);
        let og = oracle.allocate(&reqs, &free);
        assert_eq!(
            kg,
            og,
            "{label}: VC grants diverge at round {round} (spec {}p x {}, {} free)",
            spec.ports(),
            spec.label(),
            free.count_ones()
        );
        if let Err(e) = validate_vc_grants(spec, &reqs, &free, &kg) {
            panic!("{label}: invalid grants at round {round}: {e}");
        }
        for grant in kg.iter().flatten() {
            free.set(grant.port, grant.vc, false);
        }
        for p in 0..spec.ports() {
            for vc in 0..spec.total_vcs() {
                if rng.gen_bool(0.15) {
                    free.set(p, vc, true);
                }
            }
        }
    }
}

#[test]
fn vc_allocators_match_reference_under_sparse_masks() {
    use rand::SeedableRng;
    let specs = [
        VcAllocSpec::mesh(1),
        VcAllocSpec::mesh(2),
        VcAllocSpec::mesh(4),
        VcAllocSpec::torus(2),
        VcAllocSpec::fbfly(1),
        // Past one word: P*V = 80 and the paper's widest router, 160.
        VcAllocSpec::fbfly(2),
        VcAllocSpec::fbfly(4),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    for spec in specs {
        for kind in AllocatorKind::COST_FIGURE_KINDS {
            let mut kernel = DenseVcAllocator::new(spec.clone(), kind);
            let mut reference = DenseVcAllocator::new_reference(spec.clone(), kind);
            // Sparse masks: sweep the free-VC density from nearly-empty to
            // nearly-full while priority state carries across rounds.
            for round in 0..40 {
                let free_rate = 0.1 + 0.8 * (round as f64 / 39.0);
                let (reqs, free) = random_vc_workload(&spec, &mut rng, 0.6, free_rate);
                let kg = kernel.allocate(&reqs, &free);
                let rg = reference.allocate(&reqs, &free);
                assert_eq!(
                    kg,
                    rg,
                    "{}: VC grants diverge at round {round} (spec {}p x {}v)",
                    kind.label(),
                    spec.ports(),
                    spec.total_vcs()
                );
            }
            assert_same_grants_over_rounds(
                kind.label(),
                &spec,
                &mut kernel,
                &mut reference,
                40,
                &mut rng,
            );
        }
    }
}

#[test]
fn sparse_vc_allocators_match_per_class_projection() {
    use rand::SeedableRng;
    let specs = [
        VcAllocSpec::mesh(2),
        VcAllocSpec::torus(2),
        VcAllocSpec::fbfly(2),
        VcAllocSpec::fbfly(4),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5ba75e);
    for spec in specs {
        for kind in AllocatorKind::COST_FIGURE_KINDS {
            // The oracle is M scalar-reference dense sub-allocators fed
            // projected requests; the kernel never projects.
            let mut kernel = SparseVcAllocator::new(spec.clone(), kind);
            let mut oracle = ProjectedSparseVcAllocator::new(spec.clone(), kind);
            assert_same_grants_over_rounds(
                &format!("sparse {}", kind.label()),
                &spec,
                &mut kernel,
                &mut oracle,
                60,
                &mut rng,
            );
        }
    }
}

#[test]
fn kernel_boundary_shapes_match_reference_and_wider_ones_are_rejected() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xb0d4);
    let two_way = || vec![vec![true, true], vec![false, true]];
    // Widest VC rows / port sets a router may have.
    let widest = [
        VcAllocSpec::new(2, 2, 2, 16, two_way()), // V = 64, P*V = 128
        VcAllocSpec::new(3, 1, 1, 64, vec![vec![true]]), // one 64-wide class
        VcAllocSpec::mesh(1).with_ports(64),      // P = 64
    ];
    for spec in &widest {
        for kind in AllocatorKind::COST_FIGURE_KINDS {
            assert_same_grants_over_rounds(
                &format!("dense {}", kind.label()),
                spec,
                &mut DenseVcAllocator::new(spec.clone(), kind),
                &mut DenseVcAllocator::new_reference(spec.clone(), kind),
                12,
                &mut rng,
            );
            assert_same_grants_over_rounds(
                &format!("sparse {}", kind.label()),
                spec,
                &mut SparseVcAllocator::new(spec.clone(), kind),
                &mut ProjectedSparseVcAllocator::new(spec.clone(), kind),
                12,
                &mut rng,
            );
        }
    }
    // One past either limit is no spec at all, so no allocator is ever
    // built for it.
    for ((ports, c), dimension, value) in [
        ((65, 1), "ports", 65),        // P = 65
        ((3, 33), "VCs per port", 66), // V = 66
    ] {
        assert_eq!(
            VcAllocSpec::try_new(ports, 2, 1, c, vec![vec![true]]),
            Err(SpecError::TooWide { dimension, value })
        );
    }
}

// ---------------------------------------------------------------------------
// Speculative / non-speculative interaction
// ---------------------------------------------------------------------------

fn sorted_result(mut r: SpecAllocResult) -> SpecAllocResult {
    r.nonspec.sort_by_key(|g| (g.in_port, g.vc, g.out_port));
    r.spec.sort_by_key(|g| (g.in_port, g.vc, g.out_port));
    r.masked.sort_by_key(|g| (g.in_port, g.vc, g.out_port));
    r
}

#[test]
fn speculative_allocation_matches_reference_for_every_mode() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9c0de);
    for mode in SpecMode::ALL {
        for kind in SWITCH_KINDS {
            let (ports, vcs) = (5, 4);
            let mut kernel = SpeculativeSwitchAllocator::new(kind, ports, vcs, mode);
            let mut reference = SpeculativeSwitchAllocator::new_reference(kind, ports, vcs, mode);
            for round in 0..60 {
                let mut draw = |rate: f64| {
                    let mut reqs = SwitchRequests::new(ports, vcs);
                    for p in 0..ports {
                        for v in 0..vcs {
                            if rng.gen_bool(rate) {
                                reqs.request(p, v, rng.gen_range(0..ports));
                            }
                        }
                    }
                    reqs
                };
                let ns = draw(0.35);
                let sp = draw(0.35);
                let kr = sorted_result(kernel.allocate(&ns, &sp));
                let rr = sorted_result(reference.allocate(&ns, &sp));
                assert_eq!(
                    (&kr.nonspec, &kr.spec, &kr.masked),
                    (&rr.nonspec, &rr.spec, &rr.masked),
                    "{mode:?}/{kind:?}: speculative allocation diverges at round {round}"
                );
                // The masking stage alone: hand the scalar mask everything
                // the speculative allocator granted and it must split it
                // the way the AND-NOT kill did.
                let mut scalar = SpecAllocResult {
                    nonspec: kr.nonspec.clone(),
                    spec: [&kr.spec[..], &kr.masked].concat(),
                    masked: Vec::new(),
                };
                mask_speculative(mode, &ns, &mut scalar);
                let scalar = sorted_result(scalar);
                assert_eq!(
                    (&kr.spec, &kr.masked),
                    (&scalar.spec, &scalar.masked),
                    "{mode:?}/{kind:?}: scalar mask disagrees at round {round}"
                );
            }
        }
    }
}
