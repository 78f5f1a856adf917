//! Property-based tests over the core allocation invariants (proptest).

use noc_core::{max_matching, Allocator, AllocatorKind, AugmentingPathAllocator, BitMatrix};
use proptest::prelude::*;

/// Brute-force maximum matching by exhaustive row-by-row search — the
/// ground-truth oracle for small matrices.
fn brute_force_max_matching(req: &BitMatrix) -> usize {
    fn go(req: &BitMatrix, row: usize, used_cols: &mut [bool]) -> usize {
        if row == req.num_rows() {
            return 0;
        }
        // Either skip this row...
        let mut best = go(req, row + 1, used_cols);
        // ...or match it to any free requested column.
        for c in req.row(row).iter_set() {
            if !used_cols[c] {
                used_cols[c] = true;
                best = best.max(1 + go(req, row + 1, used_cols));
                used_cols[c] = false;
            }
        }
        best
    }
    go(req, 0, &mut vec![false; req.num_cols()])
}

/// Strategy: a request matrix up to 12×12 with arbitrary density.
fn request_matrix() -> impl Strategy<Value = BitMatrix> {
    (1usize..=12, 1usize..=12).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(proptest::bool::ANY, rows * cols).prop_map(move |bits| {
            let mut m = BitMatrix::new(rows, cols);
            for (i, b) in bits.iter().enumerate() {
                if *b {
                    m.set(i / cols, i % cols, true);
                }
            }
            m
        })
    })
}

/// Strategy: a small request matrix (≤5×5) where brute-force optimal
/// matching is affordable.
fn small_request_matrix() -> impl Strategy<Value = BitMatrix> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(proptest::bool::ANY, rows * cols).prop_map(move |bits| {
            let mut m = BitMatrix::new(rows, cols);
            for (i, b) in bits.iter().enumerate() {
                if *b {
                    m.set(i / cols, i % cols, true);
                }
            }
            m
        })
    })
}

/// Strategy: a short sequence of request matrices with fixed shape, for
/// stateful (priority-carrying) runs.
fn request_sequence() -> impl Strategy<Value = (usize, usize, Vec<Vec<bool>>)> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(rows, cols)| {
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(
                proptest::collection::vec(proptest::bool::ANY, rows * cols),
                1..8,
            ),
        )
    })
}

fn all_kinds() -> Vec<AllocatorKind> {
    vec![
        AllocatorKind::SepIfRr,
        AllocatorKind::SepIfMatrix,
        AllocatorKind::SepOfRr,
        AllocatorKind::SepOfMatrix,
        AllocatorKind::Wavefront,
        AllocatorKind::MaxSize,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_allocator_produces_valid_matchings(req in request_matrix()) {
        for kind in all_kinds() {
            let mut a = kind.build(req.num_rows(), req.num_cols());
            let g = a.allocate(&req);
            prop_assert!(g.is_matching_for(&req), "{kind:?}\n{req:?}\n{g:?}");
        }
    }

    #[test]
    fn wavefront_matchings_are_maximal(req in request_matrix()) {
        let mut a = AllocatorKind::Wavefront.build(req.num_rows(), req.num_cols());
        let g = a.allocate(&req);
        prop_assert!(g.is_maximal_for(&req), "{req:?}\n{g:?}");
    }

    #[test]
    fn maxsize_dominates_every_other_allocator(req in request_matrix()) {
        let best = max_matching(&req);
        for kind in all_kinds() {
            let mut a = kind.build(req.num_rows(), req.num_cols());
            let got = a.allocate(&req).count_ones();
            prop_assert!(got <= best, "{kind:?}: {got} > max {best}");
        }
        // And the maximum allocator achieves it.
        let mut ms = AllocatorKind::MaxSize.build(req.num_rows(), req.num_cols());
        prop_assert_eq!(ms.allocate(&req).count_ones(), best);
    }

    #[test]
    fn augmenting_path_matches_brute_force_optimum(req in small_request_matrix()) {
        // The augmenting-path allocator with an unbounded budget and the
        // max-size oracle must both achieve the exhaustive-search optimum.
        let best = brute_force_max_matching(&req);
        prop_assert_eq!(max_matching(&req), best, "{:?}", req);
        let mut a = AugmentingPathAllocator::new(req.num_rows(), req.num_cols(), req.num_rows());
        let g = a.allocate(&req);
        prop_assert!(g.is_matching_for(&req), "{:?}\n{:?}", req, g);
        prop_assert_eq!(g.count_ones(), best, "{:?}", req);
    }

    #[test]
    fn maximal_matchings_are_at_least_half_of_maximum(req in request_matrix()) {
        // Classic 2-approximation: |maximal| >= |maximum| / 2; the
        // wavefront allocator must respect it.
        let best = max_matching(&req);
        let mut wf = AllocatorKind::Wavefront.build(req.num_rows(), req.num_cols());
        let got = wf.allocate(&req).count_ones();
        prop_assert!(2 * got >= best, "wavefront {got} < {best}/2");
    }

    #[test]
    fn non_conflicting_requests_always_granted((rows, cols, seq) in request_sequence()) {
        // Feed a random history, then a conflict-free matrix: everything in
        // it must be granted by every architecture (§4.3.2 guarantee).
        for kind in all_kinds() {
            let mut a = kind.build(rows, cols);
            for bits in &seq {
                let mut m = BitMatrix::new(rows, cols);
                for (i, b) in bits.iter().enumerate() {
                    if *b {
                        m.set(i / cols, i % cols, true);
                    }
                }
                a.allocate(&m);
            }
            // Diagonal (conflict-free) requests.
            let diag = BitMatrix::from_entries(
                rows,
                cols,
                (0..rows.min(cols)).map(|i| (i, i)),
            );
            let g = a.allocate(&diag);
            prop_assert_eq!(g, diag, "{:?} after history", kind);
        }
    }

    #[test]
    fn allocation_is_deterministic((rows, cols, seq) in request_sequence()) {
        for kind in all_kinds() {
            let run = || {
                let mut a = kind.build(rows, cols);
                let mut out = Vec::new();
                for bits in &seq {
                    let mut m = BitMatrix::new(rows, cols);
                    for (i, b) in bits.iter().enumerate() {
                        if *b {
                            m.set(i / cols, i % cols, true);
                        }
                    }
                    out.push(a.allocate(&m));
                }
                out
            };
            prop_assert_eq!(run(), run(), "{:?}", kind);
        }
    }
}
