//! Step-bounded augmenting-path allocation (§2.3).
//!
//! The paper notes that maximum-size matchings are "readily found by
//! performing successive iterations of an augmenting path algorithm", and
//! that hardware schedulers performing *one augmentation step per cycle*
//! have been proposed (Hoare et al., SC '06) but are too slow/complex for
//! single-cycle NoC allocation. This module models that design point: an
//! allocator that runs a bounded number of augmentation searches per
//! invocation, interpolating between a cheap greedy matching (0 extra
//! steps) and the full maximum-size result.

use crate::maxsize::augment;
use crate::{Allocator, BitMatrix};

/// Allocator that builds a greedy matching and then improves it with at
/// most `augmentations` augmenting-path searches.
///
/// * `augmentations = 0` — pure greedy (first-fit) matching, a lower bound
///   comparable to one separable pass.
/// * `augmentations >= requesters` — exact maximum-size matching.
///
/// Like [`crate::MaxSizeAllocator`], this provides no fairness guarantees;
/// it exists for the §2.3 quality/complexity ablation, not as a practical
/// router allocator.
pub struct AugmentingPathAllocator {
    requesters: usize,
    resources: usize,
    augmentations: usize,
}

impl AugmentingPathAllocator {
    /// Creates the allocator with a per-invocation augmentation budget.
    pub fn new(requesters: usize, resources: usize, augmentations: usize) -> Self {
        AugmentingPathAllocator {
            requesters,
            resources,
            augmentations,
        }
    }

    /// The configured augmentation budget.
    pub fn augmentations(&self) -> usize {
        self.augmentations
    }
}

impl Allocator for AugmentingPathAllocator {
    fn num_requesters(&self) -> usize {
        self.requesters
    }

    fn num_resources(&self) -> usize {
        self.resources
    }

    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        assert_eq!(requests.num_rows(), self.requesters);
        assert_eq!(requests.num_cols(), self.resources);
        let mut col_match: Vec<Option<usize>> = vec![None; self.resources];
        let mut row_matched = vec![false; self.requesters];
        // Greedy first pass: each requester takes its first free resource.
        for r in 0..self.requesters {
            for c in requests.row(r).iter_set() {
                if col_match[c].is_none() {
                    col_match[c] = Some(r);
                    row_matched[r] = true;
                    break;
                }
            }
        }
        // Bounded augmentation passes over the unmatched requesters.
        let mut budget = self.augmentations;
        let mut visited = vec![false; self.resources];
        for r in 0..self.requesters {
            if budget == 0 {
                break;
            }
            if row_matched[r] || requests.row(r).is_zero() {
                continue;
            }
            budget -= 1;
            visited.iter_mut().for_each(|v| *v = false);
            if augment(requests, r, &mut col_match, &mut visited) {
                row_matched[r] = true;
            }
        }
        grants.clear();
        for (c, m) in col_match.iter().enumerate() {
            if let Some(r) = m {
                grants.set(*r, c, true);
            }
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_matching;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut impl Rng, n: usize, density: f64) -> BitMatrix {
        let mut m = BitMatrix::new(n, n);
        for r in 0..n {
            for c in 0..n {
                if rng.gen_bool(density) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    #[test]
    fn grants_are_matchings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for steps in [0usize, 1, 3, 100] {
            let mut a = AugmentingPathAllocator::new(10, 10, steps);
            for _ in 0..100 {
                let req = random_matrix(&mut rng, 10, 0.3);
                let g = a.allocate(&req);
                assert!(g.is_matching_for(&req), "steps={steps}");
            }
        }
    }

    #[test]
    fn unbounded_budget_equals_maximum_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut a = AugmentingPathAllocator::new(12, 12, usize::MAX);
        for _ in 0..200 {
            let req = random_matrix(&mut rng, 12, 0.25);
            assert_eq!(a.allocate(&req).count_ones(), max_matching(&req));
        }
    }

    #[test]
    fn quality_is_monotone_in_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut totals = vec![0usize; 4];
        let budgets = [0usize, 1, 2, 100];
        for _ in 0..300 {
            let req = random_matrix(&mut rng, 12, 0.25);
            for (i, &b) in budgets.iter().enumerate() {
                let mut a = AugmentingPathAllocator::new(12, 12, b);
                totals[i] += a.allocate(&req).count_ones();
            }
        }
        for w in totals.windows(2) {
            assert!(w[0] <= w[1], "quality not monotone: {totals:?}");
        }
        assert!(totals[0] < totals[3], "augmentation never helped");
    }

    #[test]
    fn greedy_matching_is_maximal() {
        // Even with zero augmentation budget, the greedy pass yields a
        // maximal matching (first-fit never leaves a grantable pair).
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut a = AugmentingPathAllocator::new(9, 9, 0);
        for _ in 0..200 {
            let req = random_matrix(&mut rng, 9, 0.3);
            let g = a.allocate(&req);
            assert!(g.is_maximal_for(&req));
        }
    }

    #[test]
    fn single_augmentation_fixes_one_lockout() {
        // Greedy matches (0,0), stranding requester 1; one augmentation
        // step re-routes requester 0 to column 1.
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0)]);
        let mut greedy = AugmentingPathAllocator::new(2, 2, 0);
        assert_eq!(greedy.allocate(&req).count_ones(), 1);
        let mut one = AugmentingPathAllocator::new(2, 2, 1);
        assert_eq!(one.allocate(&req).count_ones(), 2);
    }
}
