//! Maximum-size allocator (§2.3) — the matching-quality upper bound.

use crate::{Allocator, BitMatrix};

/// Size of a maximum bipartite matching for `requests`, via repeated
/// augmenting-path search (Ford–Fulkerson on the request graph).
///
/// This is the exact matching-quality reference of §3.1: every practical
/// allocator's per-cycle grant count is normalized against this value.
/// Besides the [`MaxSizeAllocator`], the simulator's telemetry layer calls
/// it on sampled switch-request matrices to report matching efficiency
/// over time.
pub fn max_matching(requests: &BitMatrix) -> usize {
    max_matching_assignment(requests)
        .iter()
        .filter(|m| m.is_some())
        .count()
}

/// One maximum matching of `requests`, as `match_of_col[c] = Some(r)`.
pub fn max_matching_assignment(requests: &BitMatrix) -> Vec<Option<usize>> {
    let nc = requests.num_cols();
    let mut col_match: Vec<Option<usize>> = vec![None; nc];
    let mut visited = vec![false; nc];
    for r in 0..requests.num_rows() {
        visited.iter_mut().for_each(|v| *v = false);
        augment(requests, r, &mut col_match, &mut visited);
    }
    col_match
}

/// One augmenting-path search from requester `r`: true if `r` was matched,
/// re-routing earlier matches along the path. Columns in `visited` are not
/// entered again.
pub(crate) fn augment(
    requests: &BitMatrix,
    r: usize,
    col_match: &mut [Option<usize>],
    visited: &mut [bool],
) -> bool {
    for c in requests.row(r).iter_set() {
        if visited[c] {
            continue;
        }
        visited[c] = true;
        let freed = match col_match[c] {
            None => true,
            Some(owner) => augment(requests, owner, col_match, visited),
        };
        if freed {
            col_match[c] = Some(r);
            return true;
        }
    }
    false
}

/// Maximum-size allocator: computes a true *maximum* bipartite matching via
/// repeated augmenting-path search (Ford–Fulkerson on the request graph,
/// §2.3's conceptual algorithm).
///
/// As the paper notes, this is not a practical single-cycle hardware design
/// — it is inherently iterative and offers no fairness guarantees (it will
/// happily starve a requester forever to maximize total grants) — but it is
/// the normalization baseline for the matching-quality metric of §3.1: every
/// other allocator's grant count is divided by this one's.
pub struct MaxSizeAllocator {
    requesters: usize,
    resources: usize,
}

impl MaxSizeAllocator {
    /// Creates a maximum-size allocator for `requesters × resources`.
    pub fn new(requesters: usize, resources: usize) -> Self {
        MaxSizeAllocator {
            requesters,
            resources,
        }
    }
}

impl Allocator for MaxSizeAllocator {
    fn num_requesters(&self) -> usize {
        self.requesters
    }

    fn num_resources(&self) -> usize {
        self.resources
    }

    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        assert_eq!(requests.num_rows(), self.requesters);
        assert_eq!(requests.num_cols(), self.resources);
        grants.clear();
        for (c, m) in max_matching_assignment(requests).iter().enumerate() {
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
    use rand::{Rng, SeedableRng};

    fn brute_force_max(requests: &BitMatrix) -> usize {
        // Exhaustive search over requester subsets (rows <= ~12).
        fn go(requests: &BitMatrix, r: usize, used_cols: u64) -> usize {
            if r == requests.num_rows() {
                return 0;
            }
            let mut best = go(requests, r + 1, used_cols); // skip row r
            for c in requests.row(r).iter_set() {
                if used_cols >> c & 1 == 0 {
                    best = best.max(1 + go(requests, r + 1, used_cols | 1 << c));
                }
            }
            best
        }
        go(requests, 0, 0)
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut a = MaxSizeAllocator::new(7, 7);
        for _ in 0..150 {
            let mut req = BitMatrix::new(7, 7);
            for r in 0..7 {
                for c in 0..7 {
                    if rng.gen_bool(0.3) {
                        req.set(r, c, true);
                    }
                }
            }
            let g = a.allocate(&req);
            assert!(g.is_matching_for(&req));
            assert_eq!(g.count_ones(), brute_force_max(&req), "{req:?}");
        }
    }

    #[test]
    fn perfect_matching_on_permutation() {
        let mut a = MaxSizeAllocator::new(5, 5);
        let req = BitMatrix::from_entries(5, 5, (0..5).map(|i| (i, (i + 2) % 5)));
        let g = a.allocate(&req);
        assert_eq!(g, req);
    }

    #[test]
    fn handles_hard_augmenting_chain() {
        // Greedy would match (0,0) and strand requester 1; augmenting finds 2.
        let mut a = MaxSizeAllocator::new(2, 2);
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0)]);
        let g = a.allocate(&req);
        assert_eq!(g.count_ones(), 2);
    }

    #[test]
    fn dominates_wavefront_on_random_instances() {
        use crate::wavefront::WavefrontAllocator;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let mut ms = MaxSizeAllocator::new(10, 10);
        let mut wf = WavefrontAllocator::new(10, 10);
        for _ in 0..200 {
            let mut req = BitMatrix::new(10, 10);
            for r in 0..10 {
                for c in 0..10 {
                    if rng.gen_bool(0.25) {
                        req.set(r, c, true);
                    }
                }
            }
            let gm = ms.allocate(&req).count_ones();
            let gw = wf.allocate(&req).count_ones();
            assert!(gm >= gw, "maxsize {gm} < wavefront {gw}\n{req:?}");
        }
    }

    #[test]
    fn empty_and_full() {
        let mut a = MaxSizeAllocator::new(4, 4);
        assert!(a.allocate(&BitMatrix::new(4, 4)).is_zero());
        let mut full = BitMatrix::new(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                full.set(r, c, true);
            }
        }
        assert_eq!(a.allocate(&full).count_ones(), 4);
    }
}
