//! Wavefront allocator (§2.2).

use crate::{Allocator, BitMatrix};

/// Wavefront allocator (`wf`), after Tamir & Chi's wrapped wavefront
/// arbiter.
///
/// Conceptually an `n × n` tile array: starting from a priority diagonal,
/// all requests on the diagonal are granted (they can never conflict — a
/// diagonal touches each row and column exactly once), grants kill the
/// remaining requests in their row and column, and the wave proceeds to the
/// next diagonal until all `n` diagonals have been serviced.
///
/// Because rows and columns are considered simultaneously, the result is
/// always a *maximal* matching (asserted by the tests and relied upon in
/// §4.3.2/§5.3.2), though not necessarily maximum. Weak fairness comes from
/// rotating the starting diagonal on every invocation; no stronger guarantee
/// is provided, exactly as the paper notes.
///
/// Rectangular `R × C` instances are handled by embedding into the square
/// `max(R, C)` array, matching how the hardware would tie off unused rows or
/// columns.
pub struct WavefrontAllocator {
    requesters: usize,
    resources: usize,
    /// Side of the square tile array.
    n: usize,
    /// Currently active priority diagonal.
    diagonal: usize,
    policy: DiagonalPolicy,
    scratch: DiagonalScratch,
}

/// Priority-diagonal update policy — the rotating policy is the paper's
/// (weakly fair); the fixed policy exists for the fairness ablation and
/// deliberately starves off-diagonal requesters under persistent load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagonalPolicy {
    /// Advance the starting diagonal on every allocation (§2.2).
    Rotating,
    /// Keep a fixed starting diagonal (no fairness guarantee at all).
    Fixed,
}

/// Working set of the diagonal kernel for an `n × n` array, every set
/// `⌈n/64⌉` words wide and sized once at construction. `diag` and
/// `occupied` are all-zero between calls: a call zeroes exactly the
/// diagonals it filled.
struct DiagonalScratch {
    /// Words per row/column/diagonal set.
    words: usize,
    /// `diag[d * words..][..words]`: the rows with a request on wrapped
    /// diagonal `d` (bit `i` set iff entry `(i, (d - i) mod n)` is
    /// requested).
    diag: Vec<u64>,
    /// The diagonals with at least one request.
    occupied: Vec<u64>,
    /// Rows / columns not yet granted in the current sweep.
    row_free: Vec<u64>,
    col_free: Vec<u64>,
    /// `col_of[i]`: the column granted to row `i`, meaningful only where
    /// the sweep cleared `i` from `row_free`.
    col_of: Vec<usize>,
}

impl DiagonalScratch {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        DiagonalScratch {
            words,
            diag: vec![0; n * words],
            occupied: vec![0; words],
            row_free: vec![0; words],
            col_free: vec![0; words],
            col_of: vec![0; n],
        }
    }
}

/// Word `w` of the set holding the lowest `n` bits.
#[inline]
fn ones_word(n: usize, w: usize) -> u64 {
    match n.saturating_sub(w * 64) {
        0 => 0,
        live @ 1..=63 => (1 << live) - 1,
        _ => u64::MAX,
    }
}

impl WavefrontAllocator {
    /// Creates a wavefront allocator for `requesters × resources` with the
    /// paper's rotating-diagonal policy.
    pub fn new(requesters: usize, resources: usize) -> Self {
        Self::with_policy(requesters, resources, DiagonalPolicy::Rotating)
    }

    /// Creates a wavefront allocator with an explicit diagonal policy.
    pub fn with_policy(requesters: usize, resources: usize, policy: DiagonalPolicy) -> Self {
        assert!(requesters > 0 && resources > 0);
        let n = requesters.max(resources);
        WavefrontAllocator {
            requesters,
            resources,
            n,
            diagonal: 0,
            policy,
            scratch: DiagonalScratch::new(n),
        }
    }

    /// The diagonal that will have top priority on the next allocation.
    pub fn current_diagonal(&self) -> usize {
        self.diagonal
    }

    /// Allocates with an explicit priority diagonal and no state update.
    /// This is the pure function the per-diagonal replicated hardware
    /// implementation computes; [`Allocator::allocate`] selects among the
    /// `n` replicas with the rotating state.
    pub fn allocate_with_diagonal(&self, requests: &BitMatrix, start: usize) -> BitMatrix {
        let mut grants = BitMatrix::new(self.requesters, self.resources);
        let mut scratch = DiagonalScratch::new(self.n);
        self.check_dims(requests, &grants);
        sweep(
            self.requesters,
            self.resources,
            &mut scratch,
            requests.iter_set(),
            start,
            |i, j| grants.set(i, j, true),
        );
        grants
    }

    /// The entry-fed allocation behind every rotating entry point — the
    /// switch allocator's, [`Allocator::allocate_entries`] and the
    /// [`Allocator::allocate_into`] adapter: `requests` are the requested
    /// `(row, col)` entries in any order (a repeat is harmless), and
    /// `grant(row, col)` is called once per grant in ascending row order.
    /// Advances the rotating diagonal exactly like [`Allocator::allocate`]
    /// and never allocates.
    pub(crate) fn allocate_with(
        &mut self,
        requests: impl IntoIterator<Item = (usize, usize)>,
        grant: impl FnMut(usize, usize),
    ) {
        sweep(
            self.requesters,
            self.resources,
            &mut self.scratch,
            requests,
            self.diagonal,
            grant,
        );
        if self.policy == DiagonalPolicy::Rotating {
            let next = self.diagonal + 1;
            self.diagonal = if next == self.n { 0 } else { next };
        }
    }

    fn check_dims(&self, requests: &BitMatrix, grants: &BitMatrix) {
        assert_eq!(requests.num_rows(), self.requesters);
        assert_eq!(requests.num_cols(), self.resources);
        assert_eq!(grants.num_rows(), self.requesters);
        assert_eq!(grants.num_cols(), self.resources);
    }
}

/// The diagonal-propagation kernel.
///
/// Entry `(i, j)` lies on wrapped diagonal `(i + j) mod n`. Scattering the
/// request entries into per-diagonal *row sets* (`diag[d]` bit `i` set iff
/// requester `i` has a request on diagonal `d`), and marking `d` in the
/// `occupied` set, turns the wavefront sweep into: for each occupied
/// diagonal from `start` around, take `diag[d] & row_free` word by word,
/// pop rows in ctz order, and grant where the implied column is still free.
/// Diagonals without a request cannot grant, so they are never visited.
/// Entries on one diagonal touch each row and column at most once, so the
/// pop order within a diagonal cannot change the outcome — the grant set
/// is identical to the scalar reference sweep, which the differential suite
/// asserts exhaustively for small arrays and on random streams up to
/// n = 200. Each visited diagonal is zeroed as it goes; once every row or
/// every column is granted the sweep stops granting but still zeroes the
/// occupied diagonals it did not reach, so the scratch is all-zero for the
/// next call. Grants are reported in ascending row order from `col_of`.
/// Cost is O(requests + occupied diagonals · ⌈n/64⌉) instead of the
/// reference's O(n²).
fn sweep(
    requesters: usize,
    resources: usize,
    scratch: &mut DiagonalScratch,
    requests: impl IntoIterator<Item = (usize, usize)>,
    start: usize,
    mut grant: impl FnMut(usize, usize),
) {
    let n = requesters.max(resources);
    let DiagonalScratch {
        words,
        diag,
        occupied,
        row_free,
        col_free,
        col_of,
    } = scratch;
    let words = *words;
    for (i, j) in requests {
        assert!(
            i < requesters && j < resources,
            "request ({i}, {j}) outside {requesters}x{resources}"
        );
        let d = if i + j >= n { i + j - n } else { i + j };
        diag[d * words + i / 64] |= 1 << (i % 64);
        occupied[d / 64] |= 1 << (d % 64);
    }
    for w in 0..words {
        row_free[w] = ones_word(requesters, w);
        col_free[w] = ones_word(resources, w);
    }
    // Each grant retires one row and one column; once either side is
    // exhausted no later diagonal can add a grant.
    let mut left = requesters.min(resources);
    // The occupied diagonals in sweep order: from `start`'s word upward
    // (its bits below `start` masked off), around through the lower
    // words, and finally `start`'s word again for the bits below `start`.
    let start = start % n;
    let (first, below) = (start / 64, (1u64 << (start % 64)) - 1);
    let mut w = first;
    for k in 0..=words {
        let mut occ = occupied[w]
            & match k {
                0 => !below,
                k if k == words => below,
                _ => u64::MAX,
            };
        while occ != 0 {
            let d = w * 64 + occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let rows = &mut diag[d * words..][..words];
            if left > 0 {
                for (rw, set) in rows.iter().enumerate() {
                    let mut cand = set & row_free[rw];
                    while cand != 0 {
                        let i = rw * 64 + cand.trailing_zeros() as usize;
                        cand &= cand - 1;
                        // Bits in `diag` come only from real requests, so
                        // `j` is always a legal column (< resources).
                        let j = if d >= i { d - i } else { d + n - i };
                        if col_free[j / 64] >> (j % 64) & 1 != 0 {
                            col_of[i] = j;
                            row_free[rw] &= !(1 << (i % 64));
                            col_free[j / 64] &= !(1 << (j % 64));
                            left -= 1;
                        }
                    }
                }
            }
            rows.fill(0);
        }
        w = if w + 1 == words { 0 } else { w + 1 };
    }
    occupied.fill(0);
    for w in 0..words {
        let mut granted = ones_word(requesters, w) & !row_free[w];
        while granted != 0 {
            let i = w * 64 + granted.trailing_zeros() as usize;
            granted &= granted - 1;
            grant(i, col_of[i]);
        }
    }
}

impl Allocator for WavefrontAllocator {
    fn num_requesters(&self) -> usize {
        self.requesters
    }

    fn num_resources(&self) -> usize {
        self.resources
    }

    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        self.check_dims(requests, grants);
        grants.clear();
        self.allocate_with(requests.iter_set(), |i, j| grants.set(i, j, true));
    }

    fn allocate_entries(&mut self, requests: &[(usize, usize)], grants: &mut Vec<(usize, usize)>) {
        grants.clear();
        self.allocate_with(requests.iter().copied(), |i, j| grants.push((i, j)));
    }

    fn reset(&mut self) {
        self.diagonal = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut impl Rng, rows: usize, cols: usize, density: f64) -> BitMatrix {
        let mut m = BitMatrix::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    #[test]
    fn grants_are_matchings_and_maximal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut a = WavefrontAllocator::new(8, 8);
        for _ in 0..200 {
            let req = random_matrix(&mut rng, 8, 8, 0.3);
            let g = a.allocate(&req);
            assert!(g.is_matching_for(&req), "{req:?}\n{g:?}");
            assert!(g.is_maximal_for(&req), "not maximal:\n{req:?}\n{g:?}");
        }
    }

    #[test]
    fn rectangular_maximality() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for (r, c) in [(3, 7), (7, 3), (1, 5), (5, 1)] {
            let mut a = WavefrontAllocator::new(r, c);
            for _ in 0..100 {
                let req = random_matrix(&mut rng, r, c, 0.4);
                let g = a.allocate(&req);
                assert!(g.is_maximal_for(&req), "{r}x{c}\n{req:?}\n{g:?}");
            }
        }
    }

    #[test]
    fn full_requests_yield_perfect_matching() {
        let mut a = WavefrontAllocator::new(6, 6);
        let req = {
            let mut m = BitMatrix::new(6, 6);
            for r in 0..6 {
                for c in 0..6 {
                    m.set(r, c, true);
                }
            }
            m
        };
        let g = a.allocate(&req);
        assert_eq!(g.count_ones(), 6);
    }

    #[test]
    fn priority_diagonal_rotates() {
        let mut a = WavefrontAllocator::new(4, 4);
        assert_eq!(a.current_diagonal(), 0);
        let req = BitMatrix::from_entries(4, 4, [(0, 0)]);
        a.allocate(&req);
        assert_eq!(a.current_diagonal(), 1);
        for _ in 0..3 {
            a.allocate(&req);
        }
        assert_eq!(a.current_diagonal(), 0);
    }

    #[test]
    fn priority_diagonal_wraps_to_zero_after_n_calls() {
        // Square, rectangular, one word exactly and past one word.
        for (r, c) in [(1, 1), (3, 7), (7, 3), (64, 64), (65, 10), (160, 160)] {
            let mut a = WavefrontAllocator::new(r, c);
            let n = r.max(c);
            let req = BitMatrix::from_entries(r, c, [(0, 0)]);
            for k in 1..=n {
                a.allocate(&req);
                assert_eq!(a.current_diagonal(), k % n, "{r}x{c} after {k} calls");
            }
        }
    }

    #[test]
    fn fixed_diagonal_starves_where_rotation_does_not() {
        // Ablation evidence for §2.2's fairness argument: with a fixed
        // starting diagonal and two persistent conflicting requests, one
        // requester never wins; the rotating policy serves both.
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (1, 0)]);
        let mut fixed = WavefrontAllocator::with_policy(2, 2, DiagonalPolicy::Fixed);
        let mut winners = std::collections::HashSet::new();
        for _ in 0..10 {
            let g = fixed.allocate(&req);
            winners.insert(g.iter_set().next().unwrap().0);
        }
        assert_eq!(winners.len(), 1, "fixed policy should starve one input");
    }

    #[test]
    fn rotation_provides_weak_fairness() {
        // Two requesters fight for one resource; over n allocations each must
        // win at least once.
        let mut a = WavefrontAllocator::new(2, 2);
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (1, 0)]);
        let mut counts = [0usize; 2];
        for _ in 0..10 {
            let g = a.allocate(&req);
            assert_eq!(g.count_ones(), 1);
            counts[g.iter_set().next().unwrap().0] += 1;
        }
        assert!(counts[0] > 0 && counts[1] > 0, "{counts:?}");
    }

    #[test]
    fn diagonal_priority_is_respected() {
        // With start diagonal d, requests on d are granted before
        // conflicting off-diagonal ones.
        let a = WavefrontAllocator::new(3, 3);
        // (0,2) lies on diagonal 2, (0,0) on diagonal 0.
        let req = BitMatrix::from_entries(3, 3, [(0, 0), (0, 2)]);
        let g0 = a.allocate_with_diagonal(&req, 0);
        assert!(g0.get(0, 0) && !g0.get(0, 2));
        let g2 = a.allocate_with_diagonal(&req, 2);
        assert!(g2.get(0, 2) && !g2.get(0, 0));
    }

    #[test]
    fn beats_or_equals_separable_on_dense_conflicts() {
        // Quantitative sanity behind §4.3.2: on dense matrices the wavefront
        // grant count is at least that of a fresh sep_if.
        use crate::AllocatorKind;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut wf_total = 0usize;
        let mut sep_total = 0usize;
        let mut wf = WavefrontAllocator::new(8, 8);
        let mut sep = AllocatorKind::SepIfRr.build(8, 8);
        for _ in 0..300 {
            let req = random_matrix(&mut rng, 8, 8, 0.5);
            wf_total += wf.allocate(&req).count_ones();
            sep_total += sep.allocate(&req).count_ones();
        }
        assert!(
            wf_total >= sep_total,
            "wavefront ({wf_total}) lost to separable ({sep_total})"
        );
    }
}
