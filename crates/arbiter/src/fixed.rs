//! Fixed-priority arbiter.

use crate::{Arbiter, Bits};

/// Static-priority arbiter: the lowest-indexed requester wins, without
/// reordering over time — the classic priority encoder.
///
/// This is the building block the round-robin arbiter's RTL is made of (two
/// fixed-priority passes over a masked and an unmasked request vector), and
/// it is also useful as a deliberately unfair baseline in tests.
#[derive(Clone, Debug)]
pub struct FixedPriorityArbiter {
    n: usize,
}

impl FixedPriorityArbiter {
    /// Creates an `n`-input fixed-priority arbiter with highest priority at
    /// index 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one input");
        FixedPriorityArbiter { n }
    }

    /// Selects the first set bit at or cyclically after `base`.
    pub fn select_from(requests: &Bits, base: usize) -> Option<usize> {
        requests
            .first_set_from(base)
            .or_else(|| requests.first_set())
    }
}

impl Arbiter for FixedPriorityArbiter {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn arbitrate(&self, requests: &Bits) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request width mismatch");
        requests.first_set()
    }

    fn update(&mut self, _winner: usize) {
        // Fixed priority: state never changes.
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_index_wins() {
        let arb = FixedPriorityArbiter::new(8);
        let r = Bits::from_indices(8, [3, 5, 7]);
        assert_eq!(arb.arbitrate(&r), Some(3));
    }

    #[test]
    fn update_is_noop() {
        let mut arb = FixedPriorityArbiter::new(4);
        let r = Bits::ones(4);
        assert_eq!(arb.arbitrate(&r), Some(0));
        arb.update(0);
        assert_eq!(arb.arbitrate(&r), Some(0));
    }

    #[test]
    fn starves_low_priority_inputs() {
        // Documents the (intentional) unfairness: with 0 always requesting,
        // input 1 never wins.
        let mut arb = FixedPriorityArbiter::new(2);
        let r = Bits::ones(2);
        for _ in 0..10 {
            let w = arb.arbitrate(&r).unwrap();
            assert_eq!(w, 0);
            arb.update(w);
        }
    }
}
