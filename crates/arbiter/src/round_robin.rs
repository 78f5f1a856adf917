//! Round-robin arbiter with a rotating priority pointer.

use crate::{Arbiter, Bits, FixedPriorityArbiter};

/// Round-robin arbiter (the `rr` variants in the paper's figures).
///
/// A pointer marks the highest-priority input; the first requester at or
/// cyclically after the pointer wins. On a committed grant the pointer moves
/// to one past the winner, so the winner becomes lowest priority — the
/// classic rotating-priority scheme that provides strong fairness among
/// persistent requesters.
///
/// The hardware implementation mirrored by [`noc-hw`](../../hw) builds this
/// from a thermometer mask and two fixed-priority arbiters; the behavioural
/// model here is bit-exact with that structure (see
/// [`RoundRobinArbiter::arbitrate_masked_two_pass`], which the unit tests
/// check against the pointer-walk implementation for every state/request
/// combination up to 10 inputs).
/// ```
/// use noc_arbiter::{Arbiter, Bits, RoundRobinArbiter};
///
/// let mut arb = RoundRobinArbiter::new(4);
/// let all = Bits::ones(4);
/// assert_eq!(arb.arbitrate(&all), Some(0));
/// arb.update(0); // commit: input 0 becomes lowest priority
/// assert_eq!(arb.arbitrate(&all), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct RoundRobinArbiter {
    n: usize,
    /// Index of the current highest-priority input.
    pointer: usize,
}

impl RoundRobinArbiter {
    /// Creates an `n`-input round-robin arbiter with the pointer at 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one input");
        RoundRobinArbiter { n, pointer: 0 }
    }

    /// Current highest-priority input.
    pub fn pointer(&self) -> usize {
        self.pointer
    }

    /// Reference two-pass implementation matching the RTL structure:
    /// pass 1 arbitrates over `requests & thermometer_mask(pointer)` with a
    /// plain priority encoder; pass 2 arbitrates over the unmasked requests
    /// and is used only when the masked pass found nothing.
    pub fn arbitrate_masked_two_pass(&self, requests: &Bits) -> Option<usize> {
        let mut masked = requests.clone();
        // Thermometer mask: bits at positions >= pointer are enabled.
        for i in 0..self.pointer {
            masked.set(i, false);
        }
        masked.first_set().or_else(|| requests.first_set())
    }
}

impl Arbiter for RoundRobinArbiter {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn arbitrate(&self, requests: &Bits) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request width mismatch");
        FixedPriorityArbiter::select_from(requests, self.pointer)
    }

    fn update(&mut self, winner: usize) {
        assert!(winner < self.n, "winner {winner} out of range {}", self.n);
        let next = winner + 1;
        self.pointer = if next == self.n { 0 } else { next };
    }

    fn reset(&mut self) {
        self.pointer = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_through_persistent_requesters() {
        let mut arb = RoundRobinArbiter::new(4);
        let all = Bits::ones(4);
        let mut order = Vec::new();
        for _ in 0..8 {
            let w = arb.arbitrate(&all).unwrap();
            order.push(w);
            arb.update(w);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_idle_inputs() {
        let mut arb = RoundRobinArbiter::new(4);
        let r = Bits::from_indices(4, [1, 3]);
        let w = arb.arbitrate(&r).unwrap();
        assert_eq!(w, 1);
        arb.update(w);
        assert_eq!(arb.arbitrate(&r), Some(3));
        arb.update(3);
        assert_eq!(arb.arbitrate(&r), Some(1));
    }

    #[test]
    fn pointer_walk_matches_two_pass_rtl_structure() {
        // Exhaustive equivalence for n up to 10, all pointer states, all
        // request patterns.
        for n in 1..=10usize {
            for ptr in 0..n {
                let arb = RoundRobinArbiter { n, pointer: ptr };
                for pattern in 0u32..(1 << n) {
                    let r = Bits::from_indices(n, (0..n).filter(|i| pattern >> i & 1 != 0));
                    assert_eq!(
                        arb.arbitrate(&r),
                        arb.arbitrate_masked_two_pass(&r),
                        "n={n} ptr={ptr} pattern={pattern:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn recently_served_input_has_lowest_priority() {
        let mut arb = RoundRobinArbiter::new(3);
        arb.update(1); // pointer -> 2
        let r = Bits::from_indices(3, [0, 1]);
        // 2 not requesting; wrap to 0 before reaching 1.
        assert_eq!(arb.arbitrate(&r), Some(0));
    }
}
