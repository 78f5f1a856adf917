#![forbid(unsafe_code)]
//! Arbiter primitives for network-on-chip router allocators.
//!
//! This crate implements the arbitration substrate used by the separable and
//! wavefront allocators of Becker & Dally, *Allocator Implementations for
//! Network-on-Chip Routers* (SC '09):
//!
//! * [`FixedPriorityArbiter`] — static priority, lowest index wins.
//! * [`RoundRobinArbiter`] — rotating priority pointer (the `rr` variants in
//!   the paper), implemented the way the RTL does it: a thermometer mask and
//!   two fixed-priority passes.
//! * [`MatrixArbiter`] — least-recently-served state matrix (the `m`
//!   variants), providing strong fairness.
//! * [`TreeArbiter`] — a two-level group/root decomposition used for the
//!   large `P*V`-input arbiters at the output stage of VC allocators (§4.1).
//!
//! All arbiters split decision from state update: [`Arbiter::arbitrate`] is a
//! pure combinational function of the request vector and the current priority
//! state, while [`Arbiter::update`] commits a *successful* grant. The split
//! is what lets separable allocators apply the iSLIP-style rule from the
//! paper (§2.1): "input priorities ... are only updated if the grant it
//! produces is also successful in the second arbitration stage".

pub mod bank;
pub mod bits;
mod fixed;
mod matrix;
mod round_robin;
mod tree;

pub use bank::{ArbiterBank, TreeBank};
pub use bits::Bits;
pub use fixed::FixedPriorityArbiter;
pub use matrix::MatrixArbiter;
pub use round_robin::RoundRobinArbiter;
pub use tree::TreeArbiter;

/// An `n`-input arbiter: picks at most one winner among concurrent requesters.
///
/// Implementations must satisfy, for every request vector `r`:
///
/// * **grant ⊆ request** — `arbitrate(r)` is `Some(i)` only if `r.get(i)`.
/// * **work conservation** — `arbitrate(r)` is `Some(_)` whenever `r` has at
///   least one set bit.
/// * **purity** — `arbitrate` never mutates priority state; repeated calls
///   with the same requests return the same winner until `update` is called.
pub trait Arbiter {
    /// Number of requester inputs.
    fn num_inputs(&self) -> usize;

    /// Combinationally selects a winner among the set bits of `requests`.
    ///
    /// Returns `None` iff `requests` is all-zero. Panics if the width of
    /// `requests` differs from [`Arbiter::num_inputs`].
    fn arbitrate(&self, requests: &Bits) -> Option<usize>;

    /// Commits a successful grant to `winner`, advancing the priority state.
    ///
    /// Callers invoke this only when the grant "sticks" (e.g. survived the
    /// second stage of a separable allocator); losing speculative winners
    /// leave the state untouched so they retain priority next cycle.
    fn update(&mut self, winner: usize);

    /// Restores the power-on priority state.
    fn reset(&mut self);
}

/// The arbiter kinds evaluated in the paper's cost/quality studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArbiterKind {
    /// Static priority (used inside other arbiters and as a baseline).
    FixedPriority,
    /// Rotating-pointer round-robin (`rr` in the paper's figures).
    RoundRobin,
    /// Least-recently-served matrix arbiter (`m` in the paper's figures).
    Matrix,
}

impl ArbiterKind {
    /// Instantiates an `n`-input arbiter of this kind.
    pub fn build(self, n: usize) -> Box<dyn Arbiter + Send> {
        match self {
            ArbiterKind::FixedPriority => Box::new(FixedPriorityArbiter::new(n)),
            ArbiterKind::RoundRobin => Box::new(RoundRobinArbiter::new(n)),
            ArbiterKind::Matrix => Box::new(MatrixArbiter::new(n)),
        }
    }

    /// Short name matching the paper's figure legends (`rr`, `m`).
    pub fn short_name(self) -> &'static str {
        match self {
            ArbiterKind::FixedPriority => "fp",
            ArbiterKind::RoundRobin => "rr",
            ArbiterKind::Matrix => "m",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<ArbiterKind> {
        vec![
            ArbiterKind::FixedPriority,
            ArbiterKind::RoundRobin,
            ArbiterKind::Matrix,
        ]
    }

    #[test]
    fn empty_requests_yield_no_grant() {
        for k in kinds() {
            let arb = k.build(8);
            assert_eq!(arb.arbitrate(&Bits::new(8)), None, "{k:?}");
        }
    }

    #[test]
    fn single_request_always_wins() {
        for k in kinds() {
            let mut arb = k.build(8);
            for i in 0..8 {
                let r = Bits::from_indices(8, [i]);
                assert_eq!(arb.arbitrate(&r), Some(i), "{k:?} input {i}");
                arb.update(i);
                assert_eq!(arb.arbitrate(&r), Some(i), "{k:?} input {i} after update");
            }
        }
    }

    #[test]
    fn grant_subset_of_request() {
        for k in kinds() {
            let mut arb = k.build(5);
            // Walk through a fixed request schedule, committing every grant.
            let schedule = [0b10110u32, 0b00001, 0b11111, 0b01010, 0b10000];
            for reqs in schedule {
                let r = Bits::from_indices(5, (0..5).filter(|i| reqs >> i & 1 != 0));
                if let Some(w) = arb.arbitrate(&r) {
                    assert!(r.get(w), "{k:?}: granted a non-requester");
                    arb.update(w);
                } else {
                    assert!(r.is_zero());
                }
            }
        }
    }

    #[test]
    fn work_conserving() {
        for k in kinds() {
            let arb = k.build(6);
            for pattern in 1u32..64 {
                let r = Bits::from_indices(6, (0..6).filter(|i| pattern >> i & 1 != 0));
                assert!(arb.arbitrate(&r).is_some(), "{k:?} pattern {pattern:b}");
            }
        }
    }

    #[test]
    fn arbitrate_is_pure() {
        for k in kinds() {
            let arb = k.build(4);
            let r = Bits::ones(4);
            let a = arb.arbitrate(&r);
            let b = arb.arbitrate(&r);
            assert_eq!(a, b, "{k:?}");
        }
    }

    #[test]
    fn round_robin_and_matrix_are_strongly_fair() {
        // With all inputs persistently requesting and every grant committed,
        // each input must be served exactly once per n grants.
        for k in [ArbiterKind::RoundRobin, ArbiterKind::Matrix] {
            let n = 7;
            let mut arb = k.build(n);
            let all = Bits::ones(n);
            let mut counts = vec![0usize; n];
            for _ in 0..n * 10 {
                let w = arb.arbitrate(&all).unwrap();
                counts[w] += 1;
                arb.update(w);
            }
            for (i, &c) in counts.iter().enumerate() {
                assert_eq!(c, 10, "{k:?} input {i} starved or favored: {counts:?}");
            }
        }
    }

    #[test]
    fn losing_grants_do_not_advance_priority() {
        // iSLIP rule: if we never call update, the same winner keeps winning.
        for k in kinds() {
            let arb = k.build(4);
            let r = Bits::ones(4);
            let w0 = arb.arbitrate(&r).unwrap();
            for _ in 0..5 {
                assert_eq!(arb.arbitrate(&r), Some(w0), "{k:?}");
            }
        }
    }

    #[test]
    fn reset_restores_initial_behavior() {
        for k in kinds() {
            let mut arb = k.build(5);
            let r = Bits::ones(5);
            let first = arb.arbitrate(&r).unwrap();
            for _ in 0..3 {
                let w = arb.arbitrate(&r).unwrap();
                arb.update(w);
            }
            arb.reset();
            assert_eq!(arb.arbitrate(&r), Some(first), "{k:?}");
        }
    }
}
