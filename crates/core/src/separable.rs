//! Separable input-first and output-first allocators (§2.1).
//!
//! The textbook `n × n` form: one boxed [`Arbiter`] per requester and per
//! resource, element-wise stage sweeps over `Bits`, no width limit. Nothing
//! in a router is built from these — VC allocation uses
//! [`crate::SeparableVcAllocator`] and switch allocation
//! [`crate::switch::SepIfSwitchAllocator`] /
//! [`crate::switch::SepOfSwitchAllocator`], word kernels shaped by the
//! `P`/`V` structure — so this is their one implementation: the quality
//! ablations and the property suites are its callers, and they treat it as
//! the definition of the architecture.

use crate::{Allocator, BitMatrix};
use noc_arbiter::{Arbiter, ArbiterKind, Bits};

/// Separable input-first allocator (`sep_if`, Figure 1(a)).
///
/// Stage 1: each requester's *input arbiter* picks one resource among those
/// it requests. Stage 2: each resource's *output arbiter* picks one winner
/// among the requesters whose stage-1 choice landed on it. A grant is issued
/// where both stages agree.
///
/// Priority state in either stage advances only for grants that succeed in
/// *both* stages (the iSLIP rule from §2.1), which prevents traffic-pattern-
/// dependent starvation.
pub struct SeparableInputFirst {
    /// One `resources`-wide arbiter per requester.
    input_arbs: Vec<Box<dyn Arbiter + Send>>,
    /// One `requesters`-wide arbiter per resource.
    output_arbs: Vec<Box<dyn Arbiter + Send>>,
    /// Number of decoupled stage-1/stage-2 passes; 1 is the single-cycle
    /// configuration the paper evaluates, >1 models iterative refinement
    /// (mentioned and rejected for NoCs in §2.1 — kept here for ablations).
    iterations: usize,
}

impl SeparableInputFirst {
    /// Single-iteration separable input-first allocator.
    pub fn new(requesters: usize, resources: usize, kind: ArbiterKind) -> Self {
        Self::with_iterations(requesters, resources, kind, 1)
    }

    /// Multi-iteration variant: after each pass, matched rows and columns
    /// are removed and the stages re-run on the residual requests.
    pub fn with_iterations(
        requesters: usize,
        resources: usize,
        kind: ArbiterKind,
        iterations: usize,
    ) -> Self {
        assert!(iterations >= 1);
        assert!(requesters > 0 && resources > 0);
        SeparableInputFirst {
            input_arbs: (0..requesters).map(|_| kind.build(resources)).collect(),
            output_arbs: (0..resources).map(|_| kind.build(requesters)).collect(),
            iterations,
        }
    }
}

impl Allocator for SeparableInputFirst {
    fn num_requesters(&self) -> usize {
        self.input_arbs.len()
    }

    fn num_resources(&self) -> usize {
        self.output_arbs.len()
    }

    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        assert_eq!(requests.num_rows(), self.num_requesters());
        assert_eq!(requests.num_cols(), self.num_resources());
        let (nr, nc) = (self.num_requesters(), self.num_resources());
        grants.clear();
        let mut row_free = Bits::ones(nr);
        let mut col_free = Bits::ones(nc);

        for _ in 0..self.iterations {
            // Stage 1: each free requester picks one free resource.
            let mut choice: Vec<Option<usize>> = vec![None; nr];
            for r in row_free.iter_set() {
                let mut reqs = requests.row(r).clone();
                reqs.intersect_with(&col_free);
                choice[r] = self.input_arbs[r].arbitrate(&reqs);
            }
            // Stage 2: each resource arbitrates among incoming picks.
            let mut any = false;
            for c in col_free.clone().iter_set() {
                let mut incoming = Bits::new(nr);
                for r in 0..nr {
                    if choice[r] == Some(c) {
                        incoming.set(r, true);
                    }
                }
                if let Some(w) = self.output_arbs[c].arbitrate(&incoming) {
                    grants.set(w, c, true);
                    row_free.set(w, false);
                    col_free.set(c, false);
                    // Both stages succeeded: commit priority updates.
                    self.input_arbs[w].update(c);
                    self.output_arbs[c].update(w);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    fn reset(&mut self) {
        for a in &mut self.input_arbs {
            a.reset();
        }
        for a in &mut self.output_arbs {
            a.reset();
        }
    }
}

/// Separable output-first allocator (`sep_of`, Figure 1(b)).
///
/// Stage 1: every requester eagerly forwards *all* its requests; each
/// resource's arbiter picks one requester among all incoming requests.
/// Stage 2: each requester that won at one or more resources picks a single
/// one with its input arbiter. Priority updates again apply only to grants
/// surviving both stages.
pub struct SeparableOutputFirst {
    /// One `requesters`-wide arbiter per resource.
    output_arbs: Vec<Box<dyn Arbiter + Send>>,
    /// One `resources`-wide arbiter per requester.
    input_arbs: Vec<Box<dyn Arbiter + Send>>,
    iterations: usize,
}

impl SeparableOutputFirst {
    /// Single-iteration separable output-first allocator.
    pub fn new(requesters: usize, resources: usize, kind: ArbiterKind) -> Self {
        Self::with_iterations(requesters, resources, kind, 1)
    }

    /// Multi-iteration variant (see [`SeparableInputFirst::with_iterations`]).
    pub fn with_iterations(
        requesters: usize,
        resources: usize,
        kind: ArbiterKind,
        iterations: usize,
    ) -> Self {
        assert!(iterations >= 1);
        assert!(requesters > 0 && resources > 0);
        SeparableOutputFirst {
            output_arbs: (0..resources).map(|_| kind.build(requesters)).collect(),
            input_arbs: (0..requesters).map(|_| kind.build(resources)).collect(),
            iterations,
        }
    }
}

impl Allocator for SeparableOutputFirst {
    fn num_requesters(&self) -> usize {
        self.input_arbs.len()
    }

    fn num_resources(&self) -> usize {
        self.output_arbs.len()
    }

    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        assert_eq!(requests.num_rows(), self.num_requesters());
        assert_eq!(requests.num_cols(), self.num_resources());
        let (nr, nc) = (self.num_requesters(), self.num_resources());
        grants.clear();
        let mut row_free = Bits::ones(nr);
        let mut col_free = Bits::ones(nc);

        for _ in 0..self.iterations {
            // Stage 1: arbitration at each free resource over free
            // requesters.
            let mut stage1: Vec<Option<usize>> = vec![None; nc];
            for c in col_free.iter_set() {
                let mut incoming = requests.col(c);
                incoming.intersect_with(&row_free);
                stage1[c] = self.output_arbs[c].arbitrate(&incoming);
            }
            // Stage 2: each requester picks among resources that chose
            // it.
            let mut any = false;
            for r in row_free.clone().iter_set() {
                let mut won = Bits::new(nc);
                for c in 0..nc {
                    if stage1[c] == Some(r) {
                        won.set(c, true);
                    }
                }
                if let Some(c) = self.input_arbs[r].arbitrate(&won) {
                    grants.set(r, c, true);
                    row_free.set(r, false);
                    col_free.set(c, false);
                    self.output_arbs[c].update(r);
                    self.input_arbs[r].update(c);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    fn reset(&mut self) {
        for a in &mut self.output_arbs {
            a.reset();
        }
        for a in &mut self.input_arbs {
            a.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocatorKind;

    fn kinds() -> Vec<AllocatorKind> {
        vec![
            AllocatorKind::SepIfRr,
            AllocatorKind::SepIfMatrix,
            AllocatorKind::SepOfRr,
            AllocatorKind::SepOfMatrix,
        ]
    }

    #[test]
    fn grants_are_matchings() {
        for k in kinds() {
            let mut a = k.build(4, 4);
            let req = BitMatrix::from_entries(
                4,
                4,
                [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)],
            );
            for _ in 0..20 {
                let g = a.allocate(&req);
                assert!(g.is_matching_for(&req), "{k:?}\n{g:?}");
            }
        }
    }

    #[test]
    fn non_conflicting_requests_all_granted() {
        // §4.3.2: "all three allocator types are guaranteed to grant
        // non-conflicting requests".
        for k in kinds() {
            let mut a = k.build(4, 4);
            let req = BitMatrix::from_entries(4, 4, [(0, 2), (1, 0), (2, 3), (3, 1)]);
            let g = a.allocate(&req);
            assert_eq!(g, req, "{k:?}");
        }
    }

    #[test]
    fn input_first_can_miss_maximal_matching() {
        // The classic sep_if lockout from §4.3.2: requesters 0 and 1 both
        // want {0, 1}; with identical input-arbiter state both pick resource
        // 0 in stage 1, leaving resource 1 idle.
        let mut a = SeparableInputFirst::new(2, 2, ArbiterKind::RoundRobin);
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        let g = a.allocate(&req);
        assert_eq!(g.count_ones(), 1, "expected stage-1 collision\n{g:?}");
    }

    #[test]
    fn output_first_can_miss_maximal_matching() {
        // Dual situation for sep_of: resources 0 and 1 both pick requester 0
        // in stage 1; requester 1 gets nothing although resource 1 was free.
        let mut a = SeparableOutputFirst::new(2, 2, ArbiterKind::RoundRobin);
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        let g = a.allocate(&req);
        assert_eq!(g.count_ones(), 1, "expected stage-1 collision\n{g:?}");
    }

    #[test]
    fn second_iteration_repairs_lockout() {
        for (label, mut a) in [
            (
                "if",
                Box::new(SeparableInputFirst::with_iterations(
                    2,
                    2,
                    ArbiterKind::RoundRobin,
                    2,
                )) as Box<dyn Allocator>,
            ),
            (
                "of",
                Box::new(SeparableOutputFirst::with_iterations(
                    2,
                    2,
                    ArbiterKind::RoundRobin,
                    2,
                )),
            ),
        ] {
            let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]);
            let g = a.allocate(&req);
            assert_eq!(g.count_ones(), 2, "sep_{label} with 2 iterations");
        }
    }

    #[test]
    fn persistent_conflict_rotates_fairly() {
        for k in kinds() {
            let mut a = k.build(2, 1);
            let req = BitMatrix::from_entries(2, 1, [(0, 0), (1, 0)]);
            let mut counts = [0usize; 2];
            for _ in 0..10 {
                let g = a.allocate(&req);
                assert_eq!(g.count_ones(), 1);
                let (r, _) = g.iter_set().next().unwrap();
                counts[r] += 1;
            }
            assert_eq!(counts, [5, 5], "{k:?} unfair: {counts:?}");
        }
    }

    #[test]
    fn losing_stage1_winner_retains_priority() {
        // iSLIP rule consequence: a requester whose stage-1 pick loses stage
        // 2 keeps requesting the same resource and eventually wins it.
        let mut a = SeparableInputFirst::new(2, 2, ArbiterKind::RoundRobin);
        // Requester 0 wants only resource 0; requester 1 wants {0,1}.
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (1, 0), (1, 1)]);
        let mut got_each = [false; 2];
        for _ in 0..6 {
            let g = a.allocate(&req);
            for (r, _) in g.iter_set() {
                got_each[r] = true;
            }
        }
        assert!(got_each[0] && got_each[1], "starvation: {got_each:?}");
    }

    #[test]
    fn rectangular_shapes_supported() {
        for k in kinds() {
            let mut a = k.build(3, 5);
            let req = BitMatrix::from_entries(3, 5, [(0, 4), (1, 4), (2, 0)]);
            let g = a.allocate(&req);
            assert!(g.is_matching_for(&req), "{k:?}");
            assert_eq!(g.count_ones(), 2);
        }
    }
}
