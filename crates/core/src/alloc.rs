//! The general allocator abstraction (§2 of the paper).

use crate::BitMatrix;

/// An allocator matches `num_requesters` requesters to `num_resources`
/// resources each cycle.
///
/// Given a request matrix, [`Allocator::allocate`] returns a grant matrix
/// that is a *matching* (see [`BitMatrix::is_matching_for`]): grants are a
/// subset of requests, with at most one grant per row and per column.
/// `allocate` also advances the allocator's internal priority state
/// according to its fairness rule, so successive calls with identical
/// requests rotate grants among contenders.
pub trait Allocator {
    /// Number of requester rows this allocator was built for.
    fn num_requesters(&self) -> usize;

    /// Number of resource columns this allocator was built for.
    fn num_resources(&self) -> usize;

    /// Computes a matching for `requests` and updates priority state.
    fn allocate(&mut self, requests: &BitMatrix) -> BitMatrix {
        let mut grants = BitMatrix::new(self.num_requesters(), self.num_resources());
        self.allocate_into(requests, &mut grants);
        grants
    }

    /// [`Allocator::allocate`] into a caller-owned grant matrix, so a
    /// per-cycle caller can reuse one scratch matrix and never allocate.
    /// The matrix must match the allocator's dimensions; it is cleared
    /// first.
    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix);

    /// [`Allocator::allocate`] fed by entries: `requests` lists the
    /// requested `(row, col)` entries in any order, and `grants` is
    /// cleared and refilled with the granted entries in ascending row
    /// order. A caller that builds its requests entry by entry skips the
    /// request and grant matrices this way. The default goes through a
    /// [`BitMatrix`]; the wavefront feeds its diagonal kernel directly.
    fn allocate_entries(&mut self, requests: &[(usize, usize)], grants: &mut Vec<(usize, usize)>) {
        let requests = BitMatrix::from_entries(
            self.num_requesters(),
            self.num_resources(),
            requests.iter().copied(),
        );
        grants.clear();
        grants.extend(self.allocate(&requests).iter_set());
    }

    /// Restores power-on priority state.
    fn reset(&mut self);
}

/// The allocator architectures evaluated in the paper, tagged with the
/// arbiter kind used by separable variants (figure legends `sep_if/m`,
/// `sep_if/rr`, `sep_of/m`, `sep_of/rr`, `wf/rr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// Separable input-first with matrix arbiters (`sep_if/m`).
    SepIfMatrix,
    /// Separable input-first with round-robin arbiters (`sep_if/rr`).
    SepIfRr,
    /// Separable output-first with matrix arbiters (`sep_of/m`).
    SepOfMatrix,
    /// Separable output-first with round-robin arbiters (`sep_of/rr`).
    SepOfRr,
    /// Wavefront allocator (`wf/rr`; the `rr` refers only to the round-robin
    /// pre-selection arbiters used alongside it in switch allocation).
    Wavefront,
    /// Maximum-size (augmenting-path) allocator — the quality upper bound of
    /// §2.3, not a realistic hardware design point.
    MaxSize,
}

impl AllocatorKind {
    /// Builds and runs an allocator in a few lines:
    ///
    /// ```
    /// use noc_core::{AllocatorKind, BitMatrix};
    ///
    /// let requests = BitMatrix::from_entries(4, 4, [(0, 0), (0, 1), (1, 0), (3, 2)]);
    /// let mut wf = AllocatorKind::Wavefront.build(4, 4);
    /// let grants = wf.allocate(&requests);
    /// assert!(grants.is_matching_for(&requests));
    /// // Maximal (nothing can be added) but not maximum: the wavefront
    /// // grants (0,0) on its priority diagonal, blocking (0,1) and (1,0).
    /// assert!(grants.is_maximal_for(&requests));
    /// assert_eq!(grants.count_ones(), 2);
    ///
    /// // The maximum-size reference finds the 3-grant matching.
    /// let mut ms = AllocatorKind::MaxSize.build(4, 4);
    /// assert_eq!(ms.allocate(&requests).count_ones(), 3);
    /// ```
    ///
    /// All kinds the paper plots in its cost figures.
    pub const COST_FIGURE_KINDS: [AllocatorKind; 5] = [
        AllocatorKind::SepIfMatrix,
        AllocatorKind::SepIfRr,
        AllocatorKind::SepOfMatrix,
        AllocatorKind::SepOfRr,
        AllocatorKind::Wavefront,
    ];

    /// The three architectures compared in the quality/performance figures.
    pub const QUALITY_FIGURE_KINDS: [AllocatorKind; 3] = [
        AllocatorKind::SepIfRr,
        AllocatorKind::SepOfRr,
        AllocatorKind::Wavefront,
    ];

    /// Instantiates a `requesters × resources` allocator of this kind.
    pub fn build(self, requesters: usize, resources: usize) -> Box<dyn Allocator + Send> {
        use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
        match self {
            AllocatorKind::SepIfMatrix => Box::new(crate::separable::SeparableInputFirst::new(
                requesters, resources, Matrix,
            )),
            AllocatorKind::SepIfRr => Box::new(crate::separable::SeparableInputFirst::new(
                requesters, resources, RoundRobin,
            )),
            AllocatorKind::SepOfMatrix => Box::new(crate::separable::SeparableOutputFirst::new(
                requesters, resources, Matrix,
            )),
            AllocatorKind::SepOfRr => Box::new(crate::separable::SeparableOutputFirst::new(
                requesters, resources, RoundRobin,
            )),
            AllocatorKind::Wavefront => Box::new(crate::wavefront::WavefrontAllocator::new(
                requesters, resources,
            )),
            AllocatorKind::MaxSize => {
                Box::new(crate::maxsize::MaxSizeAllocator::new(requesters, resources))
            }
        }
    }

    /// Instantiates the scalar oracle of this kind, for the differential
    /// test layer to drive against [`AllocatorKind::build`]. Only the
    /// wavefront has one ([`crate::reference::WavefrontAllocator`]): every
    /// other kind has a single implementation, which is its own reference.
    pub fn build_reference(self, requesters: usize, resources: usize) -> Box<dyn Allocator + Send> {
        match self {
            AllocatorKind::Wavefront => Box::new(crate::reference::WavefrontAllocator::new(
                requesters, resources,
            )),
            _ => self.build(requesters, resources),
        }
    }

    /// Name used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::SepIfMatrix => "sep_if/m",
            AllocatorKind::SepIfRr => "sep_if/rr",
            AllocatorKind::SepOfMatrix => "sep_of/m",
            AllocatorKind::SepOfRr => "sep_of/rr",
            AllocatorKind::Wavefront => "wf/rr",
            AllocatorKind::MaxSize => "maxsize",
        }
    }

    /// Parses the name every external surface uses — `noc` flags, sweep
    /// specs, serve requests (`sep_if_rr`, `sep_if_m`, `sep_of_rr`,
    /// `sep_of_m`, `wf`) — or the [`AllocatorKind::label`] legend spelling
    /// of the same kind (`sep_if/rr`, …, `wf/rr`).
    pub fn parse(s: &str) -> Option<AllocatorKind> {
        match s.replace('/', "_").as_str() {
            "sep_if_rr" => Some(AllocatorKind::SepIfRr),
            "sep_if_m" => Some(AllocatorKind::SepIfMatrix),
            "sep_of_rr" => Some(AllocatorKind::SepOfRr),
            "sep_of_m" => Some(AllocatorKind::SepOfMatrix),
            "wf" | "wf_rr" => Some(AllocatorKind::Wavefront),
            _ => None,
        }
    }

    /// Architecture family label without the arbiter suffix (`sep_if`,
    /// `sep_of`, `wf`), as used in the quality figures.
    pub fn family(self) -> &'static str {
        match self {
            AllocatorKind::SepIfMatrix | AllocatorKind::SepIfRr => "sep_if",
            AllocatorKind::SepOfMatrix | AllocatorKind::SepOfRr => "sep_of",
            AllocatorKind::Wavefront => "wf",
            AllocatorKind::MaxSize => "maxsize",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for k in AllocatorKind::COST_FIGURE_KINDS {
            assert_eq!(AllocatorKind::parse(k.label()), Some(k));
        }
        assert_eq!(AllocatorKind::parse("wf"), Some(AllocatorKind::Wavefront));
        // The quality bound is not a selectable design point.
        assert_eq!(AllocatorKind::parse(AllocatorKind::MaxSize.label()), None);
    }
}
