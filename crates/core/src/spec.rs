//! Speculative switch allocation (§5.2, Figure 9).
//!
//! Speculation lets head flits bid for crossbar access in the same cycle
//! they request an output VC, hiding the VC-allocation pipeline stage at low
//! load. Non-speculative and speculative requests go to two separate switch
//! allocators; speculative grants are then masked so they can never displace
//! non-speculative traffic:
//!
//! * **Conventional** (`spec_gnt`, Figure 9(a)): a speculative grant is
//!   discarded if any non-speculative *grant* uses the same input or output
//!   port. In hardware this costs two `P`-input reduction-OR trees plus a
//!   NOR/AND masking stage *after* the non-speculative allocator — it
//!   lengthens the critical path.
//! * **Pessimistic** (`spec_req`, Figure 9(b)): a speculative grant is
//!   discarded if any non-speculative *request* touches the same input or
//!   output port. Requests are available at the start of the cycle, so the
//!   mask is computed in parallel with allocation and only a final AND stage
//!   remains on the critical path — the delay reduction of §5.2, bought by
//!   discarding some viable speculations near saturation.

use crate::switch::{SwitchAllocator, SwitchAllocatorKind, SwitchGrant, SwitchRequests};

/// Speculation scheme, named as in the Figure 14 legends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecMode {
    /// No speculation: speculative requests are ignored (`nonspec`).
    NonSpeculative,
    /// Mask speculative grants with non-speculative grants (`spec_gnt`).
    Conventional,
    /// Mask speculative grants with non-speculative requests (`spec_req`).
    Pessimistic,
}

impl SpecMode {
    /// Legend label used in Figure 14.
    pub fn label(self) -> &'static str {
        match self {
            SpecMode::NonSpeculative => "nonspec",
            SpecMode::Conventional => "spec_gnt",
            SpecMode::Pessimistic => "spec_req",
        }
    }

    /// The three schemes of Figure 14.
    pub const ALL: [SpecMode; 3] = [
        SpecMode::NonSpeculative,
        SpecMode::Conventional,
        SpecMode::Pessimistic,
    ];

    /// Parses a [`SpecMode::label`] name, or the scheme's prose name
    /// (`conventional`, `pessimistic`).
    pub fn parse(s: &str) -> Option<SpecMode> {
        match s {
            "nonspec" => Some(SpecMode::NonSpeculative),
            "spec_gnt" | "conventional" => Some(SpecMode::Conventional),
            "spec_req" | "pessimistic" => Some(SpecMode::Pessimistic),
            _ => None,
        }
    }
}

/// Result of one speculative switch-allocation round.
#[derive(Clone, Debug, Default)]
pub struct SpecAllocResult {
    /// Grants to non-speculative requests (always honored).
    pub nonspec: Vec<SwitchGrant>,
    /// Speculative grants that survived masking. The router must still
    /// verify each against the same-cycle VC-allocation outcome; surviving
    /// grants here are only guaranteed not to conflict with `nonspec` on
    /// ports.
    pub spec: Vec<SwitchGrant>,
    /// Speculative grants discarded by the masking stage (misspeculation
    /// bookkeeping for the §5.2 efficiency analysis).
    pub masked: Vec<SwitchGrant>,
}

impl SpecAllocResult {
    /// Grant lists pre-sized to one grant per output port (the per-cycle
    /// worst case for each list), so reuse across cycles never reallocates.
    pub fn with_capacity(ports: usize) -> Self {
        SpecAllocResult {
            nonspec: Vec::with_capacity(ports),
            spec: Vec::with_capacity(ports),
            masked: Vec::with_capacity(ports),
        }
    }

    /// Empties all three grant lists, keeping their capacity for reuse.
    pub fn clear(&mut self) {
        self.nonspec.clear();
        self.spec.clear();
        self.masked.clear();
    }
}

/// Dual-allocator speculative switch allocator (Figure 9).
///
/// The masking stage is the Figure 9 AND gate verbatim: blocked input and
/// output ports are collected into two `u64` port masks — a router has at
/// most [`crate::MAX_WIDTH`] ports — and every speculative grant is killed
/// by a single AND-NOT ([`noc_arbiter::bits::spec_kill`]) per side. The
/// differential suite checks it against the element-wise
/// [`crate::reference::mask_speculative`].
pub struct SpeculativeSwitchAllocator {
    nonspec: Box<dyn SwitchAllocator + Send>,
    spec: Box<dyn SwitchAllocator + Send>,
    mode: SpecMode,
}

impl SpeculativeSwitchAllocator {
    /// Builds both component allocators of the given architecture.
    pub fn new(kind: SwitchAllocatorKind, ports: usize, vcs: usize, mode: SpecMode) -> Self {
        SpeculativeSwitchAllocator {
            nonspec: kind.build(ports, vcs),
            spec: kind.build(ports, vcs),
            mode,
        }
    }

    /// [`SpeculativeSwitchAllocator::new`] over the scalar-reference switch
    /// allocators ([`SwitchAllocatorKind::build_reference`]) — the oracle
    /// side of the differential tests.
    pub fn new_reference(
        kind: SwitchAllocatorKind,
        ports: usize,
        vcs: usize,
        mode: SpecMode,
    ) -> Self {
        SpeculativeSwitchAllocator {
            nonspec: kind.build_reference(ports, vcs),
            spec: kind.build_reference(ports, vcs),
            mode,
        }
    }

    /// The active speculation scheme.
    pub fn mode(&self) -> SpecMode {
        self.mode
    }

    /// Router port count.
    pub fn ports(&self) -> usize {
        self.nonspec.ports()
    }

    /// VCs per port.
    pub fn vcs(&self) -> usize {
        self.nonspec.vcs()
    }

    /// Runs both allocators and applies the masking stage.
    pub fn allocate(
        &mut self,
        nonspec_reqs: &SwitchRequests,
        spec_reqs: &SwitchRequests,
    ) -> SpecAllocResult {
        let mut out = SpecAllocResult::default();
        self.allocate_into(nonspec_reqs, spec_reqs, &mut out);
        out
    }

    /// [`SpeculativeSwitchAllocator::allocate`] into a caller-owned result,
    /// reusing its grant buffers and the allocator's masking scratch so the
    /// per-cycle hot path performs no heap allocation at this level.
    pub fn allocate_into(
        &mut self,
        nonspec_reqs: &SwitchRequests,
        spec_reqs: &SwitchRequests,
        out: &mut SpecAllocResult,
    ) {
        out.clear();
        if !nonspec_reqs.is_empty() {
            self.nonspec.allocate_into(nonspec_reqs, &mut out.nonspec);
        }
        if self.mode == SpecMode::NonSpeculative {
            return;
        }
        if !spec_reqs.is_empty() {
            self.spec.allocate_into(spec_reqs, &mut out.spec);
        }
        if out.spec.is_empty() {
            return;
        }
        // Collect blocked ports into two u64 masks. A speculative grant set
        // is itself a matching, so projecting it onto port bit-vectors loses
        // nothing — the kill is one AND-NOT per side.
        let mut in_blocked = 0u64;
        let mut out_blocked = 0u64;
        match self.mode {
            SpecMode::Conventional => {
                for g in &out.nonspec {
                    in_blocked |= 1 << g.in_port;
                    out_blocked |= 1 << g.out_port;
                }
            }
            SpecMode::Pessimistic => {
                in_blocked = nonspec_reqs.active_inputs_word();
                out_blocked = nonspec_reqs.requested_outputs_word();
            }
            SpecMode::NonSpeculative => unreachable!(),
        }
        let mut spec_in = 0u64;
        let mut spec_out = 0u64;
        for g in &out.spec {
            spec_in |= 1 << g.in_port;
            spec_out |= 1 << g.out_port;
        }
        let alive_in = noc_arbiter::bits::spec_kill(spec_in, in_blocked);
        let alive_out = noc_arbiter::bits::spec_kill(spec_out, out_blocked);
        let SpecAllocResult { spec, masked, .. } = out;
        spec.retain(|g| {
            if alive_in >> g.in_port & 1 != 0 && alive_out >> g.out_port & 1 != 0 {
                true
            } else {
                masked.push(*g);
                false
            }
        });
    }

    /// Resets both component allocators.
    pub fn reset(&mut self) {
        self.nonspec.reset();
        self.spec.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_arbiter::ArbiterKind;
    use rand::{Rng, SeedableRng};

    const KIND: SwitchAllocatorKind = SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin);

    #[test]
    fn parse_round_trips_labels() {
        for m in SpecMode::ALL {
            assert_eq!(SpecMode::parse(m.label()), Some(m));
        }
        assert_eq!(SpecMode::parse("pessimistic"), Some(SpecMode::Pessimistic));
        assert_eq!(SpecMode::parse("optimistic"), None);
    }

    fn random_requests(rng: &mut impl Rng, p: usize, v: usize, rate: f64) -> SwitchRequests {
        let mut r = SwitchRequests::new(p, v);
        for i in 0..p {
            for vc in 0..v {
                if rng.gen_bool(rate) {
                    r.request(i, vc, rng.gen_range(0..p));
                }
            }
        }
        r
    }

    #[test]
    fn nonspec_mode_ignores_speculative_requests() {
        let mut a = SpeculativeSwitchAllocator::new(KIND, 4, 2, SpecMode::NonSpeculative);
        let ns = SwitchRequests::new(4, 2);
        let mut sp = SwitchRequests::new(4, 2);
        sp.request(0, 0, 1);
        let r = a.allocate(&ns, &sp);
        assert!(r.nonspec.is_empty() && r.spec.is_empty() && r.masked.is_empty());
    }

    #[test]
    fn surviving_spec_grants_never_conflict_with_nonspec() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for mode in [SpecMode::Conventional, SpecMode::Pessimistic] {
            let mut a = SpeculativeSwitchAllocator::new(KIND, 5, 4, mode);
            for _ in 0..200 {
                let ns = random_requests(&mut rng, 5, 4, 0.3);
                let sp = random_requests(&mut rng, 5, 4, 0.3);
                let r = a.allocate(&ns, &sp);
                for sg in &r.spec {
                    for ng in &r.nonspec {
                        assert_ne!(sg.in_port, ng.in_port, "{mode:?}");
                        assert_ne!(sg.out_port, ng.out_port, "{mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pessimistic_is_stricter_than_conventional() {
        // Every speculative grant surviving the pessimistic mask would also
        // survive the conventional mask (nonspec grants ⊆ nonspec requests
        // port-wise). Run both modes on identical request streams and check
        // the per-cycle surviving counts.
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut conv = SpeculativeSwitchAllocator::new(KIND, 5, 2, SpecMode::Conventional);
        let mut pess = SpeculativeSwitchAllocator::new(KIND, 5, 2, SpecMode::Pessimistic);
        let mut conv_total = 0usize;
        let mut pess_total = 0usize;
        for _ in 0..300 {
            let ns = random_requests(&mut rng, 5, 2, 0.4);
            let sp = random_requests(&mut rng, 5, 2, 0.4);
            conv_total += conv.allocate(&ns, &sp).spec.len();
            pess_total += pess.allocate(&ns, &sp).spec.len();
        }
        assert!(
            pess_total <= conv_total,
            "pessimistic ({pess_total}) kept more spec grants than conventional ({conv_total})"
        );
        assert!(conv_total > 0, "speculation never succeeded");
    }

    #[test]
    fn modes_agree_when_no_nonspec_traffic() {
        // With zero non-speculative requests the masks are empty and both
        // schemes pass identical speculative grants — the low-load regime
        // where §5.2 argues pessimism is free.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut conv = SpeculativeSwitchAllocator::new(KIND, 4, 2, SpecMode::Conventional);
        let mut pess = SpeculativeSwitchAllocator::new(KIND, 4, 2, SpecMode::Pessimistic);
        let ns = SwitchRequests::new(4, 2);
        for _ in 0..100 {
            let sp = random_requests(&mut rng, 4, 2, 0.4);
            let gc = conv.allocate(&ns, &sp);
            let gp = pess.allocate(&ns, &sp);
            assert_eq!(gc.spec, gp.spec);
            assert!(gc.masked.is_empty() && gp.masked.is_empty());
        }
    }

    #[test]
    fn pessimistic_masks_on_request_even_if_grant_elsewhere() {
        // Input 0 nonspec-requests output 0; spec request at input 1 wants
        // output 0 too. Conventional: if nonspec grant goes to (0 -> 0),
        // spec (1 -> 0) is masked either way. Now let nonspec request (0 ->
        // 0) lose nothing — but make the spec grant target output 1, which
        // nobody nonspec-requests, from input 0 which *is* nonspec-active:
        // pessimistic masks it, conventional masks it too (input grant).
        // The distinguishing case: nonspec request exists at input 0 but its
        // grant fails (conflict), then conventional lets spec through while
        // pessimistic does not. Force that with two nonspec inputs fighting
        // for one output.
        let mut conv = SpeculativeSwitchAllocator::new(KIND, 3, 1, SpecMode::Conventional);
        let mut pess = SpeculativeSwitchAllocator::new(KIND, 3, 1, SpecMode::Pessimistic);
        let mut ns = SwitchRequests::new(3, 1);
        ns.request(0, 0, 2);
        ns.request(1, 0, 2); // loser at output 2 remains requesting
        let mut sp = SwitchRequests::new(3, 1);
        sp.request(2, 0, 1); // distinct input & output from all nonspec GRANTS
        let rc = conv.allocate(&ns, &sp);
        assert_eq!(rc.spec.len(), 1, "conventional should pass the spec grant");
        let rp = pess.allocate(&ns, &sp);
        assert_eq!(rp.spec.len(), 1, "output 1 and input 2 are request-free");

        // Now have the spec grant target output 2 (nonspec-requested but
        // possibly granted to input 0): both mask. And target input 1
        // (nonspec-active, but grant went to input 0): conventional passes,
        // pessimistic masks.
        let mut sp2 = SwitchRequests::new(3, 1);
        sp2.request(1, 0, 1);
        // Note: input 1 has both a nonspec and a spec request here; in the
        // router that never happens for the same VC, but the mask logic is
        // port-level and this is the §5.2 distinguishing case.
        let rc = conv.allocate(&ns, &sp2);
        let rp = pess.allocate(&ns, &sp2);
        // Conventional: nonspec grant is (0 or 1) -> 2. If grant went to 0,
        // spec (1 -> 1) survives; pessimistic always masks it.
        assert!(rp.spec.is_empty());
        assert_eq!(rc.spec.len() + rc.masked.len(), 1);
    }
}
