//! Scalar oracles of the allocator kernels.
//!
//! Every router-facing allocator of this crate is one word kernel. The
//! element-wise implementations those kernels were derived from are kept
//! here, outside the production modules: boxed per-port arbiters, `Bits`
//! masks, sorted bid lists, per-class request projection. They are reached
//! only through the `new_reference` / `build_reference` constructors and
//! from tests — `tests/differential_kernels.rs` drives each against its
//! kernel on identical request streams and asserts identical grants and
//! priority state, and the benchmark's `ref_ratio` rungs time the pairs.
//! Nothing here is fast.
//!
//! The textbook `n × n` separable allocators
//! ([`crate::SeparableInputFirst`], [`crate::SeparableOutputFirst`]) have no
//! entry: their scalar form is their only implementation.

use crate::spec::{SpecAllocResult, SpecMode};
use crate::switch::{SwitchAllocator, SwitchGrant, SwitchRequests};
use crate::vc::{
    bits_of, validate_request, DenseVcAllocator, OutVc, VcAllocSpec, VcAllocator, VcRequest,
};
use crate::wavefront::DiagonalPolicy;
use crate::{Allocator, AllocatorKind, BitMatrix};
use noc_arbiter::{Arbiter, ArbiterKind, Bits};

// ---------------------------------------------------------------------------
// Wavefront (oracle of `wavefront::WavefrontAllocator`)
// ---------------------------------------------------------------------------

/// Scalar wavefront sweep: walk diagonals from `start`, visiting rows
/// in index order within each diagonal, granting where both the row and
/// the implied column are still free.
pub fn wavefront_with_diagonal_into(
    requesters: usize,
    resources: usize,
    requests: &BitMatrix,
    start: usize,
    grants: &mut BitMatrix,
) {
    let n = requesters.max(resources);
    let mut row_free = Bits::ones(n);
    let mut col_free = Bits::ones(n);
    for k in 0..n {
        let d = (start + k) % n;
        // Entries (i, j) with (i + j) mod n == d.
        for i in 0..requesters {
            let j = (d + n - i % n) % n;
            if j < resources && row_free.get(i) && col_free.get(j) && requests.get(i, j) {
                grants.set(i, j, true);
                row_free.set(i, false);
                col_free.set(j, false);
            }
        }
    }
}

/// Scalar wavefront allocator: identical rotating-diagonal state to the
/// kernel-backed [`crate::WavefrontAllocator`], scalar sweep inside.
pub struct WavefrontAllocator {
    requesters: usize,
    resources: usize,
    n: usize,
    diagonal: usize,
    policy: DiagonalPolicy,
}

impl WavefrontAllocator {
    /// Scalar counterpart of [`crate::WavefrontAllocator::new`].
    pub fn new(requesters: usize, resources: usize) -> Self {
        Self::with_policy(requesters, resources, DiagonalPolicy::Rotating)
    }

    /// Scalar counterpart of [`crate::WavefrontAllocator::with_policy`].
    pub fn with_policy(requesters: usize, resources: usize, policy: DiagonalPolicy) -> Self {
        assert!(requesters > 0 && resources > 0);
        WavefrontAllocator {
            requesters,
            resources,
            n: requesters.max(resources),
            diagonal: 0,
            policy,
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
        grants.clear();
        wavefront_with_diagonal_into(
            self.requesters,
            self.resources,
            requests,
            self.diagonal,
            grants,
        );
        if self.policy == DiagonalPolicy::Rotating {
            self.diagonal = (self.diagonal + 1) % self.n;
        }
    }

    fn reset(&mut self) {
        self.diagonal = 0;
    }
}

// ---------------------------------------------------------------------------
// Switch allocation (oracles of the three `switch` kernels)
// ---------------------------------------------------------------------------

/// Scalar separable input-first switch allocator.
pub struct SepIfSwitchAllocator {
    ports: usize,
    vcs: usize,
    input_arbs: Vec<Box<dyn Arbiter + Send>>,
    output_arbs: Vec<Box<dyn Arbiter + Send>>,
    winners: Vec<Option<(usize, usize)>>,
}

impl SepIfSwitchAllocator {
    /// Scalar counterpart of [`crate::switch::SepIfSwitchAllocator::new`].
    pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
        SepIfSwitchAllocator {
            ports,
            vcs,
            input_arbs: (0..ports).map(|_| kind.build(vcs)).collect(),
            output_arbs: (0..ports).map(|_| kind.build(ports)).collect(),
            winners: Vec::with_capacity(ports),
        }
    }
}

impl SwitchAllocator for SepIfSwitchAllocator {
    fn ports(&self) -> usize {
        self.ports
    }

    fn vcs(&self) -> usize {
        self.vcs
    }

    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
        assert_eq!(requests.ports(), self.ports);
        assert_eq!(requests.vcs(), self.vcs);
        out.clear();
        if requests.is_empty() {
            return;
        }
        // Stage 1: winning VC per input port.
        self.winners.clear();
        for i in 0..self.ports {
            let w = self.input_arbs[i]
                .arbitrate(&requests.active_vcs(i))
                .and_then(|v| requests.get(i, v).map(|out| (v, out)));
            self.winners.push(w);
        }
        let winners = &self.winners;
        // Stage 2: arbitration among forwarded requests at each output.
        for o in 0..self.ports {
            let mut incoming = Bits::new(self.ports);
            for (i, w) in winners.iter().enumerate() {
                if matches!(w, Some((_, out)) if *out == o) {
                    incoming.set(i, true);
                }
            }
            if let Some(i) = self.output_arbs[o].arbitrate(&incoming) {
                // `incoming` only carries inputs with a stage-1 winner.
                let Some((v, _)) = winners[i] else { continue };
                out.push(SwitchGrant {
                    in_port: i,
                    vc: v,
                    out_port: o,
                });
                // Both stages succeeded: commit priority updates.
                self.input_arbs[i].update(v);
                self.output_arbs[o].update(i);
            }
        }
    }

    fn reset(&mut self) {
        for a in self.input_arbs.iter_mut().chain(&mut self.output_arbs) {
            a.reset();
        }
    }
}

/// Scalar separable output-first switch allocator.
pub struct SepOfSwitchAllocator {
    ports: usize,
    vcs: usize,
    output_arbs: Vec<Box<dyn Arbiter + Send>>,
    vc_arbs: Vec<Box<dyn Arbiter + Send>>,
    stage1: Vec<Option<usize>>,
}

impl SepOfSwitchAllocator {
    /// Scalar counterpart of [`crate::switch::SepOfSwitchAllocator::new`].
    pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
        SepOfSwitchAllocator {
            ports,
            vcs,
            output_arbs: (0..ports).map(|_| kind.build(ports)).collect(),
            vc_arbs: (0..ports).map(|_| kind.build(vcs)).collect(),
            stage1: Vec::with_capacity(ports),
        }
    }
}

impl SwitchAllocator for SepOfSwitchAllocator {
    fn ports(&self) -> usize {
        self.ports
    }

    fn vcs(&self) -> usize {
        self.vcs
    }

    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
        assert_eq!(requests.ports(), self.ports);
        assert_eq!(requests.vcs(), self.vcs);
        out.clear();
        if requests.is_empty() {
            return;
        }
        // Stage 1: each output arbitrates among all requesting inputs.
        self.stage1.clear();
        for o in 0..self.ports {
            let w = self.output_arbs[o].arbitrate(&requests.port_requests().col(o));
            self.stage1.push(w);
        }
        let stage1 = &self.stage1;
        // Stage 2: each input picks a winning VC among those whose
        // requested output was granted to it.
        for i in 0..self.ports {
            let mut candidates = Bits::new(self.vcs);
            for v in 0..self.vcs {
                if let Some(o) = requests.get(i, v) {
                    if stage1[o] == Some(i) {
                        candidates.set(v, true);
                    }
                }
            }
            if let Some(v) = self.vc_arbs[i].arbitrate(&candidates) {
                // `candidates` only carries VCs with a live request.
                let Some(o) = requests.get(i, v) else {
                    continue;
                };
                out.push(SwitchGrant {
                    in_port: i,
                    vc: v,
                    out_port: o,
                });
                self.vc_arbs[i].update(v);
                // Only the output whose grant was consumed updates.
                self.output_arbs[o].update(i);
            }
        }
    }

    fn reset(&mut self) {
        for a in self.output_arbs.iter_mut().chain(&mut self.vc_arbs) {
            a.reset();
        }
    }
}

/// Scalar wavefront switch allocator (scalar wavefront core + boxed
/// pre-selection arbiters).
pub struct WavefrontSwitchAllocator {
    ports: usize,
    vcs: usize,
    wavefront: WavefrontAllocator,
    presel: Vec<Box<dyn Arbiter + Send>>,
    matched: BitMatrix,
}

impl WavefrontSwitchAllocator {
    /// Scalar counterpart of [`crate::switch::WavefrontSwitchAllocator::new`].
    pub fn new(ports: usize, vcs: usize) -> Self {
        WavefrontSwitchAllocator {
            ports,
            vcs,
            wavefront: WavefrontAllocator::new(ports, ports),
            presel: (0..ports * ports)
                .map(|_| ArbiterKind::RoundRobin.build(vcs))
                .collect(),
            matched: BitMatrix::new(ports, ports),
        }
    }
}

impl SwitchAllocator for WavefrontSwitchAllocator {
    fn ports(&self) -> usize {
        self.ports
    }

    fn vcs(&self) -> usize {
        self.vcs
    }

    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
        assert_eq!(requests.ports(), self.ports);
        assert_eq!(requests.vcs(), self.vcs);
        out.clear();
        if requests.is_empty() {
            return;
        }
        self.wavefront
            .allocate_into(requests.port_requests(), &mut self.matched);
        let ports = self.ports;
        let (matched, presel) = (&self.matched, &mut self.presel);
        for (i, o) in matched.iter_set() {
            let arb = &mut presel[i * ports + o];
            // The wavefront core only grants port pairs that requested.
            let Some(v) = arb.arbitrate(&requests.vcs_for_output(i, o)) else {
                debug_assert!(false, "wavefront granted a port pair with no requesting VC");
                continue;
            };
            arb.update(v);
            out.push(SwitchGrant {
                in_port: i,
                vc: v,
                out_port: o,
            });
        }
    }

    fn reset(&mut self) {
        self.wavefront.reset();
        for a in &mut self.presel {
            a.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// VC allocation (oracles of `vc::SeparableVcAllocator`, dense and sparse)
// ---------------------------------------------------------------------------

/// Computes, for VC `in_vc` of some input port, the candidate output VCs (as
/// a `V`-wide mask over VC indices at the destination port): free output VCs
/// in the requested classes of the input VC's own message class.
fn candidate_mask(
    spec: &VcAllocSpec,
    in_vc: usize,
    out_port: usize,
    classes: u64,
    free_out: &BitMatrix,
) -> noc_arbiter::Bits {
    let (im, _, _) = spec.vc_class(in_vc);
    let mut mask = noc_arbiter::Bits::new(spec.total_vcs());
    for rc in bits_of(classes) {
        let base = spec.class_base(im, rc);
        for bank in 0..spec.vcs_per_class() {
            let ov = base + bank;
            if free_out.get(out_port, ov) {
                mask.set(ov, true);
            }
        }
    }
    mask
}

/// Scalar separable VC allocator: boxed per-arbiter state and a sorted
/// `(out_flat, g)` bid edge list where the kernel uses
/// [`noc_arbiter::ArbiterBank`] words and a pending mask. Grant- and
/// priority-identical to the kernel by construction: the sorted group
/// sweep visits output VCs in ascending `out_flat` order, exactly the
/// kernel's ctz pop order over its pending mask.
pub struct SeparableVcAllocator {
    spec: VcAllocSpec,
    input_first: bool,
    /// Per input VC (`P*V`): `V:1` arbiter over output-VC indices at the
    /// destination port.
    input_arbs: Vec<Box<dyn noc_arbiter::Arbiter + Send>>,
    /// Per output VC (`P*V`): `P*V:1` *tree* arbiter over input VCs.
    output_arbs: Vec<Box<dyn noc_arbiter::Arbiter + Send>>,
    /// Reusable stage-1 bid edge list `(out_flat, g)`.
    bids: Vec<(usize, usize)>,
    /// Reusable output-first stage-1 winner list and its per-input
    /// regroup.
    stage1: Vec<(usize, usize)>,
    by_input: Vec<(usize, usize)>,
}

impl SeparableVcAllocator {
    /// Builds the Figure 3 structure with the given arbiter kind.
    pub fn new(spec: VcAllocSpec, input_first: bool, kind: noc_arbiter::ArbiterKind) -> Self {
        let v = spec.total_vcs();
        let n = spec.ports() * v;
        SeparableVcAllocator {
            input_first,
            input_arbs: (0..n).map(|_| kind.build(v)).collect(),
            output_arbs: (0..n)
                .map(|_| {
                    Box::new(noc_arbiter::TreeArbiter::new(spec.ports(), v, kind))
                        as Box<dyn noc_arbiter::Arbiter + Send>
                })
                .collect(),
            spec,
            // One bid per input VC at most, so pre-sizing to `n` keeps
            // the per-cycle scratch lists allocation-free.
            bids: Vec::with_capacity(n),
            stage1: Vec::with_capacity(n),
            by_input: Vec::with_capacity(n),
        }
    }
}

impl VcAllocator for SeparableVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        &self.spec
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        // Split borrows so the arbiters can be driven mutably while the
        // spec and scratch buffers are read.
        let SeparableVcAllocator {
            spec,
            input_first,
            input_arbs,
            output_arbs,
            bids,
            stage1,
            by_input,
        } = self;
        let v = spec.total_vcs();
        let n = spec.ports() * v;
        assert_eq!(requests.len(), n, "one request slot per input VC");
        results.clear();
        results.resize(n, None);

        // Sparse edge list `(out_flat, g)` of stage-1 bids — iterating
        // only requested outputs keeps work O(requests).
        bids.clear();

        if *input_first {
            // Stage 1: each input VC picks one output VC at its port.
            for (g, req) in requests.iter().enumerate() {
                let Some(req) = req else { continue };
                let classes = req.classes;
                validate_request(spec, g % v, req.out_port, classes);
                let mask = candidate_mask(spec, g % v, req.out_port, classes, free_out);
                if let Some(ov) = input_arbs[g].arbitrate(&mask) {
                    bids.push((req.out_port * v + ov, g));
                }
            }
            // Stage 2: each bid-receiving output VC arbitrates.
            bids.sort_unstable();
            let mut i = 0;
            while i < bids.len() {
                let out_flat = bids[i].0;
                let mut incoming = noc_arbiter::Bits::new(n);
                let mut j = i;
                while j < bids.len() && bids[j].0 == out_flat {
                    incoming.set(bids[j].1, true);
                    j += 1;
                }
                i = j;
                if let Some(g) = output_arbs[out_flat].arbitrate(&incoming) {
                    results[g] = Some(OutVc {
                        port: out_flat / v,
                        vc: out_flat % v,
                    });
                    input_arbs[g].update(out_flat % v);
                    output_arbs[out_flat].update(g);
                }
            }
        } else {
            // Stage 1: each requested output VC arbitrates among all
            // requesting input VCs.
            for (g, req) in requests.iter().enumerate() {
                let Some(req) = req else { continue };
                let classes = req.classes;
                validate_request(spec, g % v, req.out_port, classes);
                let mask = candidate_mask(spec, g % v, req.out_port, classes, free_out);
                for ov in mask.iter_set() {
                    bids.push((req.out_port * v + ov, g));
                }
            }
            bids.sort_unstable();
            stage1.clear(); // (out_flat, winner g)
            let mut i = 0;
            while i < bids.len() {
                let out_flat = bids[i].0;
                let mut incoming = noc_arbiter::Bits::new(n);
                let mut j = i;
                while j < bids.len() && bids[j].0 == out_flat {
                    incoming.set(bids[j].1, true);
                    j += 1;
                }
                i = j;
                if let Some(g) = output_arbs[out_flat].arbitrate(&incoming) {
                    stage1.push((out_flat, g));
                }
            }
            // Stage 2: each input VC picks among output VCs that chose
            // it.
            by_input.clear();
            by_input.extend(stage1.iter().map(|&(out_flat, g)| (g, out_flat)));
            by_input.sort_unstable();
            let mut i = 0;
            while i < by_input.len() {
                let g = by_input[i].0;
                let mut j = i;
                while j < by_input.len() && by_input[j].0 == g {
                    j += 1;
                }
                // Stage-1 winners can only come from live requests.
                let Some(req) = requests[g].as_ref() else {
                    i = j;
                    continue;
                };
                let mut won = noc_arbiter::Bits::new(v);
                for k in i..j {
                    debug_assert_eq!(by_input[k].1 / v, req.out_port);
                    won.set(by_input[k].1 % v, true);
                }
                i = j;
                if let Some(ov) = input_arbs[g].arbitrate(&won) {
                    let out_flat = req.out_port * v + ov;
                    results[g] = Some(OutVc {
                        port: req.out_port,
                        vc: ov,
                    });
                    input_arbs[g].update(ov);
                    output_arbs[out_flat].update(g);
                }
            }
        }
    }

    fn reset(&mut self) {
        for a in self.input_arbs.iter_mut().chain(&mut self.output_arbs) {
            a.reset();
        }
    }
}

/// The sparse VC allocator as §4.2 words it: `M` independent dense
/// sub-allocators, each over the `P*R*C` VCs of one message class and
/// fed a projection of the requests and of the free-VC map onto that
/// class. Fresh projections every call — nothing here is fast.
pub struct SparseVcAllocator {
    spec: VcAllocSpec,
    /// Class structure of one message class.
    sub_spec: VcAllocSpec,
    /// One scalar-reference sub-allocator per message class.
    subs: Vec<DenseVcAllocator>,
}

impl SparseVcAllocator {
    /// Scalar counterpart of [`crate::SparseVcAllocator::new`].
    pub fn new(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        let classes = spec.resource_classes();
        let rc_succ = (0..classes)
            .map(|from| (0..classes).map(|to| spec.rc_legal(from, to)).collect())
            .collect();
        let sub_spec = VcAllocSpec::new(spec.ports(), 1, classes, spec.vcs_per_class(), rc_succ);
        SparseVcAllocator {
            subs: (0..spec.msg_classes())
                .map(|_| DenseVcAllocator::new_reference(sub_spec.clone(), kind))
                .collect(),
            sub_spec,
            spec,
        }
    }
}

impl VcAllocator for SparseVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        &self.spec
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        let spec = &self.spec;
        let v = spec.total_vcs();
        let v_sub = self.sub_spec.total_vcs();
        let n = spec.ports() * v;
        assert_eq!(requests.len(), n, "one request slot per input VC");
        results.clear();
        results.resize(n, None);

        for (m, sub) in self.subs.iter_mut().enumerate() {
            // Project requests and availability onto message class m.
            let mut sub_reqs: Vec<Option<VcRequest>> = vec![None; spec.ports() * v_sub];
            for (g, req) in requests.iter().enumerate() {
                let Some(req) = req else { continue };
                let (im, ir, ibank) = spec.vc_class(g % v);
                if im != m {
                    continue;
                }
                validate_request(spec, g % v, req.out_port, req.classes);
                let sub_vc = ir * spec.vcs_per_class() + ibank;
                sub_reqs[(g / v) * v_sub + sub_vc] = Some(req.clone());
            }
            let mut sub_free = BitMatrix::new(spec.ports(), v_sub);
            for p in 0..spec.ports() {
                for sv in 0..v_sub {
                    sub_free.set(p, sv, free_out.get(p, m * v_sub + sv));
                }
            }
            let sub_grants = sub.allocate(&sub_reqs, &sub_free);
            for (g, req) in requests.iter().enumerate() {
                if req.is_none() {
                    continue;
                }
                let (im, ir, ibank) = spec.vc_class(g % v);
                if im != m {
                    continue;
                }
                let sub_vc = ir * spec.vcs_per_class() + ibank;
                if let Some(grant) = sub_grants[(g / v) * v_sub + sub_vc] {
                    results[g] = Some(OutVc {
                        port: grant.port,
                        vc: m * v_sub + grant.vc,
                    });
                }
            }
        }
    }

    fn reset(&mut self) {
        for s in &mut self.subs {
            s.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// Speculation mask (oracle of the AND-NOT kill in `spec`)
// ---------------------------------------------------------------------------

/// Element-wise masking stage: per-port `Vec<bool>` blocked flags and a
/// per-grant retain sweep. Moves masked grants from `out.spec` to
/// `out.masked`, exactly like the `u64` kill in
/// [`crate::SpeculativeSwitchAllocator::allocate_into`].
pub fn mask_speculative(mode: SpecMode, nonspec_reqs: &SwitchRequests, out: &mut SpecAllocResult) {
    let ports = nonspec_reqs.ports();
    let mut in_blocked = vec![false; ports];
    let mut out_blocked = vec![false; ports];
    match mode {
        SpecMode::Conventional => {
            for g in &out.nonspec {
                in_blocked[g.in_port] = true;
                out_blocked[g.out_port] = true;
            }
        }
        SpecMode::Pessimistic => {
            for p in 0..ports {
                in_blocked[p] = nonspec_reqs.input_active(p);
                out_blocked[p] = nonspec_reqs.output_requested(p);
            }
        }
        SpecMode::NonSpeculative => return,
    }
    let SpecAllocResult { spec, masked, .. } = out;
    spec.retain(|g| {
        if in_blocked[g.in_port] || out_blocked[g.out_port] {
            masked.push(*g);
            false
        } else {
            true
        }
    });
}
