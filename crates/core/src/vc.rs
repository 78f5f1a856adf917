//! VC allocators (§4): dense and sparse implementations.
//!
//! The VC allocator matches `P*V` input VCs (requesters) to `P*V` output VCs
//! (resources), subject to the constraint that all output VCs requested by a
//! given input VC live at the single output port selected by the routing
//! function. §4.2's *sparse VC allocation* additionally exploits the static
//! structure of VC usage — the decomposition `V = M × R × C` into message
//! classes, resource classes and class banks — to shrink the allocator.
//!
//! Every allocator here is one word kernel: the ports of a router and the
//! VCs of a port are each a `u64`, so [`VcAllocSpec::try_new`] refuses more
//! than [`MAX_WIDTH`] of either (the paper's widest router has 10 and 16)
//! and everything downstream takes the spec as checked. The kernels' scalar
//! predecessors are the differential oracles in [`mod@reference`].

use crate::{reference, Allocator, AllocatorKind, BitMatrix};

/// Most ports per router and most VCs per port the allocators cover: each
/// set is one kernel word.
pub const MAX_WIDTH: usize = u64::BITS as usize;

/// Checks router dimensions against [`MAX_WIDTH`].
pub(crate) fn check_width(ports: usize, vcs: usize) -> Result<(), SpecError> {
    for (dimension, value) in [("ports", ports), ("VCs per port", vcs)] {
        if value > MAX_WIDTH {
            return Err(SpecError::TooWide { dimension, value });
        }
    }
    Ok(())
}

/// Describes how a router's VCs decompose into message classes (`M`),
/// resource classes (`R`) and VCs per class (`C`), with `V = M*R*C`
/// (§4.2), plus the legal resource-class transition relation.
///
/// VC index encoding: `vc = (msg * R + res) * C + bank`.
///
/// ```
/// use noc_core::VcAllocSpec;
///
/// // The paper's Figure 4 configuration: 96 of 256 transitions legal.
/// let spec = VcAllocSpec::fbfly(4);
/// assert_eq!(spec.total_vcs(), 16);
/// assert_eq!(spec.legal_transition_count(), 96);
/// assert_eq!(spec.label(), "2x2x4");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcAllocSpec {
    ports: usize,
    msg_classes: usize,
    resource_classes: usize,
    vcs_per_class: usize,
    /// `rc_succ[from][to]`: packets in resource class `from` may acquire a
    /// VC of resource class `to` at the next hop.
    rc_succ: Vec<Vec<bool>>,
    /// `(msg, res, bank)` of every VC index, so the per-request decode in
    /// the allocators is a load instead of two divisions.
    vc_classes: Vec<(usize, usize, usize)>,
    /// `rc_succ` one word per class: bit `to` of `succ_mask[from]`.
    succ_mask: Vec<u64>,
}

/// Why a [`VcAllocSpec`] could not be constructed. Produced by
/// [`VcAllocSpec::try_new`]; static-analysis tooling (`noc check`) reports
/// these instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// One of the `P`/`M`/`R`/`C` dimensions is zero.
    ZeroDimension {
        /// Name of the offending dimension (`ports`, `msg_classes`, ...).
        dimension: &'static str,
    },
    /// The transition relation is not `R × R`.
    TransitionShape {
        /// Rows supplied.
        rows: usize,
        /// Columns of the first short/long row, if the row count matched.
        bad_row: Option<(usize, usize)>,
        /// Expected side length (`R`).
        expected: usize,
    },
    /// A resource class has no successor, so packets holding it could
    /// never acquire a VC at the next hop.
    DeadEndClass {
        /// The successor-less resource class.
        class: usize,
    },
    /// The router has more ports, or more VCs per port (`M*R*C`), than
    /// [`MAX_WIDTH`].
    TooWide {
        /// `ports` or `VCs per port`.
        dimension: &'static str,
        /// The offending count.
        value: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroDimension { dimension } => {
                write!(f, "spec dimension '{dimension}' must be nonzero")
            }
            SpecError::TransitionShape {
                rows,
                bad_row: Some((row, cols)),
                expected,
            } => write!(
                f,
                "rc_succ row {row} has {cols} entries, expected {expected} \
                 (relation must be {expected}x{expected}, got {rows} rows)"
            ),
            SpecError::TransitionShape { rows, expected, .. } => write!(
                f,
                "rc_succ has {rows} rows, expected {expected} \
                 (one row per resource class)"
            ),
            SpecError::DeadEndClass { class } => {
                write!(f, "resource class {class} has no successor")
            }
            SpecError::TooWide { dimension, value } => write!(
                f,
                "{value} {dimension} exceed the {MAX_WIDTH} the allocators support"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl VcAllocSpec {
    /// Creates a spec with an explicit resource-class transition relation,
    /// reporting rather than panicking on invalid input: the dimensions
    /// must be nonzero, `P` and `V = M*R*C` at most [`MAX_WIDTH`],
    /// `rc_succ` must be `R × R`, and every class needs at least one
    /// successor (otherwise packets in it could never move).
    pub fn try_new(
        ports: usize,
        msg_classes: usize,
        resource_classes: usize,
        vcs_per_class: usize,
        rc_succ: Vec<Vec<bool>>,
    ) -> Result<Self, SpecError> {
        for (dimension, value) in [
            ("ports", ports),
            ("msg_classes", msg_classes),
            ("resource_classes", resource_classes),
            ("vcs_per_class", vcs_per_class),
        ] {
            if value == 0 {
                return Err(SpecError::ZeroDimension { dimension });
            }
        }
        // Before anything is sized by it: `V` entries are allocated below.
        let vcs = (msg_classes.saturating_mul(resource_classes)).saturating_mul(vcs_per_class);
        check_width(ports, vcs)?;
        if rc_succ.len() != resource_classes {
            return Err(SpecError::TransitionShape {
                rows: rc_succ.len(),
                bad_row: None,
                expected: resource_classes,
            });
        }
        for (from, row) in rc_succ.iter().enumerate() {
            if row.len() != resource_classes {
                return Err(SpecError::TransitionShape {
                    rows: rc_succ.len(),
                    bad_row: Some((from, row.len())),
                    expected: resource_classes,
                });
            }
            if !row.iter().any(|&b| b) {
                return Err(SpecError::DeadEndClass { class: from });
            }
        }
        let vc_classes = (0..vcs)
            .map(|vc| {
                let cls = vc / vcs_per_class;
                (
                    cls / resource_classes,
                    cls % resource_classes,
                    vc % vcs_per_class,
                )
            })
            .collect();
        let succ_mask = rc_succ
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold(0u64, |m, (to, &legal)| m | u64::from(legal) << to)
            })
            .collect();
        Ok(VcAllocSpec {
            ports,
            msg_classes,
            resource_classes,
            vcs_per_class,
            rc_succ,
            vc_classes,
            succ_mask,
        })
    }

    /// Creates a spec with an explicit resource-class transition relation.
    ///
    /// Panicking wrapper around [`VcAllocSpec::try_new`] for call sites
    /// with statically valid configurations.
    pub fn new(
        ports: usize,
        msg_classes: usize,
        resource_classes: usize,
        vcs_per_class: usize,
        rc_succ: Vec<Vec<bool>>,
    ) -> Self {
        match Self::try_new(ports, msg_classes, resource_classes, vcs_per_class, rc_succ) {
            Ok(spec) => spec,
            Err(e) => panic!("invalid VcAllocSpec: {e}"),
        }
    }

    /// The paper's mesh design points: `M = 2` (request/reply), `R = 1`
    /// (dimension-order routing needs no resource classes), `C` VCs per
    /// class, on a `P = 5` router unless overridden.
    pub fn mesh(vcs_per_class: usize) -> Self {
        VcAllocSpec::new(5, 2, 1, vcs_per_class, vec![vec![true]])
    }

    /// The paper's flattened-butterfly design points: `M = 2`, `R = 2`
    /// (UGAL's non-minimal phase-1 class and minimal phase-2 class), `C` VCs
    /// per class, `P = 10`.
    ///
    /// Transition relation (Figure 4): non-minimal may stay non-minimal or
    /// drop to minimal (at the intermediate router); minimal must stay
    /// minimal. Class 0 is non-minimal, class 1 minimal.
    pub fn fbfly(vcs_per_class: usize) -> Self {
        VcAllocSpec::new(
            10,
            2,
            2,
            vcs_per_class,
            vec![vec![true, true], vec![false, true]],
        )
    }

    /// Torus design points (§4.2's dateline example): `M = 2`, `R = 2`
    /// (pre-/post-dateline), `C` VCs per class, `P = 5`.
    ///
    /// With dimension-order routing and a per-dimension dateline, packets
    /// move pre→post when they cross the wraparound edge and post→pre when
    /// they change dimensions, so — unlike the one-way fbfly relation —
    /// all four resource-class transitions must be supported in hardware.
    /// Sparse VC allocation then saves only the message-class split; the
    /// §4.2 resource-class restriction applies to networks whose class
    /// order is acyclic along every route (single rings, two-phase
    /// routing), not to multi-dimension datelines.
    pub fn torus(vcs_per_class: usize) -> Self {
        VcAllocSpec::new(
            5,
            2,
            2,
            vcs_per_class,
            vec![vec![true, true], vec![true, true]],
        )
    }

    /// Same class structure on a custom port count. Panics, like
    /// [`VcAllocSpec::new`], if `ports` is zero or above [`MAX_WIDTH`].
    pub fn with_ports(self, ports: usize) -> Self {
        let (m, r, c) = (self.msg_classes, self.resource_classes, self.vcs_per_class);
        VcAllocSpec::new(ports, m, r, c, self.rc_succ)
    }

    /// Same ports and class structure with `vcs_per_class` VCs per class —
    /// the check a `C` arriving from outside the program (a `--vcs` flag, a
    /// sweep axis) goes through before any preset is built from it.
    pub fn with_vcs_per_class(&self, vcs_per_class: usize) -> Result<Self, SpecError> {
        let (m, r) = (self.msg_classes, self.resource_classes);
        VcAllocSpec::try_new(self.ports, m, r, vcs_per_class, self.rc_succ.clone())
    }

    /// Router port count `P`.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of message classes `M`.
    pub fn msg_classes(&self) -> usize {
        self.msg_classes
    }

    /// Number of resource classes `R`.
    pub fn resource_classes(&self) -> usize {
        self.resource_classes
    }

    /// VCs per class `C`.
    pub fn vcs_per_class(&self) -> usize {
        self.vcs_per_class
    }

    /// Total VCs per port, `V = M*R*C`.
    pub fn total_vcs(&self) -> usize {
        self.vc_classes.len()
    }

    /// Design-point label in the paper's `MxRxC` notation, e.g. `2x2x4`.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x{}",
            self.msg_classes, self.resource_classes, self.vcs_per_class
        )
    }

    /// First VC index of class `(msg, res)`.
    pub fn class_base(&self, msg: usize, res: usize) -> usize {
        assert!(msg < self.msg_classes && res < self.resource_classes);
        (msg * self.resource_classes + res) * self.vcs_per_class
    }

    /// Decomposes a VC index into `(msg, res, bank)`.
    pub fn vc_class(&self, vc: usize) -> (usize, usize, usize) {
        self.vc_classes[vc]
    }

    /// True if a packet holding resource class `from` may acquire class `to`
    /// next hop.
    pub fn rc_legal(&self, from: usize, to: usize) -> bool {
        self.rc_succ[from][to]
    }

    /// Successor resource classes of `from`.
    pub fn rc_successors(&self, from: usize) -> Vec<usize> {
        (0..self.resource_classes)
            .filter(|&to| self.rc_succ[from][to])
            .collect()
    }

    /// The `V × V` VC-to-VC transition matrix of Figure 4: entry
    /// `(in_vc, out_vc)` is set iff the transition is legal (same message
    /// class, successor resource class; banks unconstrained).
    pub fn transition_matrix(&self) -> BitMatrix {
        let v = self.total_vcs();
        let mut m = BitMatrix::new(v, v);
        for iv in 0..v {
            let (im, ir, _) = self.vc_class(iv);
            for ov in 0..v {
                let (om, or, _) = self.vc_class(ov);
                if im == om && self.rc_legal(ir, or) {
                    m.set(iv, ov, true);
                }
            }
        }
        m
    }

    /// Number of legal VC-to-VC transitions (the "96 of 256" count quoted
    /// for the fbfly 2×2×4 configuration in §4.2).
    pub fn legal_transition_count(&self) -> usize {
        self.transition_matrix().count_ones()
    }
}

/// One input VC's VC-allocation request: the output port chosen by routing
/// and the candidate resource classes there (message class is implied by the
/// requesting VC — packets never change message class, §4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcRequest {
    /// Destination output port from the routing function.
    pub out_port: usize,
    /// Candidate resource classes at `out_port`; each must be a legal
    /// successor of the requesting VC's resource class. Per §4.2, requests
    /// are class-granular: a request covers *all* free VCs of the class.
    pub classes: Vec<usize>,
}

impl VcRequest {
    /// Request any free VC of one class at `out_port`.
    pub fn one_class(out_port: usize, class: usize) -> Self {
        VcRequest {
            out_port,
            classes: vec![class],
        }
    }

    /// The candidate classes as a [`VcRequestSet`] mask (bit `rc` = class
    /// `rc`).
    pub fn class_mask(&self) -> u64 {
        self.classes.iter().fold(0, |m, &rc| {
            assert!(rc < 64, "resource class {rc} beyond the class-mask width");
            m | 1 << rc
        })
    }
}

/// A granted output VC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutVc {
    /// Output port.
    pub port: usize,
    /// VC index at that port.
    pub vc: usize,
}

/// The VC-allocation requests of one round as a *live set*: a bit per
/// requesting input VC (flat index `port * V + vc`) plus, for the set bits
/// only, the destination output port and the candidate resource classes as
/// a mask (bit `rc` = class `rc`, so at most 64 resource classes). This is
/// the form the kernels consume; a router that knows which of its VCs are
/// waiting fills it with work proportional to that number, and clearing it
/// does not touch the per-VC slots.
#[derive(Clone, Debug)]
pub struct VcRequestSet {
    live: noc_arbiter::Bits,
    out_port: Vec<usize>,
    classes: Vec<u64>,
}

impl VcRequestSet {
    /// All-idle request set over `n = P * V` input VCs.
    pub fn new(n: usize) -> Self {
        VcRequestSet {
            live: noc_arbiter::Bits::new(n),
            out_port: vec![0; n],
            classes: vec![0; n],
        }
    }

    /// Input VCs covered (`P * V`).
    pub fn len(&self) -> usize {
        self.out_port.len()
    }

    /// True if no input VC has a request.
    pub fn is_empty(&self) -> bool {
        self.live.is_zero()
    }

    /// Drops every request.
    pub fn clear(&mut self) {
        self.live.clear();
    }

    /// Registers (or replaces) the request of input VC `g`: any free VC of
    /// the classes in `classes` at `out_port`.
    #[inline]
    pub fn request(&mut self, g: usize, out_port: usize, classes: u64) {
        self.live.set(g, true);
        self.out_port[g] = out_port;
        self.classes[g] = classes;
    }

    /// The requesting input VCs.
    pub fn live(&self) -> &noc_arbiter::Bits {
        &self.live
    }

    /// `(out_port, class mask)` of input VC `g`, if it has a request.
    pub fn get(&self, g: usize) -> Option<(usize, u64)> {
        self.live
            .get(g)
            .then(|| (self.out_port[g], self.classes[g]))
    }

    /// The set as one request slot per input VC.
    pub fn to_slots(&self) -> Vec<Option<VcRequest>> {
        (0..self.len())
            .map(|g| {
                self.get(g).map(|(out_port, classes)| VcRequest {
                    out_port,
                    classes: bits_of(classes).collect(),
                })
            })
            .collect()
    }
}

/// A VC allocator: matches requesting input VCs to free output VCs.
///
/// Two entries reach the same allocation round. A router hands over the
/// live set it keeps anyway ([`VcAllocator::allocate_live`]); open-loop
/// drivers that hold one request slot per input VC use
/// [`VcAllocator::allocate_into`]. A kernel has one body behind both: it
/// reads the slots in place and the slot entry spreads the body's grant
/// list over one result slot per input VC.
pub trait VcAllocator: Send {
    /// The class structure this allocator was built for.
    fn spec(&self) -> &VcAllocSpec;

    /// Performs one round of VC allocation.
    ///
    /// `requests[p * V + v]` is the request of input VC `v` at input port
    /// `p` (or `None` when idle); `free_out.get(p, v)` says whether output
    /// VC `v` at port `p` is currently unallocated. Returns, per input VC,
    /// the granted output VC if any.
    ///
    /// Guarantees: every grant satisfies the request (port, message class,
    /// legal class, free output VC) and no output VC is granted twice.
    fn allocate(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
    ) -> Vec<Option<OutVc>> {
        let mut results = Vec::new();
        self.allocate_into(requests, free_out, &mut results);
        results
    }

    /// [`VcAllocator::allocate`] writing grants into a caller-owned buffer
    /// so hot paths can reuse capacity across cycles.
    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    );

    /// The same round on a live request set, writing `(input VC, grant)`
    /// pairs in ascending input-VC order. Grants and priority updates are
    /// exactly those of [`VcAllocator::allocate_into`] on the equivalent
    /// slots. The provided body goes through the slots (and allocates):
    /// it serves the scalar references, whose native form they are.
    fn allocate_live(
        &mut self,
        requests: &VcRequestSet,
        free_out: &BitMatrix,
        grants: &mut Vec<(usize, OutVc)>,
    ) {
        let results = self.allocate(&requests.to_slots(), free_out);
        grants.clear();
        grants.extend(
            results
                .iter()
                .enumerate()
                .filter_map(|(g, r)| r.map(|r| (g, r))),
        );
    }

    /// Restores power-on priority state.
    fn reset(&mut self);
}

/// One round's requests as the kernel bodies read them. Both entries of a
/// [`VcAllocator`] implement it, so a kernel has one body and neither entry
/// copies its requests into the other's form.
trait Requests {
    /// Input VCs covered (`P * V`).
    fn len(&self) -> usize;

    /// Calls `f(input VC, out port, class mask)` for every requesting input
    /// VC, in ascending order.
    fn for_each(&self, f: impl FnMut(usize, usize, u64));

    /// The output port input VC `g` requests; `g` must be requesting.
    fn out_port(&self, g: usize) -> usize;
}

impl Requests for VcRequestSet {
    fn len(&self) -> usize {
        VcRequestSet::len(self)
    }

    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, usize, u64)) {
        for g in self.live.iter_set() {
            f(g, self.out_port[g], self.classes[g]);
        }
    }

    #[inline]
    fn out_port(&self, g: usize) -> usize {
        self.out_port[g]
    }
}

impl Requests for [Option<VcRequest>] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, usize, u64)) {
        for (g, req) in self.iter().enumerate() {
            if let Some(req) = req {
                f(g, req.out_port, req.class_mask());
            }
        }
    }

    #[inline]
    fn out_port(&self, g: usize) -> usize {
        self[g].as_ref().map_or(0, |r| r.out_port)
    }
}

/// Spreads a kernel body's grant list over one result slot per input VC,
/// the form the slot entry returns.
fn spread_grants(grants: &[(usize, OutVc)], n: usize, results: &mut Vec<Option<OutVc>>) {
    results.clear();
    results.resize(n, None);
    for &(g, grant) in grants {
        results[g] = Some(grant);
    }
}

/// Asserts that a request of VC `in_vc` of some input port for the classes
/// in `classes` at `out_port` is legal.
pub(crate) fn validate_request(spec: &VcAllocSpec, in_vc: usize, out_port: usize, classes: u64) {
    assert!(out_port < spec.ports(), "out port out of range");
    let (_, ir, _) = spec.vc_class(in_vc);
    assert!(classes != 0, "request with no candidate classes");
    let illegal = classes & !spec.succ_mask[ir];
    assert!(
        illegal == 0,
        "illegal resource-class transition {ir} -> {}",
        illegal.trailing_zeros()
    );
}

/// The set bits of `word` as ascending indices.
#[inline]
pub(crate) fn bits_of(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Computes, for VC `in_vc` of some input port, the candidate output VCs as
/// a word over VC indices at the destination port: free output VCs in the
/// requested classes of the input VC's own message class.
#[inline]
fn candidate_word(
    spec: &VcAllocSpec,
    in_vc: usize,
    out_port: usize,
    classes: u64,
    free_out: &BitMatrix,
) -> u64 {
    let (im, _, _) = spec.vc_class(in_vc);
    let class_ones = noc_arbiter::bits::width_mask(spec.vcs_per_class());
    let mut class_bits = 0u64;
    for rc in bits_of(classes) {
        class_bits |= class_ones << spec.class_base(im, rc);
    }
    free_out.row(out_port).low_word() & class_bits
}

/// The arbiter *span* of a VC allocator: how many VC indices one arbiter
/// ranges over. The dense organization (§4.1) spans all `V` VCs of a port;
/// the sparse one (§4.2) only the `V/M` VCs of one message class, because
/// packets never change message class.
fn arbiter_span(spec: &VcAllocSpec, sparse: bool) -> usize {
    if sparse {
        spec.total_vcs() / spec.msg_classes()
    } else {
        spec.total_vcs()
    }
}

/// Index of the `span`-wide arbiter window VC `vc` falls in: always 0 when
/// dense, the message class when sparse.
#[inline]
fn arbiter_window(spec: &VcAllocSpec, span: usize, vc: usize) -> usize {
    if span == spec.total_vcs() {
        0
    } else {
        spec.vc_class(vc).0
    }
}

/// The separable stage order and arbiter kind of `kind`, or `None` for the
/// monolithic cores (wavefront, maximum-size).
fn separable_stages(kind: AllocatorKind) -> Option<(bool, noc_arbiter::ArbiterKind)> {
    use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
    match kind {
        AllocatorKind::SepIfMatrix => Some((true, Matrix)),
        AllocatorKind::SepIfRr => Some((true, RoundRobin)),
        AllocatorKind::SepOfMatrix => Some((false, Matrix)),
        AllocatorKind::SepOfRr => Some((false, RoundRobin)),
        AllocatorKind::Wavefront | AllocatorKind::MaxSize => None,
    }
}

/// Separable VC allocator with the exact structure of Figures 3(a)/3(b).
///
/// * **Input-first** (Figure 3(a)): each input VC's `V:1` *input arbiter*
///   picks one candidate output VC at its destination port; each output
///   VC's `P*V:1` *output arbiter* (a tree arbiter in hardware) then selects
///   a winner among the input VCs that bid on it.
/// * **Output-first** (Figure 3(b)): each output VC's `P*V:1` arbiter picks
///   a winner among *all* requesting input VCs; since an input VC may win at
///   several output VCs, a final `V:1` arbitration per input VC selects the
///   granted VC.
///
/// Priority state advances only for grants that survive both stages (§2.1).
/// The input-side arbiters are `V` wide — they choose *which VC at the
/// destination port* to use — which is what makes input-first allocation
/// propagate more distinct requests into the wide second stage than
/// output-first (§4.3.2).
///
/// Implemented as a word kernel over contiguous [`noc_arbiter::ArbiterBank`]
/// / [`noc_arbiter::TreeBank`] state: the bids for one output VC are kept as
/// `P` words of `V` bits — one word per leaf of the §4.1 tree arbiter — so
/// the total width `P*V` is not bounded by a machine word. The boxed-arbiter
/// scalar predecessor is [`reference::SeparableVcAllocator`].
///
/// With `span < V` (sparse) every arbiter ranges over one message class
/// only: VC index `vc` appears at an arbiter as bit `vc % span`, and class
/// `vc / span` selects which of the `M` independent sub-allocators of §4.2
/// the arbiter belongs to. Nothing is projected — the message class is a
/// shift of the free-VC row and of the VC index.
pub struct SeparableVcAllocator {
    spec: VcAllocSpec,
    input_first: bool,
    /// VC indices one arbiter ranges over: `V` (dense) or `V/M` (sparse).
    span: usize,
    /// Per input VC (`P*V` of them): `span:1` arbiter over output-VC
    /// indices at the destination port.
    input: noc_arbiter::ArbiterBank,
    /// Per output VC (`P*V` of them): `P*span:1` *tree* arbiter over input
    /// VCs — `P` `span`-input leaves plus a `P`-input root, the structure
    /// §4.1 prescribes for these wide arbiters.
    output: noc_arbiter::TreeBank,
    /// Bid accumulator: `incoming[out_flat * P + p]` bit `iv % span` set
    /// iff input VC `iv` of port `p` bids on output VC `out_flat`. All-zero
    /// between calls.
    incoming: Vec<u64>,
    /// Per output port: the output VCs with at least one bid. All-zero
    /// between calls.
    pending: Vec<u64>,
    /// Output-first stage-1 wins per input VC: `won[g]` bit `ov % span` set
    /// iff output VC `ov` at `g`'s port chose `g`. All-zero between calls.
    won: Vec<u64>,
    /// Per input port: the input VCs chosen by at least one output VC in
    /// output-first stage 1. All-zero between calls.
    chosen: Vec<u64>,
    /// The slot entry's grant list.
    grants: Vec<(usize, OutVc)>,
}

impl SeparableVcAllocator {
    /// Builds the dense Figure 3 structure with the given arbiter kind.
    pub fn new(spec: VcAllocSpec, input_first: bool, kind: noc_arbiter::ArbiterKind) -> Self {
        Self::build(spec, input_first, kind, false)
    }

    /// Dense (`sparse == false`) or per-message-class sparse structure.
    fn build(
        spec: VcAllocSpec,
        input_first: bool,
        kind: noc_arbiter::ArbiterKind,
        sparse: bool,
    ) -> Self {
        let ports = spec.ports();
        let n = ports * spec.total_vcs();
        let span = arbiter_span(&spec, sparse);
        SeparableVcAllocator {
            input_first,
            span,
            input: noc_arbiter::ArbiterBank::new(kind, n, span),
            output: noc_arbiter::TreeBank::new(kind, n, ports, span),
            incoming: vec![0; n * ports],
            pending: vec![0; ports],
            won: vec![0; n],
            chosen: vec![0; ports],
            grants: Vec::with_capacity(n),
            spec,
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
        let mut grants = std::mem::take(&mut self.grants);
        self.run(requests, free_out, &mut grants);
        spread_grants(&grants, requests.len(), results);
        self.grants = grants;
    }

    fn allocate_live(
        &mut self,
        requests: &VcRequestSet,
        free_out: &BitMatrix,
        grants: &mut Vec<(usize, OutVc)>,
    ) {
        self.run(requests, free_out, grants);
        if self.input_first {
            // Input-first settles output VC by output VC; a router's list
            // is a few grants long.
            grants.sort_unstable_by_key(|&(g, _)| g);
        }
    }

    fn reset(&mut self) {
        self.input.reset();
        self.output.reset();
    }
}

impl SeparableVcAllocator {
    /// The kernel body behind both entries. Grants come out in the order
    /// they settle: by output VC when input-first, by input VC otherwise.
    fn run<R: Requests + ?Sized>(
        &mut self,
        requests: &R,
        free_out: &BitMatrix,
        grants: &mut Vec<(usize, OutVc)>,
    ) {
        let SeparableVcAllocator {
            spec,
            input_first,
            span,
            input,
            output,
            incoming,
            pending,
            won,
            chosen,
            ..
        } = self;
        let (input_first, span) = (*input_first, *span);
        let (ports, v) = (spec.ports(), spec.total_vcs());
        assert_eq!(requests.len(), ports * v, "one request slot per input VC");
        grants.clear();

        // Stage 1 bids. Input-first: each input VC's arbiter picks one
        // output VC at its port. Output-first: it bids on every candidate.
        // The set walk is ascending, so the input port only moves forward.
        let mut bid_ports = 0u64; // output ports with >= 1 bid
        let (mut ip, mut port_end) = (0, v);
        requests.for_each(|g, out_port, classes| {
            while g >= port_end {
                ip += 1;
                port_end += v;
            }
            let iv = g + v - port_end;
            validate_request(spec, iv, out_port, classes);
            let base = arbiter_window(spec, span, iv) * span;
            let mut cand = candidate_word(spec, iv, out_port, classes, free_out);
            if input_first {
                cand = match input.arbitrate(g, cand >> base) {
                    Some(pick) => 1 << (base + pick),
                    None => 0,
                };
            }
            if cand != 0 {
                bid_ports |= 1 << out_port;
                pending[out_port] |= cand;
            }
            for ov in bits_of(cand) {
                incoming[(out_port * v + ov) * ports + ip] |= 1 << (iv - base);
            }
        });
        // Each bid-receiving output VC arbitrates, in the same ascending
        // out_flat order as the scalar reference's sorted bid list. The
        // tree's leaves are the input ports.
        let mut chosen_ports = 0u64; // input ports with >= 1 chosen VC
        for op in bits_of(bid_ports) {
            for ov in bits_of(std::mem::take(&mut pending[op])) {
                let out_flat = op * v + ov;
                let leaves = &mut incoming[out_flat * ports..(out_flat + 1) * ports];
                let winner = output.arbitrate(out_flat, leaves);
                leaves.fill(0);
                let Some((ip, local)) = winner else { continue };
                let base = arbiter_window(spec, span, ov) * span;
                let g = ip * v + base + local;
                if input_first {
                    // Stage 2 of input-first: the grant is final.
                    grants.push((g, OutVc { port: op, vc: ov }));
                    input.update(g, ov - base);
                    output.update(out_flat, ip, local);
                } else {
                    // All of g's bids share its destination port, so the
                    // class-local VC index suffices.
                    won[g] |= 1 << (ov - base);
                    chosen[ip] |= 1 << (base + local);
                    chosen_ports |= 1 << ip;
                }
            }
        }
        debug_assert!(incoming.iter().all(|&w| w == 0));
        // Output-first stage 2: each chosen input VC picks among output VCs
        // that chose it (ascending g, like the scalar regrouped sweep).
        for ip in bits_of(chosen_ports) {
            for iv in bits_of(std::mem::take(&mut chosen[ip])) {
                let g = ip * v + iv;
                let wins = std::mem::take(&mut won[g]);
                if let Some(pick) = input.arbitrate(g, wins) {
                    let base = arbiter_window(spec, span, iv) * span;
                    let (port, vc) = (requests.out_port(g), base + pick);
                    grants.push((g, OutVc { port, vc }));
                    input.update(g, pick);
                    output.update(port * v + vc, ip, iv - base);
                }
            }
        }
        debug_assert!(won.iter().all(|&w| w == 0));
    }
}

/// VC allocator built on monolithic core allocators — used for the
/// wavefront implementation (Figure 3(c)) and the maximum-size reference.
/// Dense: one core over the full `P*V × P*V` request space. Sparse: `M`
/// independent cores of `P*V/M` inputs each, one per message class — exactly
/// the replacement of the `P*V`-input block by `M` smaller blocks that §4.2
/// describes — fed request entries straight from the full request array
/// through [`Allocator::allocate_entries`].
pub struct MatrixVcAllocator {
    spec: VcAllocSpec,
    /// VC indices per block and port: `V` (dense) or `V/M` (sparse).
    span: usize,
    /// One block per message class (a single block when dense).
    blocks: Vec<MatrixBlock>,
    /// The slot entry's grant list.
    grants: Vec<(usize, OutVc)>,
}

struct MatrixBlock {
    inner: Box<dyn Allocator + Send>,
    /// This call's block-local request entries `(row, col)`.
    entries: Vec<(usize, usize)>,
    /// This call's grants, ascending by row.
    granted: Vec<(usize, usize)>,
    /// How many of `granted` have been read back.
    read: usize,
}

impl MatrixVcAllocator {
    /// Wraps a core allocator architecture (meaningful for
    /// [`AllocatorKind::Wavefront`] and [`AllocatorKind::MaxSize`]).
    pub fn new(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        Self::build(spec, false, |n| kind.build(n, n))
    }

    /// [`MatrixVcAllocator::new`] over the scalar-reference core allocator
    /// ([`AllocatorKind::build_reference`]) — for the differential tests.
    pub fn new_reference(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        Self::build(spec, false, |n| kind.build_reference(n, n))
    }

    fn build(
        spec: VcAllocSpec,
        sparse: bool,
        core: impl Fn(usize) -> Box<dyn Allocator + Send>,
    ) -> Self {
        let span = arbiter_span(&spec, sparse);
        let n = spec.ports() * span;
        MatrixVcAllocator {
            blocks: (0..spec.total_vcs() / span)
                .map(|_| MatrixBlock {
                    inner: core(n),
                    // A row's candidates lie in one port's span.
                    entries: Vec::with_capacity(n * span),
                    granted: Vec::with_capacity(n),
                    read: 0,
                })
                .collect(),
            span,
            grants: Vec::with_capacity(spec.ports() * spec.total_vcs()),
            spec,
        }
    }
}

impl VcAllocator for MatrixVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        &self.spec
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        let mut grants = std::mem::take(&mut self.grants);
        self.run(requests, free_out, &mut grants);
        spread_grants(&grants, requests.len(), results);
        self.grants = grants;
    }

    fn allocate_live(
        &mut self,
        requests: &VcRequestSet,
        free_out: &BitMatrix,
        grants: &mut Vec<(usize, OutVc)>,
    ) {
        self.run(requests, free_out, grants);
    }

    fn reset(&mut self) {
        for block in &mut self.blocks {
            block.inner.reset();
        }
    }
}

impl MatrixVcAllocator {
    /// The kernel body behind both entries.
    fn run<R: Requests + ?Sized>(
        &mut self,
        requests: &R,
        free_out: &BitMatrix,
        grants: &mut Vec<(usize, OutVc)>,
    ) {
        let MatrixVcAllocator {
            spec, span, blocks, ..
        } = self;
        let span = *span;
        let v = spec.total_vcs();
        assert_eq!(
            requests.len(),
            spec.ports() * v,
            "one request slot per input VC"
        );
        assert_eq!(free_out.num_rows(), spec.ports());
        assert_eq!(free_out.num_cols(), v);

        // Where input VC `g` lives: its in-port VC index, its block, the
        // block's first VC index, and its block-local row — the message
        // class is dropped from the VC index, `p * span + (vc - base)`.
        // Within one block, ascending `g` is ascending row.
        let place = |g: usize| {
            let (ip, iv) = (g / v, g % v);
            let window = arbiter_window(spec, span, iv);
            (iv, window, window * span, ip * span + iv - window * span)
        };
        for block in blocks.iter_mut() {
            block.entries.clear();
        }
        requests.for_each(|g, out_port, classes| {
            let (iv, window, base, row) = place(g);
            validate_request(spec, iv, out_port, classes);
            let entries = &mut blocks[window].entries;
            // Candidates lie in the block's window: `ov >= base`.
            let col0 = out_port * span;
            for ov in bits_of(candidate_word(spec, iv, out_port, classes, free_out)) {
                entries.push((row, col0 + ov - base));
            }
        });
        for block in blocks.iter_mut() {
            block
                .inner
                .allocate_entries(&block.entries, &mut block.granted);
            block.read = 0;
        }
        // Merge the blocks' ascending grant lists back into input-VC order.
        grants.clear();
        requests.for_each(|g, port, _| {
            let (_, window, base, row) = place(g);
            let block = &mut blocks[window];
            if let Some(&(r, col)) = block.granted.get(block.read) {
                if r == row {
                    block.read += 1;
                    // Every candidate column lies at the requested port.
                    let vc = col + base - port * span;
                    grants.push((g, OutVc { port, vc }));
                }
            }
        });
        debug_assert!(blocks.iter().all(|b| b.read == b.granted.len()));
    }
}

/// Builds the allocator for `kind`, dense or sparse: the Figure 3 structure
/// appropriate for the core architecture.
fn build_vc_allocator(
    spec: VcAllocSpec,
    kind: AllocatorKind,
    sparse: bool,
) -> Box<dyn VcAllocator + Send> {
    match separable_stages(kind) {
        Some((input_first, arbiter)) => Box::new(SeparableVcAllocator::build(
            spec,
            input_first,
            arbiter,
            sparse,
        )),
        None => Box::new(MatrixVcAllocator::build(spec, sparse, |n| kind.build(n, n))),
    }
}

/// Conventional ("dense") VC allocator (§4.1): handles requests from any
/// input VC to the whole range of output VCs, with legality enforced by
/// runtime request masks. Dispatches to the Figure 3 structure appropriate
/// for the chosen core architecture.
pub struct DenseVcAllocator {
    kind: AllocatorKind,
    inner: Box<dyn VcAllocator + Send>,
}

impl DenseVcAllocator {
    /// Builds a dense VC allocator around the given core architecture.
    pub fn new(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        DenseVcAllocator {
            kind,
            inner: build_vc_allocator(spec, kind, false),
        }
    }

    /// [`DenseVcAllocator::new`] built entirely from the scalar oracles of
    /// [`mod@reference`] (sort-based separable stages, element-wise
    /// cores) — the oracle side of the differential test layer.
    pub fn new_reference(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        let inner: Box<dyn VcAllocator + Send> = match separable_stages(kind) {
            Some((input_first, arbiter)) => Box::new(reference::SeparableVcAllocator::new(
                spec,
                input_first,
                arbiter,
            )),
            None => Box::new(MatrixVcAllocator::new_reference(spec, kind)),
        };
        DenseVcAllocator { kind, inner }
    }

    /// The core allocator architecture in use.
    pub fn kind(&self) -> AllocatorKind {
        self.kind
    }
}

impl VcAllocator for DenseVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        self.inner.spec()
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        self.inner.allocate_into(requests, free_out, results);
    }

    fn allocate_live(
        &mut self,
        requests: &VcRequestSet,
        free_out: &BitMatrix,
        grants: &mut Vec<(usize, OutVc)>,
    ) {
        self.inner.allocate_live(requests, free_out, grants);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Sparse VC allocator (§4.2): exploits the static class structure.
///
/// Because packets never change message class, the allocator splits into `M`
/// completely independent sub-allocators, each over the `P*R*C` VCs of one
/// message class — for the wavefront implementation this is exactly the
/// replacement of the `P*V`-input block by `M` blocks of `P*V/M` inputs the
/// paper describes. (The further arbiter-width reductions from
/// resource-class transition sparsity are logic-level optimizations modeled
/// by the cost model in `noc-hw`; they do not change matching behaviour.)
///
/// The sub-allocators are not separate objects: the same kernels as
/// [`DenseVcAllocator`] run once over the full request array with arbiters
/// (or core blocks) that span `V/M` VCs instead of `V`. Grants and priority
/// state are those of `M` dense allocators fed per-class projections of the
/// requests — [`reference::SparseVcAllocator`] is that construction, kept as
/// the differential oracle.
pub struct SparseVcAllocator {
    kind: AllocatorKind,
    inner: Box<dyn VcAllocator + Send>,
}

impl SparseVcAllocator {
    /// Builds a sparse VC allocator around the given core architecture.
    pub fn new(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        SparseVcAllocator {
            kind,
            inner: build_vc_allocator(spec, kind, true),
        }
    }

    /// The core allocator architecture in use.
    pub fn kind(&self) -> AllocatorKind {
        self.kind
    }
}

impl VcAllocator for SparseVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        self.inner.spec()
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        self.inner.allocate_into(requests, free_out, results);
    }

    fn allocate_live(
        &mut self,
        requests: &VcRequestSet,
        free_out: &BitMatrix,
        grants: &mut Vec<(usize, OutVc)>,
    ) {
        self.inner.allocate_live(requests, free_out, grants);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The checks behind both grant validators: every `(input VC, grant)` pair
/// answers a request `(out_port, class mask)` with a free output VC of the
/// requester's message class, and no output VC is granted twice.
fn check_grants(
    spec: &VcAllocSpec,
    request: impl Fn(usize) -> Option<(usize, u64)>,
    free_out: &BitMatrix,
    grants: impl Iterator<Item = (usize, OutVc)>,
) -> Result<(), String> {
    let v = spec.total_vcs();
    // Runs per cycle under debug assertions; `Bits` keeps the dedup set
    // inline (no allocation) for realistic port/VC counts.
    let mut used = noc_arbiter::Bits::new(free_out.num_rows() * v);
    for (g, grant) in grants {
        let (out_port, classes) =
            request(g).ok_or_else(|| format!("grant to idle input VC {g}"))?;
        if grant.port != out_port {
            return Err(format!("input VC {g}: granted wrong port"));
        }
        let (im, _, _) = spec.vc_class(g % v);
        let (om, or, _) = spec.vc_class(grant.vc);
        if om != im {
            return Err(format!("input VC {g}: message class changed"));
        }
        if classes >> or & 1 == 0 {
            return Err(format!("input VC {g}: granted unrequested class {or}"));
        }
        if !free_out.get(grant.port, grant.vc) {
            return Err(format!("input VC {g}: granted busy output VC"));
        }
        let slot = grant.port * v + grant.vc;
        if used.get(slot) {
            return Err(format!(
                "output VC {}:{} granted twice",
                grant.port, grant.vc
            ));
        }
        used.set(slot, true);
    }
    Ok(())
}

/// Checks that a VC-allocation result is valid for the given requests and
/// availability — used by tests and debug assertions throughout the
/// workspace.
pub fn validate_vc_grants(
    spec: &VcAllocSpec,
    requests: &[Option<VcRequest>],
    free_out: &BitMatrix,
    grants: &[Option<OutVc>],
) -> Result<(), String> {
    check_grants(
        spec,
        |g| requests[g].as_ref().map(|r| (r.out_port, r.class_mask())),
        free_out,
        grants
            .iter()
            .enumerate()
            .filter_map(|(g, grant)| grant.map(|grant| (g, grant))),
    )
}

/// [`validate_vc_grants`] for the live-set entry; the grant list must also
/// be in ascending input-VC order.
pub fn validate_live_vc_grants(
    spec: &VcAllocSpec,
    requests: &VcRequestSet,
    free_out: &BitMatrix,
    grants: &[(usize, OutVc)],
) -> Result<(), String> {
    if let Some(w) = grants.windows(2).find(|w| w[0].0 >= w[1].0) {
        return Err(format!("grant list not ascending at input VC {}", w[1].0));
    }
    check_grants(spec, |g| requests.get(g), free_out, grants.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn try_new_reports_descriptive_errors() {
        let ok = VcAllocSpec::try_new(5, 2, 1, 2, vec![vec![true]]);
        assert!(ok.is_ok());
        let e = VcAllocSpec::try_new(0, 2, 1, 2, vec![vec![true]]).unwrap_err();
        assert_eq!(e, SpecError::ZeroDimension { dimension: "ports" });
        assert!(e.to_string().contains("ports"));
        let e = VcAllocSpec::try_new(5, 2, 2, 2, vec![vec![true, true]]).unwrap_err();
        assert!(matches!(e, SpecError::TransitionShape { rows: 1, .. }));
        let e = VcAllocSpec::try_new(5, 2, 2, 2, vec![vec![true], vec![true, true]]).unwrap_err();
        assert!(
            matches!(
                e,
                SpecError::TransitionShape {
                    bad_row: Some((0, 1)),
                    ..
                }
            ),
            "{e}"
        );
        let e = VcAllocSpec::try_new(5, 2, 2, 2, vec![vec![true, true], vec![false, false]])
            .unwrap_err();
        assert_eq!(e, SpecError::DeadEndClass { class: 1 });
        assert_eq!(e.to_string(), "resource class 1 has no successor");
    }

    #[test]
    fn a_router_is_at_most_one_word_of_ports_and_of_vcs() {
        let one = || vec![vec![true]];
        // At the limit in either dimension, alone and together.
        assert!(VcAllocSpec::try_new(64, 1, 1, 1, one()).is_ok());
        assert!(VcAllocSpec::try_new(2, 2, 1, 32, one()).is_ok());
        assert_eq!(VcAllocSpec::mesh(32).with_ports(64).total_vcs(), 64);
        assert!(VcAllocSpec::fbfly(1).with_vcs_per_class(16).is_ok());
        // One past it: a typed error naming the limit and the value.
        let e = VcAllocSpec::try_new(65, 1, 1, 1, one()).unwrap_err();
        let (dimension, value) = ("ports", 65);
        assert_eq!(e, SpecError::TooWide { dimension, value });
        assert_eq!(
            e.to_string(),
            "65 ports exceed the 64 the allocators support"
        );
        let e = VcAllocSpec::try_new(5, 5, 1, 13, one()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "65 VCs per port exceed the 64 the allocators support"
        );
        let e = VcAllocSpec::fbfly(1).with_vcs_per_class(17).unwrap_err();
        let (dimension, value) = ("VCs per port", 68);
        assert_eq!(e, SpecError::TooWide { dimension, value });
        // A product past `usize` is too wide, not an overflow.
        let e = VcAllocSpec::try_new(5, usize::MAX, 2, 2, vec![vec![true; 2]; 2]).unwrap_err();
        assert!(matches!(e, SpecError::TooWide { .. }), "{e}");
        // Zero still reports as zero.
        let e = VcAllocSpec::mesh(1).with_vcs_per_class(0).unwrap_err();
        assert!(matches!(e, SpecError::ZeroDimension { .. }), "{e}");
    }

    #[test]
    #[should_panic(expected = "65 ports exceed the 64")]
    fn with_ports_panics_past_the_limit() {
        let _ = VcAllocSpec::mesh(1).with_ports(65);
    }

    #[test]
    #[should_panic(expected = "resource class 0 has no successor")]
    fn new_panics_with_descriptive_message() {
        VcAllocSpec::new(5, 1, 1, 1, vec![vec![false]]);
    }

    #[test]
    fn spec_arithmetic() {
        let s = VcAllocSpec::fbfly(4);
        assert_eq!(s.total_vcs(), 16);
        assert_eq!(s.label(), "2x2x4");
        assert_eq!(s.class_base(0, 0), 0);
        assert_eq!(s.class_base(0, 1), 4);
        assert_eq!(s.class_base(1, 0), 8);
        assert_eq!(s.class_base(1, 1), 12);
        assert_eq!(s.vc_class(0), (0, 0, 0));
        assert_eq!(s.vc_class(7), (0, 1, 3));
        assert_eq!(s.vc_class(15), (1, 1, 3));
    }

    #[test]
    fn fig4_transition_count_is_96_of_256() {
        // §4.2: "only 96 of the 256 total possible VC-to-VC transitions are
        // actually legal" for fbfly with 2×2×4 VCs.
        let s = VcAllocSpec::fbfly(4);
        assert_eq!(s.total_vcs() * s.total_vcs(), 256);
        assert_eq!(s.legal_transition_count(), 96);
    }

    #[test]
    fn fig4_successor_bound() {
        // "any given VC is restricted to at most eight possible successor
        // and predecessor VCs, all confined to the same matrix quadrant".
        let s = VcAllocSpec::fbfly(4);
        let t = s.transition_matrix();
        for iv in 0..16 {
            assert!(t.row(iv).count_ones() <= 8, "vc {iv}");
            assert!(t.col(iv).count_ones() <= 8, "vc {iv}");
            let (im, _, _) = s.vc_class(iv);
            for ov in t.row(iv).iter_set() {
                let (om, _, _) = s.vc_class(ov);
                assert_eq!(im, om, "crossed quadrant");
            }
        }
    }

    #[test]
    fn mesh_transitions_stay_within_message_class() {
        let s = VcAllocSpec::mesh(2);
        // V=4; each message class block is 2x2, all legal within it.
        assert_eq!(s.legal_transition_count(), 8);
    }

    fn random_workload(
        spec: &VcAllocSpec,
        rng: &mut impl Rng,
        rate: f64,
    ) -> (Vec<Option<VcRequest>>, BitMatrix) {
        let v = spec.total_vcs();
        let n = spec.ports() * v;
        let reqs = (0..n)
            .map(|g| {
                if rng.gen_bool(rate) {
                    // Routing picks a single successor class per request
                    // (min vs non-minimal is a routing decision, not an
                    // allocation choice).
                    let (_, ir, _) = spec.vc_class(g % v);
                    let succ = spec.rc_successors(ir);
                    let class = succ[rng.gen_range(0..succ.len())];
                    Some(VcRequest::one_class(rng.gen_range(0..spec.ports()), class))
                } else {
                    None
                }
            })
            .collect();
        let mut free = BitMatrix::new(spec.ports(), v);
        for p in 0..spec.ports() {
            for ov in 0..v {
                if rng.gen_bool(0.8) {
                    free.set(p, ov, true);
                }
            }
        }
        (reqs, free)
    }

    #[test]
    fn dense_grants_are_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for spec in [VcAllocSpec::mesh(2), VcAllocSpec::fbfly(2)] {
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let mut a = DenseVcAllocator::new(spec.clone(), kind);
                for _ in 0..30 {
                    let (reqs, free) = random_workload(&spec, &mut rng, 0.5);
                    let grants = a.allocate(&reqs, &free);
                    validate_vc_grants(&spec, &reqs, &free, &grants).unwrap();
                }
            }
        }
    }

    #[test]
    fn sparse_grants_are_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for spec in [VcAllocSpec::mesh(2), VcAllocSpec::fbfly(2)] {
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let mut a = SparseVcAllocator::new(spec.clone(), kind);
                for _ in 0..30 {
                    let (reqs, free) = random_workload(&spec, &mut rng, 0.5);
                    let grants = a.allocate(&reqs, &free);
                    validate_vc_grants(&spec, &reqs, &free, &grants).unwrap();
                }
            }
        }
    }

    #[test]
    fn sparse_and_dense_grant_counts_match_for_wavefront_per_class() {
        // For C=1 both must produce maximum matchings (§4.3.2), so counts
        // agree exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let spec = VcAllocSpec::fbfly(1);
        let mut dense = DenseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
        let mut sparse = SparseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
        for _ in 0..50 {
            let (reqs, free) = random_workload(&spec, &mut rng, 0.6);
            let gd: usize = dense
                .allocate(&reqs, &free)
                .iter()
                .filter(|g| g.is_some())
                .count();
            let gs: usize = sparse
                .allocate(&reqs, &free)
                .iter()
                .filter(|g| g.is_some())
                .count();
            assert_eq!(gd, gs);
        }
    }

    #[test]
    fn single_vc_per_class_all_allocators_maximum() {
        // §4.3.2: with one VC per class, all three implementations have
        // matching quality 1 — check grant counts equal MaxSize's.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for spec in [VcAllocSpec::mesh(1), VcAllocSpec::fbfly(1)] {
            let mut reference = DenseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let mut dense = DenseVcAllocator::new(spec.clone(), kind);
                let mut sparse = SparseVcAllocator::new(spec.clone(), kind);
                for _ in 0..25 {
                    let (reqs, free) = random_workload(&spec, &mut rng, 0.7);
                    let gmax = reference
                        .allocate(&reqs, &free)
                        .iter()
                        .filter(|g| g.is_some())
                        .count();
                    for (label, grants) in [
                        ("dense", dense.allocate(&reqs, &free)),
                        ("sparse", sparse.allocate(&reqs, &free)),
                    ] {
                        let got = grants.iter().filter(|g| g.is_some()).count();
                        assert_eq!(got, gmax, "{kind:?} {label} {}", spec.label());
                    }
                }
            }
        }
    }

    #[test]
    fn busy_output_vcs_never_granted() {
        let spec = VcAllocSpec::mesh(2);
        let v = spec.total_vcs();
        let mut a = DenseVcAllocator::new(spec.clone(), AllocatorKind::Wavefront);
        let mut reqs: Vec<Option<VcRequest>> = vec![None; spec.ports() * v];
        reqs[0] = Some(VcRequest::one_class(1, 0));
        // All output VCs busy -> no grant possible.
        let free = BitMatrix::new(spec.ports(), v);
        let grants = a.allocate(&reqs, &free);
        assert!(grants.iter().all(|g| g.is_none()));
    }

    #[test]
    #[should_panic(expected = "illegal resource-class transition")]
    fn illegal_class_transition_rejected() {
        let spec = VcAllocSpec::fbfly(1);
        let v = spec.total_vcs();
        let mut a = SparseVcAllocator::new(spec.clone(), AllocatorKind::SepIfRr);
        let mut reqs: Vec<Option<VcRequest>> = vec![None; spec.ports() * v];
        // Input VC 1 is (msg 0, res 1 = minimal); requesting non-minimal
        // (class 0) is illegal.
        reqs[1] = Some(VcRequest::one_class(0, 0));
        let free = BitMatrix::new(spec.ports(), v);
        a.allocate(&reqs, &free);
    }
}
