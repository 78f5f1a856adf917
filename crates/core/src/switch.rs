//! Switch allocators (§5.1).
//!
//! Switch allocation matches requests from the `V` input VCs at each of the
//! router's `P` input ports to crossbar output ports, under the constraint
//! that **at most one VC per input port** receives a grant (a port's crossbar
//! input can carry one flit per cycle). This extra constraint is what makes
//! switch allocators differ from canonical `P*V`-input allocators, and is
//! enforced structurally by all three implementations here, exactly as in
//! Figure 8.
//!
//! Each allocator is one `u64` mask kernel over [`ArbiterBank`] state: the
//! ports of a router and the VCs of a port are each one word, so `P` and `V`
//! are at most [`crate::MAX_WIDTH`] — the widest router the paper builds has
//! `P = 10`, `V = 16`. A wider router is refused where its dimensions enter
//! ([`crate::VcAllocSpec::try_new`]); the constructors here assert the
//! limit. The scalar predecessors of the kernels are the differential
//! oracles in [`crate::reference`].

use crate::vc::{bits_of, check_width};
use crate::wavefront::WavefrontAllocator;
use crate::{Allocator, BitMatrix};
use noc_arbiter::{ArbiterBank, ArbiterKind, Bits};

/// Panics, naming the limit and the offending value, unless a `ports`-port
/// router with `vcs` VCs per port fits the word kernels.
fn assert_width(ports: usize, vcs: usize) {
    if let Err(e) = check_width(ports, vcs) {
        panic!("{e}");
    }
}

/// Requests for one switch-allocation round: for every input VC, the output
/// port it wants this cycle (or none when idle).
///
/// Kept as words, the form the kernels consume: one word per input port for
/// the VCs with a request, one per (input, output) pair for the VCs
/// requesting that output, the port-level request matrix, and the masks of
/// active inputs and requested outputs. Every one of them is updated by
/// [`SwitchRequests::request`], so the read accessors are loads and
/// [`SwitchRequests::clear`] touches only what the round set.
#[derive(Clone, Debug)]
pub struct SwitchRequests {
    ports: usize,
    vcs: usize,
    /// Output requested by input VC `in_port * V + vc`; meaningful only
    /// where the `active` bit is set. Narrow on purpose: open-loop drivers
    /// hold thousands of request sets.
    out: Vec<u16>,
    /// `active[i]`: VCs at input `i` with a request.
    active: Vec<u64>,
    /// `by_out[i * P + o]`: VCs at input `i` requesting output `o`.
    by_out: Vec<u64>,
    /// Entry `(i, o)` set iff any VC at input `i` requests output `o`.
    port: BitMatrix,
    /// Input ports with at least one requesting VC.
    in_active: Bits,
    /// Output ports requested by at least one VC.
    out_requested: Bits,
}

/// Two request sets are equal when they hold the same requests; `out` is
/// left out because its idle slots are stale and its live ones are encoded
/// by `by_out`.
impl PartialEq for SwitchRequests {
    fn eq(&self, other: &Self) -> bool {
        self.ports == other.ports
            && self.vcs == other.vcs
            && self.active == other.active
            && self.by_out == other.by_out
            && self.port == other.port
            && self.in_active == other.in_active
            && self.out_requested == other.out_requested
    }
}

impl Eq for SwitchRequests {}

impl SwitchRequests {
    /// All-idle request set for a `ports`-port router with `vcs` VCs/port.
    /// Panics if either exceeds [`crate::MAX_WIDTH`].
    pub fn new(ports: usize, vcs: usize) -> Self {
        assert_width(ports, vcs);
        SwitchRequests {
            ports,
            vcs,
            out: vec![0; ports * vcs],
            active: vec![0; ports],
            by_out: vec![0; ports * ports],
            port: BitMatrix::new(ports, ports),
            in_active: Bits::new(ports),
            out_requested: Bits::new(ports),
        }
    }

    /// Router port count.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// VCs per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Registers that VC `vc` at input `in_port` wants output `out_port`.
    /// A VC holds one request: asking again replaces the earlier one.
    pub fn request(&mut self, in_port: usize, vc: usize, out_port: usize) {
        assert!(in_port < self.ports && vc < self.vcs && out_port < self.ports);
        let bit = 1u64 << vc;
        let g = in_port * self.vcs + vc;
        if self.active[in_port] & bit != 0 {
            let old = usize::from(self.out[g]);
            if old == out_port {
                return;
            }
            let pair = in_port * self.ports + old;
            self.by_out[pair] &= !bit;
            if self.by_out[pair] == 0 {
                self.port.set(in_port, old, false);
                let still = (0..self.ports).any(|i| self.port.get(i, old));
                self.out_requested.set(old, still);
            }
        }
        self.out[g] = out_port as u16;
        self.active[in_port] |= bit;
        self.by_out[in_port * self.ports + out_port] |= bit;
        self.port.set(in_port, out_port, true);
        self.in_active.set(in_port, true);
        self.out_requested.set(out_port, true);
    }

    /// Drops every request, keeping the allocation for reuse next cycle.
    /// Work is proportional to the requests held, not to `P·V`.
    pub fn clear(&mut self) {
        if self.is_empty() {
            return;
        }
        for i in self.in_active.iter_set() {
            for o in self.port.row(i).iter_set() {
                self.by_out[i * self.ports + o] = 0;
            }
            self.port.row_mut(i).clear();
            self.active[i] = 0;
        }
        self.in_active.clear();
        self.out_requested.clear();
    }

    /// The output port requested by `(in_port, vc)`, if any.
    #[inline]
    pub fn get(&self, in_port: usize, vc: usize) -> Option<usize> {
        assert!(vc < self.vcs);
        let live = self.active[in_port] >> vc & 1 != 0;
        live.then(|| usize::from(self.out[in_port * self.vcs + vc]))
    }

    /// True if no VC has a request.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_active.is_zero()
    }

    /// Bit vector over VCs at `in_port` that request *any* output.
    pub fn active_vcs(&self, in_port: usize) -> Bits {
        Bits::from_indices(self.vcs, bits_of(self.active[in_port]))
    }

    /// [`SwitchRequests::active_vcs`] as a kernel word.
    #[inline]
    pub fn active_vcs_word(&self, in_port: usize) -> u64 {
        self.active[in_port]
    }

    /// Bit vector over VCs at `in_port` requesting `out_port` specifically.
    pub fn vcs_for_output(&self, in_port: usize, out_port: usize) -> Bits {
        Bits::from_indices(
            self.vcs,
            bits_of(self.vcs_for_output_word(in_port, out_port)),
        )
    }

    /// [`SwitchRequests::vcs_for_output`] as a kernel word.
    #[inline]
    pub fn vcs_for_output_word(&self, in_port: usize, out_port: usize) -> u64 {
        self.by_out[in_port * self.ports + out_port]
    }

    /// The port-level request matrix: entry `(i, o)` set iff any VC at input
    /// `i` requests output `o` (the "combined and forwarded" requests of the
    /// output-first and wavefront implementations).
    pub fn port_matrix(&self) -> BitMatrix {
        self.port.clone()
    }

    /// [`SwitchRequests::port_matrix`] by reference: the matrix is kept up
    /// to date by every request, so allocators read it in place.
    #[inline]
    pub fn port_requests(&self) -> &BitMatrix {
        &self.port
    }

    /// True if any VC at `in_port` has a request (used by the pessimistic
    /// speculation mask).
    #[inline]
    pub fn input_active(&self, in_port: usize) -> bool {
        self.in_active.get(in_port)
    }

    /// True if any VC at any input requests `out_port`.
    #[inline]
    pub fn output_requested(&self, out_port: usize) -> bool {
        self.out_requested.get(out_port)
    }

    /// The input ports with a request, as a kernel word.
    #[inline]
    pub fn active_inputs_word(&self) -> u64 {
        self.in_active.low_word()
    }

    /// The output ports requested, as a kernel word.
    #[inline]
    pub fn requested_outputs_word(&self) -> u64 {
        self.out_requested.low_word()
    }

    /// Checks every derived word and mask against the per-VC ground truth
    /// (`active` bits and their `out` slots). Allocation-free, so the
    /// router's per-cycle invariant sweep can afford it.
    pub fn check(&self) -> Result<(), String> {
        let p = self.ports;
        for i in 0..p {
            let active = self.active[i];
            for vc in bits_of(active) {
                let o = usize::from(self.out[i * self.vcs + vc]);
                if vc >= self.vcs || o >= p {
                    return Err(format!("request ({i}, {vc}) -> {o} out of range"));
                }
                if self.by_out[i * p + o] >> vc & 1 == 0 {
                    return Err(format!("request ({i}, {vc}) -> {o} missing by output"));
                }
            }
            // Every live VC sits in its own output's word, so equal bit
            // counts mean the by-output words hold nothing else.
            let by_out = &self.by_out[i * p..(i + 1) * p];
            if by_out.iter().map(|w| w.count_ones()).sum::<u32>() != active.count_ones() {
                return Err(format!("stale by-output bits at input {i}"));
            }
            for (o, &vcs) in by_out.iter().enumerate() {
                if self.port.get(i, o) != (vcs != 0) {
                    return Err(format!("port matrix out of sync at ({i}, {o})"));
                }
            }
            if self.in_active.get(i) != (active != 0) {
                return Err(format!("active-input mask out of sync at {i}"));
            }
        }
        for o in 0..p {
            if self.out_requested.get(o) != (0..p).any(|i| self.port.get(i, o)) {
                return Err(format!("requested-output mask out of sync at {o}"));
            }
        }
        Ok(())
    }
}

/// One switch grant: input `(in_port, vc)` may traverse the crossbar to
/// `out_port` next cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchGrant {
    /// Granted input port.
    pub in_port: usize,
    /// Granted VC at that input port.
    pub vc: usize,
    /// Crossbar output the flit will traverse to.
    pub out_port: usize,
}

/// A switch allocator for a `P`-port router with `V` VCs per port.
///
/// Guarantees on the returned grant set: every grant corresponds to a
/// request; at most one grant per input port; at most one grant per output
/// port.
pub trait SwitchAllocator: Send {
    /// Router port count `P`.
    fn ports(&self) -> usize;

    /// VCs per port `V`.
    fn vcs(&self) -> usize;

    /// Performs one switch-allocation round and updates priority state.
    fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants);
        grants
    }

    /// [`SwitchAllocator::allocate`] writing grants into a caller-owned
    /// buffer (cleared first), so hot paths can reuse capacity across
    /// cycles.
    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>);

    /// Restores power-on priority state.
    fn reset(&mut self);
}

/// The switch-allocator architectures of Figure 8, with arbiter choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchAllocatorKind {
    /// Separable input-first (Figure 8(a)).
    SepIf(ArbiterKind),
    /// Separable output-first (Figure 8(b)).
    SepOf(ArbiterKind),
    /// Wavefront with round-robin VC pre-selection (Figure 8(c)).
    Wavefront,
}

impl SwitchAllocatorKind {
    /// Instantiates the allocator for a `ports`-port, `vcs`-VC router.
    /// Panics if either exceeds [`crate::MAX_WIDTH`].
    pub fn build(self, ports: usize, vcs: usize) -> Box<dyn SwitchAllocator + Send> {
        match self {
            SwitchAllocatorKind::SepIf(k) => Box::new(SepIfSwitchAllocator::new(ports, vcs, k)),
            SwitchAllocatorKind::SepOf(k) => Box::new(SepOfSwitchAllocator::new(ports, vcs, k)),
            SwitchAllocatorKind::Wavefront => Box::new(WavefrontSwitchAllocator::new(ports, vcs)),
        }
    }

    /// Instantiates the scalar oracle of this kind (see
    /// [`crate::reference`]); driven against [`SwitchAllocatorKind::build`]
    /// by the differential test layer.
    pub fn build_reference(self, ports: usize, vcs: usize) -> Box<dyn SwitchAllocator + Send> {
        match self {
            SwitchAllocatorKind::SepIf(k) => {
                Box::new(crate::reference::SepIfSwitchAllocator::new(ports, vcs, k))
            }
            SwitchAllocatorKind::SepOf(k) => {
                Box::new(crate::reference::SepOfSwitchAllocator::new(ports, vcs, k))
            }
            SwitchAllocatorKind::Wavefront => {
                Box::new(crate::reference::WavefrontSwitchAllocator::new(ports, vcs))
            }
        }
    }

    /// Figure-legend label (`sep_if/rr`, `wf/rr`, ...).
    pub fn label(self) -> String {
        match self {
            SwitchAllocatorKind::SepIf(k) => format!("sep_if/{}", k.short_name()),
            SwitchAllocatorKind::SepOf(k) => format!("sep_of/{}", k.short_name()),
            SwitchAllocatorKind::Wavefront => "wf/rr".to_string(),
        }
    }

    /// Parses the name every external surface uses (`sep_if_rr`,
    /// `sep_if_m`, `sep_of_rr`, `sep_of_m`, `wf`; a bare `sep_if` /
    /// `sep_of` means round-robin) or the [`SwitchAllocatorKind::label`]
    /// legend spelling of the same kind.
    pub fn parse(s: &str) -> Option<SwitchAllocatorKind> {
        use ArbiterKind::{Matrix, RoundRobin};
        match s.replace('/', "_").as_str() {
            "sep_if_rr" | "sep_if" => Some(SwitchAllocatorKind::SepIf(RoundRobin)),
            "sep_if_m" => Some(SwitchAllocatorKind::SepIf(Matrix)),
            "sep_of_rr" | "sep_of" => Some(SwitchAllocatorKind::SepOf(RoundRobin)),
            "sep_of_m" => Some(SwitchAllocatorKind::SepOf(Matrix)),
            "wf" | "wf_rr" => Some(SwitchAllocatorKind::Wavefront),
            _ => None,
        }
    }
}

/// Separable input-first switch allocator (Figure 8(a)).
///
/// A `V:1` arbiter per input port first picks a winning VC among all active
/// VCs; the winner's request is forwarded to its output port, where a `P:1`
/// arbiter selects among competing inputs. Output arbiters directly drive
/// the crossbar selects in hardware.
pub struct SepIfSwitchAllocator {
    ports: usize,
    vcs: usize,
    /// `V:1` arbiter per input port.
    input: ArbiterBank,
    /// `P:1` arbiter per output port.
    output: ArbiterBank,
    /// Stage-1 scratch, `(vc, out_port)` per input port; only the slots of
    /// this round's requesting inputs are written and read.
    winners: Vec<Option<(usize, usize)>>,
    /// Forwarded-request accumulator: `incoming[o]` bit `i` set iff input
    /// `i`'s stage-1 winner targets output `o`. All-zero between calls
    /// (stage 2 clears exactly the slots stage 1 set).
    incoming: Vec<u64>,
}

impl SepIfSwitchAllocator {
    /// Builds the allocator with the given arbiter kind in both stages.
    pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
        assert_width(ports, vcs);
        SepIfSwitchAllocator {
            ports,
            vcs,
            input: ArbiterBank::new(kind, ports, vcs),
            output: ArbiterBank::new(kind, ports, ports),
            winners: vec![None; ports],
            incoming: vec![0; ports],
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
        let SepIfSwitchAllocator {
            input,
            output,
            winners,
            incoming,
            ..
        } = self;
        // Stage 1: winning VC per requesting input port (an input without
        // requests forwards nothing, so it is not visited).
        let mut pending = 0u64; // outputs with >= 1 forwarded request
        let mut inputs = requests.active_inputs_word();
        while inputs != 0 {
            let i = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            // An arbitration winner always comes from the active-VC mask,
            // so its request is present.
            let w = input
                .arbitrate(i, requests.active_vcs_word(i))
                .and_then(|v| requests.get(i, v).map(|o| (v, o)));
            if let Some((_, o)) = w {
                incoming[o] |= 1 << i;
                pending |= 1 << o;
            }
            winners[i] = w;
        }
        // Stage 2: arbitration among forwarded requests at each output, in
        // the same ascending output order as the scalar oracle (outputs
        // with no contenders grant nothing there, so skipping them is
        // equivalent).
        while pending != 0 {
            let o = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let inc = incoming[o];
            incoming[o] = 0;
            if let Some(i) = output.arbitrate(o, inc) {
                let Some((v, _)) = winners[i] else { continue };
                out.push(SwitchGrant {
                    in_port: i,
                    vc: v,
                    out_port: o,
                });
                // Both stages succeeded: commit priority updates.
                input.update(i, v);
                output.update(o, i);
            }
        }
    }

    fn reset(&mut self) {
        self.input.reset();
        self.output.reset();
    }
}

/// Separable output-first switch allocator (Figure 8(b)).
///
/// Requests from all input VCs are combined per (input, output) pair and
/// forwarded; each output's `P:1` arbiter picks a winning input. An input
/// may win several outputs, so a `V:1` arbitration among the VCs that can
/// use any granted output selects the single winning VC; the other outputs
/// granted to that input go unused this cycle (and their arbiters keep
/// their priority, per the update rule).
pub struct SepOfSwitchAllocator {
    ports: usize,
    vcs: usize,
    /// `P:1` arbiter per output port.
    output: ArbiterBank,
    /// `V:1` arbiter per input port.
    vc: ArbiterBank,
    /// Combined request columns: `colw[o]` bit `i` set iff any VC at input
    /// `i` requests output `o`. All-zero between calls.
    colw: Vec<u64>,
    /// Stage-1 wins per input: `won[i]` bit `o` set iff output `o` chose
    /// input `i`. All-zero between calls.
    won: Vec<u64>,
}

impl SepOfSwitchAllocator {
    /// Builds the allocator with the given arbiter kind in both stages.
    pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
        assert_width(ports, vcs);
        SepOfSwitchAllocator {
            ports,
            vcs,
            output: ArbiterBank::new(kind, ports, ports),
            vc: ArbiterBank::new(kind, ports, vcs),
            colw: vec![0; ports],
            won: vec![0; ports],
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
        let SepOfSwitchAllocator {
            output,
            vc,
            colw,
            won,
            ..
        } = self;
        // Transpose the port-level request rows into columns.
        let mut inputs = requests.active_inputs_word();
        while inputs != 0 {
            let i = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            let mut outs = requests.port_requests().row(i).low_word();
            while outs != 0 {
                colw[outs.trailing_zeros() as usize] |= 1 << i;
                outs &= outs - 1;
            }
        }
        let mut active = requests.requested_outputs_word();
        // Stage 1: each output arbitrates among requesting inputs.
        let mut pending = 0u64; // inputs chosen by >= 1 output
        while active != 0 {
            let o = active.trailing_zeros() as usize;
            active &= active - 1;
            let inc = colw[o];
            colw[o] = 0;
            if let Some(i) = output.arbitrate(o, inc) {
                won[i] |= 1 << o;
                pending |= 1 << i;
            }
        }
        // Stage 2: each input picks a winning VC among those whose
        // requested output was granted to it (ascending input order, like
        // the scalar sweep over all inputs).
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let wmask = won[i];
            won[i] = 0;
            let mut cand = 0u64;
            let mut outs = wmask;
            while outs != 0 {
                cand |= requests.vcs_for_output_word(i, outs.trailing_zeros() as usize);
                outs &= outs - 1;
            }
            // A winner always comes from the candidate mask, which is built
            // only from VCs with live requests.
            if let Some((v, o)) = vc
                .arbitrate(i, cand)
                .and_then(|v| requests.get(i, v).map(|o| (v, o)))
            {
                out.push(SwitchGrant {
                    in_port: i,
                    vc: v,
                    out_port: o,
                });
                vc.update(i, v);
                // Only the output whose grant was consumed updates.
                output.update(o, i);
            }
        }
    }

    fn reset(&mut self) {
        self.output.reset();
        self.vc.reset();
    }
}

/// Wavefront switch allocator (Figure 8(c)).
///
/// Input VCs' requests are combined per port as in the output-first case and
/// fed to a `P × P` wavefront block, which guarantees at most one output per
/// input — so its outputs can drive the crossbar directly. VC selection is
/// pre-computed in parallel by a stage of `V:1` arbiters (one per
/// (input, output) pair, matching the `P` per-input arbiters of Figure
/// 8(c)): if input `i` is granted output `o`, the pre-selected VC for that
/// pair wins.
pub struct WavefrontSwitchAllocator {
    ports: usize,
    vcs: usize,
    /// The `P × P` port matcher.
    wavefront: WavefrontAllocator,
    /// `presel` arbiter `i * P + o`: V:1 round-robin arbiter choosing the
    /// VC at input `i` that will use output `o` if granted — one contiguous
    /// bank.
    presel: ArbiterBank,
}

impl WavefrontSwitchAllocator {
    /// Builds the allocator (round-robin pre-selection, per the paper's
    /// `wf/rr` configuration).
    pub fn new(ports: usize, vcs: usize) -> Self {
        assert_width(ports, vcs);
        WavefrontSwitchAllocator {
            ports,
            vcs,
            wavefront: WavefrontAllocator::new(ports, ports),
            presel: ArbiterBank::new(ArbiterKind::RoundRobin, ports * ports, vcs),
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
        // The port-level request entries, straight from the port words.
        let port = requests.port_requests();
        let entries = bits_of(requests.active_inputs_word())
            .flat_map(|i| bits_of(port.row(i).low_word()).map(move |o| (i, o)));
        let (ports, presel) = (self.ports, &mut self.presel);
        // Grants arrive in ascending input-port order.
        self.wavefront.allocate_with(entries, |i, o| {
            let (pair, requesting) = (i * ports + o, requests.vcs_for_output_word(i, o));
            // The wavefront core only grants port pairs that requested.
            let Some(v) = presel.arbitrate(pair, requesting) else {
                debug_assert!(false, "wavefront granted a port pair with no requesting VC");
                return;
            };
            presel.update(pair, v);
            out.push(SwitchGrant {
                in_port: i,
                vc: v,
                out_port: o,
            });
        });
    }

    fn reset(&mut self) {
        self.wavefront.reset();
        self.presel.reset();
    }
}

/// Checks the structural guarantees of a switch-grant set; used by tests and
/// the simulator's debug assertions.
pub fn validate_switch_grants(
    requests: &SwitchRequests,
    grants: &[SwitchGrant],
) -> Result<(), String> {
    // Bits instead of Vec<bool>: this runs per cycle under debug
    // assertions and must not allocate in steady state.
    let mut in_used = Bits::new(requests.ports());
    let mut out_used = Bits::new(requests.ports());
    for g in grants {
        if requests.get(g.in_port, g.vc) != Some(g.out_port) {
            return Err(format!("grant without request: {g:?}"));
        }
        if in_used.get(g.in_port) {
            return Err(format!("two grants at input port {}", g.in_port));
        }
        in_used.set(g.in_port, true);
        if out_used.get(g.out_port) {
            return Err(format!("two grants at output port {}", g.out_port));
        }
        out_used.set(g.out_port, true);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn kinds() -> Vec<SwitchAllocatorKind> {
        vec![
            SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin),
            SwitchAllocatorKind::SepIf(ArbiterKind::Matrix),
            SwitchAllocatorKind::SepOf(ArbiterKind::RoundRobin),
            SwitchAllocatorKind::SepOf(ArbiterKind::Matrix),
            SwitchAllocatorKind::Wavefront,
        ]
    }

    #[test]
    fn parse_round_trips_labels() {
        for k in kinds() {
            assert_eq!(SwitchAllocatorKind::parse(&k.label()), Some(k));
        }
        assert_eq!(SwitchAllocatorKind::parse("sep_of"), Some(kinds()[2]));
        assert_eq!(SwitchAllocatorKind::parse("maxsize"), None);
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
    fn grants_satisfy_structural_constraints() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for kind in kinds() {
            let mut a = kind.build(5, 4);
            for _ in 0..100 {
                let reqs = random_requests(&mut rng, 5, 4, 0.4);
                let grants = a.allocate(&reqs);
                validate_switch_grants(&reqs, &grants).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            }
        }
    }

    #[test]
    fn non_conflicting_port_requests_all_granted() {
        for kind in kinds() {
            let mut a = kind.build(4, 2);
            let mut reqs = SwitchRequests::new(4, 2);
            reqs.request(0, 0, 2);
            reqs.request(1, 1, 0);
            reqs.request(3, 0, 3);
            let grants = a.allocate(&reqs);
            assert_eq!(grants.len(), 3, "{kind:?}");
        }
    }

    #[test]
    fn single_grant_per_input_even_with_many_vcs() {
        for kind in kinds() {
            let mut a = kind.build(3, 4);
            let mut reqs = SwitchRequests::new(3, 4);
            // All four VCs at input 0 request distinct outputs.
            for vc in 0..3 {
                reqs.request(0, vc, vc);
            }
            let grants = a.allocate(&reqs);
            assert_eq!(grants.len(), 1, "{kind:?}: input port over-granted");
            assert_eq!(grants[0].in_port, 0);
        }
    }

    #[test]
    fn wavefront_switch_is_maximal_on_port_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut a = WavefrontSwitchAllocator::new(6, 3);
        for _ in 0..100 {
            let reqs = random_requests(&mut rng, 6, 3, 0.5);
            let grants = a.allocate(&reqs);
            let mut gm = BitMatrix::new(6, 6);
            for g in &grants {
                gm.set(g.in_port, g.out_port, true);
            }
            assert!(gm.is_maximal_for(&reqs.port_matrix()));
        }
    }

    #[test]
    fn sep_if_bottlenecked_by_single_stage1_winner() {
        // §5.3.2: sep_if "can only propagate a single request per input port
        // to its second arbitration stage". Two inputs each have VCs for
        // both outputs; sep_if with aligned priorities grants only one pair,
        // wavefront grants two.
        let mut sep = SepIfSwitchAllocator::new(2, 2, ArbiterKind::RoundRobin);
        let mut wf = WavefrontSwitchAllocator::new(2, 2);
        let mut reqs = SwitchRequests::new(2, 2);
        // Both inputs: VC0 -> out 0, VC1 -> out 1.
        for i in 0..2 {
            reqs.request(i, 0, 0);
            reqs.request(i, 1, 1);
        }
        // sep_if stage 1 picks VC0 at both inputs -> both forward to output
        // 0 -> single grant.
        let g = sep.allocate(&reqs);
        assert_eq!(g.len(), 1);
        let g = wf.allocate(&reqs);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn persistent_conflict_is_fair() {
        for kind in kinds() {
            let mut a = kind.build(2, 1);
            let mut reqs = SwitchRequests::new(2, 1);
            reqs.request(0, 0, 0);
            reqs.request(1, 0, 0);
            let mut counts = [0usize; 2];
            for _ in 0..20 {
                for g in a.allocate(&reqs) {
                    counts[g.in_port] += 1;
                }
            }
            assert!(
                counts[0] >= 8 && counts[1] >= 8,
                "{kind:?} unfair: {counts:?}"
            );
        }
    }

    #[test]
    fn empty_requests_produce_no_grants() {
        for kind in kinds() {
            let mut a = kind.build(5, 4);
            assert!(
                a.allocate(&SwitchRequests::new(5, 4)).is_empty(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn port_matrix_and_helpers() {
        let mut r = SwitchRequests::new(3, 2);
        r.request(0, 0, 1);
        r.request(0, 1, 2);
        r.request(2, 1, 1);
        let m = r.port_matrix();
        assert!(m.get(0, 1) && m.get(0, 2) && m.get(2, 1));
        assert_eq!(m.count_ones(), 3);
        assert!(r.input_active(0) && !r.input_active(1) && r.input_active(2));
        assert!(r.output_requested(1) && !r.output_requested(0));
        assert_eq!(
            r.vcs_for_output(0, 2).iter_set().collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(r.active_vcs_word(0), 0b11);
        assert_eq!(r.vcs_for_output_word(0, 2), 0b10);
        assert_eq!(r.vcs_for_output_word(1, 1), 0);
        assert_eq!(r.active_inputs_word(), 0b101);
        assert_eq!(r.requested_outputs_word(), 0b110);
        r.check().unwrap();
    }

    #[test]
    fn a_second_request_replaces_the_first() {
        let mut r = SwitchRequests::new(3, 2);
        r.request(0, 1, 2);
        r.request(1, 0, 2);
        r.request(0, 1, 0);
        assert_eq!(r.get(0, 1), Some(0));
        assert_eq!(r.vcs_for_output_word(0, 2), 0, "old by-output bit kept");
        assert_eq!(r.vcs_for_output_word(0, 0), 0b10);
        assert!(r.output_requested(2), "input 1 still wants output 2");
        r.check().unwrap();
        // Withdrawing the last request for an output clears its mask bit.
        r.request(1, 0, 1);
        assert!(!r.output_requested(2));
        assert!(!r.port_requests().get(1, 2));
        r.check().unwrap();
        let mut fresh = SwitchRequests::new(3, 2);
        fresh.request(0, 1, 0);
        fresh.request(1, 0, 1);
        assert_eq!(r, fresh);
    }

    #[test]
    fn clear_leaves_a_reusable_empty_set_at_any_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        // A narrow set, and the widest word in either dimension.
        for (p, v) in [(5, 4), (3, 64), (64, 2)] {
            let mut kept = SwitchRequests::new(p, v);
            for _ in 0..20 {
                let fresh = random_requests(&mut rng, p, v, 0.3);
                kept.clear();
                assert!(kept.is_empty());
                assert_eq!(kept, SwitchRequests::new(p, v));
                for i in 0..p {
                    for vc in 0..v {
                        if let Some(o) = fresh.get(i, vc) {
                            kept.request(i, vc, o);
                        }
                    }
                }
                kept.check().unwrap();
                assert_eq!(kept, fresh);
                assert_eq!(kept.active_vcs(0), fresh.active_vcs(0));
            }
        }
    }

    #[test]
    fn the_word_width_is_the_widest_router_built() {
        // At the limit every raw-dimension constructor builds and runs.
        for (p, v) in [(crate::MAX_WIDTH, 1), (2, crate::MAX_WIDTH)] {
            let mut reqs = SwitchRequests::new(p, v);
            reqs.request(p - 1, v - 1, p - 1);
            for kind in kinds() {
                let grants = kind.build(p, v).allocate(&reqs);
                assert_eq!(grants.len(), 1, "{kind:?} at P={p} V={v}");
            }
        }
        // One past it each panics, naming the limit and the value.
        let builders: [fn(usize, usize); 4] = [
            |p, v| drop(SwitchRequests::new(p, v)),
            |p, v| drop(kinds()[0].build(p, v)),
            |p, v| drop(kinds()[2].build(p, v)),
            |p, v| drop(kinds()[4].build(p, v)),
        ];
        for build in builders {
            for (p, v, what) in [(65, 1, "65 ports"), (2, 65, "65 VCs per port")] {
                let msg = *std::panic::catch_unwind(|| build(p, v))
                    .expect_err("built past the limit")
                    .downcast::<String>()
                    .expect("panic message");
                assert!(msg.contains(what) && msg.contains("64"), "{msg}");
            }
        }
    }
}
