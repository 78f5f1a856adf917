#![forbid(unsafe_code)]
//! Hardware cost model: the workspace's stand-in for RTL synthesis.
//!
//! The paper evaluates allocator implementations by synthesizing Verilog
//! RTL with Synopsys Design Compiler against a commercial 45 nm low-power
//! library (§3.1). This crate substitutes that flow with a self-contained
//! gate-level pipeline:
//!
//! 1. [`builders`] generate structural netlists for every design point the
//!    paper evaluates — arbiters, dense/sparse VC allocators (Figure 3),
//!    switch allocators (Figure 8) and speculative wrappers (Figure 9) —
//!    using the same microarchitectures as the behavioural models in
//!    `noc-core` (equivalence is tested gate-for-gate);
//! 2. [`optimize`] mimics "compile for minimum cycle time" via fanout
//!    buffering and critical-path gate upsizing;
//! 3. [`sta`] reports the minimum cycle time (logical-effort delay model),
//!    [`power`] the average power at activity factor 0.5 (§3.1), and
//!    [`netlist::Netlist::area_um2`] the cell area;
//! 4. [`synth::Synthesizer`] drives the flow and emulates Design Compiler's
//!    capacity limits — the paper's repeated "ran out of memory" failures
//!    on large wavefront/matrix design points reappear here as
//!    [`synth::SynthError::OutOfMemory`].
//!
//! Absolute delays/areas/powers are those of a synthetic library; the
//! figures of merit the paper's conclusions rest on — *ratios* between
//! allocator architectures and the *savings* from sparse VC allocation and
//! pessimistic speculation — derive from logic structure and carry over.

pub mod builders;
pub mod cell;
pub mod netlist;
pub mod optimize;
pub mod power;
pub mod sta;
pub mod synth;

pub use cell::{CellKind, CellLibrary};
pub use netlist::{NetId, Netlist};
pub use synth::{SynthError, SynthResult, Synthesizer};
