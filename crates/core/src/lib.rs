#![forbid(unsafe_code)]
//! Allocator architectures for network-on-chip routers.
//!
//! This crate is the core contribution of the reproduction of Becker &
//! Dally, *Allocator Implementations for Network-on-Chip Routers* (SC '09).
//! It provides cycle-level behavioural models of:
//!
//! * the three general allocator architectures of §2 — separable
//!   input-first ([`separable::SeparableInputFirst`]), separable
//!   output-first ([`separable::SeparableOutputFirst`]) and wavefront
//!   ([`wavefront::WavefrontAllocator`]) — plus the maximum-size
//!   augmenting-path allocator ([`maxsize::MaxSizeAllocator`]) used as the
//!   matching-quality upper bound;
//! * VC allocators (§4), in both the conventional dense form
//!   ([`vc::DenseVcAllocator`]) and the paper's **sparse** form
//!   ([`vc::SparseVcAllocator`]) that exploits the `V = M×R×C` class
//!   structure ([`vc::VcAllocSpec`]);
//! * switch allocators (§5.1) with the one-VC-per-input-port constraint
//!   ([`switch`]);
//! * speculative switch allocation (§5.2) with the conventional and the
//!   paper's **pessimistic** masking schemes ([`spec`]).
//!
//! The allocators a router is built from (VC, switch, speculative) are `u64`
//! word kernels over routers of at most [`MAX_WIDTH`] ports and
//! [`MAX_WIDTH`] VCs per port; their scalar predecessors are kept in
//! [`mod@reference`] as differential-testing oracles.
//!
//! Hardware cost (delay/area/power) of the same microarchitectures is
//! modeled by the `noc-hw` crate; network-level behaviour by `noc-sim`.

pub mod alloc;
pub mod augmenting;
pub mod matrix;
pub mod maxsize;
pub mod reference;
pub mod separable;
pub mod spec;
pub mod switch;
pub mod vc;
pub mod wavefront;

pub use alloc::{Allocator, AllocatorKind};
pub use augmenting::AugmentingPathAllocator;
pub use matrix::BitMatrix;
pub use maxsize::{max_matching, max_matching_assignment, MaxSizeAllocator};
pub use separable::{SeparableInputFirst, SeparableOutputFirst};
pub use spec::{SpecAllocResult, SpecMode, SpeculativeSwitchAllocator};
pub use switch::{
    validate_switch_grants, SwitchAllocator, SwitchAllocatorKind, SwitchGrant, SwitchRequests,
};
pub use vc::{
    validate_live_vc_grants, validate_vc_grants, DenseVcAllocator, MatrixVcAllocator, OutVc,
    SeparableVcAllocator, SparseVcAllocator, SpecError, VcAllocSpec, VcAllocator, VcRequest,
    VcRequestSet, MAX_WIDTH,
};
pub use wavefront::{DiagonalPolicy, WavefrontAllocator};
