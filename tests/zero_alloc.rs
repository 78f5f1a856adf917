//! Steady-state allocation audit: after warmup, the cycle loop must run
//! without touching the global allocator. The network keeps its
//! `RouterOutputs` buffer across cycles and the timing wheel reuses its
//! slot vectors, so a single heap allocation per cycle is a regression —
//! and one this test catches exactly, via a counting
//! `#[global_allocator]` wrapped around `System`.
//!
//! Measurements share one mutex so the counter is never polluted by a
//! concurrently running test in this binary; other test binaries are
//! separate processes and invisible to this allocator.

// `GlobalAlloc`'s methods are unsafe to implement: this file is the one
// place in the workspace that opts out of the `unsafe_code` lint.
#![allow(unsafe_code)]

use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind};
use noc_sim::{Network, SimConfig, TopologyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`);
/// `dealloc` is free to run — dropping is not the regression we hunt.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // RELAXED: independent event counter; read only while the
        // measurement mutex serializes all allocating activity.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // RELAXED: as in `alloc`.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // RELAXED: as in `alloc`.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr`/`layout` pair is the
        // caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes measurements across this binary's test threads.
static MEASURE: Mutex<()> = Mutex::new(());

const WARMUP: u64 = 2_000;
const MEASURED: u64 = 500;

fn net(topo: TopologyKind) -> Network {
    let cfg = SimConfig {
        injection_rate: 0.2,
        ..SimConfig::paper_baseline(topo, 1)
    };
    Network::new(cfg)
}

/// Allocation count across `f()`.
// RELAXED: single-threaded reads of a monotone counter bumped by this same
// thread's allocations; no ordering with other memory is needed.
fn allocs_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    drop(r);
    // RELAXED: same single-threaded monotone-counter read as above.
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn cycle_loop_steady_state_is_allocation_free() {
    let guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    for topo in [TopologyKind::Mesh8x8, TopologyKind::FlattenedButterfly4x4] {
        let mut n = net(topo);
        n.run(WARMUP);
        let during = allocs_during(|| n.run(MEASURED));
        assert_eq!(
            during, 0,
            "the cycle loop allocated {during} times in {MEASURED} steady-state cycles on {topo:?}"
        );
    }
    drop(guard);
}

/// The bit-parallel kernels (banked arbiter sweeps, wavefront diagonal
/// recurrence, the matrix allocator's entry and grant lists, and the
/// router's struct-of-arrays output-VC state) must preserve the zero-alloc
/// steady state. Covers both separable kernels at C=2 (mesh 5-port, 4-VC
/// routers: every VA/SA stage is one word wide) and the wavefront
/// VC+switch pairing, then the paper's widest router (fbfly C=4: P=10,
/// V=16), whose sparse VC allocators are 80 wide per message class — the
/// multi-word tree-arbiter and wavefront-diagonal scratch — and whose
/// dense wavefront VC allocator is one 160-wide block.
#[test]
fn kernel_paths_steady_state_is_allocation_free() {
    let guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let rr = noc_arbiter::ArbiterKind::RoundRobin;
    let mesh2 = (TopologyKind::Mesh8x8, 2);
    let fbfly4 = (TopologyKind::FlattenedButterfly4x4, 4);
    let configs = [
        // Paper baseline kinds at C=2: separable input-first kernels.
        (
            mesh2,
            AllocatorKind::SepIfRr,
            SwitchAllocatorKind::SepIf(rr),
            SpecMode::Pessimistic,
            true,
        ),
        // Output-first kernels plus conventional speculation masking.
        (
            mesh2,
            AllocatorKind::SepOfRr,
            SwitchAllocatorKind::SepOf(rr),
            SpecMode::Conventional,
            true,
        ),
        // Wavefront VC allocation feeds `MatrixVcAllocator`'s reused entry
        // and grant lists through `Allocator::allocate_entries`.
        (
            mesh2,
            AllocatorKind::Wavefront,
            SwitchAllocatorKind::Wavefront,
            SpecMode::Pessimistic,
            true,
        ),
        (
            fbfly4,
            AllocatorKind::SepIfRr,
            SwitchAllocatorKind::SepIf(rr),
            SpecMode::Pessimistic,
            true,
        ),
        (
            fbfly4,
            AllocatorKind::Wavefront,
            SwitchAllocatorKind::Wavefront,
            SpecMode::Conventional,
            true,
        ),
        // The dense wavefront VC allocator: one 160-wide block.
        (
            fbfly4,
            AllocatorKind::Wavefront,
            SwitchAllocatorKind::Wavefront,
            SpecMode::Conventional,
            false,
        ),
    ];
    for ((topo, c), vca_kind, sa_kind, spec_mode, vca_sparse) in configs {
        let baseline = SimConfig::paper_baseline(topo, c);
        assert!(
            baseline.vca_sparse,
            "the paper's default VC allocator is sparse"
        );
        let cfg = SimConfig {
            injection_rate: 0.2,
            vca_kind,
            sa_kind,
            spec_mode,
            vca_sparse,
            ..baseline
        };
        let mut n = Network::new(cfg);
        n.run(WARMUP);
        let during = allocs_during(|| n.run(MEASURED));
        let organization = if vca_sparse { "sparse" } else { "dense" };
        assert_eq!(
            during, 0,
            "kernel path {topo:?} C={c} {organization} {vca_kind:?}/{sa_kind:?}/{spec_mode:?} \
             allocated {during} times in {MEASURED} steady-state cycles"
        );
    }
    drop(guard);
}
