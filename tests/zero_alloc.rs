//! Steady-state allocation audit: after warmup, the cycle loop must run
//! without touching the global allocator. The network keeps its
//! `RouterOutputs` buffer across cycles and the timing wheel reuses its
//! slot vectors, so a single heap allocation per cycle is a regression —
//! and one this test catches exactly, via a counting
//! `#[global_allocator]` wrapped around `System`.
//!
//! Only the measuring thread's allocations count: `allocs_during` flags its
//! own thread, so the harness and tests running beside it on other
//! threads are invisible, and each test measures straight after its own
//! set-up. A simulation runs on one thread, so its every allocation counts.

// `GlobalAlloc`'s methods are unsafe to implement: this file is the one
// place in the workspace that opts out of the `unsafe_code` lint.
#![allow(unsafe_code)]

use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind};
use noc_sim::{Network, SimConfig, TopologyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) on a
/// thread inside `allocs_during`; `dealloc` is free to run — dropping is
/// not the regression we hunt.
struct CountingAlloc;

thread_local! {
    /// This thread's count while it measures, `None` otherwise. Constant
    /// initialisation and a type without a destructor keep the allocator's
    /// access to it from allocating or registering anything.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // A thread being torn down has no slot left: it is not measuring.
    let _ = COUNT.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; `ptr`/`layout` pair is the
        // caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 2_000;
const MEASURED: u64 = 500;

fn net(topo: TopologyKind) -> Network {
    let cfg = SimConfig {
        injection_rate: 0.2,
        ..SimConfig::paper_baseline(topo, 1)
    };
    Network::new(cfg)
}

/// This thread's allocation count across `f()`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> u64 {
    COUNT.with(|n| n.set(Some(0)));
    drop(f());
    COUNT.with(|n| n.take()).unwrap_or_default()
}

#[test]
fn cycle_loop_steady_state_is_allocation_free() {
    for topo in [TopologyKind::Mesh8x8, TopologyKind::FlattenedButterfly4x4] {
        let mut n = net(topo);
        n.run(WARMUP);
        let during = allocs_during(|| n.run(MEASURED));
        assert_eq!(
            during, 0,
            "the cycle loop allocated {during} times in {MEASURED} steady-state cycles on {topo:?}"
        );
    }
}

/// The bit-parallel kernels (banked arbiter sweeps, wavefront diagonal
/// recurrence, the matrix allocator's entry and grant lists, and the
/// router's struct-of-arrays output-VC state) must preserve the zero-alloc
/// steady state. Covers both separable kernels at C=2 (mesh 5-port, 4-VC
/// routers: every VA/SA stage is one word wide) and the wavefront
/// VC+switch pairing, then the paper's widest router (fbfly C=4: P=10,
/// V=16), whose sparse VC allocators are 80 wide per message class — the
/// multi-word tree-arbiter and wavefront-diagonal scratch.
#[test]
fn kernel_paths_steady_state_is_allocation_free() {
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
        ),
        // Output-first kernels plus conventional speculation masking.
        (
            mesh2,
            AllocatorKind::SepOfRr,
            SwitchAllocatorKind::SepOf(rr),
            SpecMode::Conventional,
        ),
        // Wavefront VC allocation feeds `MatrixVcAllocator`'s reused entry
        // and grant lists through `Allocator::allocate_entries`.
        (
            mesh2,
            AllocatorKind::Wavefront,
            SwitchAllocatorKind::Wavefront,
            SpecMode::Pessimistic,
        ),
        (
            fbfly4,
            AllocatorKind::SepIfRr,
            SwitchAllocatorKind::SepIf(rr),
            SpecMode::Pessimistic,
        ),
        (
            fbfly4,
            AllocatorKind::Wavefront,
            SwitchAllocatorKind::Wavefront,
            SpecMode::Conventional,
        ),
    ];
    for ((topo, c), vca_kind, sa_kind, spec_mode) in configs {
        let cfg = SimConfig {
            injection_rate: 0.2,
            vca_kind,
            sa_kind,
            spec_mode,
            ..SimConfig::paper_baseline(topo, c)
        };
        let mut n = Network::new(cfg);
        n.run(WARMUP);
        let during = allocs_during(|| n.run(MEASURED));
        assert_eq!(
            during, 0,
            "kernel path {topo:?} C={c} {vca_kind:?}/{sa_kind:?}/{spec_mode:?} \
             allocated {during} times in {MEASURED} steady-state cycles"
        );
    }
}

/// The dense wavefront VC allocator at the widest router (fbfly C=4: P=10,
/// V=16) is one 160-wide block. Routers hold the sparse organization, but
/// the quality curves and the benchmark's dense rungs run the dense one,
/// so its steady state is audited at the allocator: random
/// live request sets and free maps, drawn before the measurement, replayed
/// round after round.
#[test]
fn dense_wavefront_vc_allocator_steady_state_is_allocation_free() {
    use noc_core::{BitMatrix, DenseVcAllocator, VcAllocSpec, VcAllocator, VcRequestSet};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let spec = VcAllocSpec::fbfly(4);
    let (p, v) = (spec.ports(), spec.total_vcs());
    let mut rng = StdRng::seed_from_u64(0x5c09);
    let rounds: Vec<(VcRequestSet, BitMatrix)> = (0..64)
        .map(|_| {
            let mut requests = VcRequestSet::new(p * v);
            for g in 0..p * v {
                if rng.gen_bool(0.5) {
                    let (_, class, _) = spec.vc_class(g % v);
                    let next = spec.rc_successors(class);
                    let to = next[rng.gen_range(0..next.len())];
                    requests.request(g, rng.gen_range(0..p), 1 << to);
                }
            }
            let mut free = BitMatrix::new(p, v);
            for port in 0..p {
                for vc in 0..v {
                    free.set(port, vc, rng.gen_bool(0.7));
                }
            }
            (requests, free)
        })
        .collect();
    let mut vca = DenseVcAllocator::new(spec, AllocatorKind::Wavefront);
    let mut grants = Vec::new();
    let mut granted = 0;
    let mut replay = |n: usize| {
        for (requests, free) in rounds.iter().cycle().take(n) {
            vca.allocate_live(requests, free, &mut grants);
            granted += grants.len();
        }
    };
    // A warm-up as long as the measurement sizes the grant list.
    replay(MEASURED as usize);
    let during = allocs_during(|| replay(MEASURED as usize));
    assert_eq!(
        during, 0,
        "the dense wavefront VC allocator allocated {during} times in {MEASURED} rounds"
    );
    assert!(granted > 0, "no round granted a VC");
}
