//@ as: tests/zero_alloc.rs
// Negative fixture: audited *as if* it lived at the allowlisted path
// above, so the containment rule passes — but the block below carries no
// justifying comment, and `noc audit --fixtures` must report
// `unsafe-without-safety-comment`.

pub fn undocumented_unsafe(cells: &[core::cell::UnsafeCell<u64>]) -> u64 {
    let first = unsafe { &*cells[0].get() };
    *first
}
