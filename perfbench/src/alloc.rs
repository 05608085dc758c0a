//! A counting global allocator. Each thread carries a "current layer"
//! tag; allocations made while a layer is tagged are counted against it
//! (calls and bytes requested). Untagged threads are not counted, so the
//! server's and the work pool's threads never disturb a traced pass.
//!
//! Binaries opt in with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of tag slots (slot 0 means "not counted").
pub const SLOTS: usize = 16;

static CALLS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

thread_local! {
    static TAG: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, plus per-tag counters.
pub struct CountingAlloc;

fn count(bytes: usize) {
    let tag = TAG.try_with(Cell::get).unwrap_or(0);
    if tag != 0 {
        CALLS[tag].fetch_add(1, Ordering::Relaxed);
        BYTES[tag].fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch only atomics and a const-initialized
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Tags the calling thread's allocations with `slot` (0 stops counting)
/// and returns the previous tag.
pub fn set_tag(slot: usize) -> usize {
    TAG.with(|t| t.replace(slot.min(SLOTS - 1)))
}

/// `(calls, bytes)` counted against `slot` so far.
pub fn totals(slot: usize) -> (u64, u64) {
    (
        CALLS[slot].load(Ordering::Relaxed),
        BYTES[slot].load(Ordering::Relaxed),
    )
}

/// Zeroes every counter.
pub fn reset() {
    for slot in 0..SLOTS {
        CALLS[slot].store(0, Ordering::Relaxed);
        BYTES[slot].store(0, Ordering::Relaxed);
    }
}
