//! A counting global allocator: live and peak heap bytes.
//!
//! Peak resident set size on this box moves by ±5% between identical
//! runs (shared file pages, allocator trimming); the peak of live heap
//! bytes is exact and repeats for a given seed. Counting costs a
//! thread-local add per allocation. The simulator runs on one thread,
//! so the counters are per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The benchmark binary's global allocator.
pub struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(n: usize) {
    let live = LIVE.with(|l| {
        let v = l.get() + n;
        l.set(v);
        v
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(n: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(n)));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the bookkeeping touches only const-initialized
// thread-local cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Restarts the peak at the current live bytes.
pub fn reset_peak() {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.with(Cell::get)
}
