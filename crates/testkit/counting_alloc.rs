//! A counting global allocator for allocation-contract tests: a wrapper
//! around [`System`] bumps a thread-local counter on every
//! `alloc`/`realloc`/`alloc_zeroed` (the thread-local keeps other test
//! threads from polluting a count). A test binary includes this file as a
//! module,
//!
//! ```text
//! #[path = "../../testkit/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! so that no library compiles it and every crate keeps
//! `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// update is a plain thread-local store and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `f` on this thread.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}
