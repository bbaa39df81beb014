//! The `unsafe` half of allocation accounting: a [`System`] pass-through
//! `GlobalAlloc` that bumps [`tep_bench::alloc`] counters on every heap
//! acquisition, plus its `#[global_allocator]` registration.
//!
//! Not part of the `tep_bench` library (which forbids `unsafe`); binaries
//! that want accounting include this file with `#[path]`:
//!
//! ```ignore
//! #[path = "../counting_alloc.rs"] // adjust relative to the includer
//! mod counting_alloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};

/// Counting pass-through over the system allocator. Frees are forwarded
/// uncounted; see `tep_bench::alloc` for the rationale.
pub struct CountingAllocator;

// SAFETY: pure delegation to `System`, which upholds the `GlobalAlloc`
// contract; the added counter bump is a relaxed atomic increment and
// never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tep_bench::alloc::record_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tep_bench::alloc::record_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tep_bench::alloc::record_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;
