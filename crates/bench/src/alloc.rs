//! Process-wide heap-allocation accounting.
//!
//! This module is the **safe half** of the counting allocator: a global
//! counter plus its accessors. The `unsafe` [`GlobalAlloc`] pass-through
//! that feeds it lives in `src/counting_alloc.rs` and is included with
//! `#[path]` by the binaries that opt in (`probe`, the `zero_alloc`
//! integration test) — registering a `#[global_allocator]` is a
//! per-binary decision, and keeping the `unsafe` out of the library lets
//! it stay `#![forbid(unsafe_code)]`.
//!
//! When no counting allocator is registered (the `repro` binary, the
//! Criterion benches) the counter simply stays at zero, so
//! [`allocation_count`] deltas read as 0 allocations — callers that
//! report per-event figures should treat 0 as "not measured" only when
//! they know no allocator was installed.
//!
//! [`GlobalAlloc`]: std::alloc::GlobalAlloc

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Heap acquisitions (`alloc` + `alloc_zeroed` + `realloc`) recorded
/// since process start. Frees are deliberately not tracked: the
/// steady-state guarantee is about *acquiring* memory on the hot path.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Records one heap acquisition. Called by the counting allocator on
/// every `alloc`/`alloc_zeroed`/`realloc`; must never allocate itself.
/// Relaxed ordering: the count is a diagnostic total, not a
/// synchronization edge.
#[inline]
pub fn record_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Total heap acquisitions recorded so far, across all threads. Take a
/// reading before and after a region and subtract to count the region's
/// allocations (plus whatever concurrent threads did — measure with the
/// process otherwise quiet).
#[inline]
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Held for the whole of every [`count_window`] run. The counter is
/// process-global, so two runs at once (parallel test threads) would each
/// count the other's allocations.
static WINDOW: Mutex<()> = Mutex::new(());

/// Counts the heap allocations `window` performs against the state
/// `setup` builds. The set-up, the window and the drop of the state all
/// run under one process-wide lock, so concurrent callers never overlap:
/// every counting-allocator test must measure through here.
pub fn count_window<S>(setup: impl FnOnce() -> S, window: impl FnOnce(&S)) -> u64 {
    let _exclusive = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let state = setup();
    let before = allocation_count();
    window(&state);
    let allocated = allocation_count() - before;
    drop(state);
    allocated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_advances_the_counter() {
        // `>=`: other tests in this binary may record concurrently.
        let before = allocation_count();
        record_allocation();
        record_allocation();
        assert!(allocation_count() >= before + 2);
    }
}
