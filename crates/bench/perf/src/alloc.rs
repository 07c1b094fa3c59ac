//! A counting global allocator for the traced run's allocation metrics.
//!
//! Counting is off unless a [`Counting`] guard is alive: the untimed path
//! pays one relaxed load per allocation. While on, each thread counts its
//! own allocations (so a worker thread cannot pollute the caller's
//! numbers) and a process-wide gauge tracks live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAlloc;

/// Number of live [`Counting`] guards; counting is on while it is > 0.
/// `Relaxed` throughout: the counters publish no other data.
static ENABLED: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn on_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) == 0 {
        return;
    }
    // `try_with`: the counters have no destructor, but an allocation during
    // thread teardown must never panic inside the allocator.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) != 0 {
        LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping around the calls touches only atomics and
// const-initialised thread-locals, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is one allocation of the new size, as a fresh
        // `alloc` + copy + `dealloc` would be.
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on for as long as it lives.
pub struct Counting(());

impl Counting {
    /// Start counting (guards nest; counting stops when the last drops).
    pub fn start() -> Counting {
        ENABLED.fetch_add(1, Ordering::Relaxed);
        Counting(())
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        ENABLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Allocations the calling thread made inside one [`measure`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

fn snapshot() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Run `f` and return what the calling thread allocated meanwhile (zero
/// unless a [`Counting`] guard is alive).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (
        out,
        Counts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

/// Bytes allocated and not yet freed, process-wide, while counting was on.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_a_guard_lives() {
        let (_, off) = measure(|| std::hint::black_box(vec![0u8; 64]));
        // Another test may hold a guard; only the guarded count is exact.
        let _on = Counting::start();
        let (v, on) = measure(|| std::hint::black_box(vec![0u8; 64]));
        drop(v);
        assert_eq!(
            on,
            Counts {
                allocs: 1,
                bytes: 64
            }
        );
        assert!(off.allocs <= 1);
    }
}
