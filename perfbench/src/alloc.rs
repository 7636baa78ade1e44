//! Counting global allocator. Disarmed it costs one relaxed load per
//! allocation; the traced run arms it so each span reports how many
//! allocations (and reallocations, since growth is what scratch reuse
//! avoids) happened inside it, across all threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Passes every call through to the system allocator.
pub struct Counting;

/// Number of open [`arm`] calls; counting is on while it is non-zero.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are atomics
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) > 0 {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) > 0 {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) > 0 {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts (`true`) or ends (`false`) one counting window. Windows nest, so
/// independent users cannot switch each other's counting off.
pub fn arm(on: bool) {
    if on {
        ARMED.fetch_add(1, Ordering::SeqCst);
    } else {
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Allocations counted so far (monotonic while armed).
pub fn count() -> u64 {
    COUNT.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_armed() {
        // Other tests may allocate concurrently, so only a lower bound holds.
        arm(true);
        let before = count();
        let v: Vec<u64> = Vec::with_capacity(16);
        let b = Box::new(7u64);
        assert!(count() >= before + 2);
        drop((v, b));
        arm(false);
    }
}
