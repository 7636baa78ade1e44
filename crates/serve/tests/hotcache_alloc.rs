//! Allocation audit for building a snapshot's hot cache.
//!
//! `QuerySnapshot` pre-renders the hot `/health`, `/v1/rank` and
//! `/v1/movement` bodies into one arena at load, and the live engine does
//! it again on every swap. The renderers write each body straight into the
//! arena, which is sized once up front, so the build allocates a fixed
//! number of times (the arena, the range columns, the position columns and
//! the daily cuts), however many bodies it renders. This test pins that
//! with a counting global allocator: two worlds with the same window but
//! four times apart in sites must load with the same allocation count.
//!
//! The file holds exactly one `#[test]`: the allocator counter is global,
//! and a concurrently running test would pollute the measurement.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use topple_core::Study;
use topple_lists::ListSource;
use topple_serve::query::HOT_K;
use topple_serve::snapshot::encode_study;
use topple_serve::{QuerySnapshot, Snapshot};
use topple_sim::WorldConfig;

/// Passes through to the system allocator, counting allocations and
/// reallocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Loads a snapshot of a tiny-window world with `n_sites` sites, returning
/// the allocations `QuerySnapshot` made and the number of rank bodies it
/// pre-rendered.
fn load(n_sites: usize) -> (u64, usize) {
    let config = WorldConfig {
        n_sites,
        ..WorldConfig::tiny(5150)
    };
    let study = Study::run(config).expect("study");
    let bytes = encode_study(&study, "tiny", &[]);
    let snapshot = Snapshot::from_bytes(&bytes).expect("decodes");
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let qs = QuerySnapshot::with_generation(snapshot, 1, &["tpld-test".to_owned()]);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let bodies = ListSource::ALL
        .iter()
        .map(|&s| qs.snapshot().index.monthly(s).len().min(HOT_K))
        .sum();
    (allocs, bodies)
}

#[test]
fn hot_cache_build_allocates_independently_of_the_body_count() {
    let (small_allocs, small_bodies) = load(400);
    let (large_allocs, large_bodies) = load(1_600);
    println!(
        "{small_bodies} rank bodies: {small_allocs} allocations; \
         {large_bodies} rank bodies: {large_allocs} allocations"
    );
    assert!(
        large_bodies > 2 * small_bodies,
        "the worlds must differ in size"
    );
    assert_eq!(
        large_allocs, small_allocs,
        "loading {large_bodies} hot bodies allocated differently from {small_bodies}"
    );
}
