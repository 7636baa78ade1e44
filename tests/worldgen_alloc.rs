//! Allocation audit for world generation.
//!
//! A world stores each site's host names as a mask over its domain and
//! derives a name only when asked, assembles every shard straight into the
//! final vectors, and indexes domains by site id without cloning a key. So
//! building a world costs a small, fixed number of heap allocations per
//! site: the domain and its name candidate, the two working strings of
//! name resolution, the third-party list, and the per-shard and per-table
//! vectors amortized over the sites.
//!
//! Measured on `WorldConfig::small(4242)` (4,000 sites, 2,000 clients) at
//! one worker, counting the Public Suffix List build and every other fixed
//! cost: storing a `Vec<SiteHost>` of host-name strings per site (each
//! derived name built in two allocations), collecting every shard before
//! splicing it, and a `HashMap<String, _>` domain index took 77,453
//! allocations (19.36 per site); the derived-host layout takes 29,101
//! (7.28 per site). The bound sits between the two, so a return to
//! per-host strings (at least 4.3 more per site: one vector and ~3.3
//! names) fails here deterministically rather than only as a
//! resident-memory drift.
//!
//! The file holds exactly one `#[test]`: the allocator counter is global,
//! and a concurrently running test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use toppling::sim::{World, WorldConfig};

/// Passes through to the system allocator, counting allocations (and
/// reallocations) while armed.
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

/// Allocations per site a one-worker small world may cost.
const MAX_ALLOCS_PER_SITE: f64 = 9.0;

#[test]
fn world_generation_allocates_a_few_times_per_site() {
    let config = WorldConfig {
        workers: Some(1),
        ..WorldConfig::small(4242)
    };
    let n_sites = config.n_sites;
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let world = World::generate(config);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let world = world.expect("small world generates");
    assert_eq!(world.sites.len(), n_sites);
    let per_site = allocs as f64 / n_sites as f64;
    assert!(
        per_site <= MAX_ALLOCS_PER_SITE,
        "world generation made {allocs} allocations ({per_site:.2} per site, bound {MAX_ALLOCS_PER_SITE})"
    );
}
