//! Allocation audit for the post-ingest assemble (`Study::from_prefix`).
//!
//! The assemble builds the window-wide lists (Secrank, Tranco, Trexa, CrUX,
//! Umbrella's monthly list), normalizes every list once and builds the
//! columnar index. Normalization groups on dense ids in reused buffers, the
//! daily lists keep only their id and value columns, and Tranco sums its
//! scores in a dense column. What an assemble still allocates is per
//! *distinct* name (the entry memo, the PSL walk, the domain table) and per
//! entry of the few lists that own their names, not per normalized daily
//! entry.
//!
//! This test pins that with a counting global allocator. It assembles one
//! tiny world twice on a resident prefix, as the live engine does after a
//! delta: at 14 days, then again at 28. The second window normalizes the
//! 14 extra days of daily lists; the extra allocations must stay under a
//! quarter of the extra normalized entries. A per-entry allocation anywhere
//! in the daily path (a name clone per entry, a map node per entry, a
//! second normalization of a list) breaks the bound.
//!
//! The file holds exactly one test: the allocator counter is global, and a
//! concurrently running test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use toppling::core::{Study, StudyPrefix};
use toppling::lists::ListSource;
use toppling::sim::{Date, World, WorldConfig};

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

/// Runs `f`, returning its output and the allocations it made.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

/// Raw entries one assemble normalizes: every daily Alexa and Umbrella list
/// once, plus the seven month-representative lists.
fn normalized_entries(study: &Study) -> u64 {
    let daily: usize = study
        .alexa_daily
        .iter()
        .chain(&study.umbrella_daily)
        .map(|l| l.len())
        .sum();
    let monthly: usize = ListSource::ALL
        .iter()
        .map(|&s| study.normalized(s).raw_len)
        .sum();
    (daily + monthly) as u64
}

#[test]
fn reassembling_a_longer_window_allocates_under_a_quarter_per_added_entry() {
    let config = WorldConfig {
        days: Date::new(2022, 2, 1).iter_days(28).collect(),
        ..WorldConfig::tiny(4243)
    };
    let mut prefix = StudyPrefix::new(World::generate(config).unwrap());
    prefix.simulate_through(14, 1).unwrap();
    let (study, allocs_14) = count_allocs(|| Study::from_prefix(prefix));
    let study = study.unwrap();
    let entries_14 = normalized_entries(&study);

    let mut prefix = study.into_prefix();
    prefix.simulate_through(28, 1).unwrap();
    let (study, allocs_28) = count_allocs(|| Study::from_prefix(prefix));
    let study = study.unwrap();
    let entries_28 = normalized_entries(&study);

    println!(
        "assemble at 14 days: {allocs_14} allocations, {entries_14} entries; \
         at 28 days: {allocs_28} allocations, {entries_28} entries"
    );
    let added_allocs = allocs_28.saturating_sub(allocs_14);
    let added_entries = entries_28 - entries_14;
    assert!(
        added_allocs < added_entries / 4,
        "14 more days added {added_allocs} allocations for {added_entries} normalized entries"
    );
}
