//! Allocation audit for the resident normalizer of a live study prefix.
//!
//! A [`StudyPrefix`] keeps its domain table, its normalizer memo and its
//! Umbrella daily columns between assembles, so an assemble normalizes a
//! raw name it has met before with one memo probe: no parse, no PSL walk,
//! no interning. Only the few names past the stable region (monthly and
//! Alexa names that no site or Umbrella daily holds) are re-interned.
//!
//! This test pins that with a counting global allocator. It folds every
//! day of one tiny world, then assembles the same window three times: on
//! a fresh prefix (a cold assemble, which meets every name for the first
//! time), and twice more on the resident prefix, with no new day, which is
//! a delta that brings no new distinct raw name. A warm re-assemble must
//! make at least three allocations fewer per distinct raw name than the
//! cold one, which pays about five per name (the parsed host, the memo
//! key, the PSL memo's key and value, the table's two copies) where the
//! warm one pays none, and the two warm ones must cost the same.
//!
//! The file holds exactly one test: the allocator counter is global, and a
//! concurrently running test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use toppling::core::{Study, StudyPrefix};
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

/// Distinct raw names among the lists a study keeps that an assemble
/// normalizes (Umbrella's monthly list is normalized but not kept, so this
/// undercounts, which only weakens the bound).
fn distinct_raw_names(study: &Study) -> u64 {
    let mut names: HashSet<&str> = HashSet::new();
    let ranked = study
        .alexa_daily
        .iter()
        .chain(&study.umbrella_daily)
        .chain([&study.majestic, &study.secrank, &study.tranco, &study.trexa]);
    for list in ranked {
        names.extend(list.entries.iter().map(|e| e.name.as_str()));
    }
    names.extend(study.crux.entries.iter().map(|e| e.name.as_str()));
    names.len() as u64
}

#[test]
fn reassembling_a_resident_prefix_makes_no_per_name_normalizer_allocations() {
    let config = WorldConfig {
        days: Date::new(2022, 2, 1).iter_days(28).collect(),
        ..WorldConfig::tiny(4243)
    };
    let mut prefix = StudyPrefix::new(World::generate(config).unwrap());
    prefix.simulate_through(28, 1).unwrap();
    let (cold, allocs_cold) = count_allocs(|| Study::from_prefix(prefix));
    let cold = cold.unwrap();
    let distinct = distinct_raw_names(&cold);

    let (warm, allocs_warm) = count_allocs(|| Study::from_prefix(cold.into_prefix()));
    let (warm, allocs_again) = count_allocs(|| Study::from_prefix(warm.unwrap().into_prefix()));
    assert_eq!(warm.unwrap().alexa_daily.len(), 28);

    println!(
        "cold assemble: {allocs_cold} allocations; warm: {allocs_warm}, then {allocs_again}; \
         {distinct} distinct raw names"
    );
    assert!(
        allocs_warm + 3 * distinct <= allocs_cold,
        "a warm re-assemble made {allocs_warm} allocations against the cold {allocs_cold}, \
         saving fewer than three per distinct raw name ({distinct})"
    );
    assert_eq!(
        allocs_again, allocs_warm,
        "a second warm re-assemble must cost what the first did"
    );
}
