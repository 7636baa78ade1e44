//! Allocation audit for a resident [`Normalizer`].
//!
//! A normalizer kept between assembles (`Normalizer::into_parts` /
//! `resume`) answers every raw name it has met before with one memo probe.
//! After a [`rewind`](Normalizer::rewind) it re-normalizes its lists with no
//! per-name allocation: the entry memo, the PSL memo and the table already
//! hold every stable name, the grouping buffers are reused, and what is
//! left is each list's two output columns plus the few names past the
//! seal, which are interned again.
//!
//! The file holds exactly one test: the allocator counter is global, and a
//! concurrently running test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use topple_lists::{DomainTable, ListSource, Normalizer, RankedList};
use topple_psl::PublicSuffixList;

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

const SITES: usize = 2_000;
/// Names only the tail lists hold.
const TAIL_NAMES: usize = 5;

fn list(source: ListSource, names: impl Iterator<Item = String>) -> RankedList {
    RankedList::from_sorted_names(source, names.collect())
}

/// Day `d`'s FQDN-shaped daily list over the sites, in a day-dependent
/// order.
fn daily(d: usize) -> RankedList {
    let host = ["www", "cdn", "api"][d % 3];
    list(
        ListSource::Umbrella,
        (0..SITES).map(|i| format!("{host}.site{}.com", (i * 7 + d * 13) % SITES)),
    )
}

/// A monthly list: the sites plus the tail-only names.
fn monthly(offset: usize) -> RankedList {
    let sites = (0..SITES).map(move |i| format!("site{}.com", (i + offset) % SITES));
    let tail = (0..TAIL_NAMES).map(|i| format!("tail{i}.org"));
    list(ListSource::Alexa, sites.chain(tail))
}

#[test]
fn a_rewound_normalizer_renormalizes_known_names_without_allocating_per_name() {
    let psl = PublicSuffixList::builtin();
    let mut table = DomainTable::with_capacity(SITES);
    for i in 0..SITES {
        table.intern(&format!("site{i}.com").parse().expect("valid"));
    }
    let tail = [monthly(0), monthly(1)];

    // The first assemble: three dailies in the stable region, then the
    // tail lists.
    let mut norm = Normalizer::with_table(&psl, table);
    for d in 0..3 {
        norm.ranked_columns(&daily(d));
    }
    norm.seal();
    for l in &tail {
        norm.ranked(l);
    }
    let (table, memo) = norm.into_parts();
    let stable_len = SITES;
    assert_eq!(table.len(), stable_len + TAIL_NAMES);

    // The next assemble adds day 3, whose raw names days 0..3 already
    // held, and re-normalizes the tail behind it.
    let day3 = daily(3);
    let ((table, _memo), allocs) = count_allocs(|| {
        let mut norm = Normalizer::resume(&psl, table, memo);
        norm.rewind();
        let cols = norm.ranked_columns(&day3);
        norm.seal();
        let tail_cols: Vec<_> = tail.iter().map(|l| norm.ranked_columns(l)).collect();
        drop((cols, tail_cols));
        norm.into_parts()
    });
    assert_eq!(table.len(), stable_len + TAIL_NAMES);

    // Two columns per list and the tail `Vec`; each tail name costs its
    // parsed host, its memo key and the table's two copies. Nothing scales
    // with the ~2,000 names of each list.
    let lists = 1 + tail.len() as u64;
    let bound = 2 * lists + 1 + 4 * TAIL_NAMES as u64;
    println!("re-normalized {lists} lists with {allocs} allocations (bound {bound})");
    assert!(
        allocs <= bound,
        "{allocs} allocations for {lists} lists of ~{SITES} known names"
    );
}
