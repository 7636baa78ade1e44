//! Allocation pin for an uncached `/v1/compare`.
//!
//! A compare miss walks the shorter top-k cut against the other list's
//! dense position column, so the response body is its only heap
//! allocation, whatever the depth. This test counts allocations (and bytes)
//! with a counting global allocator around `compare_body` at k = 10 and at
//! k = 10,000 and requires one allocation of the same size at both depths:
//! nothing that grows with k.
//!
//! The file holds exactly one test: the counter is process-global, and a
//! concurrently running test would pollute the measurement.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use topple_core::{ListColumns, StudyIndex};
use topple_lists::{DomainId, DomainTable, ListSource};
use topple_serve::{QuerySnapshot, Snapshot, SnapshotIdentity};

/// Passes through to the system allocator, counting allocations,
/// reallocations and the bytes they ask for while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Domains in the synthetic table (the medium tier's order of magnitude).
const N: u32 = 20_000;

/// Per-list strides, each coprime with `N`, so `i * stride % N` permutes.
const STRIDES: [u32; 7] = [1, 3, 7, 9, 11, 13, 17];

/// A synthetic snapshot over `N` domains: each monthly list holds them all
/// in its own stride order, CrUX in 1,000-wide buckets. Built directly, so
/// the test needs no study run.
fn synthetic() -> QuerySnapshot {
    let names = (0..N)
        .map(|i| format!("d{i}.example").parse().expect("valid name"))
        .collect();
    let table = DomainTable::from_names(names);
    let monthly = |source: ListSource| {
        let at = ListSource::ALL.iter().position(|&s| s == source).unwrap();
        let ids = (0..N)
            .map(|i| DomainId::from_raw(i * STRIDES[at] % N))
            .collect();
        let (values, ordered) = if source == ListSource::Crux {
            ((0..N).map(|i| (i / 1_000 + 1) * 1_000).collect(), false)
        } else {
            ((1..=N).collect(), true)
        };
        ListColumns::new(ids, values, ordered, |_| false)
    };
    let index = StudyIndex::from_columns(
        table,
        Vec::new(),
        vec![false; N as usize],
        monthly,
        Vec::new(),
        Vec::new(),
    );
    QuerySnapshot::new(Snapshot {
        identity: SnapshotIdentity {
            seed: 1,
            n_sites: 0,
            n_clients: 0,
            n_days: 0,
            scale: "synthetic".to_owned(),
        },
        index,
        magnitudes: Vec::new(),
        artifacts: Vec::new(),
        crc32: 0,
    })
}

/// `(allocations, bytes)` of one `compare_body` call.
fn measure(qs: &QuerySnapshot, a: ListSource, b: ListSource, k: usize) -> (u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let body = qs.compare_body(a, b, k);
    ARMED.store(false, Ordering::Relaxed);
    assert!(body.contains("\"jaccard\":"), "{body}");
    drop(body);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[test]
fn compare_miss_allocates_only_its_body_at_any_depth() {
    let qs = synthetic();
    let (a, b) = (ListSource::Tranco, ListSource::Umbrella);
    assert!(qs
        .compare_body(a, b, 10_000)
        .contains("\"len_a\":10000,\"len_b\":10000"));

    let shallow = measure(&qs, a, b, 10);
    let deep = measure(&qs, a, b, 10_000);
    assert_eq!(shallow.0, 1, "k=10 must allocate the body only");
    assert_eq!(deep, shallow, "k=10,000 must allocate what k=10 does");
    // The bucketed list takes the same path.
    assert_eq!(measure(&qs, ListSource::Crux, a, 5_000), shallow);
}
