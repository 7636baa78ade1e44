//! Resident-footprint audit for the CDN vantage.
//!
//! The CDN sees only the sites it serves (about a quarter of the world), so
//! the vantage keeps its 21 monthly sums, the first-day snapshot and the
//! final seven metrics' daily columns over those customer sites only. This
//! test counts the live heap bytes a `CdnVantage` holds after folding the
//! whole window of `WorldConfig::small(4242)` (4,000 sites, 28 days) and
//! bounds them in proportion to the customer count: eight bytes per
//! customer for each of the 21 + 21 + 7 × 28 retained scores, plus a
//! quarter for the customer index and allocation slack.
//!
//! Measured: keeping every structure dense over all 4,000 sites held
//! 7,622,480 bytes; the customer-only layout holds 2,000,544 bytes for the
//! world's 1,046 customers, under a bound of 2,489,480. A return to dense
//! daily columns alone would cross it by more than twice.
//!
//! The file holds exactly one `#[test]`: the byte counter is global, and a
//! concurrently running test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use toppling::sim::{World, WorldConfig};
use toppling::vantage::{CdnVantage, DayScratch};

/// Passes through to the system allocator, tracking live bytes.
struct CountingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);

fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(bytes(layout.size()), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(bytes(layout.size()), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(bytes(new_size) - bytes(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(bytes(layout.size()), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn cdn_vantage_holds_scores_for_customer_sites_only() {
    let world = World::generate(WorldConfig {
        workers: Some(1),
        ..WorldConfig::small(4242)
    })
    .expect("small world generates");
    let n_days = world.config.days.len();
    let customers = world.sites.iter().filter(|s| s.cloudflare).count();

    let before = LIVE.load(Ordering::SeqCst);
    let mut cdn = CdnVantage::new(&world);
    let mut scratch = DayScratch::new(&world);
    for d in 0..n_days {
        cdn.ingest_shard(scratch.observe_day(&world, d).cdn);
    }
    drop(scratch);
    let held = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(cdn.days(), n_days);

    let scores = 21 + 21 + 7 * n_days;
    let bound = customers * scores * 8 * 5 / 4;
    assert!(
        held <= bytes(bound),
        "the CDN vantage holds {held} bytes for {customers} customers over {n_days} days \
         (bound {bound})"
    );
}
