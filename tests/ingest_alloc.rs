//! Allocation audit for the fused ingestion hot path.
//!
//! The point of the streaming pipeline is that a warmed-up `DayScratch`
//! ingests a day with zero heap traffic: uniqueness maps and dense
//! accumulators are epoch-cleared, never reallocated, and no `DayTraffic`
//! event buffers exist. This test pins that property with a counting global
//! allocator: after warming the scratch over the full window once,
//! re-observing every day through `DayScratch::parts` + `simulate_day_into`
//! must
//! perform zero allocations. Shard materialization (`finish_day`) is
//! excluded — it builds the output shard vectors, which necessarily allocate.
//!
//! The file holds exactly one `#[test]`: the allocator counter is global,
//! and a concurrently running test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use toppling::sim::{World, WorldConfig};
use toppling::vantage::DayScratch;

/// Passes through to the system allocator, counting allocations (and
/// reallocations — growth is what scratch reuse must avoid) while armed.
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

/// A sink that observes events without accumulating anything, used to
/// separate "the generator allocates" from "the builders allocate".
struct NullSink;

impl toppling::sim::EventSink for NullSink {
    fn page_load(&mut self, _: &toppling::sim::PageLoad) {}
    fn third_party(&mut self, _: &toppling::sim::ThirdPartyFetch) {}
    fn background(&mut self, _: &toppling::sim::BackgroundQuery) {}
}

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warmed_fused_ingestion_does_not_allocate() {
    let world = World::generate(WorldConfig::small(4242)).unwrap();
    let n_days = world.config.days.len();

    // Warm-up pass: scratch tables grow to the window's working-set size
    // (and the outputs of finish_day are built and dropped).
    let mut scratch = DayScratch::new(&world);
    for d in 0..n_days {
        drop(scratch.observe_day(&world, d));
    }

    // The generator alone must already be allocation-free on a warm
    // TrafficScratch (its stub-cache table is sized at construction).
    let mut traffic_scratch = toppling::sim::TrafficScratch::for_world(&world);
    for d in 0..n_days {
        world.simulate_day_into(d, &mut traffic_scratch, &mut NullSink);
    }
    let generator_allocs = count_allocs(|| {
        for d in 0..n_days {
            world.simulate_day_into(d, &mut traffic_scratch, &mut NullSink);
        }
    });
    assert_eq!(
        generator_allocs, 0,
        "traffic generation allocated on a warm scratch"
    );

    // Full fused pass, warm: simulate + all five builders accumulating,
    // across every day of the window, without a single allocation.
    let fused_allocs = count_allocs(|| {
        for d in 0..n_days {
            let (traffic, mut obs) = scratch.parts(&world);
            world.simulate_day_into(d, traffic, &mut obs);
            // Intentionally no finish_day: materializing output shards
            // allocates by design; the per-event path must not.
        }
    });
    assert_eq!(
        fused_allocs, 0,
        "fused per-event ingestion allocated on warm scratch"
    );
}
