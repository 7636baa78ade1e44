//! Ingestion-stage throughput: fused streaming versus the materialized
//! two-pass baseline.
//!
//! One sample is one day of the small world ingested by all five vantages.
//! `day/materialized` simulates into `DayTraffic` vectors and then replays
//! them through a fresh observer (`DayShards::observe`); `day/fused`
//! measures the streaming `DayScratch` path the study pipeline uses (events
//! dispatched to all builders as generated, warm reusable scratch, zero
//! per-day allocations). The recorded A/B lives in `EXPERIMENTS.md`.
//!
//! The breakdown group isolates the generator: `simulate/null-sink` streams
//! into a no-op sink, `simulate/collect` additionally materializes the event
//! vectors.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use topple_bench::BENCH_SEED;
use topple_sim::{
    BackgroundQuery, EventSink, PageLoad, ThirdPartyFetch, TrafficScratch, World, WorldConfig,
};
use topple_vantage::{DayScratch, DayShards};

/// Observes events without accumulating: the cost floor of the generator.
struct NullSink;

impl EventSink for NullSink {
    fn page_load(&mut self, _: &PageLoad) {}
    fn third_party(&mut self, _: &ThirdPartyFetch) {}
    fn background(&mut self, _: &BackgroundQuery) {}
}

fn bench_day_ingestion(c: &mut Criterion) {
    // topple-lint: allow(unwrap): bench fixture; a broken world must abort the benchmark run
    let w = World::generate(WorldConfig::small(BENCH_SEED)).expect("bench world");
    let n_days = w.config.days.len();

    let mut g = c.benchmark_group("ingest_day");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(15));

    // Materialize DayTraffic, then replay it into all five vantages.
    g.bench_function("day/materialized", |b| {
        b.iter(|| {
            let mut out = 0usize;
            for d in 0..n_days {
                let t = w.simulate_day(d);
                out += black_box(DayShards::observe(&w, &t))
                    .cdn
                    .day_indices()
                    .count();
            }
            out
        })
    });

    // Fused architecture: one streaming pass per day over warm scratch.
    g.bench_function("day/fused", |b| {
        let mut scratch = DayScratch::new(&w);
        for d in 0..n_days {
            drop(scratch.observe_day(&w, d)); // warm the scratch tables
        }
        b.iter(|| {
            let mut out = 0usize;
            for d in 0..n_days {
                out += black_box(scratch.observe_day(&w, d))
                    .cdn
                    .day_indices()
                    .count();
            }
            out
        })
    });
    g.finish();

    let mut g = c.benchmark_group("ingest_breakdown");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));

    // Generator cost floor: stream one day into a no-op sink (warm scratch).
    g.bench_function("simulate/null-sink", |b| {
        let mut scratch = TrafficScratch::for_world(&w);
        w.simulate_day_into(0, &mut scratch, &mut NullSink);
        b.iter(|| {
            let mut sink = NullSink;
            w.simulate_day_into(black_box(0), &mut scratch, &mut sink);
        })
    });

    // Generator plus event-vector materialization (the materialized path's
    // first pass).
    g.bench_function("simulate/collect", |b| {
        b.iter(|| black_box(w.simulate_day(black_box(0))).page_loads.len())
    });
    g.finish();
}

criterion_group!(benches, bench_day_ingestion);
criterion_main!(benches);
