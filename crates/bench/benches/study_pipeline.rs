//! End-to-end `Study::run` throughput across pipeline worker counts.
//!
//! The shard/merge pipeline parallelizes day simulation + shard construction
//! while the fold stays sequential, so the interesting question is how close
//! the wall-clock scaling gets to the worker count. One sample is a full
//! study (world generation included), which is why the sample counts are
//! tiny; the acceptance bar for the pipeline is small-scale `Study::run` at
//! 4 workers beating 1 worker by >= 1.5x.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use topple_bench::BENCH_SEED;
use topple_core::Study;
use topple_sim::{Resolver, World, WorldConfig};
use topple_vantage::{CdnVantage, ChromeVantage, DayScratch, DnsVantage, PanelVantage, Shard as _};

fn run_study(workers: usize) -> usize {
    let config = WorldConfig {
        workers: Some(workers),
        ..WorldConfig::small(BENCH_SEED)
    };
    // topple-lint: allow(unwrap): bench; a broken study must abort the benchmark run
    let study = Study::run(config).expect("bench study");
    study.tranco.entries.len()
}

fn bench_study_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("study_pipeline");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(20));
    g.warm_up_time(Duration::from_secs(2));
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("small", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(run_study(workers))),
        );
    }
    g.finish();
}

/// Splits one pipeline day into its parallelizable and sequential halves:
/// the worker unit (simulate + observe, scales with worker count) versus
/// the orchestrator fold (ingest_shard across all five vantages, inherently
/// serial). Their ratio is the Amdahl ceiling on worker scaling.
fn bench_pipeline_parts(c: &mut Criterion) {
    // topple-lint: allow(unwrap): bench fixture; a broken world must abort the benchmark run
    let w = World::generate(WorldConfig::small(BENCH_SEED)).expect("bench world");
    let mut g = c.benchmark_group("study_pipeline_parts");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    let mut scratch = DayScratch::new(&w);
    g.bench_function("worker_unit_day0", |b| {
        b.iter(|| black_box(scratch.observe_day(&w, 0)))
    });
    let shards = scratch.observe_day(&w, 0);
    g.bench_function("fold_day0", |b| {
        // The clone inside the loop makes this an upper bound on fold cost.
        b.iter(|| {
            let sh = shards.clone();
            let mut cdn = CdnVantage::new(&w);
            let mut chrome = ChromeVantage::new(&w);
            let mut umbrella = DnsVantage::new(Resolver::Umbrella);
            let mut china = DnsVantage::new(Resolver::ChinaVoting);
            let mut panel = PanelVantage::new(&w);
            cdn.ingest_shard(sh.cdn);
            chrome.ingest_shard(sh.chrome);
            umbrella.ingest_shard(&w, sh.umbrella);
            china.ingest_shard(&w, sh.china);
            panel.ingest_shard(sh.panel);
            black_box((cdn.days(), panel.day_count()))
        })
    });
    g.bench_function("merge_two_days", |b| {
        let other = scratch.observe_day(&w, 1);
        b.iter(|| {
            let mut a = shards.clone();
            a.merge(other.clone());
            black_box(a)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_study_pipeline, bench_pipeline_parts);
criterion_main!(benches);
