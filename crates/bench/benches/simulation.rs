//! Benchmarks of the simulation substrate: world generation, vantage
//! ingestion, and list construction. Per-day traffic generation and the
//! fused observe are timed by the `ingest` and `study_pipeline` benches.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use topple_bench::{tiny_world, BENCH_SEED};
use topple_sim::{Resolver, World, WorldConfig};
use topple_vantage::{
    CdnVantage, ChromeVantage, CrawlerVantage, DayScratch, DnsVantage, PanelVantage,
};

fn bench_world_generation(c: &mut Criterion) {
    c.bench_function("world/generate_tiny_400", |b| {
        b.iter(|| World::generate(black_box(WorldConfig::tiny(BENCH_SEED))).unwrap())
    });
    let mut g = c.benchmark_group("world_slow");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    g.warm_up_time(Duration::from_secs(2));
    g.bench_function("generate_small_4k", |b| {
        b.iter(|| World::generate(black_box(WorldConfig::small(BENCH_SEED))).unwrap())
    });
    g.finish();
}

fn bench_vantages(c: &mut Criterion) {
    let w = tiny_world();
    let shards = DayScratch::new(w).observe_day(w, 0);
    c.bench_function("vantage/cdn_ingest_shard", |b| {
        b.iter(|| {
            let mut v = CdnVantage::new(w);
            v.ingest_shard(shards.cdn.clone());
            black_box(v.days())
        })
    });
    c.bench_function("vantage/chrome_ingest_shard", |b| {
        b.iter(|| {
            let mut v = ChromeVantage::new(w);
            v.ingest_shard(shards.chrome.clone());
            black_box(v.day_count())
        })
    });
    c.bench_function("vantage/dns_ingest_shard", |b| {
        b.iter(|| {
            let mut v = DnsVantage::new(Resolver::Umbrella);
            v.ingest_shard(w, shards.umbrella.clone());
            black_box(v.day_count())
        })
    });
    c.bench_function("vantage/panel_ingest_shard", |b| {
        b.iter(|| {
            let mut v = PanelVantage::new(w);
            v.ingest_shard(shards.panel.clone());
            black_box(v.day_count())
        })
    });
    c.bench_function("vantage/crawl_full", |b| {
        b.iter(|| black_box(CrawlerVantage::crawl(w, 10, usize::MAX)))
    });
}

fn bench_lists(c: &mut Criterion) {
    let w = tiny_world();
    let day0 = DayScratch::new(w).observe_day(w, 0);
    let mut panel = PanelVantage::new(w);
    panel.ingest_shard(day0.panel);
    let mut umb = DnsVantage::new(Resolver::Umbrella);
    umb.ingest_shard(w, day0.umbrella);
    let mut china = DnsVantage::new(Resolver::ChinaVoting);
    china.ingest_shard(w, day0.china);
    let crawl = CrawlerVantage::crawl(w, 10, usize::MAX);

    c.bench_function("lists/alexa_daily", |b| {
        b.iter(|| black_box(topple_lists::alexa::build_daily(w, &panel, 0, 28, 10_000)))
    });
    c.bench_function("lists/umbrella_daily", |b| {
        b.iter(|| black_box(topple_lists::umbrella::build_daily(w, &umb, 0, 1, 10_000)))
    });
    c.bench_function("lists/majestic", |b| {
        b.iter(|| black_box(topple_lists::majestic::build(w, &crawl, 10_000)))
    });
    c.bench_function("lists/secrank_voting", |b| {
        b.iter(|| black_box(topple_lists::secrank::build(w, &china, 1, 10_000)))
    });
    let alexa = topple_lists::alexa::build_daily(w, &panel, 0, 28, 10_000);
    let umbrella = topple_lists::umbrella::build_daily(w, &umb, 0, 1, 10_000);
    let majestic = topple_lists::majestic::build(w, &crawl, 10_000);
    let inputs = vec![&alexa, &umbrella, &majestic];
    c.bench_function("lists/tranco_dowdall", |b| {
        b.iter(|| black_box(topple_lists::tranco::build(&inputs, 10_000)))
    });
    let tranco = topple_lists::tranco::build(&inputs, 10_000);
    c.bench_function("lists/trexa_interleave", |b| {
        b.iter(|| black_box(topple_lists::trexa::build(&tranco, &alexa, 2, 10_000)))
    });
    c.bench_function("lists/normalize_ranked", |b| {
        b.iter(|| black_box(topple_lists::normalize_ranked(&w.psl, &umbrella)))
    });
}

criterion_group!(benches, bench_world_generation, bench_vantages, bench_lists);
criterion_main!(benches);
