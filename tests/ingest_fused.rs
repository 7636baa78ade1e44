//! Fused-pipeline equivalence over a realistic window: the streaming
//! `DayScratch` path (what `Study::run` uses, including scratch reused by
//! fan-out workers) must produce exactly the shards the materialized
//! `DayShards::observe` path produces, for every day.
//!
//! `tests/merge_laws.rs` checks the same equality on tiny worlds;
//! `tests/determinism.rs` pins the end-to-end byte-identity across worker
//! counts. This suite covers the middle: the small preset's full window,
//! observed both on one reused scratch and through `observe_day_shards` on
//! several workers, each reusing its own scratch across days.

use toppling::core::observe_day_shards;
use toppling::sim::{World, WorldConfig};
use toppling::vantage::{DayScratch, DayShards};

#[test]
fn fused_window_matches_materialized_window() {
    let world = World::generate(WorldConfig::small(7070)).unwrap();
    let n_days = world.config.days.len();
    let mut scratch = DayScratch::new(&world);
    for d in 0..n_days {
        let fused = scratch.observe_day(&world, d);
        let traffic = world.simulate_day(d);
        assert_eq!(fused, DayShards::observe(&world, &traffic), "day {d}");
    }
}

#[test]
fn pooled_scratch_across_threads_matches_materialized() {
    let world = World::generate(WorldConfig::small(7071)).unwrap();
    let n_days = world.config.days.len();

    // Fewer workers than days, so each worker's scratch is reused across
    // days, in whatever order the workers claim them — the study's access
    // pattern.
    let fused = observe_day_shards(&world, n_days, 3);
    assert_eq!(fused.len(), n_days);
    for (d, got) in fused.into_iter().enumerate() {
        let traffic = world.simulate_day(d);
        let want = DayShards::observe(&world, &traffic);
        assert_eq!(got, want, "day {d}");
    }
}
