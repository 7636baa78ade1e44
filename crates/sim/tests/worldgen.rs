//! World-generation determinism across parallelism.
//!
//! These are the cross-crate pins for the sharded generator:
//!
//! - worlds must be byte-identical regardless of worker count or shard
//!   size — parallelism is an execution detail, never an output detail;
//! - the generator has pinned digests: any change to its draw sequence is a
//!   new generation epoch, not an edit (see `determinism.gen.toml` and
//!   DESIGN.md §18).
//!
//! The digest is [`World::gen_digest`]: an FNV-1a fold over every site,
//! client, link-graph row, and SoA column. Two worlds with equal digests
//! are observably identical to the simulator.

use topple_sim::{World, WorldConfig, WorldError};

/// Build a world with an explicit worker count / shard so the
/// `TOPPLE_WORKERS` environment cannot leak in.
fn build(scale: fn(u64) -> WorldConfig, workers: usize, shard: usize) -> Result<World, WorldError> {
    World::generate(WorldConfig {
        workers: Some(workers),
        gen_shard: Some(shard),
        ..scale(42)
    })
}

/// Seed-42 digests for the sharded (epoch 2) builder. Changing these
/// requires a new generation epoch.
const GEN2_TINY: u64 = 0xd97d_3e06_630a_8991;
const GEN2_SMALL: u64 = 0xbeff_1a1f_15af_f6f7;

#[test]
fn gen2_digests_are_pinned() {
    assert_eq!(
        build(WorldConfig::tiny, 2, 4096).unwrap().gen_digest(),
        GEN2_TINY
    );
    assert_eq!(
        build(WorldConfig::small, 2, 4096).unwrap().gen_digest(),
        GEN2_SMALL
    );
}

#[test]
fn gen2_small_world_is_worker_and_shard_invariant() {
    // Every (workers, shard) cell must reproduce the pinned digest exactly:
    // one shard spanning the world, shards much smaller than the world, and
    // worker counts beyond the shard count all included.
    for workers in [1usize, 2, 8] {
        for shard in [512usize, 4096, 1 << 20] {
            let world = build(WorldConfig::small, workers, shard).unwrap();
            assert_eq!(
                world.gen_digest(),
                GEN2_SMALL,
                "digest drifted at workers={workers} shard={shard}"
            );
        }
    }
}

#[test]
fn over_budget_config_fails_before_allocating() {
    let config = WorldConfig {
        gen_budget_bytes: Some(1), // one byte: nothing fits
        ..WorldConfig::tiny(42)
    };
    let err = match World::generate(config) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a 1-byte budget must be rejected"),
    };
    assert!(err.contains("budget"), "unexpected error: {err}");
}
