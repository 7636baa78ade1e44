//! World-generation determinism, across generation epochs and parallelism.
//!
//! These are the cross-crate pins for the sharded generator:
//!
//! - the **frozen epoch-1** worlds must keep producing the exact bytes they
//!   produced before the sharded pipeline existed (the digests below were
//!   recorded from the scalar builder and must never change);
//! - the **epoch-2** worlds must be byte-identical regardless of worker
//!   count or shard size — parallelism is an execution detail, never an
//!   output detail;
//! - epoch 2 has its own pinned digests: any change to its draw sequence is
//!   a new generation epoch, not an edit (see `determinism.gen2.toml` and
//!   DESIGN.md §18).
//!
//! The digest is [`World::gen_digest`]: an FNV-1a fold over every site,
//! client, link-graph row, and SoA column. Two worlds with equal digests
//! are observably identical to the simulator.

use topple_sim::{World, WorldConfig, WorldError, GENERATION_EPOCH, SUPPORTED_GEN_EPOCHS};

/// Build a world with an explicit generation epoch / worker count / shard so
/// the `TOPPLE_GEN_EPOCH` / `TOPPLE_WORKERS` environment cannot leak in.
fn build(
    scale: fn(u64) -> WorldConfig,
    gen_epoch: u32,
    workers: usize,
    shard: usize,
) -> Result<World, WorldError> {
    World::generate(WorldConfig {
        gen_epoch: Some(gen_epoch),
        workers: Some(workers),
        gen_shard: Some(shard),
        ..scale(42)
    })
}

/// Seed-42 digests recorded from the scalar (epoch 1) builder before the
/// sharded pipeline landed. Frozen: a change here means the refactor broke
/// byte-compatibility with every pinned study artifact.
const GEN1_TINY: u64 = 0x3359_e733_08ae_5501;
const GEN1_SMALL: u64 = 0x29ca_c1c2_db18_fa04;

/// Seed-42 digests for the sharded (epoch 2) builder. Changing these
/// requires a new generation epoch.
const GEN2_TINY: u64 = 0xd97d_3e06_630a_8991;
const GEN2_SMALL: u64 = 0xbeff_1a1f_15af_f6f7;

#[test]
fn gen1_digests_are_pinned() {
    assert_eq!(
        build(WorldConfig::tiny, 1, 1, 4096).unwrap().gen_digest(),
        GEN1_TINY
    );
    assert_eq!(
        build(WorldConfig::small, 1, 1, 4096).unwrap().gen_digest(),
        GEN1_SMALL
    );
}

#[test]
fn gen2_digests_are_pinned() {
    assert_eq!(
        build(WorldConfig::tiny, 2, 2, 4096).unwrap().gen_digest(),
        GEN2_TINY
    );
    assert_eq!(
        build(WorldConfig::small, 2, 2, 4096).unwrap().gen_digest(),
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
            let world = build(WorldConfig::small, 2, workers, shard).unwrap();
            assert_eq!(
                world.gen_digest(),
                GEN2_SMALL,
                "digest drifted at workers={workers} shard={shard}"
            );
        }
    }
}

#[test]
fn default_generation_epoch_is_the_frozen_one() {
    // The default must stay pinned to epoch 1 so existing studies keep their
    // bytes; new tiers opt into epoch 2 explicitly (`WorldConfig::large` /
    // `WorldConfig::web` set `gen_epoch: Some(2)`).
    assert_eq!(GENERATION_EPOCH, 1);
    assert!(SUPPORTED_GEN_EPOCHS.contains(&GENERATION_EPOCH));
    assert!(SUPPORTED_GEN_EPOCHS.contains(&2));
    assert_eq!(WorldConfig::large(42).gen_epoch, Some(2));
    assert_eq!(WorldConfig::web(42).gen_epoch, Some(2));
}

#[test]
fn gen1_and_gen2_worlds_share_shape_not_bytes() {
    // The two epochs draw in different orders, so bytes differ — but the
    // macroscopic shape (entity counts, positive popularity weights) must
    // agree, since downstream consumers only depend on the config-declared
    // sizes. (Weights carry per-site noise, so they are Zipf-shaped but not
    // strictly monotone in id order.)
    let g1 = build(WorldConfig::tiny, 1, 1, 4096).unwrap();
    let g2 = build(WorldConfig::tiny, 2, 2, 512).unwrap();
    assert_eq!(g1.sites.len(), g2.sites.len());
    assert_eq!(g1.clients.len(), g2.clients.len());
    assert_ne!(g1.gen_digest(), g2.gen_digest());
    for world in [&g1, &g2] {
        assert!(world
            .sites
            .iter()
            .all(|s| s.weight.is_finite() && s.weight > 0.0));
    }
}

#[test]
fn over_budget_config_fails_before_allocating() {
    let config = WorldConfig {
        gen_epoch: Some(2),
        gen_budget_bytes: Some(1), // one byte: nothing fits
        ..WorldConfig::tiny(42)
    };
    let err = match World::generate(config) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a 1-byte budget must be rejected"),
    };
    assert!(err.contains("budget"), "unexpected error: {err}");
}
