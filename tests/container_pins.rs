//! Content pins for the two on-disk containers.
//!
//! `topple-experiments snapshot write` runs the study, bakes the Table 1
//! and Figure 1 reports in, and writes a `tpls` snapshot; `snapshot delta`
//! observes one day and writes it as a `tpld` delta. Both ids carry the
//! payload's CRC-32, so pinning them at tiny scale pins every byte of both
//! payloads: the columnar index and the CDN-derived Figure 1 report in the
//! snapshot, and all five vantage shards in the delta, the CDN's dense
//! 21-metric day layout included. A change to how a vantage holds its state
//! in memory must leave both ids where they are.
//!
//! The artifacts come from the experiments binary's own renderer, included
//! here by path, so the snapshot is built by exactly the calls the CLI
//! makes.

#[allow(dead_code)]
#[path = "../crates/experiments/src/render.rs"]
mod render;

use toppling::core::Study;
use toppling::serve::{write_study, Delta, DeltaIdentity};
use toppling::sim::{World, WorldConfig};
use toppling::vantage::DayScratch;

/// The CLI's default seed.
const SEED: u64 = 20220201;

/// `snapshot write <path> --scale tiny` at the default seed.
const SNAPSHOT_ID: &str = "tpls-v1-d99ddaf2-s20220201";

/// `snapshot delta <path> --day 3 --scale tiny` at the default seed.
const DELTA_ID: &str = "tpld-v1-0b32e8c6-d3-3";

#[test]
fn tiny_snapshot_and_day_delta_ids_are_pinned() {
    let study = Study::run(WorldConfig::tiny(SEED)).expect("tiny study runs");
    let artifacts = vec![
        ("table1".to_owned(), render::table1(&study)),
        ("fig1".to_owned(), render::fig1(&study)),
    ];
    let path = std::env::temp_dir().join(format!("container-pins-{}.tpls", std::process::id()));
    let written = write_study(&study, "tiny", &artifacts, &path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(written.expect("snapshot writes"), SNAPSHOT_ID);

    let world = World::generate(WorldConfig::tiny(SEED)).expect("tiny world generates");
    let identity = DeltaIdentity {
        seed: world.config.seed,
        n_sites: world.config.n_sites as u64,
        n_clients: world.config.n_clients as u64,
        scale: "tiny".to_owned(),
    };
    let observed = DayScratch::new(&world).observe_day(&world, 3);
    let delta = Delta::new(identity, observed).expect("one observed day is a delta");
    assert_eq!(delta.id(), DELTA_ID);
}
