//! Archive a day of traffic to disk in the TPL1 wire format and replay it
//! into fresh vantages, verifying exact observational equivalence.
//!
//! This is the workflow a real deployment would use: the traffic source
//! writes day archives; analysis vantages consume them later, possibly on
//! another machine.
//!
//! ```sh
//! cargo run --release --example wire_replay
//! ```

use std::fs;

use toppling::sim::{wire, World, WorldConfig};
use toppling::vantage::DayShards;

fn main() {
    let world = World::generate(WorldConfig::tiny(77)).expect("valid config");
    let day = world.simulate_day(0);

    // Archive.
    let encoded = wire::encode_day(&day);
    let path = std::env::temp_dir().join("toppling-day0.tpl1");
    fs::write(&path, &encoded).expect("write archive");
    println!(
        "archived day {} ({} page loads, {} third-party batches, {} background queries) \
         -> {} ({} bytes)",
        day.day,
        day.page_loads.len(),
        day.third_party.len(),
        day.background.len(),
        path.display(),
        encoded.len()
    );

    // Replay.
    let raw = fs::read(&path).expect("read archive");
    let replayed = wire::decode_day(&raw).expect("valid archive");

    // Observational equivalence: the five vantages fed the replay observe
    // exactly what they observe from the live stream.
    let live = DayShards::observe(&world, &day);
    let offline = DayShards::observe(&world, &replayed);
    assert_eq!(
        live, offline,
        "replayed archive diverged from the live stream"
    );
    println!("replayed archive matches the live stream at all five vantages");

    // Corruption is detected, not silently mis-parsed.
    let mut corrupted = raw.clone();
    let last = corrupted.len() - 1;
    corrupted.truncate(last - 2);
    match wire::decode_day(&corrupted) {
        Err(e) => println!("corrupted archive correctly rejected: {e}"),
        Ok(_) => unreachable!("truncation must be detected"),
    }
}
