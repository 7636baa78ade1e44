//! Quickstart: generate a small synthetic web, build two top lists, and
//! evaluate them against the CDN's authoritative view.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use toppling::core::{against_cloudflare_ids, Study};
use toppling::lists::ListSource;
use toppling::sim::WorldConfig;
use toppling::vantage::CfMetric;

fn main() {
    // 1. One call runs the whole pipeline: world generation, a month of
    //    traffic, every vantage point, and every list construction.
    let study = Study::run(WorldConfig::small(42)).expect("valid config");
    println!(
        "world: {} sites, {} clients, {} days",
        study.world.sites.len(),
        study.world.clients.len(),
        study.world.config.days.len()
    );

    // 2. Peek at the lists that came out.
    println!("\nTranco head:");
    for e in study.tranco.entries.iter().take(5) {
        println!("  #{:<3} {}", e.rank, e.name);
    }
    println!("\nCrUX head (origin, bucket):");
    for e in study.crux.entries.iter().take(5) {
        println!("  {:<40} top-{}", e.name, e.bucket);
    }

    // 3. Evaluate each list against the CDN's all-HTTP-requests metric at the
    //    scaled top-"100K" magnitude, using the paper's subset methodology.
    let mags = study.magnitudes();
    let (label, k) = mags[mags.len() - 2];
    let cf = study.cf_monthly_ids(CfMetric::final_seven()[0]);
    println!("\nJaccard vs Cloudflare all-requests at top {label} ({k}):");
    let mut results: Vec<(ListSource, f64)> = ListSource::ALL
        .iter()
        .map(|&src| {
            let ev = against_cloudflare_ids(study.index().monthly(src), &cf, k);
            (src, ev.similarity.jaccard)
        })
        .collect();
    results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (src, ji) in results {
        println!("  {:<9} {ji:.3}", src.name());
    }
    println!("\n(The paper's finding: CrUX leads, Umbrella second, Secrank last.)");
}
