//! Audit an external top list: read a `rank,name` CSV, normalize it with the
//! PSL, and score it against the simulated CDN's popularity metrics.
//!
//! With no argument the example writes a demo CSV (the simulated Alexa list
//! with some deliberate tampering) and audits that — so it runs standalone:
//!
//! ```sh
//! cargo run --release --example audit_list [path/to/list.csv]
//! ```

use std::fs;

use toppling::core::{against_cloudflare_ids, IdCut, Study};
use toppling::lists::{normalize_ranked, ListSource, RankedList};
use toppling::sim::WorldConfig;
use toppling::vantage::CfMetric;

fn main() {
    let study = Study::run(WorldConfig::small(7)).expect("valid config");

    let path = std::env::args().nth(1).unwrap_or_else(|| {
        // Build a demo list: the study's Alexa list with its head tampered —
        // an attacker inserted three domains nobody visits (the classic
        // list-manipulation threat Tranco was designed against).
        let mut tampered = study.alexa_daily.last().unwrap().clone();
        let bogus = ["attacker-one.com", "attacker-two.net", "attacker-three.org"];
        for (i, name) in bogus.iter().enumerate() {
            tampered.entries.insert(
                i,
                toppling::lists::RankedEntry {
                    rank: 0,
                    name: (*name).to_owned(),
                },
            );
        }
        for (i, e) in tampered.entries.iter_mut().enumerate() {
            e.rank = i as u32 + 1;
        }
        let p = std::env::temp_dir().join("toppling-demo-list.csv");
        fs::write(&p, tampered.to_csv()).expect("write demo CSV");
        println!(
            "(no path given — wrote tampered demo list to {})\n",
            p.display()
        );
        p.to_string_lossy().into_owned()
    });

    let text = fs::read_to_string(&path).expect("read list CSV");
    let list = RankedList::from_csv(ListSource::Alexa, &text).expect("parse CSV");
    println!("loaded {} entries from {path}", list.len());

    let norm = normalize_ranked(&study.world.psl, &list);
    println!(
        "normalized: {} registrable domains, {:.1}% of raw entries deviated from the PSL",
        norm.len(),
        norm.deviation_percent()
    );

    // Names the study already knows keep their ids; the rest get ids that
    // match no CDN ranking, and the cf_ray probe decides whether they count.
    let index = study.index();
    let entries = norm.entries.iter().map(|(d, rank)| (d.as_str(), *rank));
    let cols = index.columns_for(&study.world, entries, norm.ordered);

    let mags = study.magnitudes();
    println!("\nscore vs the CDN's seven popularity metrics:");
    for metric in CfMetric::final_seven() {
        let cf = study.cf_monthly_ids(metric);
        let (label, k) = mags[mags.len() - 2];
        let ev = against_cloudflare_ids(&cols, &cf, k);
        let rho = ev
            .similarity
            .spearman
            .map(|s| format!("{:+.2}", s.rho))
            .unwrap_or_else(|| "   –".into());
        println!(
            "  {:<22} top {label}: JI {:.3}  rho {rho}  ({} CF-served of top {k})",
            metric.label(),
            ev.similarity.jaccard,
            ev.cf_subset_size,
        );
    }

    // Flag head entries the CDN has never seen traffic for — likely junk or
    // manipulation (exactly how the demo list was tampered).
    let cf_all = IdCut::new(&study.cf_monthly_ids(CfMetric::final_seven()[0]));
    println!("\nhead entries invisible to the CDN (candidate junk):");
    let mut shown = 0;
    for (d, rank) in norm.entries.iter().take(50) {
        let id = index.table().id(d.as_str());
        let served = id.is_some_and(|id| index.is_cf(id));
        if served && id.and_then(|id| cf_all.rank_of(id.raw())).is_none() {
            println!("  rank {rank:>4}: {d}");
            shown += 1;
        } else if study.world.site_by_domain(d).is_none() {
            println!("  rank {rank:>4}: {d}  (unknown domain)");
            shown += 1;
        }
    }
    if shown == 0 {
        println!("  none — the head looks clean");
    }
}
