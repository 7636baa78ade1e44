//! Cross-vantage integration tests: the observers must tell a mutually
//! consistent story about the same traffic.

// Test harness: aborting on a broken fixture is the correct failure mode
// (clippy.toml's allow-*-in-tests covers `#[test]` fns but not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use topple_sim::{Resolver, World, WorldConfig};
use topple_vantage::{
    CdnVantage, CfAgg, CfFilter, CfMetric, ChromeVantage, CrawlerVantage, DayScratch, DnsVantage,
    PanelVantage,
};

fn setup() -> (World, CdnVantage, ChromeVantage, DnsVantage, PanelVantage) {
    let w = World::generate(WorldConfig::tiny(901)).unwrap();
    let mut cdn = CdnVantage::new(&w);
    let mut chrome = ChromeVantage::new(&w);
    let mut dns = DnsVantage::new(Resolver::Umbrella);
    let mut panel = PanelVantage::new(&w);
    let mut scratch = DayScratch::new(&w);
    for d in 0..5 {
        let shards = scratch.observe_day(&w, d);
        cdn.ingest_shard(shards.cdn);
        chrome.ingest_shard(shards.chrome);
        dns.ingest_shard(&w, shards.umbrella);
        panel.ingest_shard(shards.panel);
    }
    (w, cdn, chrome, dns, panel)
}

#[test]
fn daily_final_accessors_are_consistent_with_monthly() {
    let (w, cdn, ..) = setup();
    let metrics = CfMetric::final_seven();
    for (mi, &m) in metrics.iter().enumerate() {
        let monthly = cdn.monthly(m);
        for (site, &month_val) in monthly.iter().enumerate().take(w.sites.len()) {
            let mean_daily: f64 = (0..cdn.days())
                .map(|d| cdn.daily_final(mi, d)[site])
                .sum::<f64>()
                / cdn.days() as f64;
            assert!(
                (month_val - mean_daily).abs() < 1e-9,
                "site {site} metric {mi}: monthly {month_val} vs mean daily {mean_daily}"
            );
        }
    }
}

#[test]
fn panel_sees_subset_of_cdn_traffic_story() {
    // Sites the panel observed on Cloudflare must also have CDN traffic.
    let (w, cdn, _, _, panel) = setup();
    let m = CfMetric {
        filter: CfFilter::AllRequests,
        agg: CfAgg::Raw,
    };
    let monthly = cdn.monthly(m);
    for d in 0..panel.day_count() {
        for (site, _) in panel.day(d).sites() {
            if w.sites[site.index()].cloudflare {
                assert!(
                    monthly[site.index()] > 0.0,
                    "panel saw CF site {} but the CDN recorded nothing",
                    w.sites[site.index()].domain
                );
            }
        }
    }
}

#[test]
fn chrome_origins_belong_to_visited_public_sites() {
    let (w, cdn, chrome, ..) = setup();
    let m = CfMetric {
        filter: CfFilter::AllRequests,
        agg: CfAgg::Raw,
    };
    let monthly = cdn.monthly(m);
    for (origin, _) in chrome.global_completed_list(1) {
        let site = &w.sites[origin.0.index()];
        assert!(site.public_web);
        // Chrome-visible CF sites must also be CDN-visible.
        if site.cloudflare {
            assert!(monthly[origin.0.index()] > 0.0);
        }
    }
}

#[test]
fn resolver_sees_no_more_names_than_exist() {
    let (w, _, _, dns, _) = setup();
    let max_names: usize =
        w.sites.iter().map(|s| s.hosts.len()).sum::<usize>() + w.background_names.len();
    for d in 0..dns.day_count() {
        assert!(dns.day(d).name_count() <= max_names);
    }
}

#[test]
fn crawler_and_cdn_agree_on_popular_public_sites() {
    // Among CF-served public sites, being well-linked and being
    // well-requested must correlate far above chance. A rank correlation
    // over *all* candidates is used rather than a top-k overlap count:
    // at tiny scale the top-k cut is noisy enough to flap with the RNG
    // stream, while the full-population correlation is stable.
    let (w, cdn, ..) = setup();
    let crawl = CrawlerVantage::crawl(&w, 25, usize::MAX);
    let refs = crawl.referring_domains();
    let m = CfMetric {
        filter: CfFilter::AllRequests,
        agg: CfAgg::Raw,
    };
    let monthly = cdn.monthly(m);
    let candidates: Vec<usize> = (0..w.sites.len())
        .filter(|&i| w.sites[i].cloudflare && w.sites[i].public_web)
        .collect();
    assert!(
        candidates.len() >= 20,
        "world too small for a meaningful test"
    );
    let xs: Vec<f64> = candidates.iter().map(|&i| refs[i]).collect();
    let ys: Vec<f64> = candidates.iter().map(|&i| monthly[i]).collect();
    let s = topple_stats::corr::spearman(&xs, &ys).expect("correlation is defined");
    assert!(
        s.rho > 0.2 && s.p_value < 0.05,
        "links and traffic should correlate: rho {} (p {})",
        s.rho,
        s.p_value
    );
}
