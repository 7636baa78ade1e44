//! The Cisco Umbrella-style list: DNS names ranked by unique client IPs.
//!
//! Umbrella ranks *queried names* — FQDNs, not websites — "using the number
//! of unique client IPs visiting each domain, relative to the sum of all
//! requests to all domains" \[33\]. Two properties matter for the paper's
//! findings and are reproduced here:
//!
//! * the list mixes website FQDNs with infrastructure names and even bare
//!   TLD-level names, and
//! * score ties (small integer unique-IP counts in the tail) are broken
//!   **alphabetically**, producing the long sorted runs that wreck Spearman
//!   correlations \[25\].

use topple_sim::World;
use topple_vantage::DnsVantage;

use crate::model::{ListSource, RankedList};

/// Builds the Umbrella-style daily list for `day_index`.
///
/// `window` is the number of trailing days of resolver logs folded into the
/// snapshot. The real list is computed from roughly two days of data; at
/// simulation scale a slightly longer window compensates for the sampling
/// noise that the production system's enormous client base absorbs. Scores
/// stay integral (summed unique-IP counts), so tie bands — broken
/// alphabetically, as observed of the real list \[25\] — survive windowing.
pub fn build_daily(
    world: &World,
    resolver: &DnsVantage,
    day_index: usize,
    window: usize,
    max_len: usize,
) -> RankedList {
    use std::collections::BTreeMap;
    let start = (day_index + 1).saturating_sub(window.max(1));
    let mut ips: BTreeMap<topple_vantage::QueriedName, u64> = BTreeMap::new();
    let mut queries: BTreeMap<topple_vantage::QueriedName, u64> = BTreeMap::new();
    let mut total_q = 0u64;
    for d in start..=day_index {
        let day = resolver.day(d);
        total_q += day.total_queries();
        for (name, stats) in day.names() {
            *ips.entry(*name).or_default() += u64::from(stats.unique_ips);
            *queries.entry(*name).or_default() += stats.queries;
        }
    }
    let total_q = total_q.max(1) as f64;
    // Score = unique client IPs, weighted against total query volume: the
    // published formula mixes both, with IP breadth dominating.
    let mut scored: Vec<(String, f64)> = ips
        .into_iter()
        .map(|(name, ip_count)| {
            let q = queries.get(&name).copied().unwrap_or(0) as f64;
            let score = ip_count as f64 + 0.05 * (q / total_q) * 1_000.0;
            (DnsVantage::name_text(world, name), score)
        })
        .collect();
    // Descending score; ALPHABETICAL tie-breaking.
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(max_len);
    RankedList::from_sorted_names(
        ListSource::Umbrella,
        scored.into_iter().map(|(n, _)| n).collect(),
    )
}

/// Builds a month-representative Umbrella-style list: names ranked by their
/// average daily unique-IP count over every ingested day.
///
/// Set membership is robust (smoothed over the window) but rank fidelity is
/// limited by what the resolver could see: per-zone TTL heterogeneity
/// divides each zone's counts by an arbitrary factor (see the DNS vantage),
/// and residual integer ties break alphabetically.
pub fn build_monthly(world: &World, resolver: &DnsVantage, max_len: usize) -> RankedList {
    use std::collections::BTreeMap;
    let days = resolver.day_count().max(1) as f64;
    let mut sums: BTreeMap<topple_vantage::QueriedName, f64> = BTreeMap::new();
    for d in 0..resolver.day_count() {
        for (name, stats) in resolver.day(d).names() {
            *sums.entry(*name).or_default() += f64::from(stats.unique_ips);
        }
    }
    let mut scored: Vec<(String, f64)> = sums
        .into_iter()
        .map(|(name, score)| (DnsVantage::name_text(world, name), score / days))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(max_len);
    RankedList::from_sorted_names(
        ListSource::Umbrella,
        scored.into_iter().map(|(n, _)| n).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::{Resolver, WorldConfig};
    use topple_vantage::DayScratch;

    fn setup() -> (World, DnsVantage) {
        let w = World::generate(WorldConfig::small(91)).unwrap();
        let mut v = DnsVantage::new(Resolver::Umbrella);
        v.ingest_shard(&w, DayScratch::new(&w).observe_day(&w, 0).umbrella);
        (w, v)
    }

    #[test]
    fn list_contains_fqdns_not_just_domains() {
        let (w, v) = setup();
        let l = build_daily(&w, &v, 0, 1, 100_000);
        assert!(!l.is_empty());
        let with_sub = l
            .entries
            .iter()
            .filter(|e| {
                let d: topple_psl::DomainName = match e.name.parse() {
                    Ok(d) => d,
                    Err(_) => return false,
                };
                w.psl.registrable_domain(&d).map(|r| r != d).unwrap_or(true)
            })
            .count();
        assert!(
            with_sub as f64 / l.len() as f64 > 0.4,
            "Umbrella should be FQDN-heavy: {}/{}",
            with_sub,
            l.len()
        );
    }

    #[test]
    fn background_noise_ranks_high() {
        let (w, v) = setup();
        let l = build_daily(&w, &v, 0, 1, 100_000);
        // Names queried by every device daily (NTP, connectivity checks)
        // should appear near the head of the list — far above their (zero)
        // browsing popularity.
        let head: Vec<&str> = l.top_names(100).collect();
        let has_infra = head
            .iter()
            .any(|n| w.background_names.iter().any(|b| b.as_str() == *n));
        assert!(has_infra, "expected background names in the top 100");
    }

    #[test]
    fn monthly_aggregates_days() {
        let w = World::generate(WorldConfig::tiny(92)).unwrap();
        let mut v = DnsVantage::new(Resolver::Umbrella);
        let mut scratch = DayScratch::new(&w);
        for d in 0..3 {
            v.ingest_shard(&w, scratch.observe_day(&w, d).umbrella);
        }
        let monthly = build_monthly(&w, &v, 100_000);
        assert!(!monthly.is_empty());
        // Monthly list covers at least as many names as any single day.
        let day0 = build_daily(&w, &v, 0, 1, 100_000);
        assert!(monthly.len() >= day0.len());
    }

    #[test]
    fn ties_are_alphabetical() {
        let (w, v) = setup();
        let l = build_daily(&w, &v, 0, 1, 100_000);
        // Find a run of >= 4 consecutive entries in the tail and verify the
        // alphabetical runs exist (scores there are small integers).
        let tail = &l.entries[l.len().saturating_sub(200)..];
        let mut sorted_runs = 0;
        let mut run = 1;
        for w2 in tail.windows(2) {
            if w2[0].name < w2[1].name {
                run += 1;
                if run >= 4 {
                    sorted_runs += 1;
                }
            } else {
                run = 1;
            }
        }
        assert!(sorted_runs > 0, "expected alphabetical runs in the tail");
    }
}
