//! The Alexa-style list: browser-extension panel, visitors × pageviews.
//!
//! Alexa's published methodology: rank is "calculated daily based on the
//! average daily visitors and pageviews to every site over the past
//! 3 months" \[3, 6\]. The simulated window is one month, so the daily list for
//! day *d* averages over the trailing `window` days available up to *d* and
//! scores each site by the geometric mean of its average daily visitors and
//! average daily pageviews.

use std::collections::BTreeMap;

use topple_sim::{SiteId, World};
use topple_vantage::PanelVantage;

use crate::model::{ListSource, RankedList};

/// Builds the Alexa-style daily list for `day_index` from panel data.
///
/// `window` limits how many trailing days are averaged (Alexa's three months,
/// scaled to the simulation); `max_len` truncates the published list.
pub fn build_daily(
    world: &World,
    panel: &PanelVantage,
    day_index: usize,
    window: usize,
    max_len: usize,
) -> RankedList {
    assert!(
        day_index < panel.day_count(),
        "day {day_index} not ingested"
    );
    let start = (day_index + 1).saturating_sub(window);
    let days = &panel.all_days()[start..=day_index];
    let n_days = days.len() as f64;

    let mut pv: BTreeMap<SiteId, f64> = BTreeMap::new();
    let mut uv: BTreeMap<SiteId, f64> = BTreeMap::new();
    for day in days {
        for (site, stats) in day.sites() {
            *pv.entry(*site).or_default() += f64::from(stats.pageviews);
            *uv.entry(*site).or_default() += f64::from(stats.visitors);
        }
    }

    let mut scored: Vec<(SiteId, f64)> = pv
        .iter()
        .map(|(site, &p)| {
            let v = uv.get(site).copied().unwrap_or(0.0);
            // Geometric mean of average daily pageviews and visitors, times
            // the Certify boost for sites measured directly [4].
            let boost = world.sites[site.index()].certify_boost;
            (*site, ((p / n_days) * (v / n_days)).sqrt() * boost)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.1.total_cmp(&a.1).then_with(|| {
            world.sites[a.0.index()]
                .domain
                .cmp(&world.sites[b.0.index()].domain)
        })
    });
    scored.truncate(max_len);

    RankedList::from_sorted_names(
        ListSource::Alexa,
        scored
            .into_iter()
            .map(|(site, _)| world.sites[site.index()].domain.as_str().to_owned())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;
    use topple_vantage::DayScratch;

    fn setup() -> (World, PanelVantage) {
        let w = World::generate(WorldConfig::small(81)).unwrap();
        let mut p = PanelVantage::new(&w);
        let mut scratch = DayScratch::new(&w);
        for d in 0..5 {
            p.ingest_shard(scratch.observe_day(&w, d).panel);
        }
        (w, p)
    }

    #[test]
    fn produces_a_ranked_domain_list() {
        let (w, p) = setup();
        let l = build_daily(&w, &p, 4, 28, 1_000);
        assert!(!l.is_empty());
        // Entries are registrable domains known to the world.
        for e in l.entries.iter().take(20) {
            let d = e.name.parse().unwrap();
            assert!(w.site_by_domain(&d).is_some(), "unknown domain {}", e.name);
        }
        // Ranks are 1..n.
        for (i, e) in l.entries.iter().enumerate() {
            assert_eq!(e.rank, i as u32 + 1);
        }
    }

    #[test]
    fn longer_window_is_more_stable() {
        let (w, p) = setup();
        // Compare day-over-day churn of 1-day vs 5-day windows.
        let top_set = |l: &RankedList| -> std::collections::HashSet<String> {
            l.top_names(50).map(str::to_owned).collect()
        };
        let short_a = top_set(&build_daily(&w, &p, 3, 1, 1_000));
        let short_b = top_set(&build_daily(&w, &p, 4, 1, 1_000));
        let long_a = top_set(&build_daily(&w, &p, 3, 5, 1_000));
        let long_b = top_set(&build_daily(&w, &p, 4, 5, 1_000));
        let churn = |a: &std::collections::HashSet<String>,
                     b: &std::collections::HashSet<String>| {
            a.symmetric_difference(b).count()
        };
        assert!(
            churn(&long_a, &long_b) <= churn(&short_a, &short_b),
            "windowed list should churn less"
        );
    }

    #[test]
    fn respects_max_len() {
        let (w, p) = setup();
        let l = build_daily(&w, &p, 4, 28, 10);
        assert!(l.len() <= 10);
    }
}
