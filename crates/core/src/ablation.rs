//! Ablations of the methodology's design choices (DESIGN.md §4 extensions).
//!
//! The paper asserts several methodological choices without showing the
//! counterfactual; these functions measure them:
//!
//! * **PSL normalization** (§4.2): "Without normalization, all correlations
//!   are lower and this appears to be a strictly worse alternative."
//! * **Tranco window length**: the 30-day window trades freshness for
//!   stability; sweep it.
//! * **CrUX privacy threshold**: privacy cuts list size — how fast does
//!   accuracy degrade as the threshold rises?

use topple_lists::{normalize_ranked, tranco, DomainId, ListSource, NormalizedList, RankedList};
use topple_vantage::CfMetric;

use crate::error::CoreError;
use crate::methodology::against_cloudflare_ids;
use crate::study::Study;

/// Jaccard with and without PSL normalization, per list.
#[derive(Debug, Clone, Copy)]
pub struct NormalizationAblation {
    /// The list.
    pub source: ListSource,
    /// Jaccard with PSL normalization (the paper's method).
    pub normalized: f64,
    /// Jaccard comparing the raw published names directly.
    pub raw: f64,
}

/// Measures the effect of PSL normalization on the Figure 2 comparison at
/// magnitude `k`, against the all-requests metric.
pub fn normalization(study: &Study, k: usize) -> Result<Vec<NormalizationAblation>, CoreError> {
    let cf_ids = study.cf_monthly_ids(CfMetric::final_seven()[0]);
    let alexa_month = study.alexa_daily.last().ok_or(CoreError::EmptyWindow)?;
    let umbrella_month = study.umbrella_daily.last().ok_or(CoreError::EmptyWindow)?;
    let index = study.index();
    let rows = ListSource::ALL
        .iter()
        .map(|&source| {
            let normalized = against_cloudflare_ids(index.monthly(source), &cf_ids, k)
                .similarity
                .jaccard;

            // Raw variant: take the list's top-k published names verbatim
            // and skip the PSL grouping step. The cf_ray probe still works
            // (it is a network fact about the zone, independent of list
            // processing), but the published strings — FQDNs, origins — are
            // matched against Cloudflare's domain names as-is: only a name
            // that is itself a site domain keeps an id a ranking can share.
            let raw_top = |list: &RankedList| {
                let entries = list.entries.iter().take(k);
                index.columns_for(
                    &study.world,
                    entries.map(|e| (e.name.as_str(), e.rank)),
                    true,
                )
            };
            let raw_cols = match source {
                ListSource::Alexa => raw_top(alexa_month),
                ListSource::Umbrella => raw_top(umbrella_month),
                ListSource::Majestic => raw_top(&study.majestic),
                ListSource::Secrank => raw_top(&study.secrank),
                ListSource::Tranco => raw_top(&study.tranco),
                ListSource::Trexa => raw_top(&study.trexa),
                ListSource::Crux => {
                    let entries = study.crux.entries.iter().filter(|e| e.bucket as usize <= k);
                    index.columns_for(
                        &study.world,
                        entries.map(|e| (e.name.as_str(), e.bucket)),
                        false,
                    )
                }
            };
            let raw = against_cloudflare_ids(&raw_cols, &cf_ids, k);
            // No CF-served raw name scores 0, not the 1.0 of two empty sets.
            let raw = if raw.cf_subset_size == 0 {
                0.0
            } else {
                raw.similarity.jaccard
            };
            NormalizationAblation {
                source,
                normalized,
                raw,
            }
        })
        .collect();
    Ok(rows)
}

/// Scores a counterfactual normalized list against the all-requests ranking.
fn score(study: &Study, list: &NormalizedList, cf_ids: &[DomainId], k: usize) -> f64 {
    let entries = list.entries.iter().map(|(d, v)| (d.as_str(), *v));
    let cols = study
        .index()
        .columns_for(&study.world, entries, list.ordered);
    against_cloudflare_ids(&cols, cf_ids, k).similarity.jaccard
}

/// Accuracy of Tranco rebuilt over trailing windows of different lengths.
pub fn tranco_window(study: &Study, windows: &[usize], k: usize) -> Vec<(usize, f64)> {
    let cf_ids = study.cf_monthly_ids(CfMetric::final_seven()[0]);
    let n_days = study.alexa_daily.len();
    windows
        .iter()
        .map(|&w| {
            let w = w.min(n_days);
            let mut inputs: Vec<&RankedList> = Vec::new();
            inputs.extend(study.alexa_daily[n_days - w..].iter());
            inputs.extend(study.umbrella_daily[n_days - w..].iter());
            for _ in 0..w {
                inputs.push(&study.majestic);
            }
            let list = tranco::build(&inputs, study.world.sites.len());
            let norm = normalize_ranked(&study.world.psl, &list);
            (w, score(study, &norm, &cf_ids, k))
        })
        .collect()
}

/// CrUX accuracy and size as the privacy threshold rises.
pub fn crux_threshold(study: &Study, thresholds: &[u32], k: usize) -> Vec<(u32, usize, f64)> {
    let cf_ids = study.cf_monthly_ids(CfMetric::final_seven()[0]);
    let magnitudes: Vec<usize> = study.magnitudes().iter().map(|&(_, m)| m).collect();
    thresholds
        .iter()
        .map(|&t| {
            // Rebuild the public list at threshold t.
            let ranked = study.chrome.global_completed_list(t);
            let mut entries = Vec::new();
            for (pos, (origin, _)) in ranked.iter().enumerate() {
                let Some(&bucket) = magnitudes.iter().find(|&&m| pos < m) else {
                    break;
                };
                entries.push(topple_lists::BucketedEntry {
                    name: topple_vantage::ChromeVantage::origin_text(&study.world, *origin),
                    bucket: bucket as u32,
                });
            }
            let list = topple_lists::BucketedList {
                source: ListSource::Crux,
                entries,
            };
            let len = list.len();
            let norm = topple_lists::normalize_bucketed(&study.world.psl, &list);
            (t, len, score(study, &norm, &cf_ids, k))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    fn study() -> Study {
        Study::run(WorldConfig::small(301)).unwrap()
    }

    #[test]
    fn normalization_helps_name_shaped_lists() {
        // §4.2's claim: skipping normalization lowers correlations, most
        // dramatically for Umbrella (FQDNs) and CrUX (origins).
        let s = study();
        let k = s.world.sites.len() / 10;
        let rows = normalization(&s, k).unwrap();
        for row in &rows {
            assert!(
                row.normalized >= row.raw - 0.05,
                "{}: normalization should not hurt ({:.3} vs raw {:.3})",
                row.source,
                row.normalized,
                row.raw
            );
        }
        let umbrella = rows
            .iter()
            .find(|r| r.source == ListSource::Umbrella)
            .unwrap();
        assert!(
            umbrella.normalized > umbrella.raw + 0.05,
            "Umbrella must benefit materially: {:.3} vs {:.3}",
            umbrella.normalized,
            umbrella.raw
        );
    }

    #[test]
    fn longer_tranco_windows_do_not_hurt() {
        let s = study();
        let k = s.world.sites.len() / 10;
        let sweep = tranco_window(&s, &[1, 7, 28], k);
        assert_eq!(sweep.len(), 3);
        let first = sweep.first().unwrap().1;
        let last = sweep.last().unwrap().1;
        assert!(
            last >= first - 0.05,
            "28-day window ({last:.3}) vs 1-day ({first:.3})"
        );
    }

    #[test]
    fn privacy_threshold_shrinks_the_list() {
        let s = study();
        let k = s.world.sites.len() / 10;
        let sweep = crux_threshold(&s, &[1, 3, 10, 30], k);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1,
                "higher threshold must not grow the list"
            );
        }
        // At an absurd threshold the list collapses.
        let harsh = crux_threshold(&s, &[10_000], k);
        assert_eq!(harsh[0].1, 0);
    }
}
