//! Figure 3: daily correlation between top lists and the all-HTTP-requests
//! metric over the measurement window (Section 5.4).
//!
//! Daily snapshots are used where the list has them (Alexa, Umbrella); the
//! slow-moving lists (Majestic, Secrank, Tranco, Trexa, CrUX) are fixed
//! within the month, exactly as their real counterparts effectively are.

use topple_lists::ListSource;
use topple_stats::fanout::map_ordered;
use topple_stats::timeseries::{dominant_period, weekday_split, WeekdaySplit};

use crate::methodology::against_cloudflare_ids;
use crate::study::Study;

/// Daily similarity series for one list.
#[derive(Debug, Clone)]
pub struct TemporalSeries {
    /// The list.
    pub source: ListSource,
    /// Daily Jaccard indices vs all-HTTP-requests.
    pub jaccard: Vec<f64>,
    /// Daily Spearman ρ (NaN where uncomputable; all-NaN for CrUX).
    pub spearman: Vec<f64>,
    /// Weekend flags per day.
    pub weekend: Vec<bool>,
}

impl TemporalSeries {
    /// Weekday/weekend contrast of the Jaccard series.
    pub fn jaccard_split(&self) -> Option<WeekdaySplit> {
        weekday_split(&self.jaccard, &self.weekend).ok()
    }

    /// Dominant period of the Jaccard series (weekly periodicity shows as 7).
    pub fn jaccard_period(&self) -> Option<(usize, f64)> {
        dominant_period(&self.jaccard, self.jaccard.len().saturating_sub(2).min(10)).ok()
    }
}

/// Computes daily series for every list at magnitude `k`.
///
/// Days fan out over the study's worker pool; each day ranks the reference
/// metric **once** and compares every source's precomputed daily columns
/// against it (the old shape re-normalized every static list — Majestic,
/// Secrank, Tranco, Trexa, CrUX — for every single day). The per-source
/// series is then a transpose of the per-day rows, index-ordered, so the
/// output is byte-identical at any worker count.
pub fn figure3(study: &Study, k: usize) -> Vec<TemporalSeries> {
    let n_days = study.world.config.days.len();
    let workers = study.world.config.effective_workers();
    let weekend: Vec<bool> = study
        .world
        .config
        .days
        .iter()
        .map(|d| d.weekday().is_weekend())
        .collect();

    // One (JI, rho) row per day, one entry per source.
    let day_rows: Vec<Vec<(f64, f64)>> = map_ordered(n_days, workers, |day| {
        // The day's reference: CF all-HTTP-requests ranking, computed once
        // and shared by all seven sources.
        let cf_ranked = study
            .index()
            .cf_ranked_ids(&study.cdn.daily_all_requests(day));
        ListSource::ALL
            .iter()
            .map(|&source| {
                let cols = study.index().daily(source, day);
                let ev = against_cloudflare_ids(cols, &cf_ranked, k);
                (
                    ev.similarity.jaccard,
                    ev.similarity.spearman.map(|s| s.rho).unwrap_or(f64::NAN),
                )
            })
            .collect()
    });

    ListSource::ALL
        .iter()
        .enumerate()
        .map(|(si, &source)| TemporalSeries {
            source,
            jaccard: day_rows.iter().map(|row| row[si].0).collect(),
            spearman: day_rows.iter().map(|row| row[si].1).collect(),
            weekend: weekend.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    #[test]
    fn series_cover_every_day() {
        let s = Study::run(WorldConfig::tiny(271)).unwrap();
        let series = figure3(&s, 40);
        assert_eq!(series.len(), 7);
        for ts in &series {
            assert_eq!(ts.jaccard.len(), 7);
            assert!(ts.jaccard.iter().all(|v| (0.0..=1.0).contains(v)));
            if ts.source == ListSource::Crux {
                assert!(ts.spearman.iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn list_ordering_stable_over_days() {
        // The paper: daily variation rarely changes which list is best.
        let s = Study::run(WorldConfig::small(272)).unwrap();
        let k = s.world.sites.len() / 10;
        let series = figure3(&s, k);
        let crux = series
            .iter()
            .find(|t| t.source == ListSource::Crux)
            .unwrap();
        let secrank = series
            .iter()
            .find(|t| t.source == ListSource::Secrank)
            .unwrap();
        let days_crux_wins = crux
            .jaccard
            .iter()
            .zip(&secrank.jaccard)
            .filter(|(c, s)| c > s)
            .count();
        assert!(
            days_crux_wins * 10 >= crux.jaccard.len() * 9,
            "CrUX should beat Secrank on ~every day ({days_crux_wins}/{})",
            crux.jaccard.len()
        );
    }

    #[test]
    fn splits_computable_on_full_window() {
        let s = Study::run(WorldConfig {
            n_sites: 800,
            n_clients: 500,
            ..WorldConfig::small(273)
        })
        .unwrap();
        let series = figure3(&s, 80);
        for ts in series {
            let split = ts.jaccard_split().unwrap();
            assert!(split.weekday_mean.is_finite() && split.weekend_mean.is_finite());
        }
    }
}
