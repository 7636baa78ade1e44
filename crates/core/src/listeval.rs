//! Figure 2: every top list evaluated against the seven Cloudflare metrics.
//!
//! Following Section 4.1, every comparison is computed **per day** — the
//! day's list snapshot against the day's metric scores — and the resulting
//! Jaccard/Spearman values are averaged over the window. Produces the lists
//! × metrics heatmaps plus the per-list JI ranges quoted in Section 5.1, and
//! checks the headline result: all request/requestor metrics rank the lists'
//! accuracy identically (ρ = 1.0 between metric orderings).

use topple_lists::{DomainId, ListSource};
use topple_stats::corr::spearman;
use topple_stats::fanout::map_ordered;
use topple_vantage::CfMetric;

use crate::error::CoreError;
use crate::methodology::against_cloudflare_ids;
use crate::study::Study;

/// The full Figure 2 result.
#[derive(Debug, Clone)]
pub struct ListEvaluation {
    /// Row labels (lists, paper order).
    pub lists: Vec<ListSource>,
    /// Column labels (the seven metrics).
    pub metrics: Vec<CfMetric>,
    /// Jaccard heatmap `[list][metric]`.
    pub jaccard: Vec<Vec<f64>>,
    /// Spearman heatmap `[list][metric]` (NaN for CrUX / tiny intersections).
    pub spearman: Vec<Vec<f64>>,
    /// Magnitude evaluated.
    pub k: usize,
}

impl ListEvaluation {
    /// Jaccard range per list across the seven metrics (the values the paper
    /// quotes as e.g. "CrUX JI = 0.23–0.43").
    pub fn jaccard_ranges(&self) -> Vec<(ListSource, f64, f64)> {
        self.lists
            .iter()
            .enumerate()
            .map(|(i, &src)| {
                let row = &self.jaccard[i];
                let lo = row.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                (src, lo, hi)
            })
            .collect()
    }

    /// The accuracy ordering of lists under one metric (best first), by JI.
    pub fn ordering_under_metric(&self, metric_idx: usize) -> Vec<ListSource> {
        let mut order: Vec<(ListSource, f64)> = self
            .lists
            .iter()
            .enumerate()
            .map(|(i, &src)| (src, self.jaccard[i][metric_idx]))
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1));
        order.into_iter().map(|(s, _)| s).collect()
    }

    /// Spearman correlation between the list-accuracy orderings induced by
    /// each pair of metrics (the paper: ρ = 1.0 for all pairs).
    pub fn metric_agreement(&self) -> Vec<Vec<f64>> {
        let m = self.metrics.len();
        let mut out = vec![vec![1.0; m]; m];
        for (a, row) in out.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                if a == b {
                    continue;
                }
                let xs: Vec<f64> = (0..self.lists.len()).map(|i| self.jaccard[i][a]).collect();
                let ys: Vec<f64> = (0..self.lists.len()).map(|i| self.jaccard[i][b]).collect();
                *cell = spearman(&xs, &ys).map(|s| s.rho).unwrap_or(f64::NAN);
            }
        }
        out
    }
}

/// Daily Jaccard series of one list against one final metric (index into
/// [`CfMetric::final_seven`]) at magnitude `k` — the sample the
/// window-average and its bootstrap confidence interval are computed from.
pub fn daily_ji_series(study: &Study, source: ListSource, metric_idx: usize, k: usize) -> Vec<f64> {
    let n_days = study.world.config.days.len();
    let workers = study.world.config.effective_workers();
    map_ordered(n_days, workers, |day| {
        let cf = study
            .index()
            .cf_ranked_ids(study.cdn.daily_final(metric_idx, day));
        let cols = study.index().daily(source, day);
        against_cloudflare_ids(cols, &cf, k).similarity.jaccard
    })
}

/// Bootstrap 95% confidence interval on a list's window-mean Jaccard against
/// the all-requests metric (resampling days).
pub fn mean_ji_ci(
    study: &Study,
    source: ListSource,
    k: usize,
) -> Result<topple_stats::bootstrap::BootstrapCi, CoreError> {
    let series = daily_ji_series(study, source, 0, k);
    Ok(topple_stats::bootstrap::mean_ci(
        &series,
        1_000,
        0.05,
        study.world.config.seed,
    )?)
}

/// Evaluates every list against every final metric at magnitude `k`,
/// averaging daily comparisons over the window (Section 4.1).
///
/// Days are independent (each reads the study's precomputed daily columns
/// and builds its own grid of cells), so they fan out over the study's
/// worker pool; the window average then folds the per-day grids **in day
/// order**, which keeps every float sum in the sequential order and the
/// result byte-identical at any worker count.
pub fn figure2(study: &Study, k: usize) -> ListEvaluation {
    let metrics: Vec<CfMetric> = CfMetric::final_seven().to_vec();
    let lists: Vec<ListSource> = ListSource::ALL.to_vec();
    let n_days = study.world.config.days.len();
    let workers = study.world.config.effective_workers();
    let mut ji_sum = vec![vec![0.0; metrics.len()]; lists.len()];
    let mut rho_sum = vec![vec![0.0; metrics.len()]; lists.len()];
    let mut rho_n = vec![vec![0usize; metrics.len()]; lists.len()];

    /// One day's cells: `[list][metric] -> (JI, rho)`.
    type DayGrid = Vec<Vec<(f64, Option<f64>)>>;
    // One grid per day, computed in parallel.
    let day_grids: Vec<DayGrid> = map_ordered(n_days, workers, |day| {
        // The day's reference rankings, one per metric.
        let cf_rankings: Vec<Vec<DomainId>> = (0..metrics.len())
            .map(|mi| study.index().cf_ranked_ids(study.cdn.daily_final(mi, day)))
            .collect();
        lists
            .iter()
            .map(|&src| {
                // Daily columns for the providers that publish daily, the
                // static window columns for the rest.
                let cols = study.index().daily(src, day);
                cf_rankings
                    .iter()
                    .map(|cf| {
                        let ev = against_cloudflare_ids(cols, cf, k);
                        (ev.similarity.jaccard, ev.similarity.spearman.map(|s| s.rho))
                    })
                    .collect()
            })
            .collect()
    });

    for grid in day_grids {
        for (li, row) in grid.iter().enumerate() {
            for (mi, &(ji, rho)) in row.iter().enumerate() {
                ji_sum[li][mi] += ji;
                if let Some(r) = rho {
                    rho_sum[li][mi] += r;
                    rho_n[li][mi] += 1;
                }
            }
        }
    }

    let jaccard: Vec<Vec<f64>> = ji_sum
        .into_iter()
        .map(|row| row.into_iter().map(|v| v / n_days as f64).collect())
        .collect();
    let spearman_m: Vec<Vec<f64>> = rho_sum
        .into_iter()
        .zip(rho_n)
        .map(|(row, ns)| {
            row.into_iter()
                .zip(ns)
                .map(|(v, n)| if n > 0 { v / n as f64 } else { f64::NAN })
                .collect()
        })
        .collect();
    ListEvaluation {
        lists,
        metrics,
        jaccard,
        spearman: spearman_m,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    #[test]
    fn shape_and_bounds() {
        let s = Study::run(WorldConfig::tiny(251)).unwrap();
        let ev = figure2(&s, 40);
        assert_eq!(ev.lists.len(), 7);
        assert_eq!(ev.metrics.len(), 7);
        for row in &ev.jaccard {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        // CrUX row must be NaN in the Spearman heatmap.
        let crux_i = ev
            .lists
            .iter()
            .position(|&s| s == ListSource::Crux)
            .unwrap();
        assert!(ev.spearman[crux_i].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn crux_wins_by_jaccard() {
        let s = Study::run(WorldConfig::small(252)).unwrap();
        let k = s.world.sites.len() / 10;
        let ev = figure2(&s, k);
        let mean = |src: ListSource| {
            let i = ev.lists.iter().position(|&x| x == src).unwrap();
            ev.jaccard[i].iter().sum::<f64>() / 7.0
        };
        let crux = mean(ListSource::Crux);
        for other in [ListSource::Alexa, ListSource::Majestic, ListSource::Secrank] {
            assert!(
                crux > mean(other),
                "CrUX ({crux:.3}) should beat {other} ({:.3})",
                mean(other)
            );
        }
    }

    #[test]
    fn metric_orderings_agree() {
        // The paper's headline: metrics agree on which lists are accurate.
        // At small simulation scale adjacent lists (Tranco/Trexa) can swap,
        // so assert strong — not perfect — ordering agreement plus the
        // stable endpoints: CrUX at the top and Secrank at the bottom under
        // every metric.
        let s = Study::run(WorldConfig::small(253)).unwrap();
        let k = s.world.sites.len() / 10;
        let ev = figure2(&s, k);
        let agreement = ev.metric_agreement();
        for (a, row) in agreement.iter().enumerate() {
            for (b, &rho) in row.iter().enumerate() {
                if a != b {
                    assert!(rho > 0.5, "metrics {a} and {b} disagree: rho = {rho}");
                }
            }
        }
        for mi in 0..ev.metrics.len() {
            let order = ev.ordering_under_metric(mi);
            let crux_pos = order.iter().position(|&s| s == ListSource::Crux).unwrap();
            let secrank_pos = order
                .iter()
                .position(|&s| s == ListSource::Secrank)
                .unwrap();
            assert!(
                crux_pos <= 1,
                "CrUX should lead under metric {mi}: pos {crux_pos}"
            );
            assert!(
                secrank_pos >= 4,
                "Secrank should trail under metric {mi}: pos {secrank_pos}"
            );
        }
    }
}
