//! Intra-source metric consistency matrices (Figures 1, 6, and 8).
//!
//! Compares popularity metrics *from the same vantage* against one another:
//! pairwise Jaccard of each metric's top-k set and Spearman of the
//! intersection ranks. Figure 1 runs the paper's chosen seven Cloudflare
//! metrics on a month of data; Figure 8 runs all 21 on a single day;
//! Figure 6 runs the three Chrome metrics per (country, platform) and
//! averages the cells.

use topple_lists::DomainId;
use topple_sim::{Country, Platform};
use topple_stats::fanout::map_ordered;
use topple_vantage::{CfMetric, ChromeMetric};

use crate::compare::{similarity_ids, IdCut};
use crate::error::CoreError;
use crate::study::Study;

/// A labelled square similarity matrix.
#[derive(Debug, Clone)]
pub struct ConsistencyMatrix {
    /// Row/column labels.
    pub labels: Vec<String>,
    /// Pairwise Jaccard indices.
    pub jaccard: Vec<Vec<f64>>,
    /// Pairwise Spearman correlations (NaN where uncomputable).
    pub spearman: Vec<Vec<f64>>,
    /// The magnitude (top-k) compared at.
    pub k: usize,
}

impl ConsistencyMatrix {
    /// Off-diagonal Jaccard range `(min, max)` — the paper's
    /// "intra-Cloudflare band" that external lists are judged against.
    pub fn jaccard_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..self.labels.len() {
            for j in 0..self.labels.len() {
                if i != j {
                    lo = lo.min(self.jaccard[i][j]);
                    hi = hi.max(self.jaccard[i][j]);
                }
            }
        }
        (lo, hi)
    }
}

/// Builds a consistency matrix from per-metric best-first *id* rankings,
/// fanning rows out over `workers` threads.
///
/// Every cell is independent and the fold is row-index-ordered, so the
/// matrix is byte-identical at any worker count (`tests/determinism.rs`).
/// Each ranking's top-`k` cut is prepared once as an [`IdCut`]; cells are
/// then hash-free merge-walks.
pub fn matrix_from_id_rankings(
    labels: Vec<String>,
    rankings: &[Vec<DomainId>],
    k: usize,
    workers: usize,
) -> ConsistencyMatrix {
    let n = rankings.len();
    let cuts: Vec<IdCut> = rankings
        .iter()
        .map(|r| IdCut::new(&r[..k.min(r.len())]))
        .collect();
    let rows = map_ordered(n, workers, |i| {
        let mut jrow = vec![0.0; n];
        let mut srow = vec![f64::NAN; n];
        for j in 0..n {
            if i == j {
                jrow[j] = 1.0;
                srow[j] = 1.0;
                continue;
            }
            let sim = similarity_ids(&cuts[i], &cuts[j]);
            jrow[j] = sim.jaccard;
            srow[j] = sim.spearman.map(|s| s.rho).unwrap_or(f64::NAN);
        }
        (jrow, srow)
    });
    let (jaccard, spearman) = rows.into_iter().unzip();
    ConsistencyMatrix {
        labels,
        jaccard,
        spearman,
        k,
    }
}

/// Figure 1: the paper's seven Cloudflare metrics on month-averaged data.
pub fn intra_cloudflare_final(study: &Study, k: usize) -> ConsistencyMatrix {
    let metrics = CfMetric::final_seven();
    let rankings: Vec<Vec<DomainId>> = metrics.iter().map(|&m| study.cf_monthly_ids(m)).collect();
    matrix_from_id_rankings(
        metrics.iter().map(|m| m.label()).collect(),
        &rankings,
        k,
        study.world.config.effective_workers(),
    )
}

/// Figure 8: all 21 filter-aggregation combinations on the first day.
pub fn intra_cloudflare_full(study: &Study, k: usize) -> Result<ConsistencyMatrix, CoreError> {
    let metrics = CfMetric::full_suite();
    let day = study.cdn.first_day().ok_or(CoreError::EmptyWindow)?;
    let rankings: Vec<Vec<DomainId>> = metrics
        .iter()
        .map(|&m| study.index().cf_ranked_ids(&day.metric(m)))
        .collect();
    Ok(matrix_from_id_rankings(
        metrics.iter().map(|m| m.label()).collect(),
        &rankings,
        k,
        study.world.config.effective_workers(),
    ))
}

/// Figure 6: intra-Chrome consistency — pairwise similarity of the three
/// telemetry metrics computed per (country, platform) cell and averaged.
pub fn intra_chrome(study: &Study, k: usize) -> ConsistencyMatrix {
    let metrics = ChromeMetric::ALL;
    let n = metrics.len();
    let mut jaccard_sum = vec![vec![0.0; n]; n];
    let mut spearman_sum = vec![vec![0.0; n]; n];
    let mut cells = 0.0f64;
    let threshold = study.world.config.crux_privacy_threshold;
    let workers = study.world.config.effective_workers();
    for country in Country::EVALUATED {
        for platform in [Platform::Windows, Platform::Android] {
            // Per-cell rankings, normalized to domains.
            let rankings: Vec<Vec<DomainId>> = metrics
                .iter()
                .map(|&m| chrome_cell_ids(study, country, platform, m, threshold))
                .collect();
            if rankings.iter().any(|r| r.len() < 10) {
                continue; // cell too thin to compare
            }
            let m = matrix_from_id_rankings(
                metrics.iter().map(|x| x.label().to_owned()).collect(),
                &rankings,
                k,
                workers,
            );
            for i in 0..n {
                for j in 0..n {
                    jaccard_sum[i][j] += m.jaccard[i][j];
                    spearman_sum[i][j] += if m.spearman[i][j].is_nan() {
                        0.0
                    } else {
                        m.spearman[i][j]
                    };
                }
            }
            cells += 1.0;
        }
    }
    for row in jaccard_sum.iter_mut().chain(spearman_sum.iter_mut()) {
        for v in row {
            *v /= cells.max(1.0);
        }
    }
    ConsistencyMatrix {
        labels: metrics.iter().map(|m| m.label().to_owned()).collect(),
        jaccard: jaccard_sum,
        spearman: spearman_sum,
        k,
    }
}

/// Best-first id ranking of one Chrome telemetry cell (origins collapsed to
/// registrable domains, keeping each domain's best position).
///
/// Site domains are unique in the world, so deduplicating by site index is
/// exactly "first appearance of the domain name wins", without building a
/// string set per cell.
pub fn chrome_cell_ids(
    study: &Study,
    country: Country,
    platform: Platform,
    metric: ChromeMetric,
    privacy_threshold: u32,
) -> Vec<DomainId> {
    let list = study
        .chrome
        .country_platform_list(country, platform, metric, privacy_threshold);
    let mut seen = vec![false; study.world.sites.len()];
    let mut out = Vec::new();
    for ((site, _host), _score) in list {
        if !seen[site.index()] {
            seen[site.index()] = true;
            out.push(study.index().site_id(site));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    fn study() -> Study {
        Study::run(WorldConfig::tiny(221)).unwrap()
    }

    #[test]
    fn matrices_are_symmetric_with_unit_diagonal() {
        let s = study();
        let m = intra_cloudflare_final(&s, 40);
        assert_eq!(m.labels.len(), 7);
        for i in 0..7 {
            assert!((m.jaccard[i][i] - 1.0).abs() < 1e-12);
            for j in 0..7 {
                assert!((m.jaccard[i][j] - m.jaccard[j][i]).abs() < 1e-12);
                assert!(m.jaccard[i][j] >= 0.0 && m.jaccard[i][j] <= 1.0);
            }
        }
    }

    #[test]
    fn full_suite_has_21_metrics() {
        let s = study();
        let m = intra_cloudflare_full(&s, 40).unwrap();
        assert_eq!(m.labels.len(), 21);
    }

    #[test]
    fn redundant_filters_correlate_strongly() {
        // Section 3.2: all-requests vs 200-only should be nearly identical.
        let s = Study::run(WorldConfig::small(222)).unwrap();
        let m = intra_cloudflare_full(&s, 400).unwrap();
        let idx_all = 0; // all-req/raw
        let idx_200 = CfMetric {
            filter: topple_vantage::CfFilter::Status200,
            agg: topple_vantage::CfAgg::Raw,
        }
        .index();
        assert!(
            m.spearman[idx_all][idx_200] > 0.9,
            "all vs 200-only rho = {}",
            m.spearman[idx_all][idx_200]
        );
        assert!(m.jaccard[idx_all][idx_200] > 0.7);
    }

    #[test]
    fn bookends_disagree_most() {
        // All-requests vs root-page should be among the least-similar pairs
        // of the final seven (Section 3.3).
        let s = Study::run(WorldConfig::small(223)).unwrap();
        let m = intra_cloudflare_final(&s, 400);
        // Index 0 = all-req/raw, index 2 = root-page/raw in final_seven order.
        let bookend_ji = m.jaccard[0][2];
        let (lo, hi) = m.jaccard_range();
        assert!(
            bookend_ji <= (lo + hi) / 2.0,
            "bookends should sit low in the band"
        );
    }

    #[test]
    fn intra_chrome_has_three_metrics() {
        let s = Study::run(WorldConfig::small(224)).unwrap();
        let m = intra_chrome(&s, 400);
        assert_eq!(m.labels.len(), 3);
        // Chrome metrics come from one data source: strong correlation.
        for i in 0..3 {
            for j in 0..3 {
                if i != j && !m.spearman[i][j].is_nan() && m.spearman[i][j] != 0.0 {
                    assert!(
                        m.spearman[i][j] > 0.3,
                        "chrome metrics should correlate: {}",
                        m.spearman[i][j]
                    );
                }
            }
        }
    }
}
