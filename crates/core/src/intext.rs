//! Reproduces the paper's *in-text* numbers from Section 3.2–3.3 — the
//! redundancy findings that justified collapsing 21 filter-aggregation
//! combinations down to seven:
//!
//! * all requests vs 200-only: ρ ≈ 0.97, JI ≈ 0.84 ("the vast majority of
//!   requests are successful");
//! * empty-referer… vs top-5 browsers: ρ ≈ 0.92, JI ≈ 0.77 (we report the
//!   referer filter against top-browsers, its published proxy);
//! * unique IP vs unique (IP, UA): ρ ≈ 0.99, JI ≈ 0.95 ("nearly identical");
//! * the bookends, all requests vs root page: ρ ≈ 0.41, JI ≈ 0.28 (the least
//!   correlated pair).

use topple_vantage::{CfAgg, CfFilter, CfMetric};

use crate::compare::{similarity_ids, IdCut};
use crate::error::CoreError;
use crate::study::Study;

/// One §3.2 redundancy pair with measured agreement.
#[derive(Debug, Clone)]
pub struct RedundancyPair {
    /// Human-readable description matching the paper's sentence.
    pub claim: &'static str,
    /// First metric.
    pub a: CfMetric,
    /// Second metric.
    pub b: CfMetric,
    /// Paper's reported Spearman ρ.
    pub paper_rho: f64,
    /// Paper's reported Jaccard index.
    pub paper_ji: f64,
    /// Measured Spearman ρ (single day, like the paper's Figure 8 run).
    pub rho: f64,
    /// Measured Jaccard index.
    pub ji: f64,
}

/// Computes the Section 3.2 pairs on the first day's full metric suite at
/// magnitude `k`.
pub fn section_3_2(study: &Study, k: usize) -> Result<Vec<RedundancyPair>, CoreError> {
    let day = study.cdn.first_day().ok_or(CoreError::EmptyWindow)?;
    let specs: [(&'static str, CfMetric, CfMetric, f64, f64); 4] = [
        (
            "non-200 filtering does not appreciably affect results",
            CfMetric {
                filter: CfFilter::AllRequests,
                agg: CfAgg::Raw,
            },
            CfMetric {
                filter: CfFilter::Status200,
                agg: CfAgg::Raw,
            },
            0.97,
            0.84,
        ),
        (
            "referer filter is similar to top-5 browsers",
            CfMetric {
                filter: CfFilter::Referer,
                agg: CfAgg::Raw,
            },
            CfMetric {
                filter: CfFilter::TopBrowsers,
                agg: CfAgg::Raw,
            },
            0.92,
            0.77,
        ),
        (
            "unique IP is nearly identical to unique (IP, UA)",
            CfMetric {
                filter: CfFilter::AllRequests,
                agg: CfAgg::UniqueIp,
            },
            CfMetric {
                filter: CfFilter::AllRequests,
                agg: CfAgg::UniqueIpUa,
            },
            0.99,
            0.95,
        ),
        (
            "the page-load bookends disagree most",
            CfMetric {
                filter: CfFilter::AllRequests,
                agg: CfAgg::Raw,
            },
            CfMetric {
                filter: CfFilter::RootPage,
                agg: CfAgg::Raw,
            },
            0.41,
            0.28,
        ),
    ];
    let pairs = specs
        .into_iter()
        .map(|(claim, a, b, paper_rho, paper_ji)| {
            let ra = study.index().cf_ranked_ids(&day.metric(a));
            let rb = study.index().cf_ranked_ids(&day.metric(b));
            let sa = IdCut::new(&ra[..k.min(ra.len())]);
            let sb = IdCut::new(&rb[..k.min(rb.len())]);
            let sim = similarity_ids(&sa, &sb);
            RedundancyPair {
                claim,
                a,
                b,
                paper_rho,
                paper_ji,
                rho: sim.spearman.map(|s| s.rho).unwrap_or(f64::NAN),
                ji: sim.jaccard,
            }
        })
        .collect();
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    #[test]
    fn redundancy_pairs_match_paper_shape() {
        let s = Study::run(WorldConfig::small(601)).unwrap();
        let k = s.world.sites.len() / 10;
        let pairs = section_3_2(&s, k).unwrap();
        assert_eq!(pairs.len(), 4);
        // Redundant pairs correlate strongly…
        assert!(pairs[0].rho > 0.9, "all vs 200: {}", pairs[0].rho);
        assert!(pairs[1].rho > 0.85, "referer vs top5: {}", pairs[1].rho);
        assert!(pairs[2].rho > 0.95, "ip vs ip-ua: {}", pairs[2].rho);
        // …and the bookends are the weakest of the four.
        let bookends = pairs[3].rho;
        for p in &pairs[..3] {
            assert!(bookends < p.rho, "bookends ({bookends}) must be weakest");
        }
        // Jaccard ordering mirrors Spearman ordering across the pairs.
        assert!(pairs[3].ji < pairs[2].ji);
    }
}
