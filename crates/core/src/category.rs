//! Table 3: odds of website inclusion by category (Section 6.4).
//!
//! For each top list, every domain in the Cloudflare top-`k` (by all HTTP
//! requests, single day) is labelled included/excluded, and a logistic
//! regression of inclusion on a one-hot category indicator yields the odds
//! ratio of that category versus all others. Results are Bonferroni-corrected
//! over the 22 categories and reported only when `p < 0.01` after correction
//! (missing entries in the paper's table).

use topple_lists::ListSource;
use topple_sim::Category;
use topple_stats::logit::{fit_with_intercept, LogitOptions};
use topple_vantage::{CfAgg, CfFilter, CfMetric};

use crate::error::CoreError;
use crate::study::Study;

/// Odds ratio of inclusion for one (list, category) pair.
#[derive(Debug, Clone, Copy)]
pub struct CategoryOdds {
    /// The category.
    pub category: Category,
    /// Odds ratio of inclusion vs all other categories.
    pub odds_ratio: f64,
    /// Raw Wald p-value.
    pub p_value: f64,
    /// Whether the effect survives `p < 0.01` with Bonferroni correction
    /// over the category count (entries failing this print as "–").
    pub significant: bool,
}

/// Table 3 column for one list.
#[derive(Debug, Clone)]
pub struct CategoryColumn {
    /// The list.
    pub source: ListSource,
    /// One row per category (in `Category::ALL` order).
    pub rows: Vec<CategoryOdds>,
}

/// Computes Table 3 at Cloudflare magnitude `k` (the paper uses the top
/// 100K, i.e. the second-largest scaled magnitude, on a single day).
pub fn table3(study: &Study, k: usize) -> Result<Vec<CategoryColumn>, CoreError> {
    // Cloudflare's reference set: top-k domains by day-one all-HTTP-requests.
    let day = study.cdn.first_day().ok_or(CoreError::EmptyWindow)?;
    let mut cf_top = day
        .metric(CfMetric {
            filter: CfFilter::AllRequests,
            agg: CfAgg::Raw,
        })
        .ranked();
    cf_top.truncate(k);

    let columns = ListSource::ALL
        .iter()
        .map(|&source| {
            // Dense membership flag per interned domain id — one pass over
            // the list's id column, then O(1) membership per CF-top site.
            let cols = study.index().monthly(source);
            let mut member = vec![false; study.index().table().len()];
            for id in &cols.ids {
                member[id.index()] = true;
            }
            // Outcome per CF-top domain: included in the list anywhere?
            let outcomes: Vec<f64> = cf_top
                .iter()
                .map(|&site| f64::from(u8::from(member[study.index().site_id(site).index()])))
                .collect();
            let categories: Vec<Category> = cf_top
                .iter()
                .map(|&site| study.world.sites[site.index()].category)
                .collect();
            let rows = Category::ALL
                .iter()
                .map(|&cat| one_category(&outcomes, &categories, cat))
                .collect();
            CategoryColumn { source, rows }
        })
        .collect();
    Ok(columns)
}

fn one_category(outcomes: &[f64], categories: &[Category], cat: Category) -> CategoryOdds {
    let predictor: Vec<f64> = categories
        .iter()
        .map(|&c| f64::from(u8::from(c == cat)))
        .collect();
    // Degenerate designs (category absent, or all outcomes one class within
    // reachable data) are reported as insignificant, like the paper's dashes.
    let has_both_pred = predictor.contains(&1.0) && predictor.contains(&0.0);
    if !has_both_pred {
        return CategoryOdds {
            category: cat,
            odds_ratio: f64::NAN,
            p_value: 1.0,
            significant: false,
        };
    }
    match fit_with_intercept(&[predictor], outcomes, LogitOptions::default()) {
        Ok(fit) => {
            let c = fit.coefficients[1];
            let corrected_threshold = 0.01 / Category::COUNT as f64;
            CategoryOdds {
                category: cat,
                odds_ratio: c.odds_ratio(),
                p_value: c.p_value,
                significant: c.p_value < corrected_threshold && !fit.separation_suspected,
            }
        }
        Err(_) => CategoryOdds {
            category: cat,
            odds_ratio: f64::NAN,
            p_value: 1.0,
            significant: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    fn study() -> Study {
        Study::run(WorldConfig::small(291)).unwrap()
    }

    #[test]
    fn all_lists_and_categories_present() {
        let s = study();
        let t = table3(&s, s.world.sites.len() / 10).unwrap();
        assert_eq!(t.len(), 7);
        for col in &t {
            assert_eq!(col.rows.len(), Category::COUNT);
        }
    }

    #[test]
    fn odds_ratios_are_positive_when_defined() {
        let s = study();
        let t = table3(&s, s.world.sites.len() / 10).unwrap();
        for col in &t {
            for row in &col.rows {
                if row.odds_ratio.is_finite() {
                    assert!(row.odds_ratio > 0.0);
                }
                assert!((0.0..=1.0).contains(&row.p_value));
            }
        }
    }

    #[test]
    fn grey_content_underrepresented_in_panel_list() {
        // Alexa's panel cannot see private-mode traffic: adult sites should
        // show odds ratios below 1 (or be absent) for Alexa, while CrUX
        // should include them at materially better odds.
        let s = study();
        let t = table3(&s, s.world.sites.len() / 10).unwrap();
        let get = |src: ListSource, cat: Category| -> f64 {
            t.iter()
                .find(|c| c.source == src)
                .unwrap()
                .rows
                .iter()
                .find(|r| r.category == cat)
                .unwrap()
                .odds_ratio
        };
        let alexa_adult = get(ListSource::Alexa, Category::Adult);
        let crux_adult = get(ListSource::Crux, Category::Adult);
        if alexa_adult.is_finite() && crux_adult.is_finite() {
            assert!(
                crux_adult > alexa_adult,
                "CrUX adult odds ({crux_adult:.2}) should exceed Alexa ({alexa_adult:.2})"
            );
        }
    }
}
