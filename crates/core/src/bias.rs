//! Figures 4 and 7: top-list performance broken down by client platform and
//! client country, using the Chrome telemetry metrics (Section 6.2–6.3).
//!
//! Lists are compared against each (country, platform) Chrome ranking; cells
//! are then averaged across countries (Figure 4, platform bias) or across
//! platforms (Figure 7, country bias). CrUX is excluded — it derives from the
//! same data source (Section 6.2).

use topple_lists::ListSource;
use topple_sim::{Country, Platform};
use topple_stats::fanout::map_ordered;
use topple_vantage::ChromeMetric;

use crate::compare::{similarity_ids, IdCut};
use crate::consistency::chrome_cell_ids;
use crate::study::Study;

/// Lists evaluated in the bias analyses (everything but CrUX).
pub fn bias_lists() -> Vec<ListSource> {
    ListSource::ALL
        .into_iter()
        .filter(|&s| s != ListSource::Crux)
        .collect()
}

/// One cell of the platform/country bias analysis.
#[derive(Debug, Clone, Copy)]
pub struct BiasCell {
    /// Mean Jaccard across the averaged dimension.
    pub jaccard: f64,
    /// Mean Spearman across the averaged dimension (NaN if never computable).
    pub spearman: f64,
}

/// Figure 4: per-(list, platform) similarity, averaged over countries.
#[derive(Debug, Clone)]
pub struct PlatformBias {
    /// Lists (rows).
    pub lists: Vec<ListSource>,
    /// Platforms (columns): Windows, Android.
    pub platforms: Vec<Platform>,
    /// Cells `[list][platform]`.
    pub cells: Vec<Vec<BiasCell>>,
}

/// Figure 7: per-(list, country) similarity, averaged over platforms.
#[derive(Debug, Clone)]
pub struct CountryBias {
    /// Lists (rows).
    pub lists: Vec<ListSource>,
    /// Countries (columns), Section 6.1's eleven.
    pub countries: Vec<Country>,
    /// Cells `[list][country]`.
    pub cells: Vec<Vec<BiasCell>>,
}

fn cell_similarity(
    study: &Study,
    source: ListSource,
    country: Country,
    platform: Platform,
    metric: ChromeMetric,
    k: usize,
) -> Option<(f64, f64)> {
    let chrome = chrome_cell_ids(
        study,
        country,
        platform,
        metric,
        study.world.config.crux_privacy_threshold,
    );
    if chrome.len() < 5 {
        return None;
    }
    let chrome_top = IdCut::new(&chrome[..k.min(chrome.len())]);
    let list_top = IdCut::new(study.index().monthly(source).top_ids(k));
    let sim = similarity_ids(&list_top, &chrome_top);
    Some((sim.jaccard, sim.spearman.map(|s| s.rho).unwrap_or(f64::NAN)))
}

fn average_cells(samples: &[(f64, f64)]) -> BiasCell {
    let n = samples.len() as f64;
    if samples.is_empty() {
        return BiasCell {
            jaccard: f64::NAN,
            spearman: f64::NAN,
        };
    }
    let j = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let rhos: Vec<f64> = samples
        .iter()
        .map(|s| s.1)
        .filter(|v| !v.is_nan())
        .collect();
    let r = if rhos.is_empty() {
        f64::NAN
    } else {
        rhos.iter().sum::<f64>() / rhos.len() as f64
    };
    BiasCell {
        jaccard: j,
        spearman: r,
    }
}

/// Computes Figure 4 (platform bias) using completed page loads at
/// magnitude `k`. List rows are independent and fan out over the study's
/// worker pool (index-ordered fold, so worker count never shows in output).
pub fn figure4(study: &Study, k: usize) -> PlatformBias {
    let lists = bias_lists();
    let platforms = vec![Platform::Windows, Platform::Android];
    let workers = study.world.config.effective_workers();
    let cells = map_ordered(lists.len(), workers, |li| {
        let src = lists[li];
        platforms
            .iter()
            .map(|&p| {
                let samples: Vec<(f64, f64)> = Country::EVALUATED
                    .iter()
                    .filter_map(|&c| {
                        cell_similarity(study, src, c, p, ChromeMetric::CompletedLoads, k)
                    })
                    .collect();
                average_cells(&samples)
            })
            .collect()
    });
    PlatformBias {
        lists,
        platforms,
        cells,
    }
}

/// Computes Figure 7 (country bias) using completed page loads at
/// magnitude `k`. List rows fan out like [`figure4`]'s.
pub fn figure7(study: &Study, k: usize) -> CountryBias {
    let lists = bias_lists();
    let countries: Vec<Country> = Country::EVALUATED.to_vec();
    let workers = study.world.config.effective_workers();
    let cells = map_ordered(lists.len(), workers, |li| {
        let src = lists[li];
        countries
            .iter()
            .map(|&c| {
                let samples: Vec<(f64, f64)> = [Platform::Windows, Platform::Android]
                    .iter()
                    .filter_map(|&p| {
                        cell_similarity(study, src, c, p, ChromeMetric::CompletedLoads, k)
                    })
                    .collect();
                average_cells(&samples)
            })
            .collect()
    });
    CountryBias {
        lists,
        countries,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    fn study() -> Study {
        Study::run(WorldConfig::small(281)).unwrap()
    }

    #[test]
    fn crux_is_excluded() {
        assert!(!bias_lists().contains(&ListSource::Crux));
        assert_eq!(bias_lists().len(), 6);
    }

    #[test]
    fn figure4_shape() {
        let s = study();
        let f4 = figure4(&s, s.world.sites.len() / 10);
        assert_eq!(f4.platforms, vec![Platform::Windows, Platform::Android]);
        assert_eq!(f4.cells.len(), 6);
        for row in &f4.cells {
            assert_eq!(row.len(), 2);
        }
    }

    #[test]
    fn platform_gap_is_small_and_mostly_desktop_leaning() {
        // The paper: lists approximate desktop behaviour better, but the
        // delta is small. At simulation scale (mobile-majority population;
        // see EXPERIMENTS.md D4) we assert the weaker, robust form: no list
        // is dramatically better on mobile, and the majority do not clearly
        // favour Android. "Clearly" means an absolute Jaccard margin: at
        // this scale the per-platform gaps are hundredths (measured ≤0.017
        // across epochs 1 and 2 at this seed), so a relative threshold
        // degenerates into a coin flip on the epoch's stream realization.
        let s = study();
        let f4 = figure4(&s, s.world.sites.len() / 100);
        let mut android_favoured = 0;
        for (li, list) in f4.lists.iter().enumerate() {
            let win = f4.cells[li][0].jaccard;
            let android = f4.cells[li][1].jaccard;
            if !(win.is_finite() && android.is_finite()) {
                continue;
            }
            assert!(
                win >= android * 0.75,
                "{list}: mobile advantage too large (win={win:.3} android={android:.3})"
            );
            if android > win + 0.025 {
                android_favoured += 1;
            }
        }
        assert!(
            android_favoured * 2 <= f4.lists.len(),
            "most lists should not clearly favour Android ({android_favoured}/{})",
            f4.lists.len()
        );
    }

    #[test]
    fn secrank_matches_china_best() {
        let s = study();
        let f7 = figure7(&s, s.world.sites.len() / 10);
        let li = f7
            .lists
            .iter()
            .position(|&l| l == ListSource::Secrank)
            .unwrap();
        let ci = f7
            .countries
            .iter()
            .position(|&c| c == Country::China)
            .unwrap();
        let china = f7.cells[li][ci].jaccard;
        let others_max = f7.cells[li]
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != ci)
            .map(|(_, c)| c.jaccard)
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        if china.is_finite() && others_max.is_finite() {
            assert!(
                china >= others_max,
                "Secrank should match China best: CN={china:.3}, max other={others_max:.3}"
            );
        }
    }
}
