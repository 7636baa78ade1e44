//! Table 2: percent of raw list entries deviating from their PSL-registrable
//! domain, per magnitude.
//!
//! Domain-aggregated lists (Alexa, Majestic, Secrank, Tranco, Trexa) deviate
//! little; Umbrella (FQDNs) and CrUX (origins) deviate heavily — which is why
//! the normalization step matters and why it can only *under*state those two
//! lists' accuracy (Section 4.2).

use topple_lists::{ListSource, Normalizer};

use crate::error::CoreError;
use crate::study::Study;

/// Deviation of one list at each magnitude.
#[derive(Debug, Clone)]
pub struct DeviationRow {
    /// The list.
    pub source: ListSource,
    /// `(magnitude label, magnitude, percent of raw entries deviating)`.
    pub cells: Vec<(&'static str, usize, f64)>,
}

/// Running deviation counts of a list's raw entries in list order:
/// `prefix[i]` deviate among the first `i`.
fn deviation_prefix<'r>(
    norm: &mut Normalizer<'_>,
    names: impl ExactSizeIterator<Item = &'r str>,
) -> Vec<usize> {
    let mut prefix = Vec::with_capacity(names.len() + 1);
    let mut deviating = 0usize;
    prefix.push(deviating);
    for name in names {
        deviating += usize::from(norm.deviates(name));
        prefix.push(deviating);
    }
    prefix
}

/// Percent of the first `cut` raw entries deviating — the same arithmetic
/// as [`NormalizedList::deviation_percent`](topple_lists::NormalizedList::deviation_percent)
/// over a list truncated to `cut` entries.
fn percent(prefix: &[usize], cut: usize) -> f64 {
    if cut == 0 {
        0.0
    } else {
        100.0 * prefix[cut] as f64 / cut as f64
    }
}

/// Computes Table 2 for every list at the world's scaled magnitudes.
///
/// One [`Normalizer`] is shared across every list, so each distinct raw
/// entry is PSL-mapped exactly once. Each list's per-entry deviation flags
/// are taken once, as a running count; every magnitude is then a prefix of
/// it: the first `k` entries of a ranked list, and CrUX's `bucket ≤ k`
/// entries, which lead its bucket-ascending list.
pub fn table2(study: &Study) -> Result<Vec<DeviationRow>, CoreError> {
    let magnitudes = study.magnitudes();
    let alexa_month = study.alexa_daily.last().ok_or(CoreError::EmptyWindow)?;
    let umbrella_month = study.umbrella_daily.last().ok_or(CoreError::EmptyWindow)?;
    let mut norm = Normalizer::new(&study.world.psl);
    // One row's cells: the running count, and where each magnitude cuts it.
    let cells = |prefix: Vec<usize>, cut: &dyn Fn(usize) -> usize| {
        magnitudes
            .iter()
            .map(|&(label, k)| (label, k, percent(&prefix, cut(k))))
            .collect()
    };
    let rows = ListSource::ALL
        .iter()
        .map(|&source| {
            let ranked = match source {
                ListSource::Alexa => alexa_month,
                ListSource::Umbrella => umbrella_month,
                ListSource::Majestic => &study.majestic,
                ListSource::Secrank => &study.secrank,
                ListSource::Tranco => &study.tranco,
                ListSource::Trexa => &study.trexa,
                ListSource::Crux => {
                    let crux = &study.crux.entries;
                    let prefix = deviation_prefix(&mut norm, crux.iter().map(|e| e.name.as_str()));
                    let cut = |k: usize| crux.partition_point(|e| e.bucket as usize <= k);
                    return DeviationRow {
                        source,
                        cells: cells(prefix, &cut),
                    };
                }
            };
            let names = ranked.entries.iter().map(|e| e.name.as_str());
            let prefix = deviation_prefix(&mut norm, names);
            DeviationRow {
                source,
                cells: cells(prefix, &|k| k.min(ranked.len())),
            }
        })
        .collect();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    #[test]
    fn shape_matches_paper() {
        let s = Study::run(WorldConfig::small(241)).unwrap();
        let rows = table2(&s).unwrap();
        let get = |src: ListSource| -> f64 {
            rows.iter()
                .find(|r| r.source == src)
                .unwrap()
                .cells
                .last()
                .unwrap()
                .2
        };
        // Domain-aggregated lists deviate little…
        for src in [
            ListSource::Alexa,
            ListSource::Majestic,
            ListSource::Secrank,
            ListSource::Trexa,
        ] {
            assert!(get(src) < 20.0, "{src} deviates {:.1}%", get(src));
        }
        // …Umbrella (FQDNs) and CrUX (origins) deviate heavily.
        assert!(
            get(ListSource::Umbrella) > 40.0,
            "Umbrella {:.1}%",
            get(ListSource::Umbrella)
        );
        assert!(
            get(ListSource::Crux) > 40.0,
            "CrUX {:.1}%",
            get(ListSource::Crux)
        );
    }

    /// Reference cell: normalize a truncated clone of the list, as Table 2
    /// was computed before the deviation prefix counts.
    fn reference_table2(study: &Study) -> Vec<DeviationRow> {
        use topple_lists::{BucketedList, RankedList};

        let mut norm = Normalizer::new(&study.world.psl);
        let ranked = |norm: &mut Normalizer<'_>, list: &RankedList, k: usize| {
            let truncated = RankedList {
                source: list.source,
                entries: list.entries.iter().take(k).cloned().collect(),
            };
            norm.ranked(&truncated).deviation_percent()
        };
        let bucketed = |norm: &mut Normalizer<'_>, list: &BucketedList, k: usize| {
            let truncated = BucketedList {
                source: list.source,
                entries: list
                    .entries
                    .iter()
                    .filter(|e| e.bucket as usize <= k)
                    .cloned()
                    .collect(),
            };
            norm.bucketed(&truncated).deviation_percent()
        };
        let alexa = study.alexa_daily.last().unwrap();
        let umbrella = study.umbrella_daily.last().unwrap();
        ListSource::ALL
            .iter()
            .map(|&source| DeviationRow {
                source,
                cells: study
                    .magnitudes()
                    .iter()
                    .map(|&(label, k)| {
                        let pct = match source {
                            ListSource::Alexa => ranked(&mut norm, alexa, k),
                            ListSource::Umbrella => ranked(&mut norm, umbrella, k),
                            ListSource::Majestic => ranked(&mut norm, &study.majestic, k),
                            ListSource::Secrank => ranked(&mut norm, &study.secrank, k),
                            ListSource::Tranco => ranked(&mut norm, &study.tranco, k),
                            ListSource::Trexa => ranked(&mut norm, &study.trexa, k),
                            ListSource::Crux => bucketed(&mut norm, &study.crux, k),
                        };
                        (label, k, pct)
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn prefix_counts_match_the_truncated_clone_bit_for_bit() {
        let s = Study::run(WorldConfig::small(243)).unwrap();
        let got = table2(&s).unwrap();
        let want = reference_table2(&s);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.source, w.source);
            let bits = |r: &DeviationRow| -> Vec<(&str, usize, u64)> {
                r.cells
                    .iter()
                    .map(|&(l, k, p)| (l, k, p.to_bits()))
                    .collect()
            };
            assert_eq!(bits(g), bits(w), "{}", g.source);
        }
    }

    #[test]
    fn values_are_percentages() {
        let s = Study::run(WorldConfig::tiny(242)).unwrap();
        for row in table2(&s).unwrap() {
            for (_, _, pct) in row.cells {
                assert!((0.0..=100.0).contains(&pct));
            }
        }
    }
}
