//! Id path vs string reference: every list comparison runs over interned ids
//! ([`similarity_ids`], [`against_cloudflare_ids`], the ablations' overlay
//! columns), and must be **byte-identical** (every `f64` bit) to the
//! string-keyed implementation it replaced. That implementation lives on
//! here as a test-local reference: Jaccard over two `HashSet<&str>`, and
//! Spearman over the intersection with pairs taken in the second ranking's
//! order and first-ranking positions looked up by name. It is checked on
//! real studies, on the ablations' counterfactual lists and on adversarial
//! synthetic rankings.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use proptest::prelude::*;
use toppling::core::consistency::{self, ConsistencyMatrix};
use toppling::core::{
    ablation, against_cloudflare_ids, similarity_ids, Evaluation, IdCut, ListSimilarity, Study,
};
use toppling::lists::{
    normalize_bucketed, normalize_ranked, tranco, BucketedEntry, BucketedList, DomainId,
    DomainTable, ListSource, RankedList,
};
use toppling::psl::DomainName;
use toppling::sim::{World, WorldConfig};
use toppling::stats::corr::spearman;
use toppling::vantage::{CfMetric, ChromeVantage};

fn study() -> Study {
    Study::run(WorldConfig::tiny(7001)).expect("study runs")
}

/// Jaccard of two hash sets, with the sorted-slice path's empty-set
/// convention (two empty sets score 1.0).
fn hash_jaccard(a: &HashSet<&str>, b: &HashSet<&str>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// The string reference for [`similarity_ids`] over two best-first name
/// rankings.
fn string_similarity(a: &[&str], b: &[&str]) -> ListSimilarity {
    let sa: HashSet<&str> = a.iter().copied().collect();
    let sb: HashSet<&str> = b.iter().copied().collect();
    let pos_a: HashMap<&str, f64> = a
        .iter()
        .enumerate()
        .map(|(i, d)| (*d, i as f64 + 1.0))
        .collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, d) in b.iter().enumerate() {
        if let Some(&ra) = pos_a.get(d) {
            xs.push(ra);
            ys.push(i as f64 + 1.0);
        }
    }
    ListSimilarity {
        jaccard: hash_jaccard(&sa, &sb),
        spearman: spearman(&xs, &ys).ok(),
        intersection: sa.intersection(&sb).count(),
    }
}

/// The string reference for [`against_cloudflare_ids`]: a normalized list's
/// top-`k` cut, filtered by the `cf_ray` probe on each name, compared with
/// the first `n` names of the CDN ranking.
fn string_against_cloudflare(
    world: &World,
    entries: &[(DomainName, u32)],
    ordered: bool,
    cf_ranked: &[&str],
    k: usize,
) -> Evaluation {
    let cut = if ordered {
        k.min(entries.len())
    } else {
        entries.partition_point(|(_, b)| *b as usize <= k)
    };
    let subset: Vec<&str> = entries[..cut]
        .iter()
        .filter(|(d, _)| world.is_cloudflare(d))
        .map(|(d, _)| d.as_str())
        .collect();
    let n = subset.len();
    let mut similarity = string_similarity(&subset, &cf_ranked[..n.min(cf_ranked.len())]);
    if !ordered {
        similarity.spearman = None;
    }
    Evaluation {
        similarity,
        cf_subset_size: n,
        magnitude: k,
    }
}

/// A monthly CDN ranking as names, read through the study's table.
fn cf_names(s: &Study, metric: CfMetric) -> Vec<&str> {
    let ids = s.cf_monthly_ids(metric);
    ids.into_iter()
        .map(|id| s.index().table().name(id).as_str())
        .collect()
}

/// Asserts two floats are the same bit pattern (NaN-safe, sign-of-zero-safe).
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:?} vs {b:?}");
}

fn assert_same_similarity(reference: &ListSimilarity, ids: &ListSimilarity, what: &str) {
    assert_bits(reference.jaccard, ids.jaccard, &format!("{what} jaccard"));
    assert_eq!(
        reference.intersection, ids.intersection,
        "{what} intersection"
    );
    match (reference.spearman, ids.spearman) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_bits(a.rho, b.rho, &format!("{what} rho"));
            assert_eq!(a.n, b.n, "{what} spearman n");
        }
        (a, b) => panic!("{what}: spearman presence differs: {a:?} vs {b:?}"),
    }
}

#[test]
fn against_cloudflare_matches_id_path_exactly() {
    let s = study();
    let mags = s.magnitudes();
    for &(_, k) in &mags {
        for metric in CfMetric::final_seven() {
            let cf = cf_names(&s, metric);
            let cf_ids = s.cf_monthly_ids(metric);
            for &src in ListSource::ALL.iter() {
                let norm = s.normalized(src);
                let ev_str =
                    string_against_cloudflare(&s.world, &norm.entries, norm.ordered, &cf, k);
                let ev_ids = against_cloudflare_ids(s.index().monthly(src), &cf_ids, k);
                let what = format!("{src:?} k={k} {metric:?}");
                assert_eq!(ev_str.cf_subset_size, ev_ids.cf_subset_size, "{what}");
                assert_same_similarity(&ev_str.similarity, &ev_ids.similarity, &what);
            }
        }
    }
}

/// The string reference for [`consistency::matrix_from_id_rankings`]: a
/// consistency matrix from per-metric best-first name rankings, one
/// reference comparison per cell.
fn matrix_from_rankings(
    labels: Vec<String>,
    rankings: &[Vec<&str>],
    k: usize,
) -> ConsistencyMatrix {
    let n = rankings.len();
    let mut jaccard = vec![vec![0.0; n]; n];
    let mut spearman = vec![vec![f64::NAN; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                jaccard[i][j] = 1.0;
                spearman[i][j] = 1.0;
                continue;
            }
            let a = &rankings[i][..k.min(rankings[i].len())];
            let b = &rankings[j][..k.min(rankings[j].len())];
            let sim = string_similarity(a, b);
            jaccard[i][j] = sim.jaccard;
            spearman[i][j] = sim.spearman.map(|s| s.rho).unwrap_or(f64::NAN);
        }
    }
    ConsistencyMatrix {
        labels,
        jaccard,
        spearman,
        k,
    }
}

#[test]
fn consistency_matrix_matches_id_path_exactly() {
    let s = study();
    let mags = s.magnitudes();
    let k = mags[mags.len() - 2].1;
    let metrics: Vec<CfMetric> = CfMetric::final_seven().to_vec();
    let labels: Vec<String> = metrics.iter().map(|m| format!("{m:?}")).collect();
    let str_rankings: Vec<Vec<&str>> = metrics.iter().map(|&m| cf_names(&s, m)).collect();
    let id_rankings: Vec<Vec<DomainId>> = metrics.iter().map(|&m| s.cf_monthly_ids(m)).collect();

    let reference = matrix_from_rankings(labels.clone(), &str_rankings, k);
    for workers in [1usize, 2, 8] {
        let interned =
            consistency::matrix_from_id_rankings(labels.clone(), &id_rankings, k, workers);
        for i in 0..metrics.len() {
            for j in 0..metrics.len() {
                assert_bits(
                    reference.jaccard[i][j],
                    interned.jaccard[i][j],
                    &format!("jaccard[{i}][{j}] workers={workers}"),
                );
                assert_bits(
                    reference.spearman[i][j],
                    interned.spearman[i][j],
                    &format!("spearman[{i}][{j}] workers={workers}"),
                );
            }
        }
    }
}

// ---- the ablations' counterfactual lists ----

/// Small studies the ablations are checked on: the default experiments seed
/// and two others.
fn ablation_studies() -> &'static [Study] {
    static STUDIES: OnceLock<Vec<Study>> = OnceLock::new();
    STUDIES.get_or_init(|| {
        [301, 20220201, 7]
            .into_iter()
            .map(|seed| Study::run(WorldConfig::small(seed)).expect("study runs"))
            .collect()
    })
}

/// Magnitudes n/10 (the `ablate` default), n/40 and 3n/10 for a world of
/// `n` sites.
fn ablation_ks(s: &Study) -> [usize; 3] {
    let n = s.world.sites.len();
    [n / 10, n / 40, 3 * n / 10]
}

/// The all-requests monthly ranking every ablation scores against.
fn all_requests(s: &Study) -> Vec<&str> {
    cf_names(s, CfMetric::final_seven()[0])
}

/// The string reference for [`ablation::normalization`]: `(normalized, raw)`
/// per list. The raw column intersects each list's top-`k` published names,
/// kept when the `cf_ray` probe finds their zone CDN-served, with the top
/// `n` CDN names as strings; no CDN-served name scores 0.
fn string_normalization(s: &Study, k: usize) -> Vec<(f64, f64)> {
    let cf = all_requests(s);
    let alexa_month = s.alexa_daily.last().expect("non-empty window");
    let umbrella_month = s.umbrella_daily.last().expect("non-empty window");
    ListSource::ALL
        .iter()
        .map(|&source| {
            let norm = s.normalized(source);
            let normalized =
                string_against_cloudflare(&s.world, &norm.entries, norm.ordered, &cf, k)
                    .similarity
                    .jaccard;
            let raw_names: Vec<&str> = match source {
                ListSource::Alexa => alexa_month.top_names(k).collect(),
                ListSource::Umbrella => umbrella_month.top_names(k).collect(),
                ListSource::Majestic => s.majestic.top_names(k).collect(),
                ListSource::Secrank => s.secrank.top_names(k).collect(),
                ListSource::Tranco => s.tranco.top_names(k).collect(),
                ListSource::Trexa => s.trexa.top_names(k).collect(),
                ListSource::Crux => s
                    .crux
                    .entries
                    .iter()
                    .filter(|e| e.bucket <= k as u32)
                    .map(|e| e.name.as_str())
                    .collect(),
            };
            let raw_cf: Vec<&str> = raw_names
                .into_iter()
                .filter(|n| {
                    let host = n.split_once("://").map(|(_, rest)| rest).unwrap_or(n);
                    host.parse::<DomainName>()
                        .ok()
                        .and_then(|d| s.world.psl.registrable_domain(&d).or(Some(d)))
                        .map(|d| s.world.is_cloudflare(&d))
                        .unwrap_or(false)
                })
                .collect();
            let n = raw_cf.len();
            let cf_set: HashSet<&str> = cf.iter().take(n).copied().collect();
            let raw_set: HashSet<&str> = raw_cf.into_iter().collect();
            let raw = if n == 0 {
                0.0
            } else {
                hash_jaccard(&raw_set, &cf_set)
            };
            (normalized, raw)
        })
        .collect()
}

#[test]
fn normalization_ablation_matches_string_reference_bit_for_bit() {
    for s in ablation_studies() {
        for k in ablation_ks(s) {
            let rows = ablation::normalization(s, k).expect("non-empty window");
            let reference = string_normalization(s, k);
            assert_eq!(rows.len(), reference.len());
            for (row, &(normalized, raw)) in rows.iter().zip(&reference) {
                let what = format!("seed {} k={k} {}", s.world.config.seed, row.source);
                assert_bits(normalized, row.normalized, &format!("{what} normalized"));
                assert_bits(raw, row.raw, &format!("{what} raw"));
            }
        }
    }
}

#[test]
fn tranco_window_ablation_matches_string_reference_bit_for_bit() {
    let windows = [1, 3, 7, 14, 28];
    for s in ablation_studies() {
        let cf = all_requests(s);
        for k in ablation_ks(s) {
            let sweep = ablation::tranco_window(s, &windows, k);
            assert_eq!(sweep.len(), windows.len());
            let n_days = s.alexa_daily.len();
            for (&w, &(got_w, ji)) in windows.iter().zip(&sweep) {
                let w = w.min(n_days);
                assert_eq!(got_w, w);
                let mut inputs: Vec<&RankedList> = Vec::new();
                inputs.extend(s.alexa_daily[n_days - w..].iter());
                inputs.extend(s.umbrella_daily[n_days - w..].iter());
                inputs.extend(std::iter::repeat_n(&s.majestic, w));
                let list = tranco::build(&inputs, s.world.sites.len());
                let norm = normalize_ranked(&s.world.psl, &list);
                let reference = string_against_cloudflare(&s.world, &norm.entries, true, &cf, k);
                let what = format!("seed {} k={k} window {w}", s.world.config.seed);
                assert_bits(reference.similarity.jaccard, ji, &what);
            }
        }
    }
}

#[test]
fn crux_threshold_ablation_matches_string_reference_bit_for_bit() {
    let thresholds = [1, 2, 3, 5, 10, 25];
    for s in ablation_studies() {
        let cf = all_requests(s);
        let magnitudes: Vec<usize> = s.magnitudes().iter().map(|&(_, m)| m).collect();
        for k in ablation_ks(s) {
            let sweep = ablation::crux_threshold(s, &thresholds, k);
            assert_eq!(sweep.len(), thresholds.len());
            for (&t, &(got_t, len, ji)) in thresholds.iter().zip(&sweep) {
                assert_eq!(got_t, t);
                let mut entries = Vec::new();
                for (pos, (origin, _)) in s.chrome.global_completed_list(t).iter().enumerate() {
                    let Some(&bucket) = magnitudes.iter().find(|&&m| pos < m) else {
                        break;
                    };
                    entries.push(BucketedEntry {
                        name: ChromeVantage::origin_text(&s.world, *origin),
                        bucket: bucket as u32,
                    });
                }
                let list = BucketedList {
                    source: ListSource::Crux,
                    entries,
                };
                let norm = normalize_bucketed(&s.world.psl, &list);
                let reference = string_against_cloudflare(&s.world, &norm.entries, false, &cf, k);
                let what = format!("seed {} k={k} threshold {t}", s.world.config.seed);
                assert_eq!(len, list.len(), "{what} list size");
                assert_bits(reference.similarity.jaccard, ji, &what);
            }
        }
    }
}

// ---- synthetic rankings ----

/// Interns two name rankings into one shared table and compares them on
/// both paths.
fn both_paths(a: &[&str], b: &[&str]) -> (ListSimilarity, ListSimilarity) {
    let mut table = DomainTable::new();
    let mut intern = |names: &[&str]| -> Vec<DomainId> {
        names
            .iter()
            .map(|n| table.intern(&n.parse::<DomainName>().expect("valid name")))
            .collect()
    };
    let (ia, ib) = (intern(a), intern(b));
    let ids = similarity_ids(&IdCut::new(&ia), &IdCut::new(&ib));
    (string_similarity(a, b), ids)
}

#[test]
fn fixed_rankings_match_the_string_reference() {
    let cases: [(&[&str], &[&str]); 5] = [
        (
            &["a.com", "b.com", "c.com", "d.com"],
            &["b.com", "a.com", "c.com", "e.com"],
        ),
        (&["a.com", "b.com"], &["c.com", "d.com"]),
        (&[], &[]),
        (&["a.com"], &[]),
        (
            &["e.com", "d.com", "c.com", "b.com", "a.com"],
            &["a.com", "b.com", "c.com", "d.com", "e.com"],
        ),
    ];
    for (a, b) in cases {
        let (reference, ids) = both_paths(a, b);
        assert_same_similarity(&reference, &ids, &format!("{a:?} vs {b:?}"));
    }
}

/// Keeps the first occurrence of each value, preserving order — turns an
/// arbitrary u32 vector into a valid (unique-entry) best-first ranking.
fn dedup_first(v: Vec<u32>) -> Vec<u32> {
    let mut seen = std::collections::BTreeSet::new();
    v.into_iter().filter(|&x| seen.insert(x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn similarity_bits_match_on_synthetic_rankings(
        raw_a in proptest::collection::vec(0u32..300, 0..120),
        raw_b in proptest::collection::vec(0u32..300, 0..120),
    ) {
        // Index `i` becomes the name `d{i}.test`, so both paths see the same
        // abstract ranking.
        let names = |ranking: Vec<u32>| -> Vec<String> {
            dedup_first(ranking).into_iter().map(|i| format!("d{i}.test")).collect()
        };
        let (names_a, names_b) = (names(raw_a), names(raw_b));
        let refs_a: Vec<&str> = names_a.iter().map(String::as_str).collect();
        let refs_b: Vec<&str> = names_b.iter().map(String::as_str).collect();
        let (sim_str, sim_ids) = both_paths(&refs_a, &refs_b);

        prop_assert_eq!(sim_str.jaccard.to_bits(), sim_ids.jaccard.to_bits());
        prop_assert_eq!(sim_str.intersection, sim_ids.intersection);
        match (sim_str.spearman, sim_ids.spearman) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.rho.to_bits(), b.rho.to_bits());
                prop_assert_eq!(a.n, b.n);
            }
            (a, b) => prop_assert!(false, "spearman presence differs: {:?} vs {:?}", a, b),
        }
    }
}
