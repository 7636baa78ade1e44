//! String-path vs id-path equivalence: the interned columnar analysis stage
//! must be **byte-identical** (every `f64` bit) to the string-keyed reference
//! implementation it replaced, on real studies and on adversarial synthetic
//! rankings.

use proptest::prelude::*;
use toppling::core::consistency::{self, ConsistencyMatrix};
use toppling::core::{
    against_cloudflare, against_cloudflare_ids, similarity, similarity_ids, IdCut, Study,
};
use toppling::lists::{DomainId, DomainTable, ListSource};
use toppling::psl::DomainName;
use toppling::sim::WorldConfig;
use toppling::vantage::CfMetric;

fn study() -> Study {
    Study::run(WorldConfig::tiny(7001)).expect("study runs")
}

/// The string-path reference for [`consistency::matrix_from_id_rankings`]:
/// a consistency matrix from per-metric best-first domain rankings, one
/// [`similarity`] call per cell.
fn matrix_from_rankings(
    labels: Vec<String>,
    rankings: &[Vec<DomainName>],
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
            let a: Vec<&DomainName> = rankings[i].iter().take(k).collect();
            let b: Vec<&DomainName> = rankings[j].iter().take(k).collect();
            let sim = similarity(&a, &b);
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

/// Asserts two floats are the same bit pattern (NaN-safe, sign-of-zero-safe).
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:?} vs {b:?}");
}

#[test]
fn against_cloudflare_matches_id_path_exactly() {
    let s = study();
    let mags = s.magnitudes();
    for &(_, k) in &mags {
        for metric in CfMetric::final_seven() {
            let cf_domains = s.cf_monthly_domains(metric);
            let cf_ids = s.cf_monthly_ids(metric);
            for &src in ListSource::ALL.iter() {
                let ev_str = against_cloudflare(&s, s.normalized(src), &cf_domains, k);
                let ev_ids = against_cloudflare_ids(s.index().monthly(src), &cf_ids, k);
                let what = format!("{src:?} k={k} {metric:?}");
                assert_eq!(ev_str.cf_subset_size, ev_ids.cf_subset_size, "{what}");
                assert_bits(
                    ev_str.similarity.jaccard,
                    ev_ids.similarity.jaccard,
                    &format!("{what} jaccard"),
                );
                match (ev_str.similarity.spearman, ev_ids.similarity.spearman) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert_bits(a.rho, b.rho, &format!("{what} rho")),
                    (a, b) => panic!("{what}: spearman presence differs: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

#[test]
fn consistency_matrix_matches_id_path_exactly() {
    let s = study();
    let mags = s.magnitudes();
    let k = mags[mags.len() - 2].1;
    let metrics: Vec<CfMetric> = CfMetric::final_seven().to_vec();
    let labels: Vec<String> = metrics.iter().map(|m| format!("{m:?}")).collect();
    let str_rankings: Vec<Vec<DomainName>> =
        metrics.iter().map(|&m| s.cf_monthly_domains(m)).collect();
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

/// Builds parallel string/id rankings from rank-ordered index lists: index
/// `i` becomes the name `d{i}.test` and the id interned for it, so both
/// paths see the same abstract ranking.
fn parallel_rankings(
    table: &mut DomainTable,
    names: &mut Vec<DomainName>,
    ranking: &[u32],
) -> Vec<DomainId> {
    ranking
        .iter()
        .map(|&i| {
            let name: DomainName = format!("d{i}.test").parse().expect("valid name");
            let id = table.intern(&name);
            names.push(name);
            id
        })
        .collect()
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
        let (rank_a, rank_b) = (dedup_first(raw_a), dedup_first(raw_b));
        let mut table = DomainTable::new();
        let mut names_a = Vec::new();
        let mut names_b = Vec::new();
        let ids_a = parallel_rankings(&mut table, &mut names_a, &rank_a);
        let ids_b = parallel_rankings(&mut table, &mut names_b, &rank_b);

        let refs_a: Vec<&DomainName> = names_a.iter().collect();
        let refs_b: Vec<&DomainName> = names_b.iter().collect();
        let sim_str = similarity(&refs_a, &refs_b);
        let sim_ids = similarity_ids(&IdCut::new(&ids_a), &IdCut::new(&ids_b));

        prop_assert_eq!(sim_str.jaccard.to_bits(), sim_ids.jaccard.to_bits());
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
