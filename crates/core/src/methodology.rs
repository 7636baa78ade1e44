//! The paper's core evaluation methodology (Section 4.3): compare each top
//! list against Cloudflare metrics *on the subset of Cloudflare-served
//! sites*, head-to-head at equal sizes.
//!
//! For a top list `L` and magnitude `k`: take `L`'s top-`k` normalized
//! domains, keep the `n ≤ k` of them that the `cf_ray` probe confirms are
//! Cloudflare-served, and compare that ranked subset against the top-`n`
//! Cloudflare domains under the metric being evaluated.
//!
//! There is one scoring path, [`against_cloudflare_ids`], over id columns.
//! The study's own lists come as [`ListColumns`] from
//! [`StudyIndex::monthly`](crate::StudyIndex::monthly) and
//! [`daily`](crate::StudyIndex::daily). A list that never entered the
//! study's table (an ablation's counterfactual, an external file) gets its
//! columns from [`StudyIndex::columns_for`](crate::StudyIndex::columns_for),
//! which gives its unknown names tail ids that match no CDN ranking.

use topple_lists::DomainId;

use crate::compare::{similarity_ids, IdCut, ListSimilarity};
use crate::index::ListColumns;

/// Result of evaluating one list against one Cloudflare metric at one
/// magnitude.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// Jaccard + Spearman of the head-to-head comparison.
    pub similarity: ListSimilarity,
    /// How many of the list's top-k domains were Cloudflare-served (the `n`
    /// of the head-to-head).
    pub cf_subset_size: usize,
    /// The magnitude `k` evaluated.
    pub magnitude: usize,
}

/// Evaluates a list's columns against one ranked Cloudflare metric
/// (best-first ids, as [`Study::cf_monthly_ids`](crate::Study::cf_monthly_ids)
/// returns them) at magnitude
/// `k`. The list's CF subset is a precomputed prefix view
/// ([`ListColumns::cf_subset_ids`]) and the head-to-head runs over id cuts.
pub fn against_cloudflare_ids(list: &ListColumns, cf_ranked: &[DomainId], k: usize) -> Evaluation {
    let subset = list.cf_subset_ids(k);
    let n = subset.len();
    let cf_top = &cf_ranked[..n.min(cf_ranked.len())];
    let mut sim = similarity_ids(&IdCut::new(subset), &IdCut::new(cf_top));
    if !list.ordered {
        // Rank-magnitude lists (CrUX) cannot be rank-correlated (Section 4.4).
        sim.spearman = None;
    }
    Evaluation {
        similarity: sim,
        cf_subset_size: n,
        magnitude: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::Study;
    use topple_lists::ListSource;
    use topple_sim::WorldConfig;
    use topple_vantage::CfMetric;

    fn study() -> Study {
        Study::run(WorldConfig::tiny(211)).unwrap()
    }

    #[test]
    fn subset_contains_only_cf_domains() {
        let s = study();
        let subset = s.index().monthly(ListSource::Tranco).cf_subset_ids(100);
        assert!(!subset.is_empty());
        for &id in subset {
            assert!(s.world.is_cloudflare(s.index().table().name(id)));
        }
    }

    #[test]
    fn head_to_head_sizes_match() {
        let s = study();
        let cf = s.cf_monthly_ids(CfMetric::final_seven()[0]);
        let ev = against_cloudflare_ids(s.index().monthly(ListSource::Umbrella), &cf, 100);
        assert_eq!(ev.magnitude, 100);
        assert!(ev.cf_subset_size <= 100);
        assert!(ev.similarity.jaccard >= 0.0 && ev.similarity.jaccard <= 1.0);
    }

    #[test]
    fn crux_never_gets_spearman() {
        let s = study();
        let cf = s.cf_monthly_ids(CfMetric::final_seven()[0]);
        let ev = against_cloudflare_ids(s.index().monthly(ListSource::Crux), &cf, 400);
        assert!(ev.similarity.spearman.is_none());
    }

    #[test]
    fn perfect_list_scores_one() {
        // Evaluating the CF metric against itself must give JI = 1, rho = 1.
        let s = study();
        let cf = s.cf_monthly_ids(CfMetric::final_seven()[0]);
        let k = 50.min(cf.len());
        // Build a synthetic list from the CF ranking's names and score it
        // through the overlay, as an external list would be.
        let ranked = topple_lists::RankedList::from_sorted_names(
            ListSource::Tranco,
            cf.iter()
                .take(k)
                .map(|&id| s.index().table().name(id).as_str().to_owned())
                .collect(),
        );
        let norm = topple_lists::normalize_ranked(&s.world.psl, &ranked);
        let entries = norm.entries.iter().map(|(d, v)| (d.as_str(), *v));
        let cols = s.index().columns_for(&s.world, entries, norm.ordered);
        let ev = against_cloudflare_ids(&cols, &cf, k);
        assert!((ev.similarity.jaccard - 1.0).abs() < 1e-12);
        let rho = ev.similarity.spearman.unwrap().rho;
        assert!((rho - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlay_keeps_known_ids_and_probes_the_tail() {
        let s = study();
        let index = s.index();
        let site = s.world.sites.iter().find(|x| x.cloudflare).unwrap();
        let known = site.domain.as_str();
        let origin = format!("https://www.{known}");
        let entries = [
            (known, 1),
            (origin.as_str(), 2),
            ("nowhere-at-all.example", 3),
            ("not a name!", 4),
        ];
        let cols = index.columns_for(&s.world, entries, true);
        let tail = index.table().len() as u32;
        let raw: Vec<u32> = cols.ids.iter().map(|id| id.raw()).collect();
        let site_id = index.table().id(known).unwrap();
        assert_eq!(raw, [site_id.raw(), tail, tail + 1, tail + 2]);
        assert_eq!(cols.values, [1, 2, 3, 4]);
        // The known name keeps its flag; the origin's zone is the CF-served
        // site, so the probe flags it; the others are served by nobody.
        assert_eq!(cols.cf_subset_ids(4), &cols.ids[..2]);
    }
}
