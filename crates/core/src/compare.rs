//! List-comparison primitives: Jaccard on top-k sets, Spearman on ranks of
//! the intersection (Section 4.3–4.4).
//!
//! One path lives here: a best-first ranking of interned ids becomes an
//! [`IdCut`] (ids sorted, with each id's rank alongside), and
//! [`similarity_ids`] compares two cuts by sorted-slice merge-walk. Every
//! list the analyses score has ids, the study's own through its
//! [`DomainTable`](topple_lists::DomainTable) and any other through
//! [`StudyIndex::columns_for`](crate::StudyIndex::columns_for).
//! `tests/analysis_equivalence.rs` pins this path bit for bit to a
//! test-local string-set reference.

use topple_lists::DomainId;
use topple_stats::corr::{spearman, Spearman};
use topple_stats::sets::jaccard_sorted;

/// Both similarity measures for one comparison.
#[derive(Debug, Clone, Copy)]
pub struct ListSimilarity {
    /// Jaccard index of the sets.
    pub jaccard: f64,
    /// Spearman correlation of the intersection's ranks (None when
    /// uncomputable — tiny intersection or a bucketed list).
    pub spearman: Option<Spearman>,
    /// Size of the intersection.
    pub intersection: usize,
}

/// One best-first ranking cut, prepared for merge-walk comparison: ids sorted
/// ascending with each id's 0-based rank within the cut alongside.
///
/// Building a cut is one sort of a `u32` pair column; comparing two cuts is a
/// single allocation-light merge-walk — no hashing, regardless of how many
/// times the cut is reused.
#[derive(Debug, Clone, Default)]
pub struct IdCut {
    ids: Vec<u32>,
    pos: Vec<u32>,
}

impl IdCut {
    /// Prepares a cut from a best-first id ranking (entries must be unique,
    /// as list cuts are).
    pub fn new(ranked: &[DomainId]) -> Self {
        let mut pairs: Vec<(u32, u32)> = ranked
            .iter()
            .enumerate()
            .map(|(i, id)| (id.raw(), i as u32))
            .collect();
        pairs.sort_unstable();
        IdCut {
            ids: pairs.iter().map(|&(id, _)| id).collect(),
            pos: pairs.iter().map(|&(_, p)| p).collect(),
        }
    }

    /// The sorted id column (for direct `jaccard_sorted` use).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The 0-based rank of `id` within the cut's best-first ordering, or
    /// `None` when the id is not in the cut. One binary search — this is the
    /// point-lookup the query daemon serves `/v1/rank` from.
    pub fn rank_of(&self, id: u32) -> Option<u32> {
        let at = self.ids.binary_search(&id).ok()?;
        self.pos.get(at).copied()
    }

    /// Number of entries in the cut.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the cut is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Computes Jaccard and Spearman between two prepared cuts.
///
/// The Jaccard arithmetic is `topple_stats::sets::jaccard_sorted` (two empty
/// cuts score 1.0). Spearman runs over the intersection only (the paper's
/// "operates on only their intersection"): the merge-walk collects each
/// shared id's `(rank_in_a, rank_in_b)` pair and feeds the pairs **ordered
/// by rank-in-b**, a fixed summation order, so every output bit is
/// reproducible. It is `None` when the intersection is too small (< 3) or
/// degenerate.
pub fn similarity_ids(a: &IdCut, b: &IdCut) -> ListSimilarity {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    let mut j = 0;
    while i < a.ids.len() && j < b.ids.len() {
        match a.ids[i].cmp(&b.ids[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                pairs.push((a.pos[i], b.pos[j]));
                i += 1;
                j += 1;
            }
        }
    }
    pairs.sort_unstable_by_key(|&(_, pb)| pb);
    let xs: Vec<f64> = pairs.iter().map(|&(pa, _)| pa as f64 + 1.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|&(_, pb)| pb as f64 + 1.0).collect();
    ListSimilarity {
        jaccard: jaccard_sorted(&a.ids, &b.ids),
        spearman: spearman(&xs, &ys).ok(),
        intersection: pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_lists::DomainTable;
    use topple_psl::DomainName;

    /// Interns name rankings into one shared table and cuts them.
    fn cuts(a: &[&str], b: &[&str]) -> (IdCut, IdCut) {
        let mut table = DomainTable::new();
        let mut ids = |names: &[&str]| -> Vec<DomainId> {
            names
                .iter()
                .map(|n| table.intern(&n.parse::<DomainName>().unwrap()))
                .collect()
        };
        let (ia, ib) = (ids(a), ids(b));
        (IdCut::new(&ia), IdCut::new(&ib))
    }

    fn sim(a: &[&str], b: &[&str]) -> ListSimilarity {
        let (ca, cb) = cuts(a, b);
        similarity_ids(&ca, &cb)
    }

    #[test]
    fn jaccard_of_identical_rankings() {
        let a = ["a.com", "b.com", "c.com"];
        assert_eq!(sim(&a, &a).jaccard, 1.0);
    }

    #[test]
    fn spearman_of_same_order_is_one() {
        let a = ["a.com", "b.com", "c.com", "d.com", "e.com"];
        let s = sim(&a, &a).spearman.unwrap();
        assert!((s.rho - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn spearman_of_reversed_order_is_minus_one() {
        let a = ["a.com", "b.com", "c.com", "d.com"];
        let rev = ["d.com", "c.com", "b.com", "a.com"];
        let s = sim(&a, &rev).spearman.unwrap();
        assert!((s.rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_ignores_non_intersecting() {
        // b shares only 4 of a's domains, in the same relative order, plus
        // noise entries that must not affect the result.
        let a = ["a.com", "b.com", "c.com", "d.com"];
        let b = [
            "x.com", "a.com", "y.com", "b.com", "c.com", "z.com", "d.com",
        ];
        let s = sim(&a, &b).spearman.unwrap();
        assert!((s.rho - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn tiny_intersection_yields_none() {
        assert!(sim(&["a.com", "b.com"], &["a.com", "x.com"])
            .spearman
            .is_none());
    }

    #[test]
    fn similarity_combines_both() {
        let a = ["a.com", "b.com", "c.com", "d.com"];
        let b = ["b.com", "a.com", "c.com", "e.com"];
        let s = sim(&a, &b);
        assert_eq!(s.intersection, 3);
        assert!((s.jaccard - 3.0 / 5.0).abs() < 1e-12);
        assert!(s.spearman.is_some());
    }

    #[test]
    fn rank_of_recovers_list_positions() {
        let (cut, _) = cuts(&["z.com", "a.com", "m.com"], &[]);
        // Interning order makes z.com id 0, a.com id 1, m.com id 2.
        for (pos, id) in [0u32, 1, 2].into_iter().enumerate() {
            assert_eq!(cut.rank_of(id), Some(pos as u32));
        }
        assert_eq!(cut.rank_of(999), None);
    }

    #[test]
    fn id_cut_exposes_sorted_ids() {
        let (cut, _) = cuts(&["z.com", "a.com", "m.com"], &[]);
        assert_eq!(cut.len(), 3);
        assert!(cut.ids().windows(2).all(|w| w[0] < w[1]));
    }
}
