//! List-comparison primitives: Jaccard on top-k sets, Spearman on ranks of
//! the intersection (Section 4.3–4.4).
//!
//! Two equivalent implementations live here. The *string* path
//! ([`similarity`]) hashes domain strings per call; it is the reference
//! semantics and the equivalence tests' oracle. Its one production caller
//! is [`against_cloudflare`](crate::against_cloudflare),
//! which the ablations (`normalization`, `tranco_window`, `crux_threshold`)
//! run on counterfactual lists: those lists never enter the study's
//! [`DomainTable`](topple_lists::DomainTable), so they have no ids. The
//! *id* path ([`IdCut`], [`similarity_ids`]) runs over interned ids with
//! sorted-slice merge-walks and is what the analysis grid uses;
//! `tests/analysis_equivalence.rs` pins the two paths byte-identical.

use std::collections::{HashMap, HashSet};

use topple_lists::DomainId;
use topple_psl::DomainName;
use topple_stats::corr::{spearman, Spearman};
use topple_stats::sets::{jaccard, jaccard_sorted};

/// Spearman rank correlation over the intersection of two rankings.
///
/// `a` and `b` are best-first orderings; ranks are positions within each
/// ordering. Only domains present in both contribute (the paper's
/// "operates on only their intersection"). Returns `None` when the
/// intersection is too small (< 3) or degenerate.
pub fn spearman_intersection(a: &[&DomainName], b: &[&DomainName]) -> Option<Spearman> {
    let pos_a: HashMap<&str, f64> = a
        .iter()
        .enumerate()
        .map(|(i, d)| (d.as_str(), i as f64 + 1.0))
        .collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, d) in b.iter().enumerate() {
        if let Some(&ra) = pos_a.get(d.as_str()) {
            xs.push(ra);
            ys.push(i as f64 + 1.0);
        }
    }
    spearman(&xs, &ys).ok()
}

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

/// Computes Jaccard and Spearman between two best-first domain rankings.
pub fn similarity(a: &[&DomainName], b: &[&DomainName]) -> ListSimilarity {
    // topple-lint: allow(string-set): reference string path, kept for ad-hoc lists and equivalence tests
    let sa: HashSet<&str> = a.iter().map(|d| d.as_str()).collect();
    // topple-lint: allow(string-set): reference string path, kept for ad-hoc lists and equivalence tests
    let sb: HashSet<&str> = b.iter().map(|d| d.as_str()).collect();
    let inter = sa.intersection(&sb).count();
    ListSimilarity {
        jaccard: jaccard(&sa, &sb),
        spearman: spearman_intersection(a, b),
        intersection: inter,
    }
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

/// Computes Jaccard and Spearman between two prepared cuts — the interned
/// equivalent of [`similarity`], byte-identical on equal inputs.
///
/// The Jaccard arithmetic is `topple_stats::sets::jaccard_sorted` (same
/// expression and empty-set convention as the hash path). For Spearman, the
/// merge-walk collects the intersection's `(rank_in_a, rank_in_b)` pairs and
/// feeds them **ordered by rank-in-b**, reproducing the string path's
/// "iterate b in rank order" pair ordering so float summation order — and
/// therefore every output bit — matches.
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

    fn doms(names: &[&str]) -> Vec<DomainName> {
        names.iter().map(|n| n.parse().unwrap()).collect()
    }

    fn refs(d: &[DomainName]) -> Vec<&DomainName> {
        d.iter().collect()
    }

    #[test]
    fn jaccard_of_identical_rankings() {
        let a = doms(&["a.com", "b.com", "c.com"]);
        assert_eq!(similarity(&refs(&a), &refs(&a)).jaccard, 1.0);
    }

    #[test]
    fn spearman_of_same_order_is_one() {
        let a = doms(&["a.com", "b.com", "c.com", "d.com", "e.com"]);
        let s = spearman_intersection(&refs(&a), &refs(&a)).unwrap();
        assert!((s.rho - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn spearman_of_reversed_order_is_minus_one() {
        let a = doms(&["a.com", "b.com", "c.com", "d.com"]);
        let mut rev = a.clone();
        rev.reverse();
        let s = spearman_intersection(&refs(&a), &refs(&rev)).unwrap();
        assert!((s.rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_ignores_non_intersecting() {
        // b shares only 4 of a's domains, in the same relative order, plus
        // noise entries that must not affect the result.
        let a = doms(&["a.com", "b.com", "c.com", "d.com"]);
        let b = doms(&[
            "x.com", "a.com", "y.com", "b.com", "c.com", "z.com", "d.com",
        ]);
        let s = spearman_intersection(&refs(&a), &refs(&b)).unwrap();
        assert!((s.rho - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn tiny_intersection_yields_none() {
        let a = doms(&["a.com", "b.com"]);
        let b = doms(&["a.com", "x.com"]);
        assert!(spearman_intersection(&refs(&a), &refs(&b)).is_none());
    }

    #[test]
    fn similarity_combines_both() {
        let a = doms(&["a.com", "b.com", "c.com", "d.com"]);
        let b = doms(&["b.com", "a.com", "c.com", "e.com"]);
        let sim = similarity(&refs(&a), &refs(&b));
        assert_eq!(sim.intersection, 3);
        assert!((sim.jaccard - 3.0 / 5.0).abs() < 1e-12);
        assert!(sim.spearman.is_some());
    }

    /// Interns name rankings into a shared table and compares both paths.
    fn both_paths(a: &[&str], b: &[&str]) -> (ListSimilarity, ListSimilarity) {
        use topple_lists::DomainTable;
        let da = doms(a);
        let db = doms(b);
        let mut table = DomainTable::new();
        let ia: Vec<DomainId> = da.iter().map(|d| table.intern(d)).collect();
        let ib: Vec<DomainId> = db.iter().map(|d| table.intern(d)).collect();
        let string = similarity(&refs(&da), &refs(&db));
        let ids = similarity_ids(&IdCut::new(&ia), &IdCut::new(&ib));
        (string, ids)
    }

    #[test]
    fn id_path_is_byte_identical_to_string_path() {
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
            let (s, i) = both_paths(a, b);
            assert_eq!(s.jaccard.to_bits(), i.jaccard.to_bits(), "{a:?} vs {b:?}");
            assert_eq!(s.intersection, i.intersection, "{a:?} vs {b:?}");
            match (s.spearman, i.spearman) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.rho.to_bits(), y.rho.to_bits(), "{a:?} vs {b:?}");
                    assert_eq!(x.n, y.n);
                }
                (x, y) => panic!("spearman presence diverged for {a:?} vs {b:?}: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn rank_of_recovers_list_positions() {
        use topple_lists::DomainTable;
        let d = doms(&["z.com", "a.com", "m.com"]);
        let mut table = DomainTable::new();
        let ids: Vec<DomainId> = d.iter().map(|x| table.intern(x)).collect();
        let cut = IdCut::new(&ids);
        for (pos, id) in ids.iter().enumerate() {
            assert_eq!(cut.rank_of(id.raw()), Some(pos as u32));
        }
        assert_eq!(cut.rank_of(999), None);
    }

    #[test]
    fn id_cut_exposes_sorted_ids() {
        use topple_lists::DomainTable;
        let d = doms(&["z.com", "a.com", "m.com"]);
        let mut table = DomainTable::new();
        let ids: Vec<DomainId> = d.iter().map(|x| table.intern(x)).collect();
        let cut = IdCut::new(&ids);
        assert_eq!(cut.len(), 3);
        assert!(cut.ids().windows(2).all(|w| w[0] < w[1]));
    }
}
