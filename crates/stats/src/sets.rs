//! Set similarity over sorted id slices, for comparing interned lists.
//!
//! The measures here ([`intersection_size_sorted`], [`jaccard_sorted`])
//! merge-walk two strictly-ascending `u32` slices (sorted, deduplicated
//! interned domain ids): no hashing and no allocation. **Empty-set
//! convention**: the Jaccard index of two empty sets is defined as `1.0`
//! (empty sets are identical; `0/0` would otherwise be NaN), while one empty
//! and one non-empty set give `0.0`.

/// Size of the intersection of two strictly-ascending sorted slices, by
/// merge-walk: no hashing, no allocation.
///
/// Callers must pass deduplicated ascending slices (as produced by sorting a
/// set of interned domain ids); duplicates would be counted once per aligned
/// pair.
pub fn intersection_size_sorted(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a not sorted/dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b not sorted/dedup");
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Jaccard index `|A ∩ B| / |A ∪ B|` of two strictly-ascending sorted
/// slices, by merge-walk.
///
/// Both slices empty → `1.0` (the `0/0` case; see the module docs), exactly
/// one empty → `0.0`.
///
/// ```
/// use topple_stats::sets::jaccard_sorted;
///
/// assert!((jaccard_sorted(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
/// ```
pub fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = intersection_size_sorted(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard_sorted(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard_sorted(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_sorted(&[1, 5, 9, 11], &[2, 5, 9]), 2.0 / 5.0);
        assert_eq!(
            jaccard_sorted(&[1, 5, 9, 11], &[2, 5, 9]),
            jaccard_sorted(&[2, 5, 9], &[1, 5, 9, 11])
        );
    }

    #[test]
    fn jaccard_paper_interpretation_example() {
        // Section 4.4: two lists of 100 with 90 shared -> JI ≈ 0.82.
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (10..110).collect();
        let ji = jaccard_sorted(&a, &b);
        assert!((ji - 90.0 / 110.0).abs() < 1e-12);
        assert!(ji > 0.81 && ji < 0.82);
    }

    #[test]
    fn empty_set_convention() {
        // 0/0 is *defined* as 1.0 (two empty sets are identical); one-sided
        // emptiness is 0.0.
        assert_eq!(jaccard_sorted(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&[], &[1]), 0.0);
        assert_eq!(jaccard_sorted(&[1], &[]), 0.0);
    }

    #[test]
    fn sorted_intersection_sizes() {
        let cases: &[(&[u32], &[u32], usize)] = &[
            (&[1, 2, 3], &[2, 3, 4], 2),
            (&[], &[1, 2], 0),
            (&[5], &[5], 1),
            (&[1, 3, 5, 7, 9], &[2, 4, 6, 8], 0),
            (&[1, 2, 3, 4], &[1, 2, 3, 4], 4),
        ];
        for &(a, b, want) in cases {
            assert_eq!(intersection_size_sorted(a, b), want, "{a:?} vs {b:?}");
        }
    }
}
