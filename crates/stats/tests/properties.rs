//! Property-based tests for the statistics toolkit's invariants.

use std::collections::HashSet;

use proptest::prelude::*;
use topple_stats::corr::{kendall_tau_b, pearson, spearman};
use topple_stats::desc::{geometric_mean, mean, quantile, variance};
use topple_stats::dist::{ChiSquared, StandardNormal, StudentsT};
use topple_stats::linalg::{Cholesky, Matrix};
use topple_stats::mtc::{bonferroni, holm};
use topple_stats::rank::{average_ranks, competition_ranks};
use topple_stats::sets::jaccard_sorted;

fn samples(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, n)
}

/// A set of ids below `universe`, as the sorted, deduplicated slice the
/// sorted-slice measures take.
fn id_set(universe: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0u32..universe, 0..max_len)
        .prop_map(|set| set.into_iter().collect())
}

proptest! {
    // ---- ranking ----

    #[test]
    fn rank_sum_is_invariant(xs in samples(1..60)) {
        let ranks = average_ranks(&xs).unwrap();
        let n = xs.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn ranks_respect_order(xs in samples(2..60)) {
        let ranks = average_ranks(&xs).unwrap();
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] < xs[j] {
                    prop_assert!(ranks[i] < ranks[j]);
                } else if xs[i] == xs[j] {
                    prop_assert_eq!(ranks[i], ranks[j]);
                }
            }
        }
    }

    #[test]
    fn competition_ranks_bound_average_ranks(xs in samples(1..60)) {
        let avg = average_ranks(&xs).unwrap();
        let comp = competition_ranks(&xs).unwrap();
        for (a, c) in avg.iter().zip(&comp) {
            prop_assert!(f64::from(*c) <= *a + 1e-12);
        }
    }

    // ---- correlation ----

    #[test]
    fn correlations_are_bounded_and_symmetric(
        xs in samples(3..40),
        ys in samples(3..40),
    ) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        if let (Ok(a), Ok(b)) = (pearson(xs, ys), pearson(ys, xs)) {
            prop_assert!((-1.0..=1.0).contains(&a));
            prop_assert!((a - b).abs() < 1e-12);
        }
        if let (Ok(a), Ok(b)) = (spearman(xs, ys), spearman(ys, xs)) {
            prop_assert!((-1.0..=1.0).contains(&a.rho));
            prop_assert!((a.rho - b.rho).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&a.p_value));
        }
        if let (Ok(a), Ok(b)) = (kendall_tau_b(xs, ys), kendall_tau_b(ys, xs)) {
            prop_assert!((-1.0..=1.0).contains(&a));
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(xs in samples(4..40)) {
        let distinct: HashSet<u64> = xs.iter().map(|v| v.to_bits()).collect();
        prop_assume!(distinct.len() == xs.len());
        let ys: Vec<f64> = xs.iter().map(|&v| v.powi(3) * 2.0 + 5.0).collect();
        let s = spearman(&xs, &ys).unwrap();
        prop_assert!((s.rho - 1.0).abs() < 1e-9);
        // Negation flips the sign exactly.
        let neg: Vec<f64> = ys.iter().map(|v| -v).collect();
        let s2 = spearman(&xs, &neg).unwrap();
        prop_assert!((s2.rho + 1.0).abs() < 1e-9);
    }

    #[test]
    fn kendall_agrees_with_spearman_sign(xs in samples(5..40), ys in samples(5..40)) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        if let (Ok(tau), Ok(rho)) = (kendall_tau_b(xs, ys), spearman(xs, ys)) {
            // Strong rank agreement in one must not be strong disagreement
            // in the other.
            if rho.rho > 0.8 {
                prop_assert!(tau > 0.0, "tau {tau} vs rho {}", rho.rho);
            }
            if rho.rho < -0.8 {
                prop_assert!(tau < 0.0);
            }
        }
    }

    // ---- sets ----

    #[test]
    fn jaccard_bounds_and_symmetry(a in id_set(500, 80), b in id_set(500, 80)) {
        let ji = jaccard_sorted(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ji));
        prop_assert_eq!(ji, jaccard_sorted(&b, &a));
        // Identity.
        prop_assert_eq!(jaccard_sorted(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_triangle_on_distance(a in id_set(60, 30), b in id_set(60, 30), c in id_set(60, 30)) {
        // Jaccard distance (1 - JI) satisfies the triangle inequality.
        let dab = 1.0 - jaccard_sorted(&a, &b);
        let dbc = 1.0 - jaccard_sorted(&b, &c);
        let dac = 1.0 - jaccard_sorted(&a, &c);
        prop_assert!(dac <= dab + dbc + 1e-9);
    }

    // ---- descriptive ----

    #[test]
    fn mean_within_min_max(xs in samples(1..50)) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_nonnegative_and_shift_invariant(xs in samples(2..50), shift in -1e3f64..1e3) {
        let v = variance(&xs).unwrap();
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let vs = variance(&shifted).unwrap();
        prop_assert!((v - vs).abs() < 1e-4 * (1.0 + v.abs()));
    }

    #[test]
    fn quantiles_are_monotone(xs in samples(1..50), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
    }

    #[test]
    fn geometric_mean_bounded_by_arithmetic(xs in proptest::collection::vec(1e-3f64..1e3, 1..40)) {
        let g = geometric_mean(&xs).unwrap();
        let a = mean(&xs).unwrap();
        prop_assert!(g <= a + 1e-9 * a.abs().max(1.0));
    }

    // ---- distributions ----

    #[test]
    fn cdfs_are_monotone(x1 in -30.0f64..30.0, x2 in -30.0f64..30.0, df in 1.0f64..200.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(StandardNormal::cdf(lo) <= StandardNormal::cdf(hi) + 1e-12);
        let t = StudentsT::new(df);
        prop_assert!(t.cdf(lo) <= t.cdf(hi) + 1e-12);
        let c = ChiSquared::new(df);
        prop_assert!(c.cdf(lo.abs()) <= c.cdf(hi.abs().max(lo.abs())) + 1e-12);
    }

    #[test]
    fn normal_cdf_symmetry(x in -8.0f64..8.0) {
        let a = StandardNormal::cdf(x);
        let b = StandardNormal::cdf(-x);
        prop_assert!((a + b - 1.0).abs() < 1e-10);
    }

    #[test]
    fn normal_quantile_inverts_cdf(p in 0.0005f64..0.9995) {
        let x = StandardNormal::inv_cdf(p);
        prop_assert!((StandardNormal::cdf(x) - p).abs() < 1e-8);
    }

    // ---- multiple testing ----

    #[test]
    fn corrections_dominate_raw(ps in proptest::collection::vec(0.0f64..1.0, 1..30)) {
        let bonf = bonferroni(&ps, ps.len());
        let holm_adj = holm(&ps);
        for i in 0..ps.len() {
            prop_assert!(bonf[i] >= ps[i] - 1e-15);
            prop_assert!(holm_adj[i] >= ps[i] - 1e-15);
            prop_assert!(holm_adj[i] <= bonf[i] + 1e-15, "holm dominates bonferroni");
            prop_assert!(bonf[i] <= 1.0 && holm_adj[i] <= 1.0);
        }
    }

    // ---- linear algebra ----

    #[test]
    fn cholesky_solves_spd_systems(vals in proptest::collection::vec(-2.0f64..2.0, 9),
                                   b in proptest::collection::vec(-5.0f64..5.0, 3)) {
        // Build SPD matrix A = MᵀM + I.
        let m = Matrix::from_rows(&[
            vals[0..3].to_vec(),
            vals[3..6].to_vec(),
            vals[6..9].to_vec(),
        ]);
        let mut a = m.xtwx(&[1.0, 1.0, 1.0]);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b);
        let back = a.mat_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6 * (1.0 + v.abs()));
        }
    }
}
