//! Self-contained statistics toolkit for the top-list evaluation framework.
//!
//! The paper's analysis pipeline needs a handful of classical statistics that
//! have no canonical pure-Rust home: tie-aware ranking, Spearman's rank
//! correlation with significance tests, Jaccard set similarity, and logistic
//! regression with Wald tests and Bonferroni correction (Table 3). This crate
//! implements all of them from first principles, with property tests pinning
//! their invariants and unit tests pinning reference values computed with
//! standard scientific software.
//!
//! # Modules
//!
//! * [`rank`] — average-rank transformation with ties.
//! * [`bootstrap`] — percentile bootstrap confidence intervals.
//! * [`corr`] — Pearson, Spearman (ρ + p-value), Kendall τ-b in O(n log n).
//! * [`sets`] — Jaccard index, overlap coefficient, rank-biased overlap.
//! * [`special`] — log-gamma, regularized incomplete beta/gamma, erf.
//! * [`dist`] — Normal, Student's t, and χ² distributions.
//! * [`linalg`] — small dense matrices with Cholesky solve/inverse.
//! * [`logit`] — logistic regression via iteratively reweighted least squares.
//! * [`desc`] — descriptive statistics (mean, variance, quantiles).
//! * [`mtc`] — multiple-testing corrections (Bonferroni, Holm).
//! * [`timeseries`] — autocorrelation and weekly-periodicity detection.
//! * [`fanout`] — the ordered worker-pool fan-out every parallel loop in
//!   the workspace runs on.
//!
//! # Example
//!
//! ```
//! use topple_stats::corr::spearman;
//!
//! let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
//! let y = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0];
//! let r = spearman(&x, &y).unwrap();
//! assert!(r.rho > 0.9 && r.p_value < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod cast;
pub mod corr;
pub mod desc;
pub mod dist;
pub mod fanout;
pub mod linalg;
pub mod logit;
pub mod mtc;
pub mod rank;
pub mod sets;
pub mod special;
pub mod timeseries;

use std::fmt;

/// Errors surfaced by statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Input slices had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// Too few observations for the requested statistic.
    TooFewObservations {
        /// Observations provided.
        n: usize,
        /// Minimum required.
        required: usize,
    },
    /// An input contained NaN or infinity.
    NonFinite,
    /// An input was constant where variation is required (e.g. correlation).
    ZeroVariance,
    /// The iterative fit failed to converge.
    DidNotConverge {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// A matrix operation failed (singular / not positive definite).
    SingularMatrix,
    /// The model design was degenerate (e.g. a predictor column is constant
    /// and collinear with the intercept, or outcomes are all one class).
    DegenerateDesign(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::LengthMismatch { left, right } => {
                write!(f, "input length mismatch: {left} vs {right}")
            }
            StatsError::TooFewObservations { n, required } => {
                write!(f, "need at least {required} observations, got {n}")
            }
            StatsError::NonFinite => write!(f, "input contains NaN or infinite values"),
            StatsError::ZeroVariance => write!(f, "input has zero variance"),
            StatsError::DidNotConverge { iterations } => {
                write!(f, "iteration failed to converge after {iterations} steps")
            }
            StatsError::SingularMatrix => write!(f, "matrix is singular or not positive definite"),
            StatsError::DegenerateDesign(why) => write!(f, "degenerate model design: {why}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

pub(crate) fn ensure_finite(xs: &[f64]) -> Result<()> {
    if xs.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(StatsError::NonFinite)
    }
}

pub(crate) fn ensure_same_len(x: &[f64], y: &[f64]) -> Result<()> {
    if x.len() == y.len() {
        Ok(())
    } else {
        Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        })
    }
}
