//! Shared scoring utilities for vantage outputs.

/// A score per site, indexed by dense site id. Zero means "not observed".
pub type ScoreVec = Vec<f64>;
