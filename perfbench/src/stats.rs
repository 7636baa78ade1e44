//! Order statistics used by every workload: nearest-rank percentiles and
//! medians.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. `p` is clamped to
/// `(0, 100]`; an empty slice yields `None`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of unordered samples (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Latency samples in nanoseconds, summarised on demand.
#[derive(Debug, Default)]
pub struct Latencies {
    ns: Vec<u64>,
}

impl Latencies {
    /// An empty recorder with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Latencies {
            ns: Vec::with_capacity(n),
        }
    }

    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Appends every sample of `other`.
    pub fn append(&mut self, other: &Latencies) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Ascending samples in milliseconds.
    pub fn sorted_ms(&self) -> Vec<f64> {
        sorted_ms(&self.ns)
    }

    /// The median over windows of each window's nearest-rank `p`th
    /// percentile, in milliseconds. `ends` are the exclusive end indices of
    /// consecutive windows; windows with fewer than `min_samples` samples
    /// are skipped. A burst of host interference moves one window's figure,
    /// not the median across windows.
    pub fn windowed(&self, ends: &[usize], p: f64, min_samples: usize) -> Option<f64> {
        let mut start = 0;
        let mut per_window = Vec::with_capacity(ends.len());
        for &end in ends {
            let window = &self.ns[start..end.min(self.ns.len())];
            if window.len() >= min_samples {
                per_window.push(nearest_rank(&sorted_ms(window), p)?);
            }
            start = end;
        }
        median(&per_window)
    }
}

fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 99.9), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_never_interpolates() {
        let v = [1.0, 100.0];
        assert_eq!(nearest_rank(&v, 50.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(100.0));
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn latencies_convert_to_sorted_ms() {
        let mut l = Latencies::with_capacity(3);
        for ns in [3_000_000, 1_000_000, 2_000_000] {
            l.push(ns);
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.sorted_ms(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_figures() {
        let mut l = Latencies::with_capacity(12);
        // Three windows of four samples; the middle one is a burst.
        for ms in [1, 2, 3, 4, 90, 91, 92, 93, 2, 3, 4, 5] {
            l.push(ms * 1_000_000);
        }
        let ends = [4, 8, 12];
        // Window p50s are 2, 91 and 3 ms.
        assert_eq!(l.windowed(&ends, 50.0, 4), Some(3.0));
        // Too-small windows are skipped: only the last two count.
        assert_eq!(l.windowed(&[1, 8, 12], 50.0, 4), Some(46.5));
        assert_eq!(l.windowed(&ends, 50.0, 5), None);
    }
}
