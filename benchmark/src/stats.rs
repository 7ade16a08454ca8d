//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the driver uses to judge the
//! run-to-run spread of a metric; a benchmark that reported a different
//! quartile definition could not predict its own acceptance.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 < p < 1`) of an ascending slice by the exclusive
/// method: position `p * (n + 1)` (1-based), linearly interpolated. Like
/// Python, two samples extrapolate past the range; every metric reported
/// here has at least three.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        1 => sorted[0],
        _ => {
            let pos = p * (n as f64 + 1.0);
            let lo = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - lo as f64;
            sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
        }
    }
}

/// Median and quartiles of `samples` (any order; empty gives all zeros).
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The percentiles a latency distribution may be reported at, in tenths of
/// a percent so the ten-samples rule is exact integer arithmetic.
const LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, or `None` below twenty samples (where even the median has
/// fewer than ten on its far side). A tail percentile backed by fewer
/// samples is one outlier's value, not a property of the system.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER_PERMILLE
        .iter()
        .rfind(|&&p| n * (1000 - p) >= 10_000)
        .map(|&p| p as f64 / 10.0)
}

/// The `pct`-th percentile (0–100) of `samples` by nearest rank: the
/// smallest sample with at least `pct`% of the samples at or below it.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(summarize(&[]).median, 0.0);
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let two = summarize(&[1.0, 3.0]);
        assert_eq!((two.q1, two.median, two.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(60), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(360), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
