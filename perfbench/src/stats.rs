//! Percentiles under the reporting rule every timing in this benchmark
//! follows: report the median, and the highest percentile that has at
//! least ten samples beyond it. A p99 therefore needs 1,000 samples and
//! is never printed from fewer.

/// Percentiles the harness may report, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Whether `p` is reportable from `n` samples: at least [`BEYOND`]
/// samples lie above it. Integer arithmetic in tenths of a percent, so
/// the p99 boundary sits exactly at 1,000 samples.
pub fn reportable(p: f64, n: usize) -> bool {
    let tail_tenths = (1000.0 - p * 10.0).round() as usize;
    n * tail_tenths >= BEYOND * 1000
}

/// The highest percentile on the ladder that `n` samples support.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&p| reportable(p, n))
}

/// Nearest-rank percentile of an ascending slice, `p` to a tenth of a
/// percent. The rank is computed in integers: in floating point
/// `0.999 * 10000` rounds up past 9990 and would leave only 9 beyond.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let tenths = (p * 10.0).round() as usize;
    let rank = (tenths * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sorted sample set with the reporting rule applied.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a harness bug and panic).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        Samples { sorted: values }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The percentile `p`, or `None` when the rule forbids reporting it.
    pub fn get(&self, p: f64) -> Option<f64> {
        reportable(p, self.len()).then(|| percentile(&self.sorted, p))
    }

    /// `(p, value)` of the highest reportable percentile.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let p = highest_percentile(self.len())?;
        Some((p, percentile(&self.sorted, p)))
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!reportable(99.0, 999));
        assert!(reportable(99.0, 1000));
        let s = Samples::new((1..=999).map(f64::from).collect());
        assert_eq!(s.get(99.0), None);
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.get(99.0), Some(990.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        for n in [20, 100, 1000, 10_000, 123_456] {
            // Samples 1..=n: the value reported is its own rank.
            let (p, v) = Samples::new((1..=n).map(|x| x as f64).collect())
                .tail()
                .unwrap();
            let beyond = n - v as usize;
            assert!(beyond >= BEYOND, "n={n} p={p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn tail_reports_the_supported_rank() {
        let s = Samples::new((1..=500).rev().map(f64::from).collect());
        assert_eq!(s.tail(), Some((90.0, 450.0)));
        assert_eq!(s.get(50.0), Some(250.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
