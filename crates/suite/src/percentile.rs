//! Percentile-curve summaries (Figures 10a/b and 11).
//!
//! The paper normalizes each tensor's metric by the reference strategy's
//! value (so the reference is 1 everywhere), sorts the ratios, and plots
//! value against percentile: a point `(k, t)` means "for `k`% of the
//! tensors, the normalized value is below `t`".

/// A normalized percentile curve.
#[derive(Clone, Debug, PartialEq)]
pub struct PercentileCurve {
    /// Sorted normalized values (ascending).
    pub values: Vec<f64>,
}

impl PercentileCurve {
    /// The value at percentile `p ∈ [0, 100]` (nearest-rank).
    ///
    /// # Panics
    /// Panics if the curve is empty or `p` is out of range.
    pub fn at(&self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "empty percentile curve");
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if p == 0.0 {
            return self.values[0];
        }
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.at(50.0)
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("empty percentile curve")
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Fraction of tensors with value at least `threshold`.
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        let n = self.values.len();
        let count = self.values.iter().filter(|&&v| v >= threshold).count();
        count as f64 / n as f64
    }
}

/// Build a percentile curve from raw values.
pub(crate) fn percentile_curve(mut values: Vec<f64>) -> PercentileCurve {
    assert!(!values.is_empty(), "need at least one value");
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN metric value"));
    PercentileCurve { values }
}

/// Normalize `metric` by `reference` elementwise (the paper's
/// "normalized time/load/volume") and return the percentile curve of the
/// ratios. Zero reference values are only legal when the metric is also
/// zero; the ratio is taken as 1 there (both strategies are free).
///
/// # Panics
/// Panics on length mismatch or a zero reference with nonzero metric.
pub fn normalized_percentiles(metric: &[f64], reference: &[f64]) -> PercentileCurve {
    assert_eq!(metric.len(), reference.len(), "series length mismatch");
    let ratios: Vec<f64> = metric
        .iter()
        .zip(reference)
        .map(|(&m, &r)| {
            if r == 0.0 {
                assert!(m == 0.0, "metric {m} with zero reference");
                1.0
            } else {
                m / r
            }
        })
        .collect();
    percentile_curve(ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_basics() {
        let c = percentile_curve(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.values, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.0), 1.0);
        assert_eq!(c.at(25.0), 1.0);
        assert_eq!(c.at(50.0), 2.0);
        assert_eq!(c.at(75.0), 3.0);
        assert_eq!(c.at(100.0), 4.0);
        assert_eq!(c.median(), 2.0);
    }

    #[test]
    fn normalization_sets_reference_to_one() {
        let m = vec![2.0, 4.0, 6.0];
        let r = m.clone();
        let c = normalized_percentiles(&m, &r);
        assert!(c.values.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn ratios_sorted() {
        let m = vec![4.0, 1.0, 9.0];
        let r = vec![2.0, 2.0, 3.0];
        let c = normalized_percentiles(&m, &r);
        assert_eq!(c.values, vec![0.5, 2.0, 3.0]);
    }

    #[test]
    fn zero_over_zero_is_one() {
        let c = normalized_percentiles(&[0.0, 2.0], &[0.0, 1.0]);
        assert_eq!(c.values, vec![1.0, 2.0]);
    }

    #[test]
    fn fraction_at_least() {
        let c = percentile_curve(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at_least(2.5), 0.5);
        assert_eq!(c.fraction_at_least(0.0), 1.0);
        assert_eq!(c.fraction_at_least(5.0), 0.0);
    }

    #[test]
    fn series_has_100_points() {
        let c = percentile_curve(vec![1.0; 7]);
        for p in 1..=100 {
            assert_eq!(c.at(p as f64), 1.0, "percentile {p}");
        }
    }

    #[test]
    #[should_panic(expected = "zero reference")]
    fn zero_reference_with_nonzero_metric_panics() {
        let _ = normalized_percentiles(&[1.0], &[0.0]);
    }
}
