//! Order statistics for timing samples.

/// Sorted copy of `xs`. NaNs (never produced by a timer) sort last.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between the two
/// nearest order statistics, so the result always lies inside
/// `[min, max]` — with the handful of samples a 10 s run yields, an
/// extrapolating estimator would report times nobody measured.
///
/// # Panics
/// Panics if `xs` is empty or `p` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
    let v = sorted(xs);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            median: median(xs),
            q1: quantile(xs, 0.25),
            q3: quantile(xs, 0.75),
            n: xs.len(),
        }
    }
}

/// Geometric mean of positive values, summed in sorted order so that exact
/// model ratios stay bit-identical when a seed permutes their order.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no samples");
    (sorted(xs).iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_stay_in_range() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&xs, 0.75), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn summary_reports_count_and_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            s,
            Summary {
                median: 3.0,
                q1: 2.0,
                q3: 4.0,
                n: 5
            }
        );
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-15);
        assert_eq!(geomean(&[0.3, 0.7, 0.9]), geomean(&[0.9, 0.3, 0.7]));
        assert!((mean(&[0.5, 2.0]) - 1.25).abs() < 1e-15);
    }
}
