//! Norms and decomposition-error metrics.

use crate::dense::DenseTensor;

/// Frobenius norm `‖T‖ = sqrt(Σ x²)`.
pub(crate) fn fro_norm(t: &DenseTensor) -> f64 {
    fro_norm_sq(t).sqrt()
}

/// Squared Frobenius norm.
///
/// Uses Neumaier-compensated summation so the result is correctly rounded
/// independent of tensor size; naive summation drifts by `O(√n·ε)`, which is
/// enough to poison the `‖T‖² − ‖G‖²` error formula on large tensors.
pub fn fro_norm_sq(t: &DenseTensor) -> f64 {
    compensated_sum(t.as_slice().iter().map(|x| x * x))
}

/// Neumaier (improved Kahan) compensated summation.
fn compensated_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for x in values {
        let t = sum + x;
        comp += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + comp
}

/// Normalized root-mean-square error between the input tensor and a
/// recovered tensor: `‖T − Z‖ / ‖T‖` (paper §2.2).
///
/// # Panics
/// Panics on shape mismatch or if `T` is the zero tensor.
pub fn relative_error(t: &DenseTensor, z: &DenseTensor) -> f64 {
    assert_eq!(t.shape(), z.shape(), "shape mismatch");
    let denom = fro_norm(t);
    assert!(denom > 0.0, "relative error undefined for the zero tensor");
    let diff = compensated_sum(
        t.as_slice()
            .iter()
            .zip(z.as_slice())
            .map(|(a, b)| (a - b) * (a - b)),
    );
    diff.sqrt() / denom
}

/// Relative error computed without materializing the recovered tensor, valid
/// when the factor matrices are orthonormal: `‖T − Z‖² = ‖T‖² − ‖G‖²`.
///
/// `input_norm_sq` is `‖T‖²` and `core_norm_sq` is `‖G‖²`.
///
/// The subtraction is a catastrophic cancellation when the decomposition is
/// (near-)exact: both operands are correctly-rounded f64s, so their
/// difference carries `O(ε·‖T‖²)` noise and the formula cannot resolve
/// relative errors below `O(√ε) ≈ 1.5e-8` — any residual in that band is
/// indistinguishable from an exact decomposition. Differences at or below
/// the noise floor (including negative ones) are therefore reported as
/// exactly zero rather than as a spurious `~1e-8` error.
pub fn relative_error_from_core(input_norm_sq: f64, core_norm_sq: f64) -> f64 {
    assert!(
        input_norm_sq > 0.0,
        "relative error undefined for the zero tensor"
    );
    let noise_floor = 16.0 * f64::EPSILON * input_norm_sq;
    let diff = input_norm_sq - core_norm_sq;
    if diff <= noise_floor {
        return 0.0;
    }
    (diff / input_norm_sq).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fro_norm_known() {
        let t = DenseTensor::from_vec([2, 2], vec![1.0, 2.0, 2.0, 4.0]);
        assert!((fro_norm(&t) - 5.0).abs() < 1e-15);
        assert!((fro_norm_sq(&t) - 25.0).abs() < 1e-15);
    }

    #[test]
    fn zero_error_for_identical() {
        let t = DenseTensor::from_fn([3, 3], |c| (c[0] + c[1]) as f64 + 1.0);
        assert_eq!(relative_error(&t, &t), 0.0);
    }

    #[test]
    fn error_is_scale_invariant() {
        let t = DenseTensor::from_fn([4, 4], |c| (c[0] * 4 + c[1]) as f64 + 1.0);
        let scaled = |t: &DenseTensor, s: f64| DenseTensor::from_fn([4, 4], |c| s * t.get(c));
        let z = scaled(&t, 0.9);
        let e1 = relative_error(&t, &z);
        let e2 = relative_error(&scaled(&t, 10.0), &scaled(&z, 10.0));
        assert!((e1 - e2).abs() < 1e-12);
    }

    #[test]
    fn core_identity_matches_direct() {
        // If Z == T exactly, ‖G‖² == ‖T‖² and both paths give 0.
        let t = DenseTensor::from_fn([2, 3], |c| (c[0] * 3 + c[1]) as f64 + 0.5);
        let n2 = fro_norm_sq(&t);
        assert_eq!(relative_error_from_core(n2, n2), 0.0);
    }

    #[test]
    fn core_formula_clamps_roundoff() {
        let e = relative_error_from_core(1.0, 1.0 + 1e-15);
        assert_eq!(e, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero tensor")]
    fn zero_tensor_rejected() {
        let t = DenseTensor::zeros([2, 2]);
        let _ = relative_error(&t, &t);
    }
}
