//! The Tucker decomposition `{G; F₁, …, F_N}` (paper §2.2).

use crate::meta::TuckerMeta;
use tucker_linalg::Matrix;
use tucker_tensor::norm::{fro_norm_sq, relative_error};
use tucker_tensor::{ttm, DenseTensor};

/// A Tucker decomposition: core tensor `G` plus one factor matrix per mode
/// (`F_n` is `L_n × K_n` with orthonormal columns).
#[derive(Clone, Debug)]
pub struct TuckerDecomposition {
    /// The core tensor `G` (`K₁ × … × K_N`).
    pub core: DenseTensor,
    /// Factor matrices, one per mode.
    pub factors: Vec<Matrix>,
}

impl TuckerDecomposition {
    /// Assemble and sanity-check a decomposition.
    ///
    /// # Panics
    /// Panics if the factor shapes are inconsistent with the core.
    pub fn new(core: DenseTensor, factors: Vec<Matrix>) -> Self {
        assert_eq!(core.order(), factors.len(), "one factor per mode required");
        for (n, f) in factors.iter().enumerate() {
            assert_eq!(
                f.ncols(),
                core.shape().dim(n),
                "factor {n} must have K_{n} = {} columns",
                core.shape().dim(n)
            );
        }
        TuckerDecomposition { core, factors }
    }

    /// The metadata `(L, K)` of this decomposition.
    pub(crate) fn meta(&self) -> TuckerMeta {
        let l: Vec<usize> = self.factors.iter().map(|f| f.nrows()).collect();
        TuckerMeta::new(l, self.core.shape().clone())
    }

    /// Recover the full tensor `Z = G ×₁ F₁ ×₂ F₂ … ×_N F_N`.
    pub fn reconstruct(&self) -> DenseTensor {
        let mut cur = self.core.clone();
        for (n, f) in self.factors.iter().enumerate() {
            cur = ttm(&cur, n, f);
        }
        cur
    }

    /// Normalized RMS error `‖T − Z‖ / ‖T‖` against the input tensor.
    pub fn error(&self, t: &DenseTensor) -> f64 {
        relative_error(t, &self.reconstruct())
    }

    /// Error via the orthonormal-factor identity
    /// `‖T − Z‖² = ‖T‖² − ‖G‖²` — no reconstruction needed. Only valid when
    /// the factors are orthonormal **and** the core is the projection of `T`
    /// (which holds for HOOI/STHOSVD output).
    pub fn error_from_core_norm(&self, input_norm_sq: f64) -> f64 {
        tucker_tensor::norm::relative_error_from_core(input_norm_sq, fro_norm_sq(&self.core))
    }

    /// `true` if every factor has orthonormal columns to within `tol`.
    pub fn factors_orthonormal(&self, tol: f64) -> bool {
        self.factors.iter().all(|f| f.has_orthonormal_columns(tol))
    }

    /// Compression ratio `|T| / (|G| + Σ |F_n|)` counting factor storage.
    pub fn storage_compression_ratio(&self) -> f64 {
        let meta = self.meta();
        let factor_elems: f64 = self
            .factors
            .iter()
            .map(|f| (f.nrows() * f.ncols()) as f64)
            .sum();
        meta.input_cardinality() / (meta.core_cardinality() + factor_elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_linalg::{leading_from_gram, syrk};
    use tucker_tensor::Shape;

    fn random_orthonormal(l: usize, k: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        leading_from_gram(&syrk(&Matrix::random(l, k, &dist, &mut rng)), k).u
    }

    fn random_decomp(ls: &[usize], ks: &[usize], seed: u64) -> TuckerDecomposition {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let core = DenseTensor::random(Shape::new(ks.to_vec()), &dist, &mut rng);
        let factors: Vec<Matrix> = ls
            .iter()
            .zip(ks)
            .enumerate()
            .map(|(n, (&l, &k))| random_orthonormal(l, k, seed + n as u64))
            .collect();
        TuckerDecomposition::new(core, factors)
    }

    #[test]
    fn reconstruct_shape() {
        let d = random_decomp(&[6, 8, 5], &[2, 3, 2], 1);
        let z = d.reconstruct();
        assert_eq!(z.shape().dims(), &[6, 8, 5]);
    }

    #[test]
    fn exact_decomposition_has_zero_error() {
        // T built from the decomposition itself reconstructs exactly.
        let d = random_decomp(&[6, 5, 4], &[2, 2, 3], 2);
        let t = d.reconstruct();
        assert!(d.error(&t) < 1e-12);
    }

    #[test]
    fn core_norm_error_matches_direct_error() {
        // For orthonormal factors and core = projection of T:
        // project a random T onto the subspace, then compare both formulas.
        let ls = [6usize, 5, 4];
        let ks = [3usize, 2, 2];
        let d0 = random_decomp(&ls, &ks, 3);
        let mut rng = StdRng::seed_from_u64(33);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let t = DenseTensor::random(Shape::new(ls.to_vec()), &dist, &mut rng);
        // Core = T ×_n F_nᵀ.
        let mut core = t.clone();
        for (n, f) in d0.factors.iter().enumerate() {
            core = ttm(&core, n, &f.transpose());
        }
        let d = TuckerDecomposition::new(core, d0.factors.clone());
        let e1 = d.error(&t);
        let e2 = d.error_from_core_norm(fro_norm_sq(&t));
        assert!((e1 - e2).abs() < 1e-9, "direct {e1} vs core-norm {e2}");
    }

    #[test]
    fn orthonormality_check() {
        let d = random_decomp(&[8, 8], &[3, 3], 4);
        assert!(d.factors_orthonormal(1e-10));
    }

    #[test]
    fn storage_compression() {
        let d = random_decomp(&[20, 20, 20], &[2, 2, 2], 5);
        // 8000 / (8 + 3*40) = 8000/128
        assert!((d.storage_compression_ratio() - 8000.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_factor_rejected() {
        let core = DenseTensor::zeros([2, 2]);
        let f0 = Matrix::zeros(5, 2);
        let f1 = Matrix::zeros(5, 3); // wrong: K_1 = 2
        let _ = TuckerDecomposition::new(core, vec![f0, f1]);
    }
}
