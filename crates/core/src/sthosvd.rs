//! STHOSVD initialization (paper §1, citing Vannieuwenhoven et al.) — a
//! thin shim over [`executor::sthosvd_sweep`] on the strictly sequential
//! [`SeqBackend`].
//!
//! The Sequentially Truncated HOSVD processes modes one at a time: compute
//! the Gram matrix of the *current* tensor's mode-`n` unfolding, take the
//! leading `K_n` eigenvectors as `F_n`, immediately truncate the tensor by
//! `T ← T ×_n F_nᵀ`, and move on. The early truncations make later Gram
//! computations cheap. The result is a valid (often excellent) initial
//! decomposition for HOOI.
//!
//! The chain itself lives in the sweep executor (one implementation shared
//! with the rayon shared-memory and distsim backends); kernels are the
//! fused Gram family and workspace TTMs, so beyond the first truncation no
//! tensor-sized buffer is allocated.

use crate::decomposition::TuckerDecomposition;
use crate::executor::{self, SeqBackend};
use crate::meta::TuckerMeta;
use tucker_linalg::{leading_from_gram, Matrix};
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::{DenseTensor, TtmWorkspace};

/// Compute the STHOSVD of `t` with core shape `meta.core()`, processing the
/// modes in the order given by `order` (ascending-`K` is a common heuristic;
/// natural order matches the original algorithm).
///
/// # Panics
/// Panics if `order` is not a permutation of the modes or `meta` disagrees
/// with the tensor shape.
pub fn sthosvd_with_order(
    t: &DenseTensor,
    meta: &TuckerMeta,
    order: &[usize],
) -> TuckerDecomposition {
    assert_eq!(t.shape(), meta.input(), "tensor does not match metadata");
    let mut b = SeqBackend::new();
    let out = executor::sthosvd_sweep(&mut b, t, meta, order, fro_norm_sq(t));
    TuckerDecomposition::new(out.core, out.factors)
}

/// STHOSVD in natural mode order.
pub fn sthosvd(t: &DenseTensor, meta: &TuckerMeta) -> TuckerDecomposition {
    let order: Vec<usize> = (0..meta.order()).collect();
    sthosvd_with_order(t, meta, &order)
}

/// Truncated-HOSVD initial factors: per mode, the leading `K_n` eigenvectors
/// of the Gram of the *raw* tensor's mode-`n` unfolding — the host-side twin
/// of the engine's fused distributed init, so host and simulated runs start
/// from the same factors.
pub fn hosvd_init_factors(t: &DenseTensor, meta: &TuckerMeta) -> Vec<Matrix> {
    (0..meta.order())
        .map(|n| leading_from_gram(&tucker_tensor::gram(t, n), meta.k(n)).u)
        .collect()
}

/// Random orthonormal initialization: factors are Q-factors of Gaussian
/// matrices, core is the corresponding projection of `t`. A deliberately
/// weak starting point for studying HOOI's error reduction.
pub fn random_init<R: rand::Rng>(
    t: &DenseTensor,
    meta: &TuckerMeta,
    rng: &mut R,
) -> TuckerDecomposition {
    assert_eq!(t.shape(), meta.input(), "tensor does not match metadata");
    let dist = rand::distributions::Uniform::new(-1.0, 1.0);
    let factors: Vec<Matrix> = (0..meta.order())
        .map(|n| {
            let g = Matrix::random(meta.l(n), meta.k(n), &dist, rng);
            tucker_linalg::orthonormal_columns(&g)
        })
        .collect();
    let factors_t: Vec<Matrix> = factors.iter().map(Matrix::transpose).collect();
    let ops: Vec<(usize, &Matrix)> = factors_t.iter().enumerate().collect();
    let core = TtmWorkspace::new().ttm_chain(t, &ops);
    TuckerDecomposition::new(core, factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_tensor::norm::fro_norm_sq;
    use tucker_tensor::{ttm, Shape};

    fn random_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    /// A tensor that is exactly multilinear-rank (2,2,2) plus nothing.
    fn low_rank_tensor(dims: &[usize], ks: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let core = DenseTensor::random(Shape::new(ks.to_vec()), &dist, &mut rng);
        let mut cur = core;
        for (n, (&l, &k)) in dims.iter().zip(ks).enumerate() {
            let f = tucker_linalg::orthonormal_columns(&Matrix::random(l, k, &dist, &mut rng));
            let _ = n;
            cur = ttm(&cur, cur.order() - dims.len() + n, &f); // mode n
        }
        cur
    }

    #[test]
    fn exact_recovery_of_low_rank_tensor() {
        let dims = [8usize, 7, 6];
        let ks = [2usize, 3, 2];
        let t = low_rank_tensor(&dims, &ks, 1);
        let meta = TuckerMeta::new(dims.to_vec(), ks.to_vec());
        let d = sthosvd(&t, &meta);
        assert!(d.factors_orthonormal(1e-9));
        assert!(d.error(&t) < 1e-8, "error {}", d.error(&t));
    }

    #[test]
    fn identity_core_shape() {
        let t = random_tensor(&[6, 5, 4], 2);
        let meta = TuckerMeta::new([6, 5, 4], [3, 2, 2]);
        let d = sthosvd(&t, &meta);
        assert_eq!(d.core.shape().dims(), &[3, 2, 2]);
        assert_eq!(d.factors[0].shape(), (6, 3));
    }

    #[test]
    fn error_formulas_agree() {
        let t = random_tensor(&[6, 6, 6], 3);
        let meta = TuckerMeta::new([6, 6, 6], [3, 3, 3]);
        let d = sthosvd(&t, &meta);
        let e1 = d.error(&t);
        let e2 = d.error_from_core_norm(fro_norm_sq(&t));
        assert!((e1 - e2).abs() < 1e-9);
    }

    #[test]
    fn mode_order_does_not_break_validity() {
        let t = random_tensor(&[6, 5, 7], 4);
        let meta = TuckerMeta::new([6, 5, 7], [2, 2, 3]);
        let d1 = sthosvd_with_order(&t, &meta, &[0, 1, 2]);
        let d2 = sthosvd_with_order(&t, &meta, &[2, 0, 1]);
        assert!(d1.factors_orthonormal(1e-9));
        assert!(d2.factors_orthonormal(1e-9));
        // Both are valid decompositions with finite error; they can differ.
        assert!(d1.error(&t) <= 1.0 + 1e-12);
        assert!(d2.error(&t) <= 1.0 + 1e-12);
    }

    #[test]
    fn full_rank_core_is_exact() {
        let t = random_tensor(&[4, 5, 3], 5);
        let meta = TuckerMeta::new([4, 5, 3], [4, 5, 3]);
        let d = sthosvd(&t, &meta);
        assert!(d.error(&t) < 1e-10);
    }

    #[test]
    fn random_init_is_valid_but_weak() {
        let t = random_tensor(&[8, 8, 8], 6);
        let meta = TuckerMeta::new([8, 8, 8], [3, 3, 3]);
        let mut rng = StdRng::seed_from_u64(66);
        let r = random_init(&t, &meta, &mut rng);
        let s = sthosvd(&t, &meta);
        assert!(r.factors_orthonormal(1e-9));
        // STHOSVD is (weakly) better than a random subspace with
        // overwhelming probability on random data.
        assert!(s.error(&t) <= r.error(&t) + 1e-12);
    }
}
