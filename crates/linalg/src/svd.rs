//! Leading left singular vectors via the Gram-matrix route.
//!
//! The paper (§5) computes the SVD step of HOOI as a distributed Gram product
//! `G = Z(n) Z(n)ᵀ` followed by a sequential symmetric EVD — the left
//! singular vectors of `Z(n)` are the eigenvectors of `G`, and the singular
//! values are the square roots of its (non-negative) eigenvalues. This module
//! provides the sequential building block; the distributed Gram accumulation
//! lives in `tucker-distsim`.

use crate::evd::{sym_evd_leading, SymEvd};
use crate::matrix::Matrix;
use crate::syrk::symmetrize;

/// Result of a Gram-based truncated SVD.
#[derive(Clone, Debug)]
pub struct GramSvd {
    /// Leading left singular vectors as columns (`m x k`).
    pub u: Matrix,
    /// Corresponding singular values, descending.
    pub singular_values: Vec<f64>,
}

/// Leading `k` eigenvector/singular-value pairs from an already-computed
/// Gram matrix `a·aᵀ` (e.g. one that was all-reduced across ranks): the
/// leading left singular vectors and singular values of `a`.
///
/// The eigenpairs come from the selected-eigenpair solver
/// [`sym_evd_leading`], the one solver of the crate, so two callers handing
/// in bit-identical Grams get bit-identical factors.
///
/// Negative eigenvalues produced by round-off are clamped to zero before the
/// square root.
///
/// # Panics
/// Panics if `gram` is not square or `k` exceeds its order.
pub fn leading_from_gram(gram: &Matrix, k: usize) -> GramSvd {
    let (m, n) = gram.shape();
    assert_eq!(m, n, "gram matrix must be square");
    assert!(
        k <= m,
        "cannot take {k} singular vectors from order-{m} gram"
    );
    let mut g = gram.clone();
    symmetrize(&mut g);
    let SymEvd {
        eigenvalues,
        eigenvectors,
    } = sym_evd_leading(g, k);
    let singular_values = eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect();
    GramSvd {
        u: eigenvectors,
        singular_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Transpose};
    use crate::syrk::syrk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        Matrix::random(r, c, &dist, &mut rng)
    }

    /// The leading `k` left singular vectors of `a`, through its Gram.
    fn svd_of(a: &Matrix, k: usize) -> GramSvd {
        leading_from_gram(&syrk(a), k)
    }

    #[test]
    fn diagonal_singular_values() {
        // A = diag(3, 2) padded: singular values are 3, 2.
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 2.0, 0.0]]);
        let svd = svd_of(&a, 2);
        assert!((svd.singular_values[0] - 3.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-10);
        assert!(svd.u.has_orthonormal_columns(1e-10));
    }

    #[test]
    fn u_is_orthonormal_and_captures_energy() {
        let a = rand_mat(12, 40, 3);
        let svd = svd_of(&a, 12);
        assert!(svd.u.has_orthonormal_columns(1e-9));
        // Full set of singular values captures all the Frobenius energy.
        let energy: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        let fro2 = a.fro_norm().powi(2);
        assert!((energy - fro2).abs() < 1e-8 * fro2);
    }

    #[test]
    fn truncation_gives_best_rank_k_left_subspace() {
        // Build a matrix with a known dominant direction.
        let m = 10;
        let u0: Vec<f64> = (0..m).map(|i| ((i + 1) as f64).sin()).collect();
        let norm = u0.iter().map(|x| x * x).sum::<f64>().sqrt();
        let u0: Vec<f64> = u0.iter().map(|x| x / norm).collect();
        // A = 100 * u0 * v0ᵀ + small noise
        let mut a = rand_mat(m, 25, 4);
        a.scale(0.01);
        for j in 0..25 {
            let vj = ((j * 7 + 1) as f64).cos();
            for i in 0..m {
                a[(i, j)] += 100.0 * u0[i] * vj;
            }
        }
        let svd = svd_of(&a, 1);
        // Leading left vector aligned with u0 up to sign.
        let dot: f64 = svd.u.col(0).iter().zip(&u0).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.999, "dominant direction not recovered: {dot}");
    }

    #[test]
    fn matches_gram_eigenvalues() {
        // σ² are the Gram's leading eigenvalues, and the vectors are the
        // eigensolver's own, bit for bit.
        let a = rand_mat(8, 15, 5);
        let gram = syrk(&a);
        let svd = leading_from_gram(&gram, 5);
        let evd = sym_evd_leading(gram, 5);
        for (s, l) in svd.singular_values.iter().zip(&evd.eigenvalues) {
            assert!((s * s - l).abs() < 1e-10 * l.abs().max(1.0));
        }
        assert_eq!(svd.u, evd.eigenvectors);
    }

    #[test]
    fn left_vectors_diagonalize() {
        // uᵀ A Aᵀ u must be diag(σ²).
        let a = rand_mat(9, 20, 6);
        let svd = svd_of(&a, 9);
        let gram = syrk(&a);
        let ug = gemm(&svd.u, Transpose::Yes, &gram, Transpose::No, 1.0);
        let ugu = gemm(&ug, Transpose::No, &svd.u, Transpose::No, 1.0);
        for i in 0..9 {
            for j in 0..9 {
                let expect = if i == j {
                    svd.singular_values[i].powi(2)
                } else {
                    0.0
                };
                assert!((ugu[(i, j)] - expect).abs() < 1e-7, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn clamps_negative_roundoff_eigenvalues() {
        // Rank-1 Gram: trailing eigenvalues may be tiny negatives.
        let x = [1.0, 1e-9, -1e-9];
        let g = Matrix::from_fn(3, 3, |i, j| x[i] * x[j]);
        let svd = leading_from_gram(&g, 3);
        assert!(svd
            .singular_values
            .iter()
            .all(|s| s.is_finite() && *s >= 0.0));
    }
}
