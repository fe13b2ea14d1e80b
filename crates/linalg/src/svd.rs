//! Leading left singular vectors via the Gram-matrix route.
//!
//! The paper (§5) computes the SVD step of HOOI as a distributed Gram product
//! `G = Z(n) Z(n)ᵀ` followed by a sequential symmetric EVD — the left
//! singular vectors of `Z(n)` are the eigenvectors of `G`, and the singular
//! values are the square roots of its (non-negative) eigenvalues. This module
//! provides the sequential building block; the distributed Gram accumulation
//! lives in `tucker-distsim`.

use crate::evd::{sym_evd, sym_evd_leading, SymEvd};
use crate::matrix::Matrix;
use crate::syrk::{symmetrize, syrk};

/// Result of a Gram-based truncated SVD.
#[derive(Clone, Debug)]
pub struct GramSvd {
    /// Leading left singular vectors as columns (`m x k`).
    pub u: Matrix,
    /// Corresponding singular values, descending.
    pub singular_values: Vec<f64>,
}

/// Leading `k` left singular vectors of `a` (`m x n`), computed from the
/// `m x m` Gram matrix `a·aᵀ`.
///
/// # Panics
/// Panics if `k > m`.
pub fn leading_left_singular_vectors(a: &Matrix, k: usize) -> GramSvd {
    let m = a.nrows();
    assert!(k <= m, "cannot take {k} singular vectors from {m} rows");
    let gram = syrk(a);
    leading_from_gram(&gram, k)
}

/// Leading `k` eigenvector/singular-value pairs from an already-computed
/// Gram matrix (e.g. one that was all-reduced across ranks).
///
/// This is the one place the eigensolver is chosen, from `(order, k)` alone
/// (`selected_saves_work` below): the selected-eigenpair solver
/// [`sym_evd_leading`] wherever it does less work than the full-spectrum
/// [`sym_evd`]. Both give the same order and sign convention, so the choice
/// is invisible to callers up to round-off — and two callers handing in
/// bit-identical Grams get bit-identical factors.
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
    } = if selected_saves_work(m, k) {
        sym_evd_leading(g, k)
    } else {
        sym_evd(&g)
    };
    let u = eigenvectors.truncate_cols(k);
    let singular_values = eigenvalues[..k]
        .iter()
        .map(|&l| l.max(0.0).sqrt())
        .collect();
    GramSvd { u, singular_values }
}

/// Whether [`sym_evd_leading`] does less work than [`sym_evd`] for `k`
/// vectors of an order-`l` Gram. Both tridiagonalize (`4/3·l³` flops) and
/// iterate for the eigenvalues (`O(l²)`); past that, per row of the matrix,
///
/// * the full solver forms `Q` (`4/3·l²`) and rotates all `l` eigenvector
///   columns through every QL step (`≈ 3·l²`),
/// * the selected one back-transforms `k` vectors (`2·l·k`), finds them by
///   inverse iteration (two or three tridiagonal solves each, `≈ 60·k`) and
///   re-orthogonalizes within clusters (at most `k²`),
///
/// so it pays when `13/3·l² > 2·l·k + 60·k + k²`. The constant `60` is where
/// the measured crossover sits (`experiments -- kernels`, the `"evd"` rows of
/// `results/BENCH_kernels.json`; µs on a 2-core AVX2 VM):
///
/// | `(l, k)` | (10,6) | (16,8) | (32,8) | (64,16) | (160,32) | (256,32) |
/// |---|---|---|---|---|---|---|
/// | full | 7.9 | 26 | 148 | 851 | 6695 | 41990 |
/// | selected | 8.3 | 23 | 69 | 281 | 1604 | 4948 |
/// | picked | full | selected | selected | selected | selected | selected |
///
/// On a finer grid (twelve orders up to 64, five `k` each, two spectra) every
/// case the rule gets wrong is a near-tie, selected/full between 0.94 and
/// 1.04. Of the Grams every rank of the P = 1024 scaling runs decomposes,
/// 12→8 and 10→6 stay on QL and 16→8 sits on the tie; with `k = l` the
/// selected path only wins from about `l = 45`.
const fn selected_saves_work(l: usize, k: usize) -> bool {
    13 * l * l > 3 * (2 * l * k + 60 * k + k * k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Transpose};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        Matrix::random(r, c, &dist, &mut rng)
    }

    #[test]
    fn diagonal_singular_values() {
        // A = diag(3, 2) padded: singular values are 3, 2.
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 2.0, 0.0]]);
        let svd = leading_left_singular_vectors(&a, 2);
        assert!((svd.singular_values[0] - 3.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-10);
        assert!(svd.u.has_orthonormal_columns(1e-10));
    }

    #[test]
    fn u_is_orthonormal_and_captures_energy() {
        let a = rand_mat(12, 40, 3);
        let svd = leading_left_singular_vectors(&a, 12);
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
        let svd = leading_left_singular_vectors(&a, 1);
        // Leading left vector aligned with u0 up to sign.
        let dot: f64 = svd.u.col(0).iter().zip(&u0).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.999, "dominant direction not recovered: {dot}");
    }

    #[test]
    fn matches_gram_eigenvalues() {
        let a = rand_mat(8, 15, 5);
        let gram = syrk(&a);
        let svd1 = leading_left_singular_vectors(&a, 5);
        let svd2 = leading_from_gram(&gram, 5);
        for (s1, s2) in svd1.singular_values.iter().zip(&svd2.singular_values) {
            assert!((s1 - s2).abs() < 1e-10);
        }
        assert!(svd1.u.max_abs_diff(&svd2.u) < 1e-8);
    }

    #[test]
    fn left_vectors_diagonalize() {
        // uᵀ A Aᵀ u must be diag(σ²).
        let a = rand_mat(9, 20, 6);
        let svd = leading_left_singular_vectors(&a, 9);
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
    fn both_sides_of_the_dispatch_boundary_agree() {
        // Order 16: the largest k on the selected solver, and the next one,
        // which stays on QL.
        let below = (1..16)
            .rev()
            .find(|&k| selected_saves_work(16, k))
            .expect("small k is on the selected path");
        assert!(!selected_saves_work(16, below + 1));
        // Singular values 0.8^j: every eigengap is wide, so the vectors
        // themselves (not just the subspace) are determined to round-off.
        let mut a = rand_mat(16, 48, 7);
        for j in 0..48 {
            for v in a.col_mut(j) {
                *v *= 0.8f64.powi((j % 16) as i32);
            }
        }
        let gram = syrk(&a);
        for k in [below, below + 1] {
            let got = leading_from_gram(&gram, k);
            let full = sym_evd(&gram);
            let selected = sym_evd_leading(gram.clone(), k);
            for (name, evd) in [("sym_evd", &full), ("sym_evd_leading", &selected)] {
                assert!(
                    got.u.max_abs_diff(&evd.leading(k)) < 1e-12,
                    "k={k}: u differs from {name}'s"
                );
                for (s, l) in got.singular_values.iter().zip(&evd.eigenvalues) {
                    assert!((s - l.sqrt()).abs() < 1e-12, "k={k}: sigma vs {name}");
                }
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
