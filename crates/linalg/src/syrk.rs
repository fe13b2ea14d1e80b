//! Symmetric rank-k update: the workspace's `dsyrk` replacement.
//!
//! The paper's SVD step computes Gram matrices `G = Z(n) · Z(n)ᵀ` and notes
//! that the symmetry should be exploited (§5, "dysrk calls which exploits the
//! symmetry in the product"). We compute only the lower triangle and mirror.
//!
//! Two families of entry points live here:
//!
//! * [`syrk`] / [`syrk_into`] — `C = α·A·Aᵀ + β·C` on owned [`Matrix`]
//!   operands (the classic `dsyrk` shape);
//! * [`syrk_ata_lower`] — an accumulating `C += AᵀA` rank-k update on raw
//!   column-major slices, restricted to a row range. This is the building
//!   block of the fused Gram kernel in `tucker-tensor`: each contiguous slab
//!   of the canonical tensor layout is one such contribution, so no unfolding
//!   is ever materialized.
//!
//! Like [`mod@crate::gemm`], every entry point picks between two kernels at
//! runtime: the packed, register-tiled triangle-aware macro-loop from
//! [`crate::pack`] (only lower-panel tiles are packed and computed; tiles
//! straddling the diagonal store under an `i ≥ j` mask) once the problem
//! amortizes packing, and the original unrolled dot/axpy loops below the
//! threshold or when `KernelMode::Naive` pins the baseline. Both kernels
//! honor the same contract: **only the lower triangle is written**.

use crate::matrix::Matrix;
use crate::pack;
use crate::pool::Pool;

/// `C = A · Aᵀ` for column-major `A` (`m x k`), allocating the `m x m` output.
pub fn syrk(a: &Matrix) -> Matrix {
    let m = a.nrows();
    let mut c = Matrix::zeros(m, m);
    syrk_into(a, 1.0, 0.0, &mut c);
    c
}

/// `C = alpha * A·Aᵀ + beta * C`, computing only the lower triangle and
/// mirroring into the upper triangle afterwards.
///
/// # Panics
/// Panics if `C` is not `m x m` for `A` of shape `m x k`.
pub fn syrk_into(a: &Matrix, alpha: f64, beta: f64, c: &mut Matrix) {
    let (m, k) = a.shape();
    assert_eq!(c.shape(), (m, m), "syrk output must be {m}x{m}");

    if beta == 0.0 {
        c.as_mut_slice().fill(0.0);
    } else if beta != 1.0 {
        c.scale(beta);
    }
    if m == 0 {
        return;
    }

    if pack::use_packed(m, m, k) {
        // A·Aᵀ on the packed triangle-aware kernel: operand strides (1, m),
        // lower triangle only, mirrored below like the naive path.
        pack::with_thread_packs(|p| {
            pack::syrk_packed_lower(m, k, a.as_slice(), 1, m, alpha, c.as_mut_slice(), p);
        });
        mirror_lower(c.as_mut_slice(), m);
        return;
    }

    // Accumulate column-by-column of A: C += alpha * a_l * a_lᵀ, lower only.
    // Parallelize over output columns (each task owns full output columns, so
    // no write conflicts).
    let a_buf = a.as_slice();
    let c_buf = c.as_mut_slice();
    let work = m * m * k;
    let do_col = |j: usize, cj: &mut [f64]| {
        for l in 0..k {
            let al = &a_buf[l * m..(l + 1) * m];
            let alj = alpha * al[j];
            // Only rows i >= j (lower triangle).
            for (cv, av) in cj[j..].iter_mut().zip(&al[j..]) {
                *cv += alj * av;
            }
        }
    };
    if work >= (1 << 16) && m >= 8 {
        Pool::shared().chunks_mut(c_buf, m, do_col);
    } else {
        c_buf
            .chunks_mut(m)
            .enumerate()
            .for_each(|(j, cj)| do_col(j, cj));
    }

    mirror_lower(c.as_mut_slice(), m);
}

/// Accumulating lower-triangle `AᵀA` update on raw column-major storage:
/// `C[l₁, l₂] += Σ_{r0 ≤ r < r1} A[r, l₁] · A[r, l₂]` for every `l₂ ≤ l₁`.
///
/// `a` holds `n` columns with leading dimension `lda` (only rows `r0..r1`
/// are read); `c` is a column-major `n × n` buffer of which only the lower
/// triangle is written. Callers sum any number of such contributions and
/// mirror once at the end with [`mirror_lower`].
///
/// Each inner product runs over a *contiguous* slice of `a`, which is what
/// makes this the right primitive for Gram matrices computed slab-by-slab
/// from the canonical tensor layout.
///
/// # Panics
/// Debug-panics if the row range or buffer lengths are inconsistent.
pub fn syrk_ata_lower(a: &[f64], lda: usize, n: usize, r0: usize, r1: usize, c: &mut [f64]) {
    debug_assert!(
        r0 <= r1 && r1 <= lda,
        "row range {r0}..{r1} exceeds lda {lda}"
    );
    debug_assert!(n == 0 || a.len() >= (n - 1) * lda + r1, "operand too short");
    debug_assert_eq!(c.len(), n * n, "output must be {n}x{n}");
    if r0 == r1 {
        return;
    }
    if pack::use_packed(n, n, r1 - r0) {
        // The operand is Sᵀ for S = rows r0..r1 of the slab: element (l1, l)
        // of the n×(r1-r0) strided view sits at a[r0 + l + l1·lda].
        pack::with_thread_packs(|p| {
            pack::syrk_packed_lower(n, r1 - r0, &a[r0..], lda, 1, 1.0, c, p);
        });
        return;
    }
    for (l2, cc) in c.chunks_mut(n).enumerate() {
        let y = &a[l2 * lda + r0..l2 * lda + r1];
        for (cv, x_col) in cc[l2..].iter_mut().zip(a[l2 * lda..].chunks(lda)) {
            *cv += unrolled_dot(&x_col[r0..r1], y);
        }
    }
}

/// Dot product with eight independent partial sums: breaking the
/// floating-point reduction chain lets the backend keep the FMA pipeline
/// full (a single-accumulator loop serializes on the add latency). Shared by
/// the `AᵀA` update above and the contiguous-fiber kernels in
/// `tucker-tensor`.
///
/// # Panics
/// Debug-panics if the slices differ in length.
#[inline]
pub fn unrolled_dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    const LANES: usize = 8;
    let mut acc = [0.0f64; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for l in 0..LANES {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut s = 0.0;
    for (xv, yv) in xc.remainder().iter().zip(yc.remainder()) {
        s += xv * yv;
    }
    s + ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Accumulating lower-triangle `A·Aᵀ` update over a contiguous **column**
/// range of a column-major `m × k` matrix given as a raw slice:
/// `C[i, j] += Σ_{c0 ≤ l < c1} A[i, l] · A[j, l]` for every `j ≤ i`.
///
/// This is the rank-1-per-column (axpy) formulation of the Gram update —
/// the right shape when the vectors are contiguous columns, e.g. mode-0
/// fibers in the canonical tensor layout (where the unfolding is the raw
/// buffer itself). Pair with [`mirror_lower`] once all contributions are in.
///
/// # Panics
/// Debug-panics if the column range or buffer lengths are inconsistent.
pub fn syrk_aat_lower(a: &[f64], m: usize, c0: usize, c1: usize, c: &mut [f64]) {
    debug_assert!(c0 <= c1 && c1 * m <= a.len(), "column range out of bounds");
    debug_assert_eq!(c.len(), m * m, "output must be {m}x{m}");
    if pack::use_packed(m, m, c1 - c0) {
        // Columns c0..c1 as an m×(c1-c0) contiguous operand: strides (1, m).
        pack::with_thread_packs(|p| {
            pack::syrk_packed_lower(m, c1 - c0, &a[c0 * m..], 1, m, 1.0, c, p);
        });
        return;
    }
    for col in a[c0 * m..c1 * m].chunks_exact(m) {
        for (j, &v) in col.iter().enumerate() {
            let cj = &mut c[j * m..(j + 1) * m];
            for (cv, av) in cj[j..].iter_mut().zip(&col[j..]) {
                *cv += v * av;
            }
        }
    }
}

/// Copy the lower triangle of a column-major `n × n` buffer into the upper
/// triangle, making it exactly symmetric.
pub fn mirror_lower(c: &mut [f64], n: usize) {
    debug_assert_eq!(c.len(), n * n);
    for j in 0..n {
        for i in (j + 1)..n {
            c[i * n + j] = c[j * n + i];
        }
    }
}

/// Symmetrize a nearly-symmetric matrix in place: `C <- (C + Cᵀ)/2`.
///
/// Used after all-reducing Gram contributions, where floating-point
/// non-associativity across ranks can introduce tiny asymmetries.
pub(crate) fn symmetrize(c: &mut Matrix) {
    let (m, n) = c.shape();
    assert_eq!(m, n, "symmetrize needs a square matrix");
    for j in 0..n {
        for i in (j + 1)..n {
            let v = 0.5 * (c[(i, j)] + c[(j, i)]);
            c[(i, j)] = v;
            c[(j, i)] = v;
        }
    }
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
    fn matches_gemm_aat() {
        for (m, k, seed) in [(5, 7, 1u64), (16, 3, 2), (33, 40, 3)] {
            let a = rand_mat(m, k, seed);
            let c = syrk(&a);
            let r = gemm(&a, Transpose::No, &a, Transpose::Yes, 1.0);
            assert!(c.max_abs_diff(&r) < 1e-11, "m={m} k={k}");
        }
    }

    #[test]
    fn output_is_exactly_symmetric() {
        let a = rand_mat(20, 9, 7);
        let c = syrk(&a);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
    }

    #[test]
    fn accumulation_with_beta() {
        let a = rand_mat(6, 4, 9);
        let mut c = syrk(&a);
        // C = 1*A Aᵀ + 1*C = 2 A Aᵀ
        syrk_into(&a, 1.0, 1.0, &mut c);
        let mut r = gemm(&a, Transpose::No, &a, Transpose::Yes, 1.0);
        r.scale(2.0);
        assert!(c.max_abs_diff(&r) < 1e-11);
    }

    #[test]
    fn symmetrize_fixes_asymmetry() {
        let mut c = Matrix::from_rows(&[&[1.0, 2.0], &[2.2, 3.0]]);
        symmetrize(&mut c);
        assert_eq!(c[(0, 1)], c[(1, 0)]);
        assert!((c[(0, 1)] - 2.1).abs() < 1e-15);
    }

    #[test]
    fn zero_columns_gives_zero_gram() {
        let a = Matrix::zeros(4, 0);
        let c = syrk(&a);
        assert_eq!(c.shape(), (4, 4));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn ata_lower_matches_gemm() {
        let a = rand_mat(9, 5, 11);
        let mut c = vec![0.0; 25];
        syrk_ata_lower(a.as_slice(), 9, 5, 0, 9, &mut c);
        mirror_lower(&mut c, 5);
        let got = Matrix::from_vec(5, 5, c);
        let want = gemm(&a, Transpose::Yes, &a, Transpose::No, 1.0);
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn ata_lower_row_ranges_accumulate() {
        // Splitting the row range in two and summing must equal one pass.
        let a = rand_mat(10, 4, 12);
        let mut whole = vec![0.0; 16];
        syrk_ata_lower(a.as_slice(), 10, 4, 0, 10, &mut whole);
        let mut split = vec![0.0; 16];
        syrk_ata_lower(a.as_slice(), 10, 4, 0, 3, &mut split);
        syrk_ata_lower(a.as_slice(), 10, 4, 3, 10, &mut split);
        for (w, s) in whole.iter().zip(&split) {
            assert!((w - s).abs() < 1e-13);
        }
        // Empty range is a no-op.
        let before = split.clone();
        syrk_ata_lower(a.as_slice(), 10, 4, 7, 7, &mut split);
        assert_eq!(split, before);
    }

    #[test]
    fn mirror_lower_symmetrizes_exactly() {
        // Column-major 3x3 with garbage in the upper triangle.
        let mut c = vec![1.0, 2.0, 3.0, 9.0, 4.0, 5.0, 9.0, 9.0, 6.0];
        mirror_lower(&mut c, 3);
        let m = Matrix::from_vec(3, 3, c);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 2)], 5.0);
    }
}
