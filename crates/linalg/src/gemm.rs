//! Blocked general matrix-matrix multiply.
//!
//! This is the workspace's `dgemm` replacement. Two implementations live
//! behind the same entry points:
//!
//! * the **packed path** — the register-tiled, panel-packed micro-kernel
//!   nest from [`crate::pack`], used whenever the problem is big enough to
//!   amortize packing ([`crate::pack::use_packed`]); transposed operands are
//!   handled by stride swaps, so no transposed copy is ever materialized;
//! * the **naive path** — a simple axpy-based cache-blocked loop nest, kept
//!   both as the small-operand fast path (packing tiny operands costs more
//!   than it saves) and as the differential baseline the packed kernels are
//!   tested and benched against (`KernelMode::Naive` pins it).
//!
//! Parallelism is a column-panel split of `C` at the outermost level in both
//! paths, run on [`Pool::shared`]; packed parts stage through their
//! participant's own (warm) pack buffers.

use crate::matrix::Matrix;
use crate::pack;
use crate::pool::Pool;

/// Whether an operand participates as itself or its transpose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

impl Transpose {
    /// Logical shape of an operand under this transpose flag.
    #[inline]
    pub(crate) fn apply(self, (r, c): (usize, usize)) -> (usize, usize) {
        match self {
            Transpose::No => (r, c),
            Transpose::Yes => (c, r),
        }
    }
}

const MC: usize = 128; // rows of A per block
const KC: usize = 256; // shared dimension per block
const PAR_COL_PANEL: usize = 64; // columns of C per parallel part
const PAR_MIN_WORK: usize = 1 << 16; // below this, stay sequential

/// `C = alpha * op_a(A) * op_b(B)`, allocating the output.
///
/// # Panics
/// Panics if the inner dimensions of `op_a(A)` and `op_b(B)` disagree.
pub fn gemm(a: &Matrix, op_a: Transpose, b: &Matrix, op_b: Transpose, alpha: f64) -> Matrix {
    let (m, ka) = op_a.apply(a.shape());
    let (kb, n) = op_b.apply(b.shape());
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    let mut c = Matrix::zeros(m, n);
    gemm_into(a, op_a, b, op_b, alpha, 0.0, &mut c);
    c
}

/// `C = alpha * op_a(A) * op_b(B) + beta * C` into a caller-provided matrix.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn gemm_into(
    a: &Matrix,
    op_a: Transpose,
    b: &Matrix,
    op_b: Transpose,
    alpha: f64,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, ka) = op_a.apply(a.shape());
    let (kb, n) = op_b.apply(b.shape());
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let k = ka;

    if beta == 0.0 {
        c.as_mut_slice().fill(0.0);
    } else if beta != 1.0 {
        c.scale(beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    if pack::use_packed(m, n, k) {
        gemm_into_packed(a, op_a, b, op_b, alpha, c);
        return;
    }

    // Pack op_a(A) once: the packed buffer is read-only and shared across the
    // parallel column panels of C.
    let a_packed = pack_op(a, op_a);
    let work = m * n * k;
    let c_rows = m;
    let c_buf = c.as_mut_slice();

    let do_panel = |panel_idx: usize, c_panel: &mut [f64]| {
        let j0 = panel_idx * PAR_COL_PANEL;
        let jn = (c_panel.len() / c_rows).min(n - j0);
        // Pack the needed columns of op_b(B) for this panel.
        let b_panel = pack_op_cols(b, op_b, j0, jn, k);
        kernel(&a_packed, m, k, &b_panel, jn, alpha, c_panel);
    };

    if work >= PAR_MIN_WORK && n > PAR_COL_PANEL {
        Pool::shared().chunks_mut(c_buf, c_rows * PAR_COL_PANEL, do_panel);
    } else {
        c_buf
            .chunks_mut(c_rows * PAR_COL_PANEL)
            .enumerate()
            .for_each(|(i, c_panel)| do_panel(i, c_panel));
    }
}

/// Strided view of `op(X)`: element `(i, j)` of the logical operand at
/// `x[i·rs + j·cs]` — a stride swap instead of a transposed copy.
#[inline]
fn op_strides(x: &Matrix, op: Transpose) -> (usize, usize) {
    match op {
        Transpose::No => (1, x.nrows()),
        Transpose::Yes => (x.nrows(), 1),
    }
}

/// The packed-path body of [`gemm_into`] (beta already applied, non-empty
/// problem): column-panel parallel, one pack pair per participant.
fn gemm_into_packed(
    a: &Matrix,
    op_a: Transpose,
    b: &Matrix,
    op_b: Transpose,
    alpha: f64,
    c: &mut Matrix,
) {
    let (m, k) = op_a.apply(a.shape());
    let n = op_b.apply(b.shape()).1;
    let (a_rs, a_cs) = op_strides(a, op_a);
    let (b_rs, b_cs) = op_strides(b, op_b);
    let (a_buf, b_buf) = (a.as_slice(), b.as_slice());
    let c_buf = c.as_mut_slice();

    let work = m * n * k;
    let workers = if work >= PAR_MIN_WORK {
        crate::os_threads().min(n.div_ceil(pack::NR))
    } else {
        1
    };
    if workers > 1 {
        // Column split of C: per-element accumulation order is unchanged by
        // the partition (blocking over k is column-independent).
        let per = n.div_ceil(workers).max(pack::NR);
        Pool::shared().chunks_mut(c_buf, m * per, |w, cc| {
            let j0 = w * per;
            let jn = cc.len() / m;
            pack::with_part_packs(|packs| {
                pack::gemm_packed(
                    m,
                    jn,
                    k,
                    a_buf,
                    a_rs,
                    a_cs,
                    &b_buf[j0 * b_cs..],
                    b_rs,
                    b_cs,
                    alpha,
                    cc,
                    m,
                    packs,
                );
            });
        });
    } else {
        pack::with_thread_packs(|packs| {
            pack::gemm_packed(
                m, n, k, a_buf, a_rs, a_cs, b_buf, b_rs, b_cs, alpha, c_buf, m, packs,
            );
        });
    }
}

/// Pack `op(X)` into a fresh column-major buffer.
fn pack_op(x: &Matrix, op: Transpose) -> Vec<f64> {
    match op {
        Transpose::No => x.as_slice().to_vec(),
        Transpose::Yes => {
            let (r, c) = x.shape();
            // result is c x r, column-major
            let mut out = vec![0.0; r * c];
            for j in 0..r {
                for i in 0..c {
                    out[i + j * c] = x[(j, i)];
                }
            }
            out
        }
    }
}

/// Pack columns `[j0, j0+jn)` of `op(B)` (shape `k x n`) column-major.
fn pack_op_cols(b: &Matrix, op: Transpose, j0: usize, jn: usize, k: usize) -> Vec<f64> {
    let mut out = vec![0.0; k * jn];
    match op {
        Transpose::No => {
            for j in 0..jn {
                out[j * k..(j + 1) * k].copy_from_slice(b.col(j0 + j));
            }
        }
        Transpose::Yes => {
            // op(B)[l, j] = B[j, l]
            for j in 0..jn {
                for l in 0..k {
                    out[l + j * k] = b[(j0 + j, l)];
                }
            }
        }
    }
    out
}

/// Sequential blocked kernel: `C += alpha * A * B` where `A` is `m x k`
/// column-major, `B` is `k x jn` column-major, `C` is `m x jn` column-major.
fn kernel(a: &[f64], m: usize, k: usize, b: &[f64], jn: usize, alpha: f64, c: &mut [f64]) {
    for l0 in (0..k).step_by(KC) {
        let lb = KC.min(k - l0);
        for i0 in (0..m).step_by(MC) {
            let ib = MC.min(m - i0);
            for j in 0..jn {
                let cj = &mut c[j * m..(j + 1) * m];
                let bj = &b[j * k..(j + 1) * k];
                for l in l0..l0 + lb {
                    let blj = alpha * bj[l];
                    let al = &a[l * m + i0..l * m + i0 + ib];
                    let cji = &mut cj[i0..i0 + ib];
                    // Inner axpy: auto-vectorizes.
                    for (cv, av) in cji.iter_mut().zip(al) {
                        *cv += blj * av;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Naive reference multiply for verification.
    fn naive(a: &Matrix, op_a: Transpose, b: &Matrix, op_b: Transpose) -> Matrix {
        let (m, k) = op_a.apply(a.shape());
        let (_, n) = op_b.apply(b.shape());
        Matrix::from_fn(m, n, |i, j| {
            (0..k)
                .map(|l| {
                    let av = match op_a {
                        Transpose::No => a[(i, l)],
                        Transpose::Yes => a[(l, i)],
                    };
                    let bv = match op_b {
                        Transpose::No => b[(l, j)],
                        Transpose::Yes => b[(j, l)],
                    };
                    av * bv
                })
                .sum()
        })
    }

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        Matrix::random(r, c, &dist, &mut rng)
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = gemm(&a, Transpose::No, &b, Transpose::No, 1.0);
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert!(c.max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn all_transpose_combinations_match_naive() {
        for (ta, tb) in [
            (Transpose::No, Transpose::No),
            (Transpose::No, Transpose::Yes),
            (Transpose::Yes, Transpose::No),
            (Transpose::Yes, Transpose::Yes),
        ] {
            // shapes chosen so op(a): 7x5, op(b): 5x9
            let a = match ta {
                Transpose::No => rand_mat(7, 5, 1),
                Transpose::Yes => rand_mat(5, 7, 2),
            };
            let b = match tb {
                Transpose::No => rand_mat(5, 9, 3),
                Transpose::Yes => rand_mat(9, 5, 4),
            };
            let c = gemm(&a, ta, &b, tb, 1.0);
            let r = naive(&a, ta, &b, tb);
            assert!(c.max_abs_diff(&r) < 1e-12, "mismatch for {ta:?},{tb:?}");
        }
    }

    #[test]
    fn blocked_path_matches_naive_on_large() {
        // Sizes crossing MC/KC/PAR boundaries.
        let a = rand_mat(150, 300, 10);
        let b = rand_mat(300, 130, 11);
        let c = gemm(&a, Transpose::No, &b, Transpose::No, 1.0);
        let r = naive(&a, Transpose::No, &b, Transpose::No);
        assert!(c.max_abs_diff(&r) < 1e-10);
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = rand_mat(6, 4, 20);
        let b = rand_mat(4, 5, 21);
        let mut c = rand_mat(6, 5, 22);
        let c0 = c.clone();
        gemm_into(&a, Transpose::No, &b, Transpose::No, 2.0, 3.0, &mut c);
        let r = naive(&a, Transpose::No, &b, Transpose::No);
        for j in 0..5 {
            for i in 0..6 {
                let expect = 2.0 * r[(i, j)] + 3.0 * c0[(i, j)];
                assert!((c[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_dimension_is_ok() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let c = gemm(&a, Transpose::No, &b, Transpose::No, 1.0);
        assert_eq!(c.shape(), (0, 4));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = gemm(&a, Transpose::No, &b, Transpose::No, 1.0);
    }
}
