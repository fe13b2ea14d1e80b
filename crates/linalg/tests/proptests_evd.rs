//! Property tests fencing the selected-eigenpair solver
//! (`tucker_linalg::sym_evd_leading`) against an independent oracle, the
//! cyclic Jacobi solver `jacobi_evd` defined here, and against its own full
//! spectrum (`k = L`).
//!
//! The inputs are Grams `B·Bᵀ` of tall and wide matrices `B = Q·diag(σ)·Wᵀ`
//! (`Q`, `W` orthonormalized by the Householder QR `householder_qr`, also
//! defined here, so no input passes through the solver under test)
//! with a prescribed singular spectrum — geometric (well separated), flat
//! (one exact cluster, plus an exact null cluster when `B` is tall) and
//! two-level (two clusters six orders apart) — because clustered spectra are
//! what the inverse-iteration stage has to get right: drop its cluster
//! re-orthogonalization and `orthonormal_and_residual` fails on the flat and
//! two-level cases.
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`); `PROPTEST_SEED` / `PROPTEST_CASES` explore other
//! streams or bound the case count.

use proptest::prelude::*;
use tucker_linalg::{gemm, sym_evd_leading, syrk, Matrix, SymEvd, Transpose};

/// Householder QR of `a` (`m x n`): the thin orthonormal factor `Q`
/// (`m x k`) and the upper-triangular `R` (`k x n`), `k = min(m, n)`.
fn householder_qr(a: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let k = m.min(n);
    let mut r_full = a.clone();
    // The Householder vectors; v[j] has length m - j (all zero: identity step).
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
    for j in 0..k {
        let mut v: Vec<f64> = (j..m).map(|i| r_full[(i, j)]).collect();
        let alpha = -v[0].signum() * v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if alpha == 0.0 {
            vs.push(vec![0.0; m - j]);
            continue;
        }
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            vs.push(vec![0.0; m - j]);
            continue;
        }
        // Apply H = I - 2 v vᵀ / |v|² to the trailing submatrix.
        for c in j..n {
            let dot: f64 = (j..m).map(|i| v[i - j] * r_full[(i, c)]).sum();
            let f = 2.0 * dot / vnorm2;
            for i in j..m {
                r_full[(i, c)] -= f * v[i - j];
            }
        }
        vs.push(v);
    }
    let r = Matrix::from_fn(k, n, |i, j| if j >= i { r_full[(i, j)] } else { 0.0 });
    // Q = H_0 H_1 ... H_{k-1} applied to the first k columns of I.
    let mut q = Matrix::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
    for (j, v) in vs.iter().enumerate().rev() {
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        for c in 0..k {
            let dot: f64 = (j..m).map(|i| v[i - j] * q[(i, c)]).sum();
            let f = 2.0 * dot / vnorm2;
            for i in j..m {
                q[(i, c)] -= f * v[i - j];
            }
        }
    }
    (q, r)
}

/// An `m x k` matrix with orthonormal columns spanning (and, for
/// rank-deficient input, completing) the columns of `a`: its thin QR `Q`.
///
/// # Panics
/// Panics if `k > m`.
fn orthonormal_columns(a: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    assert!(k <= m, "need at least as many rows ({m}) as columns ({k})");
    householder_qr(a).0
}

/// Cyclic Jacobi eigensolver: a robust `O(n³ · sweeps)` oracle sharing
/// nothing with `sym_evd_leading` but the output convention — eigenvalues
/// descending, the largest-magnitude component of each vector positive.
///
/// # Panics
/// Panics if `a` is not square or the sweep limit (30) is exhausted.
fn jacobi_evd(a: &Matrix) -> SymEvd {
    let (n, m) = a.shape();
    assert_eq!(n, m, "jacobi_evd needs a square matrix");
    let mut a = a.clone();
    let mut v = Matrix::identity(n);
    let off_diag_norm = |a: &Matrix| {
        let mut s = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                s += 2.0 * a[(p, q)] * a[(p, q)];
            }
        }
        f64::sqrt(s)
    };
    let threshold = f64::EPSILON * a.fro_norm().max(f64::MIN_POSITIVE);
    let mut sweeps = 0;
    while off_diag_norm(&a) > threshold {
        sweeps += 1;
        assert!(sweeps <= 30, "jacobi_evd failed to converge");
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= threshold * 1e-2 {
                    continue;
                }
                let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate columns p, q of A and V, then rows p, q of A.
                for k in 0..n {
                    let (akp, akq) = (a[(k, p)], a[(k, q)]);
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                    let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
                for k in 0..n {
                    let (apk, aqk) = (a[(p, k)], a[(q, k)]);
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[(j, j)].partial_cmp(&a[(i, i)]).expect("NaN eigenvalue"));
    let eigenvalues = order.iter().map(|&i| a[(i, i)]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        let col = v.col(src);
        let pivot = col
            .iter()
            .fold(0.0f64, |m, &x| if x.abs() > m.abs() { x } else { m });
        let sign = if pivot < 0.0 { -1.0 } else { 1.0 };
        for (o, &x) in eigenvectors.col_mut(dst).iter_mut().zip(col) {
            *o = sign * x;
        }
    }
    SymEvd {
        eigenvalues,
        eigenvectors,
    }
}

/// Deterministic hash noise in [-0.5, 0.5).
fn noise(seed: u64, i: usize) -> f64 {
    let x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

fn noise_mat(seed: u64, r: usize, c: usize) -> Matrix {
    Matrix::from_fn(r, c, |i, j| noise(seed, i * c + j))
}

#[derive(Clone, Copy, Debug)]
enum Spectrum {
    Geometric,
    Flat,
    TwoLevel,
}

/// The Gram `B·Bᵀ` (`l x l`) of `B = Q·diag(σ)·Wᵀ` (`l x cols`), `Q` and `W`
/// with `r = min(l, cols)` orthonormal columns: eigenvalues `σ²` and, for a
/// tall `B` (`cols < l`), `l − cols` zeros.
fn gram(l: usize, cols: usize, spectrum: Spectrum, seed: u64) -> Matrix {
    let r = l.min(cols);
    let q = orthonormal_columns(&noise_mat(seed, l, r));
    let w = orthonormal_columns(&noise_mat(seed ^ 0xabcd, cols, r));
    let sigma = |j: usize| match spectrum {
        // Eigenvalues from 1 down to 1e-10.
        Spectrum::Geometric => 1e-5f64.powf(j as f64 / (r.max(2) - 1) as f64),
        Spectrum::Flat => 1.0,
        Spectrum::TwoLevel => {
            if j < r.div_ceil(2) {
                1.0
            } else {
                1e-3
            }
        }
    };
    let qs = Matrix::from_fn(l, r, |i, j| q[(i, j)] * sigma(j));
    syrk(&gemm(&qs, Transpose::No, &w, Transpose::Yes, 1.0))
}

fn max_abs(m: &Matrix) -> f64 {
    m.as_slice().iter().fold(0.0, |a: f64, v| a.max(v.abs()))
}

/// `max |UᵀU − I|`.
fn orthonormality_defect(u: &Matrix) -> f64 {
    let mut utu = gemm(u, Transpose::Yes, u, Transpose::No, 1.0);
    for j in 0..u.ncols() {
        utu[(j, j)] -= 1.0;
    }
    max_abs(&utu)
}

/// `‖G·U − U·Λ‖_F`.
fn residual(g: &Matrix, evd: &SymEvd) -> f64 {
    let u = &evd.eigenvectors;
    let mut gu = gemm(g, Transpose::No, u, Transpose::No, 1.0);
    for (j, &lam) in evd.eigenvalues.iter().enumerate() {
        for (r, &v) in gu.col_mut(j).iter_mut().zip(u.col(j)) {
            *r -= lam * v;
        }
    }
    gu.fro_norm()
}

/// The projector onto the span of the `k` leading eigenvectors.
fn projector(evd: &SymEvd, k: usize) -> Matrix {
    let lead = evd.leading(k);
    gemm(&lead, Transpose::No, &lead, Transpose::Yes, 1.0)
}

/// Every property the issue lists, for one matrix and one `k`, against one
/// full-spectrum reference.
fn check_against(g: &Matrix, k: usize, reference: &SymEvd, name: &str) -> Result<(), String> {
    let l = g.nrows();
    let gn = g.fro_norm();
    let got = sym_evd_leading(g.clone(), k);
    if got.eigenvalues.len() != k || got.eigenvectors.shape() != (l, k) {
        return Err(format!("shape: {} values", got.eigenvalues.len()));
    }
    for (j, (a, b)) in got
        .eigenvalues
        .iter()
        .zip(&reference.eigenvalues)
        .enumerate()
    {
        if (a - b).abs() > 1e-13 * gn {
            return Err(format!("eigenvalue {j}: {a} vs {name} {b}"));
        }
    }
    if got.eigenvalues.windows(2).any(|w| w[0] < w[1]) {
        return Err("eigenvalues not descending".into());
    }
    let defect = orthonormality_defect(&got.eigenvectors);
    if defect > 1e-13 {
        return Err(format!("orthonormality defect {defect:.2e}"));
    }
    let res = residual(g, &got);
    if res > 1e-13 * l as f64 * gn {
        return Err(format!("residual {res:.2e} for |G| = {gn:.2e}"));
    }
    // The subspace is only determined where the spectrum has a gap at k.
    if k > 0 && k < l && reference.eigenvalues[k - 1] - reference.eigenvalues[k] > 1e-6 * gn {
        let diff = projector(&got, k).max_abs_diff(&projector(reference, k));
        if diff > 1e-8 {
            return Err(format!("projector differs from {name}'s by {diff:.2e}"));
        }
    }
    // Sign rule: the component of largest magnitude is positive.
    for j in 0..k {
        let col = got.eigenvectors.col(j);
        let pivot = col
            .iter()
            .fold(0.0f64, |m, &v| if v.abs() > m.abs() { v } else { m });
        if pivot < 0.0 {
            return Err(format!("column {j} violates the sign rule"));
        }
    }
    Ok(())
}

/// Both full-spectrum references for `g`: the Jacobi oracle, and the
/// selected solver's own full spectrum, of which every `k` must be a prefix.
fn references(g: &Matrix) -> [(SymEvd, &'static str); 2] {
    [
        (jacobi_evd(g), "jacobi_evd"),
        (sym_evd_leading(g.clone(), g.nrows()), "full spectrum"),
    ]
}

fn ks(l: usize) -> [usize; 6] {
    [0, 1, l / 4, l / 2, l - 1, l]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eigenvalues, orthonormality, residual and (across a gap) the kept
    /// subspace agree with both full-spectrum solvers, for every `k` of
    /// interest, on tall and wide Grams of all three spectra.
    #[test]
    fn orthonormal_and_residual(
        l in 1usize..=96,
        aspect in 0u8..3,
        spectrum in 0u8..3,
        seed in 0u64..10_000,
    ) {
        // Tall (rank-deficient Gram), square-ish, wide.
        let cols = match aspect {
            0 => (l / 2).max(1),
            1 => l + 1,
            _ => 3 * l,
        };
        let spectrum = [Spectrum::Geometric, Spectrum::Flat, Spectrum::TwoLevel][spectrum as usize];
        let g = gram(l, cols, spectrum, seed);
        for (reference, name) in references(&g) {
            for k in ks(l) {
                if let Err(why) = check_against(&g, k, &reference, name) {
                    prop_assert!(false, "L={l} cols={cols} {spectrum:?} seed={seed} k={k}: {why}");
                }
            }
        }
    }

    /// Symmetric matrices that are not Grams (indefinite, no structure in the
    /// spectrum): the routine takes the algebraically largest pairs.
    #[test]
    fn indefinite_matrices(l in 1usize..=64, seed in 0u64..10_000) {
        let b = noise_mat(seed, l, l);
        let g = Matrix::from_fn(l, l, |i, j| b[(i, j)] + b[(j, i)]);
        for (reference, name) in references(&g) {
            for k in ks(l) {
                if let Err(why) = check_against(&g, k, &reference, name) {
                    prop_assert!(false, "L={l} seed={seed} k={k}: {why}");
                }
            }
        }
    }
}

/// Where the spectrum has no near-ties the sign convention pins every
/// eigenvector, so the selected solver's full spectrum and the oracle's
/// agree elementwise, not just as subspaces.
#[test]
fn ql_and_jacobi_agree() {
    for (n, seed) in [(3usize, 21u64), (10, 22), (31, 23)] {
        let b = noise_mat(seed, n, n);
        let a = Matrix::from_fn(n, n, |i, j| b[(i, j)] + b[(j, i)]);
        let e1 = sym_evd_leading(a.clone(), n);
        let e2 = jacobi_evd(&a);
        for (l1, l2) in e1.eigenvalues.iter().zip(&e2.eigenvalues) {
            assert!((l1 - l2).abs() < 1e-9, "eigenvalue mismatch n={n}");
        }
        let gaps_ok = e1
            .eigenvalues
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() > 1e-6);
        if gaps_ok {
            assert!(
                e1.eigenvectors.max_abs_diff(&e2.eigenvectors) < 1e-7,
                "eigenvector mismatch n={n}"
            );
        }
    }
}

fn check_all_ks(g: &Matrix) {
    for (reference, name) in references(g) {
        for k in ks(g.nrows()) {
            check_against(g, k, &reference, name).unwrap_or_else(|why| panic!("k={k}: {why}"));
        }
    }
}

#[test]
fn identity_is_one_exact_cluster() {
    for n in [1, 2, 7, 40] {
        check_all_ks(&Matrix::identity(n));
    }
}

#[test]
fn zero_matrix() {
    for n in [1, 5, 33] {
        check_all_ks(&Matrix::zeros(n, n));
    }
}

#[test]
fn order_one() {
    for v in [3.5, -2.0, 0.0, 1e-300, 1e300] {
        let got = sym_evd_leading(Matrix::from_rows(&[&[v]]), 1);
        assert_eq!(got.eigenvalues, vec![v]);
        assert!((got.eigenvectors[(0, 0)] - 1.0).abs() <= 1e-15);
        assert!(sym_evd_leading(Matrix::from_rows(&[&[v]]), 0)
            .eigenvalues
            .is_empty());
    }
}

/// A rank-5 Gram of order 24: every `k > 5` cuts into the exact null cluster,
/// where the eigenvalues are round-off noise around zero and only
/// re-orthogonalization keeps the vectors apart.
#[test]
fn k_cuts_into_the_null_cluster() {
    let g = gram(24, 5, Spectrum::Geometric, 77);
    check_all_ks(&g);
    for (reference, name) in references(&g) {
        for k in [5, 6, 7, 13] {
            check_against(&g, k, &reference, name).unwrap_or_else(|why| panic!("k={k}: {why}"));
        }
    }
}

/// A spectrum graded 23 decades, most of it below the round-off of the Gram
/// product. `T` ends in a block of pure noise, where a deflation test
/// relative to the neighbouring diagonal entries alone can stall for good;
/// the QL iteration splits relative to `‖T‖` and must not.
#[test]
fn graded_far_below_roundoff() {
    let (l, cols) = (75, 225);
    let q = orthonormal_columns(&noise_mat(0, l, l));
    let w = orthonormal_columns(&noise_mat(0xabcd, cols, l));
    let qs = Matrix::from_fn(l, l, |i, j| q[(i, j)] * 0.7f64.powi(j as i32));
    let g = syrk(&gemm(&qs, Transpose::No, &w, Transpose::Yes, 1.0));
    let jacobi = jacobi_evd(&g);
    for k in ks(l) {
        check_against(&g, k, &jacobi, "jacobi_evd").unwrap_or_else(|why| panic!("k={k}: {why}"));
    }
}

/// A graded Gram of the generator — order 96, two clusters six decades
/// apart — on which a QL iteration that splits relative to the neighbouring
/// diagonal entries alone never deflates the lower cluster and gives up. The
/// full spectrum must come out with residual `‖G·U − U·Λ‖_F / ‖G‖_F` and
/// orthonormality defect `max |UᵀU − I|` both at most `1e-13`.
#[test]
fn two_level_gram_of_order_96_decomposes_in_full() {
    let g = gram(96, 97, Spectrum::TwoLevel, 37);
    let full = sym_evd_leading(g.clone(), 96);
    let res = residual(&g, &full) / g.fro_norm();
    assert!(res <= 1e-13, "relative residual {res:.2e}");
    let defect = orthonormality_defect(&full.eigenvectors);
    assert!(defect <= 1e-13, "orthonormality defect {defect:.2e}");
    check_all_ks(&g);
}

/// Diagonal input: every column below the diagonal is already zero, so every
/// `tau` is zero and the tridiagonal matrix splits into `n` blocks of order 1
/// (repeated entries included).
#[test]
fn diagonal_input() {
    let diag = [3.0, -1.0, 7.0, 3.0, 0.0, 7.0, 2.5, 3.0];
    let n = diag.len();
    let g = Matrix::from_fn(n, n, |i, j| if i == j { diag[i] } else { 0.0 });
    check_all_ks(&g);
}

/// Entries near the ends of the exponent range: squares of the raw entries
/// over- or underflow, so this is the guard on computing `sqrt(f² + g²)`
/// instead of `hypot` — the routine must scale first.
#[test]
fn extreme_scales() {
    let base = gram(20, 60, Spectrum::Geometric, 5);
    let reference = jacobi_evd(&base);
    let want = sym_evd_leading(base.clone(), 6);
    for scale in [1e140, 1e-140, 1e300, 1e-300] {
        let mut g = base.clone();
        g.scale(scale);
        let got = sym_evd_leading(g, 6);
        for j in 0..6 {
            let lam = got.eigenvalues[j] / scale;
            assert!(
                (lam - reference.eigenvalues[j]).abs() <= 1e-13 * base.fro_norm(),
                "scale {scale:e}: eigenvalue {j} = {lam}"
            );
        }
        assert!(orthonormality_defect(&got.eigenvectors) <= 1e-13);
        assert!(
            got.eigenvectors.max_abs_diff(&want.eigenvectors) <= 1e-12,
            "scale {scale:e}: vectors moved"
        );
    }
}

#[test]
#[should_panic(expected = "NaN eigenvalue")]
fn nan_entry_panics_instead_of_looping() {
    let mut g = gram(12, 30, Spectrum::Geometric, 9);
    g[(7, 3)] = f64::NAN;
    g[(3, 7)] = f64::NAN;
    sym_evd_leading(g, 4);
}

#[test]
#[should_panic(expected = "cannot take 5 eigenpairs")]
fn k_beyond_the_order_panics() {
    sym_evd_leading(Matrix::identity(4), 5);
}

#[test]
fn qr_reconstructs() {
    for (m, n, seed) in [(6usize, 4usize, 1u64), (4, 4, 2), (10, 7, 3), (30, 5, 4)] {
        let a = noise_mat(seed, m, n);
        let (q, r) = householder_qr(&a);
        assert!(
            q.has_orthonormal_columns(1e-10),
            "Q not orthonormal ({m}x{n})"
        );
        let qr = gemm(&q, Transpose::No, &r, Transpose::No, 1.0);
        assert!(qr.max_abs_diff(&a) < 1e-10, "QR != A ({m}x{n})");
    }
}

#[test]
fn r_is_upper_triangular() {
    let (_, r) = householder_qr(&noise_mat(9, 8, 6));
    for j in 0..6 {
        for i in (j + 1)..6 {
            assert_eq!(r[(i, j)], 0.0);
        }
    }
}

#[test]
fn orthonormalize_tall() {
    let q = orthonormal_columns(&noise_mat(10, 50, 8));
    assert_eq!(q.shape(), (50, 8));
    assert!(q.has_orthonormal_columns(1e-10));
}

#[test]
fn orthonormalize_rank_deficient() {
    // Two identical columns: Q must still be orthonormal.
    let mut a = noise_mat(11, 10, 3);
    let c0: Vec<f64> = a.col(0).to_vec();
    a.col_mut(1).copy_from_slice(&c0);
    assert!(orthonormal_columns(&a).has_orthonormal_columns(1e-9));
}

#[test]
fn identity_is_fixed_point() {
    // For identity input the reflectors give Q = ±I; orthonormality is the
    // contract.
    let q = orthonormal_columns(&Matrix::identity(5));
    assert!(q.has_orthonormal_columns(1e-12));
}

#[test]
#[should_panic(expected = "at least as many rows")]
fn wide_input_panics() {
    let _ = orthonormal_columns(&Matrix::zeros(3, 5));
}
