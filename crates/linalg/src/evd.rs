//! Symmetric eigendecomposition.
//!
//! The workspace's replacement for LAPACK `dsyevx`, the *selected*-eigenpair
//! routine the paper uses for the SVD-via-Gram step (§5):
//! [`sym_evd_leading`], the `k` algebraically largest eigenpairs by
//! Householder tridiagonalization with the reflectors kept factored,
//! eigenvalues by implicit-shift QL, `k` eigenvectors by inverse iteration
//! with cluster re-orthogonalization, back-transformation of those `k`
//! vectors only. `4/3·n³ + 2·n²·k` flops. This is what
//! [`leading_from_gram`](crate::svd::leading_from_gram) — and through it
//! every factor update of the Tucker engine — calls; a caller that wants the
//! full spectrum asks for `k = n`. Its independent oracle, a cyclic Jacobi
//! solver, lives with the property tests (`tests/proptests_evd.rs`).
//!
//! Eigenvalues come sorted in **descending** order (the Tucker code always
//! wants the leading subspace) with a deterministic eigenvector sign
//! convention: the component of largest magnitude in each eigenvector is
//! positive. The convention makes results reproducible across the sequential
//! and distributed engines so they can be compared elementwise.

use crate::matrix::Matrix;
use crate::syrk::unrolled_dot;

/// Result of a symmetric eigendecomposition: `A = V · diag(λ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymEvd {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as columns, ordered to match `eigenvalues`.
    pub eigenvectors: Matrix,
}

impl SymEvd {
    /// The leading `k` eigenvectors as an `n x k` matrix.
    ///
    /// # Panics
    /// Panics if `k` exceeds the matrix order.
    pub fn leading(&self, k: usize) -> Matrix {
        let n = self.eigenvectors.nrows();
        assert!(
            k <= self.eigenvectors.ncols(),
            "cannot take {k} of {} eigenvectors",
            self.eigenvectors.ncols()
        );
        Matrix::from_vec(n, k, self.eigenvectors.as_slice()[..n * k].to_vec())
    }
}

/// Maximum QL iterations per eigenvalue before declaring failure.
const MAX_QL_ITERS: usize = 50;

/// The implicit-shift QL iteration for the eigenvalues of a symmetric
/// tridiagonal matrix of 1-norm `onenrm`: on entry `d` is the diagonal and
/// `e[i]` the `(i+1, i)` entry (`e[n-1]` unused), on exit `d` holds the
/// eigenvalues, unordered. An off-diagonal entry is negligible, and the
/// matrix splits there, once it is below `ε` times the larger of its two
/// diagonal neighbours' magnitudes and `onenrm`. Entries must be pre-scaled
/// to `O(1)` ([`pythag_scaled`]).
fn ql_implicit(d: &mut [f64], e: &mut [f64], onenrm: f64) {
    let n = d.len();
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd.max(onenrm) {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(
                iter <= MAX_QL_ITERS,
                "QL iteration failed to converge at eigenvalue {l}"
            );

            // Form implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag_scaled(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag_scaled(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/// Maximum inverse-iteration solves per eigenvector before declaring failure
/// (LAPACK `dstein`'s `MAXITS`).
const MAX_INVIT_ITERS: usize = 5;

/// The `k` algebraically largest eigenpairs of the symmetric matrix `a`:
/// `eigenvalues` has length `k` (descending) and `eigenvectors` is `n x k`
/// in the same order, under the sign convention of the module docs; `k = n`
/// is the full spectrum.
///
/// `a` is taken as symmetric — past the finiteness check only its lower
/// triangle is used — and by value, because it is the routine's workspace:
/// the Householder reflectors of the tridiagonalization stay in its lower
/// triangle and `Q` is never formed.
/// Four stages (the shape of LAPACK `dsyevx`):
///
/// 1. `A = Q·T·Qᵀ` by `n − 2` reflectors, `dsytd2('L')` form — `4/3·n³` flops;
/// 2. all eigenvalues of `T` by implicit-shift QL, no vectors accumulated —
///    `O(n²)`;
/// 3. the `k` leading eigenvectors of `T` by inverse iteration, vectors whose
///    eigenvalues are closer than `1e-2·‖T‖₁` re-orthogonalized against each
///    other (`dstein`) — `O(n·k)` per solve plus `O(n·k·c)` for clusters of
///    `c` vectors;
/// 4. back-transformation of those `k` vectors through the stored
///    reflectors — `2·n²·k` flops.
///
/// # Panics
/// Panics if `a` is not square, if `k` exceeds its order, if an entry is not
/// finite, or if an iteration fails to converge (which does not happen for
/// finite symmetric input).
pub fn sym_evd_leading(mut a: Matrix, k: usize) -> SymEvd {
    let (n, m) = a.shape();
    assert_eq!(n, m, "sym_evd_leading needs a square matrix");
    assert!(k <= n, "cannot take {k} eigenpairs of an order-{n} matrix");

    assert!(
        a.as_slice().iter().all(|v| v.is_finite()),
        "NaN eigenvalue: the matrix has a non-finite entry"
    );
    // Exact power-of-two scaling to a largest entry in [1, 2): sums of
    // squares below can neither overflow nor lose a significant column to
    // underflow, so plain `sqrt(f² + g²)` replaces `hypot` throughout.
    let amax = a.as_slice().iter().fold(0.0, |m: f64, v| m.max(v.abs()));
    if amax == 0.0 {
        // The zero matrix: any orthonormal basis is a set of eigenvectors.
        return SymEvd {
            eigenvalues: vec![0.0; k],
            eigenvectors: Matrix::from_fn(n, k, |i, j| if i == j { 1.0 } else { 0.0 }),
        };
    }
    let exponent = (((amax.to_bits() >> 52) & 0x7ff) as i64 - 1023).clamp(-1022, 1022);
    let scale = f64::from_bits(((1023 + exponent) as u64) << 52);
    let unscale = f64::from_bits(((1023 - exponent) as u64) << 52);
    for v in a.as_mut_slice() {
        *v *= unscale;
    }

    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut tau = vec![0.0; n];
    let mut w = vec![0.0; n];
    tridiagonalize(a.as_mut_slice(), &mut d, &mut e, &mut tau, &mut w);

    // `tridiagonalize` starts from column 0, so `T` comes out graded large
    // at the top, and QL — which deflates from the top — wants the small end
    // there: hand it the flipped matrix, a permutation similarity.
    let mut eigenvalues: Vec<f64> = d.iter().rev().copied().collect();
    for (wr, &er) in w.iter_mut().zip(e[..n - 1].iter().rev()) {
        *wr = er;
    }
    w[n - 1] = 0.0;
    // Splitting relative to ‖T‖₁ rather than to the neighbouring diagonal
    // entries: eigenvalues are wanted to ε·‖T‖, and the purely relative test
    // can stall for good on the round-off block a Gram's null space leaves.
    let onenrm = (0..n)
        .map(|i| d[i].abs() + e[i].abs() + if i > 0 { e[i - 1].abs() } else { 0.0 })
        .fold(0.0, f64::max);
    ql_implicit(&mut eigenvalues, &mut w, onenrm);
    eigenvalues.sort_by(|x, y| y.partial_cmp(x).expect("NaN eigenvalue"));
    eigenvalues.truncate(k);

    let mut eigenvectors = tridiagonal_eigenvectors(&d, &e, onenrm, &eigenvalues);
    back_transform(a.as_slice(), &tau, &mut eigenvectors);
    for j in 0..k {
        let col = eigenvectors.col_mut(j);
        if pivot_sign(col) < 0.0 {
            for v in col {
                *v = -*v;
            }
        }
    }
    for l in &mut eigenvalues {
        *l *= scale;
    }
    SymEvd {
        eigenvalues,
        eigenvectors,
    }
}

/// `sqrt(f² + g²)` for operands of magnitude at most `1e150` — anything
/// derived from a matrix pre-scaled to `O(1)` — at a fraction of the cost of
/// libm `hypot`: the squares cannot overflow, and they are only formed
/// directly when the larger one is far from underflow (a subnormal square
/// would make `s = f/r`, `c = g/r` a non-orthogonal rotation).
#[inline]
fn pythag_scaled(f: f64, g: f64) -> f64 {
    let hi = f.abs().max(g.abs());
    if hi > 1e-140 {
        (f * f + g * g).sqrt()
    } else if hi == 0.0 {
        0.0
    } else {
        let (fs, gs) = (f / hi, g / hi);
        hi * (fs * fs + gs * gs).sqrt()
    }
}

/// Householder reduction of the symmetric `n x n` matrix in the lower
/// triangle of column-major `a` to tridiagonal `T = Qᵀ·A·Q`, LAPACK
/// `dsytd2('L')`: `d` gets the diagonal of `T`, `e[i]` its `(i+1, i)` entry
/// (`e[n-1] = 0`), and `Q = H(0)···H(n-2)` stays factored —
/// `H(i) = I − tau[i]·v·vᵀ` with `v[..=i] = 0` and `v[i+1..]` stored in
/// `a[i+1.., i]` (leading `1` included). Every sweep runs down a contiguous
/// column; `w` is scratch of length `n`. Entries must be pre-scaled to `O(1)`.
fn tridiagonalize(a: &mut [f64], d: &mut [f64], e: &mut [f64], tau: &mut [f64], w: &mut [f64]) {
    let n = d.len();
    for i in 0..n - 1 {
        let (head, trail) = a.split_at_mut((i + 1) * n);
        d[i] = head[i * n + i];
        let v = &mut head[i * n + i + 1..];
        let m = v.len();

        // Reflector annihilating v[1..] (`dlarfg`).
        let alpha = v[0];
        let xnorm2 = unrolled_dot(&v[1..], &v[1..]);
        if xnorm2 == 0.0 {
            e[i] = alpha;
            tau[i] = 0.0;
            continue;
        }
        let beta = -(alpha * alpha + xnorm2).sqrt().copysign(alpha);
        let t = (beta - alpha) / beta;
        let inv = 1.0 / (alpha - beta);
        v[0] = 1.0;
        for x in &mut v[1..] {
            *x *= inv;
        }
        e[i] = beta;
        tau[i] = t;

        // w = t·A₂₂·v from the lower triangle of the trailing block: column
        // j contributes a dot to w[j] and an axpy to w[j+1..] (`dsymv`).
        let w = &mut w[..m];
        w.fill(0.0);
        for j in 0..m {
            let col = &trail[j * n + i + 1 + j..(j + 1) * n];
            let vj = v[j];
            w[j] += col[0] * vj + unrolled_dot(&col[1..], &v[j + 1..]);
            for (wr, &c) in w[j + 1..].iter_mut().zip(&col[1..]) {
                *wr += vj * c;
            }
        }
        for wr in w.iter_mut() {
            *wr *= t;
        }
        let half = -0.5 * t * unrolled_dot(w, v);
        for (wr, &vr) in w.iter_mut().zip(v.iter()) {
            *wr += half * vr;
        }

        // A₂₂ -= v·wᵀ + w·vᵀ, lower triangle (`dsyr2`).
        for j in 0..m {
            let col = &mut trail[j * n + i + 1 + j..(j + 1) * n];
            let (vj, wj) = (v[j], w[j]);
            for ((c, &vr), &wr) in col.iter_mut().zip(&v[j..]).zip(&w[j..]) {
                *c -= vr * wj + wr * vj;
            }
        }
    }
    d[n - 1] = a[n * n - 1];
    e[n - 1] = 0.0;
}

/// Partially-pivoted LU of the tridiagonal `T − shift·I` (LAPACK `dlagtf`):
/// `u0/u1/u2` are the diagonal and two super-diagonals of `U`, `l[i]` the
/// multiplier of elimination step `i` and `swapped[i]` whether that step
/// exchanged rows `i` and `i+1`.
struct ShiftedLu {
    u0: Vec<f64>,
    u1: Vec<f64>,
    u2: Vec<f64>,
    l: Vec<f64>,
    swapped: Vec<bool>,
}

impl ShiftedLu {
    fn new(n: usize) -> Self {
        ShiftedLu {
            u0: vec![0.0; n],
            u1: vec![0.0; n],
            u2: vec![0.0; n],
            l: vec![0.0; n],
            swapped: vec![false; n],
        }
    }

    /// Factor `T − shift·I` for the tridiagonal (`d`, `e`). A pivot smaller
    /// than `pivmin` is replaced by `±pivmin`: a backward error of that size
    /// in `T`, so that a shift equal to an eigenvalue still solves.
    fn factor(&mut self, d: &[f64], e: &[f64], shift: f64, pivmin: f64) {
        let n = d.len();
        let floor = |p: f64| {
            if p.abs() < pivmin {
                pivmin.copysign(p)
            } else {
                p
            }
        };
        // (p, q): the not-yet-eliminated row i, entries (i, i) and (i, i+1).
        let mut p = d[0] - shift;
        let mut q = e[0];
        for i in 0..n - 1 {
            let sub = e[i];
            let next_d = d[i + 1] - shift;
            let next_e = e[i + 1];
            if sub.abs() > p.abs() {
                let piv = floor(sub);
                let m = p / piv;
                self.u0[i] = piv;
                self.u1[i] = next_d;
                self.u2[i] = next_e;
                self.l[i] = m;
                self.swapped[i] = true;
                p = q - m * next_d;
                q = -m * next_e;
            } else {
                let piv = floor(p);
                let m = sub / piv;
                self.u0[i] = piv;
                self.u1[i] = q;
                self.u2[i] = 0.0;
                self.l[i] = m;
                self.swapped[i] = false;
                p = next_d - m * q;
                q = next_e;
            }
        }
        self.u0[n - 1] = floor(p);
        self.u1[n - 1] = 0.0;
        self.u2[n - 1] = 0.0;
    }

    /// Overwrite `x` with the solution of `(T − shift·I)·y = x`.
    fn solve(&self, x: &mut [f64]) {
        let n = x.len();
        for i in 0..n - 1 {
            if self.swapped[i] {
                x.swap(i, i + 1);
            }
            x[i + 1] -= self.l[i] * x[i];
        }
        // Back-substitution; `u1`/`u2` are zero where they would reach past
        // the last row.
        let (mut below, mut below2) = (0.0, 0.0);
        for i in (0..n).rev() {
            let xi = (x[i] - self.u1[i] * below - self.u2[i] * below2) / self.u0[i];
            x[i] = xi;
            below2 = below;
            below = xi;
        }
    }
}

/// Unit eigenvectors of the tridiagonal (`d`, `e`) of 1-norm `onenrm` for the
/// eigenvalues `lambda` (descending, a leading run of its spectrum), as the columns of an
/// `n x lambda.len()` matrix: inverse iteration in the manner of LAPACK
/// `dstein`. The spectrum of a Gram matrix ends in a long run of nearly equal
/// eigenvalues, so the close-eigenvalue handling is the normal case here:
/// shifts closer than `10·ε·‖T‖₁` to their predecessor are moved apart by
/// that much, and each iterate is re-orthogonalized (modified Gram–Schmidt)
/// against the earlier vectors of its cluster, a cluster being a run of
/// eigenvalues with gaps below `1e-2·‖T‖₁` (ten times `dstein`'s tolerance:
/// between clusters only the gap keeps vectors orthogonal, to about
/// `ε·‖T‖/gap`). Start vectors come from a fixed
/// pseudo-random stream, a fresh one per eigenvalue: equal shifts must not
/// reproduce the same iterate.
fn tridiagonal_eigenvectors(d: &[f64], e: &[f64], onenrm: f64, lambda: &[f64]) -> Matrix {
    let n = d.len();
    let mut z = Matrix::zeros(n, lambda.len());
    let eps = f64::EPSILON;
    let ortol = 1e-2 * onenrm;
    let pertol = 10.0 * eps * onenrm;
    let growth_ok = (0.1 / n as f64).sqrt();

    let mut lu = ShiftedLu::new(n);
    let mut x = vec![0.0; n];
    let mut stream = 0x9e37_79b9_7f4a_7c15_u64;
    let mut cluster_start = 0;
    let mut prev_shift = f64::INFINITY;
    for (j, &lam) in lambda.iter().enumerate() {
        if j > 0 && lambda[j - 1] - lam > ortol {
            cluster_start = j;
        }
        let shift = lam.min(prev_shift - pertol);
        prev_shift = shift;
        lu.factor(d, e, shift, eps * onenrm);

        for v in x.iter_mut() {
            stream = stream
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = (stream >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
        let mut its = 0;
        let mut extra_done = false;
        loop {
            its += 1;
            assert!(
                its <= MAX_INVIT_ITERS,
                "inverse iteration failed to converge at eigenvalue {j}"
            );
            // Right-hand side of 1-norm n·‖T‖·max(ε, |u_nn|): a solution of
            // max-norm `growth_ok` then certifies a small residual.
            let asum: f64 = x.iter().map(|v| v.abs()).sum();
            let scl = n as f64 * onenrm * eps.max(lu.u0[n - 1].abs()) / asum;
            for v in x.iter_mut() {
                *v *= scl;
            }
            lu.solve(&mut x);
            for i in cluster_start..j {
                let zi = z.col(i);
                let proj = unrolled_dot(&x, zi);
                for (xr, &zr) in x.iter_mut().zip(zi) {
                    *xr -= proj * zr;
                }
            }
            let grown = x.iter().fold(0.0, |m: f64, v| m.max(v.abs())) >= growth_ok;
            // One more pass once the growth test is met.
            if grown && extra_done {
                break;
            }
            extra_done = grown;
        }
        let inv_norm = 1.0 / unrolled_dot(&x, &x).sqrt();
        for (zr, &xr) in z.col_mut(j).iter_mut().zip(&x) {
            *zr = xr * inv_norm;
        }
    }
    z
}

/// `Z ← Q·Z` for the `Q` left factored in `a`/`tau` by [`tridiagonalize`]:
/// the reflectors are applied last to first, each to every column of `z`
/// while its vector is hot — `4·(n − i)` flops per reflector and column.
fn back_transform(a: &[f64], tau: &[f64], z: &mut Matrix) {
    let n = tau.len();
    for i in (0..n - 1).rev() {
        if tau[i] == 0.0 {
            continue;
        }
        let v = &a[i * n + i + 1..(i + 1) * n];
        for j in 0..z.ncols() {
            let zc = &mut z.col_mut(j)[i + 1..];
            let s = tau[i] * unrolled_dot(v, zc);
            for (zr, &vr) in zc.iter_mut().zip(v) {
                *zr -= s * vr;
            }
        }
    }
}

/// The deterministic sign convention: `-1.0` if the component of largest
/// magnitude in `col` is negative (ties broken by the first index), else
/// `1.0`.
fn pivot_sign(col: &[f64]) -> f64 {
    let mut pivot = 0;
    let mut best = 0.0;
    for (i, &v) in col.iter().enumerate() {
        if v.abs() > best {
            best = v.abs();
            pivot = i;
        }
    }
    if col[pivot] < 0.0 {
        -1.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Transpose};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_sym(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let b = Matrix::random(n, n, &dist, &mut rng);
        // A = (B + Bᵀ)/2 is symmetric.
        Matrix::from_fn(n, n, |i, j| 0.5 * (b[(i, j)] + b[(j, i)]))
    }

    /// The full spectrum: every eigenpair of `a`.
    fn full(a: &Matrix) -> SymEvd {
        sym_evd_leading(a.clone(), a.nrows())
    }

    fn check_reconstruction(a: &Matrix, evd: &SymEvd, tol: f64) {
        let n = a.nrows();
        assert!(
            evd.eigenvectors.has_orthonormal_columns(tol),
            "V not orthonormal"
        );
        // A V = V diag(λ)
        let av = gemm(a, Transpose::No, &evd.eigenvectors, Transpose::No, 1.0);
        for j in 0..n {
            for i in 0..n {
                let expect = evd.eigenvalues[j] * evd.eigenvectors[(i, j)];
                assert!(
                    (av[(i, j)] - expect).abs() < tol * (1.0 + evd.eigenvalues[j].abs()),
                    "A·v ≠ λ·v at ({i},{j})"
                );
            }
        }
        // Descending order.
        for w in evd.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "eigenvalues not descending");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, -1.0, 0.0], &[0.0, 0.0, 7.0]]);
        let evd = full(&a);
        let expect = [7.0, 3.0, -1.0];
        for (got, want) in evd.eigenvalues.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12);
        }
        check_reconstruction(&a, &evd, 1e-10);
    }

    #[test]
    fn known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let evd = full(&a);
        assert!((evd.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((evd.eigenvalues[1] - 1.0).abs() < 1e-12);
        check_reconstruction(&a, &evd, 1e-12);
    }

    #[test]
    fn random_matrices_reconstruct() {
        for (n, seed) in [(1usize, 5u64), (2, 6), (5, 7), (24, 8), (60, 9)] {
            let a = rand_sym(n, seed);
            let evd = full(&a);
            check_reconstruction(&a, &evd, 1e-9);
        }
    }

    #[test]
    fn rank_deficient_gram() {
        // A = x xᵀ has one nonzero eigenvalue = |x|².
        let x = [1.0, 2.0, 2.0];
        let a = Matrix::from_fn(3, 3, |i, j| x[i] * x[j]);
        let evd = full(&a);
        assert!((evd.eigenvalues[0] - 9.0).abs() < 1e-10);
        assert!(evd.eigenvalues[1].abs() < 1e-10);
        assert!(evd.eigenvalues[2].abs() < 1e-10);
        check_reconstruction(&a, &evd, 1e-9);
    }

    #[test]
    fn repeated_eigenvalues() {
        // 2*I has eigenvalue 2 with multiplicity 4; any orthonormal basis ok.
        let mut a = Matrix::identity(4);
        a.scale(2.0);
        let evd = full(&a);
        for l in &evd.eigenvalues {
            assert!((l - 2.0).abs() < 1e-12);
        }
        assert!(evd.eigenvectors.has_orthonormal_columns(1e-12));
    }

    #[test]
    fn leading_truncates() {
        let a = rand_sym(10, 40);
        let evd = full(&a);
        let lead = evd.leading(3);
        assert_eq!(lead.shape(), (10, 3));
        assert!(lead.has_orthonormal_columns(1e-9));
    }

    #[test]
    fn sign_convention_is_deterministic() {
        let a = rand_sym(12, 55);
        let e1 = full(&a);
        let e2 = full(&a);
        assert!(e1.eigenvectors.max_abs_diff(&e2.eigenvectors) == 0.0);
        // Pivot component positive in each column.
        for j in 0..12 {
            let col = e1.eigenvectors.col(j);
            let piv = col
                .iter()
                .cloned()
                .fold(0.0f64, |m, v| if v.abs() > m.abs() { v } else { m });
            assert!(piv >= 0.0);
        }
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(0, 0);
        let evd = full(&a);
        assert!(evd.eigenvalues.is_empty());
    }
}
