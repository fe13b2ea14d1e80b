//! The streamed TTM path against the packed one, and non-finite inputs
//! through every kernel family.
//!
//! A K ≤ 8 TTM whose packed tensor panel would be read by one register tile
//! streams the tensor straight into the micro-kernel instead
//! (`tucker_linalg::pack::gemm_streamed_{a,b}`). It must give every output
//! the bits the packed path gives it: the reference here is the TTM spelled
//! out as per-slab `pack::gemm_packed` calls, which is what the packed path
//! computes. Shapes are kept above the packing threshold so `Auto` takes a
//! micro-kernel path. No test flips the process-wide kernel mode.
//!
//! The non-finite test plants one `±Inf` and one exact zero that meet in one
//! product. Every kernel, on either side of the packing threshold, must give
//! NaN in exactly the entries that sum that product.

use proptest::prelude::*;
use tucker_linalg::pack::{self, PackPair, KC, MR};
use tucker_linalg::{bytes_packed, gemm, Matrix, Transpose};
use tucker_tensor::{gram, ttm_into_threads, DenseTensor, Shape};

/// Deterministic hash noise in [-0.5, 0.5).
fn noise(seed: u64, i: usize) -> f64 {
    let x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Noise with every seventh value `+0.0` and every eleventh `-0.0`.
fn signed_zero_noise(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| match (i % 7, i % 11) {
            (3, _) => 0.0,
            (_, 5) => -0.0,
            _ => noise(seed, i),
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The `inner × ln × outer` tensor as its TTM sees it, contracted along the
/// `ln` axis: `[ln, outer]` mode 0 when `inner == 1`, `[inner, ln]` mode 1
/// (the last mode) when `outer == 1`, `[inner, ln, outer]` mode 1 otherwise.
fn slab_dims(inner: usize, ln: usize, outer: usize) -> (Vec<usize>, usize) {
    match (inner, outer) {
        (1, _) => (vec![ln, outer], 0),
        (_, 1) => (vec![inner, ln], 1),
        _ => (vec![inner, ln, outer], 1),
    }
}

/// The packed TTM spelled out: mode 0 as one `Out = A · Src` GEMM, every
/// other mode as one `Out_o = S_o · Aᵀ` GEMM per slab.
fn packed_reference(src: &[f64], a: &Matrix, inner: usize, ln: usize, outer: usize) -> Vec<f64> {
    let k = a.nrows();
    let a_buf = a.as_slice();
    let mut out = vec![0.0; inner * k * outer];
    let mut packs = PackPair::new();
    if inner == 1 {
        pack::gemm_packed(
            k, outer, ln, a_buf, 1, k, src, 1, ln, 1.0, &mut out, k, &mut packs,
        );
        return out;
    }
    for (o, dst) in out.chunks_mut(inner * k).enumerate() {
        let slab = &src[o * inner * ln..(o + 1) * inner * ln];
        pack::gemm_packed(
            inner, k, ln, slab, 1, inner, a_buf, k, 1, 1.0, dst, inner, &mut packs,
        );
    }
    out
}

/// Packing threshold of `pack::use_packed` (`m·n·k`), with margin.
const ABOVE_PACK_MIN_WORK: usize = 1 << 15;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `ttm_into_threads` == the per-slab packed GEMMs, bit for bit, for
    /// K ∈ 1..=8 (streamed where the shape streams, packed elsewhere), `ln`
    /// on both sides of `KC`, `inner` of 1, 2–15, 16–64 and ≥ 10⁴, one or
    /// many slabs, and 1–3 parts, on inputs holding `±0.0`.
    #[test]
    fn streamed_ttm_equals_packed_bits(
        k in 1usize..=MR,
        deep in 0u8..2,
        ln_small in 1usize..=40,
        ln_extra in 1usize..=6,
        inner_class in 0u8..4,
        inner_pick in 0usize..1000,
        many in 0u8..2,
        threads in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        let ln = if deep == 1 { KC + ln_extra } else { ln_small };
        let inner = match inner_class {
            0 => 1,
            1 => 2 + inner_pick % 14,
            2 => 16 + inner_pick % 49,
            _ => 10_000 + inner_pick % 37,
        };
        // Enough slabs (one, where asked) to clear the packing threshold;
        // ≥ 10⁴-row slabs stay few so the case stays small.
        let need = ABOVE_PACK_MIN_WORK.div_ceil(inner * k * ln);
        let outer = if many == 1 {
            need.max(2 + inner_pick % 5).min(if inner >= 10_000 { 2 } else { 4096 })
        } else {
            1
        };
        prop_assume!(inner * outer * k * ln >= ABOVE_PACK_MIN_WORK);
        let (dims, n) = slab_dims(inner, ln, outer);
        let src = signed_zero_noise(seed ^ 1, inner * ln * outer);
        let a_vals = signed_zero_noise(seed ^ 2, k * ln);
        let a = Matrix::from_fn(k, ln, |r, c| a_vals[r + c * k]);
        let t = DenseTensor::from_vec(Shape::new(dims.clone()), src.clone());

        let want = packed_reference(&src, &a, inner, ln, outer);
        let mut got = Vec::new();
        ttm_into_threads(&t, n, &a, &mut got, threads);
        prop_assert_eq!(
            bits(&got),
            bits(&want),
            "dims {:?} mode {} K {} threads {}",
            dims,
            n,
            k,
            threads
        );
    }
}

/// A streamed TTM packs its factor and nothing else: one `MR`-lane panel of
/// the factor's depth, whatever the part count — the tensor is read where
/// it lies.
#[test]
fn a_streamed_ttm_packs_only_its_factor() {
    let factor_bytes = |ln: usize| (pack::packed_factor_len(ln) * 8) as u64;
    // Mode 0 with K = 8 (the tensor is the B side), and a last mode and a
    // wide-slab mode with K = 4 (the tensor is the A side).
    for (dims, n, k) in [
        (vec![32, 700], 0, 8),
        (vec![32, 24, 40], 0, 5),
        (vec![3000, 16], 1, 4),
        (vec![40, 16, 30], 1, 3),
    ] {
        let card: usize = dims.iter().product();
        let t = DenseTensor::from_vec(Shape::new(dims.clone()), signed_zero_noise(3, card));
        let ln = dims[n];
        let a = Matrix::from_fn(k, ln, |r, c| noise(4, r + c * k));
        let mut out = Vec::new();
        for threads in [1, 2, 3] {
            let before = bytes_packed();
            ttm_into_threads(&t, n, &a, &mut out, threads);
            assert_eq!(
                bytes_packed() - before,
                factor_bytes(ln),
                "{dims:?} mode {n} K {k}, {threads} parts"
            );
        }
    }
}

/// Values in [0.25, 1.25): no exact zero, no cancellation to zero.
fn positive(seed: u64, len: usize) -> Vec<f64> {
    (0..len).map(|i| 0.75 + noise(seed, i)).collect()
}

/// One `±Inf` meets one exact zero in one product of every kernel family,
/// below and above the packing threshold (naive, packed and streamed
/// paths): the entries that sum that product are NaN, and only those.
#[test]
fn zero_times_infinity_is_nan_on_every_path() {
    // TTM: T[p] = ∓Inf, A[kk0, p_n] = 0. The output fiber through p is NaN
    // at kk0 and infinite at every other kk.
    for (dims, n, k) in [
        (vec![3, 4, 5], 1, 2),    // naive, small inner
        (vec![20, 4, 3], 1, 2),   // naive, wide inner
        (vec![5, 4, 3], 0, 3),    // naive, mode 0
        (vec![20, 30, 40], 1, 8), // packed slabs
        (vec![4, 30, 200], 1, 8), // packed, small inner
        (vec![32, 24, 40], 0, 8), // streamed, mode 0
        (vec![600, 40], 1, 4),    // streamed, last mode
        (vec![24, 20, 18], 2, 3), // streamed, wide slab
    ] {
        let card: usize = dims.iter().product();
        let mut vals = positive(5, card);
        let p = card / 3 + 1;
        vals[p] = if p.is_multiple_of(2) {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        let t = DenseTensor::from_vec(Shape::new(dims.clone()), vals);
        let inner: usize = dims[..n].iter().product();
        let (pi, pn, po) = (p % inner, p / inner % dims[n], p / inner / dims[n]);
        let kk0 = k / 2;
        let a_vals = positive(6, k * dims[n]);
        let a = Matrix::from_fn(k, dims[n], |r, c| {
            if (r, c) == (kk0, pn) {
                0.0
            } else {
                a_vals[r + c * k]
            }
        });
        for threads in [1, 2] {
            let mut z = Vec::new();
            ttm_into_threads(&t, n, &a, &mut z, threads);
            for (at, &v) in z.iter().enumerate() {
                let (i, kk, o) = (at % inner, at / inner % k, at / inner / k);
                let in_fiber = (i, o) == (pi, po);
                let case = format!("{dims:?} mode {n} K {k}, {threads} parts, entry {at}");
                assert_eq!(v.is_nan(), in_fiber && kk == kk0, "{case}: {v}");
                assert_eq!(v.is_infinite(), in_fiber && kk != kk0, "{case}: {v}");
            }
        }
    }

    // Gram of mode n: T(n)[i0, c] = Inf and T(n)[j0, c] = 0 in the same
    // column: G[i0, j0] and G[j0, i0] are NaN, the rest of row and column
    // i0 infinite.
    for (dims, n) in [
        (vec![4, 3, 5], 1),
        (vec![6, 5], 0),
        (vec![40, 30, 20], 1),
        (vec![64, 300], 0),
    ] {
        let card: usize = dims.iter().product();
        let mut vals = positive(7, card);
        let inner: usize = dims[..n].iter().product();
        let (i0, j0, col) = (1, dims[n] - 1, 2);
        let at = |row: usize| col % inner + row * inner + col / inner * inner * dims[n];
        vals[at(i0)] = f64::INFINITY;
        vals[at(j0)] = 0.0;
        let g = gram(&DenseTensor::from_vec(Shape::new(dims.clone()), vals), n);
        for i in 0..dims[n] {
            for j in 0..dims[n] {
                let v = g[(i, j)];
                let hit = (i, j) == (i0, j0) || (i, j) == (j0, i0);
                let case = format!("gram {dims:?} mode {n} ({i}, {j})");
                assert_eq!(v.is_nan(), hit, "{case}: {v}");
                assert_eq!(v.is_infinite(), !hit && (i == i0 || j == i0), "{case}: {v}");
            }
        }
    }

    // GEMM: A[i0, l0] = -Inf, B[l0, j0] = 0: C[i0, j0] is NaN, the rest
    // of row i0 infinite.
    for (m, kd, nc) in [(3, 4, 5), (40, 30, 50), (8, 32, 300)] {
        let (i0, l0, j0) = (m / 2, kd / 3, nc - 1);
        let (av, bv) = (positive(8, m * kd), positive(9, kd * nc));
        let a = Matrix::from_fn(m, kd, |i, l| {
            if (i, l) == (i0, l0) {
                f64::NEG_INFINITY
            } else {
                av[i + l * m]
            }
        });
        let b = Matrix::from_fn(kd, nc, |l, j| {
            if (l, j) == (l0, j0) {
                0.0
            } else {
                bv[l + j * kd]
            }
        });
        let c = gemm(&a, Transpose::No, &b, Transpose::No, 1.0);
        for i in 0..m {
            for j in 0..nc {
                let v = c[(i, j)];
                let case = format!("gemm {m}x{kd}x{nc} ({i}, {j})");
                assert_eq!(v.is_nan(), (i, j) == (i0, j0), "{case}: {v}");
                assert_eq!(v.is_infinite(), i == i0 && j != j0, "{case}: {v}");
            }
        }
    }
}
