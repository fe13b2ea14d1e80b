//! Fused Gram kernels: `G = T(n) · T(n)ᵀ` straight from the canonical
//! layout — **no unfolding is ever materialized**.
//!
//! The mode-`n` unfolding's column `f = i + o·inner` is the fiber starting at
//! linear offset `o·inner·L_n + i` with stride `inner` (see
//! [`crate::unfold`]). Slab `o` — the contiguous block
//! `[o·inner·L_n, (o+1)·inner·L_n)` — is therefore an `inner × L_n`
//! column-major matrix `S_o` whose `L_n` columns are contiguous in memory,
//! and the Gram matrix decomposes into a sum of rank-`inner` updates on
//! contiguous storage:
//!
//! ```text
//! G = T(n)·T(n)ᵀ = Σ_o S_oᵀ · S_o
//! ```
//!
//! [`gram`] evaluates that sum with [`tucker_linalg::syrk_ata_lower`]
//! (lower-triangle dot products over contiguous slab columns), splitting the
//! fiber range into `threads` parts — run on the shared worker team,
//! `tucker_linalg::Pool` — with per-part accumulators merged by a pairwise
//! tree reduction. The part count fixes the summation grouping, and with it
//! the bits; how many OS threads execute the parts does not. [`gram_cols`]
//! restricts the sum to a contiguous
//! column range `[c0, c0 + len)` of the unfolding, which is how the
//! distributed Gram takes its balanced `1/q_n` share without copying columns
//! into a scratch matrix.
//!
//! The explicit-unfold formulation `syrk(&unfold(t, n))` survives only as the
//! baseline arm of the kernel-ablation bench; see `ROADMAP.md` and the
//! `BENCH_kernels.json` trajectory for the measured gap.

use crate::dense::{note_buffer_alloc, DenseTensor};
use crate::view::{AxisSpan, TensorView};
use tucker_linalg::{mirror_lower, pack, syrk_aat_lower, syrk_ata_lower, Matrix, Pool};

/// Minimum multiply-add count before the fiber range is split across threads.
const PAR_MIN_WORK: usize = 1 << 15;

/// Accumulate the lower triangle of the Gram contribution of fibers
/// `[f0, f0 + len)` into `acc` (column-major `L_n × L_n`), walking the slabs
/// that overlap the range. `src`/`dims` describe a canonical-layout buffer
/// (a tensor's storage, or a contiguous view's window).
fn accumulate_src_range(
    src: &[f64],
    dims: &[usize],
    n: usize,
    f0: usize,
    len: usize,
    acc: &mut [f64],
) {
    let ln = dims[n];
    let inner: usize = dims[..n].iter().product();

    if inner == 1 {
        // Mode 0: fibers are the contiguous columns of the raw buffer viewed
        // as an `L_0 × nf` matrix — rank-1 (axpy) updates, no slab walk.
        syrk_aat_lower(src, ln, f0, f0 + len, acc);
        return;
    }

    let slab_len = inner * ln;
    let f1 = f0 + len;
    let mut f = f0;
    while f < f1 {
        let o = f / inner;
        let i0 = f - o * inner;
        let i1 = inner.min(i0 + (f1 - f));
        let slab = &src[o * slab_len..(o + 1) * slab_len];
        syrk_ata_lower(slab, inner, ln, i0, i1, acc);
        f += i1 - i0;
    }
}

/// [`accumulate_src_range`] over an arbitrary strided view, **bit-identical**
/// to running the canonical path on an extracted copy: the strided "mill"
/// kernels below replicate the per-element accumulation order of both the
/// packed triangle kernel (fresh partial per `KC` block of the fiber range,
/// flushed with one add) and the naive dot/axpy loops (eight-lane dot
/// structure, zero-skip rank-1 updates), and the packed/naive dispatch is
/// made on the same logical sizes.
fn accumulate_view_range(v: &TensorView, n: usize, f0: usize, len: usize, acc: &mut [f64]) {
    if len == 0 {
        return;
    }
    let dims = v.dims();
    let strides = v.strides();
    let ln = dims[n];
    let sn = strides[n];
    let data = v.data();
    let inner: usize = dims[..n].iter().product();

    if inner == 1 {
        // One global range, matching the single `syrk_aat_lower` call of the
        // canonical path (KC phase anchored at f0).
        let fibers = AxisSpan::over(dims, strides, |j| j != n);
        if pack::use_packed(ln, ln, len) {
            mill_gram_packed(data, fibers.offsets_from(f0), len, ln, sn, acc);
        } else {
            mill_gram_rank1(data, fibers.offsets_from(f0), len, ln, sn, acc);
        }
        return;
    }

    // Slab walk clipped to the fiber range, one `syrk_ata_lower` equivalent
    // per slab (KC phase anchored at each slab's range start, exactly like
    // the per-slab calls of the canonical path).
    let outer = AxisSpan::over(dims, strides, |j| j > n);
    let inner_span = AxisSpan::over(dims, strides, |j| j < n);
    let f1 = f0 + len;
    let mut f = f0;
    while f < f1 {
        let o = f / inner;
        let i0 = f - o * inner;
        let i1 = inner.min(i0 + (f1 - f));
        let sbase = outer.offset_at(o);
        let offs = inner_span.offsets_from(i0).map(|p| sbase + p);
        if pack::use_packed(ln, ln, i1 - i0) {
            mill_gram_packed(data, offs, i1 - i0, ln, sn, acc);
        } else {
            mill_gram_lanes(data, offs, i1 - i0, ln, sn, acc);
        }
        f += i1 - i0;
    }
}

thread_local! {
    /// Grow-only scratch for the strided Gram mills (`L_n` gathered fiber
    /// values plus either a `L_n × L_n` partial or the eight-lane dot state).
    /// Growth is counted as a tensor-buffer allocation, so the zero-alloc
    /// steady-state invariant extends to view paths.
    static MILL_SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

fn with_mill_scratch<R>(min_len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    MILL_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < min_len {
            if buf.capacity() < min_len {
                note_buffer_alloc();
            }
            buf.resize(min_len, 0.0);
        }
        // Hand out exactly `min_len`: the buffer is grow-only, and the mills
        // size their gather loops off the slice they receive — a stale wider
        // slice from an earlier, larger call would walk `data` out of bounds.
        let r = f(&mut buf[..min_len]);
        cell.set(buf);
        r
    })
}

/// Strided equivalent of the **packed** triangle kernel over one contraction
/// range: per lower-triangle element, a fresh partial sum per `KC` block of
/// positions (ascending within the block) is added to `acc` at each block
/// boundary — the exact per-element order of `pack::syrk_packed_lower`.
fn mill_gram_packed(
    data: &[f64],
    offs: impl Iterator<Item = usize>,
    count: usize,
    ln: usize,
    sn: usize,
    acc: &mut [f64],
) {
    with_mill_scratch(ln + ln * ln, |scratch| {
        let (vals, part) = scratch.split_at_mut(ln);
        part[..ln * ln].fill(0.0);
        let mut q = 0usize;
        for base in offs.take(count) {
            for (l, vv) in vals.iter_mut().enumerate() {
                *vv = data[base + l * sn];
            }
            for j in 0..ln {
                let vj = vals[j];
                for i in j..ln {
                    part[i + j * ln] += vals[i] * vj;
                }
            }
            q += 1;
            if q.is_multiple_of(pack::KC) {
                for j in 0..ln {
                    for i in j..ln {
                        acc[i + j * ln] += part[i + j * ln];
                        part[i + j * ln] = 0.0;
                    }
                }
            }
        }
        if !q.is_multiple_of(pack::KC) {
            for j in 0..ln {
                for i in j..ln {
                    acc[i + j * ln] += part[i + j * ln];
                }
            }
        }
    });
}

/// Strided equivalent of the naive `syrk_aat_lower` loop (mode-0 fibers):
/// one zero-skipping rank-1 update per fiber, straight into `acc`.
fn mill_gram_rank1(
    data: &[f64],
    offs: impl Iterator<Item = usize>,
    count: usize,
    ln: usize,
    sn: usize,
    acc: &mut [f64],
) {
    with_mill_scratch(ln, |vals| {
        for base in offs.take(count) {
            for (l, vv) in vals.iter_mut().enumerate() {
                *vv = data[base + l * sn];
            }
            for j in 0..ln {
                let vj = vals[j];
                if vj == 0.0 {
                    continue;
                }
                for i in j..ln {
                    acc[i + j * ln] += vj * vals[i];
                }
            }
        }
    });
}

/// Strided equivalent of the naive `syrk_ata_lower` loop (one slab range):
/// per lower-triangle pair, the eight-lane `unrolled_dot` structure — lane
/// `q % 8` for the unrolled body, sequential tail, identical final
/// reduction — streamed position-by-position so each strided fiber value is
/// gathered once.
fn mill_gram_lanes(
    data: &[f64],
    offs: impl Iterator<Item = usize>,
    count: usize,
    ln: usize,
    sn: usize,
    acc: &mut [f64],
) {
    let pairs = ln * (ln + 1) / 2;
    with_mill_scratch(ln + pairs * 9, |scratch| {
        let (vals, rest) = scratch.split_at_mut(ln);
        let (lanes, tails) = rest.split_at_mut(pairs * 8);
        lanes[..pairs * 8].fill(0.0);
        tails[..pairs].fill(0.0);
        let main = count - count % 8;
        for (q, base) in offs.take(count).enumerate() {
            for (l, vv) in vals.iter_mut().enumerate() {
                *vv = data[base + l * sn];
            }
            let mut p = 0usize;
            if q < main {
                let lane = q % 8;
                for l2 in 0..ln {
                    let v2 = vals[l2];
                    for &v1 in &vals[l2..ln] {
                        lanes[p * 8 + lane] += v1 * v2;
                        p += 1;
                    }
                }
            } else {
                for l2 in 0..ln {
                    let v2 = vals[l2];
                    for &v1 in &vals[l2..ln] {
                        tails[p] += v1 * v2;
                        p += 1;
                    }
                }
            }
        }
        let mut p = 0usize;
        for l2 in 0..ln {
            for l1 in l2..ln {
                let a = &lanes[p * 8..p * 8 + 8];
                acc[l1 + l2 * ln] +=
                    tails[p] + ((a[0] + a[4]) + (a[1] + a[5])) + ((a[2] + a[6]) + (a[3] + a[7]));
                p += 1;
            }
        }
    });
}

/// The Gram matrix `G = T(n) · T(n)ᵀ` (`L_n × L_n`), computed directly from
/// the canonical layout without materializing the unfolding.
///
/// Numerically equivalent to `syrk(&unfold(t, n))`; the fiber-parallel path
/// regroups the summation per worker, so results can differ by a few ulps.
/// Thread count is heuristic (sequential below a work threshold, one worker
/// per host core above it); execution backends that want explicit control
/// use [`gram_threads`] directly.
///
/// # Panics
/// Panics if `n` is not a valid mode.
pub fn gram(t: &DenseTensor, n: usize) -> Matrix {
    let shape = t.shape();
    assert!(n < shape.order(), "mode {n} out of range for {shape}");
    let ln = shape.dim(n);
    let work = shape.num_fibers(n) * ln * (ln + 1) / 2;
    gram_threads(t, n, crate::threads::heuristic_threads(work, PAR_MIN_WORK))
}

/// [`gram`] with an **explicit** partition count: the mode-`n` fiber range is
/// split into `threads` contiguous sub-ranges, each accumulated on its own,
/// merged by a pairwise tree reduction — so the bits depend on `threads`,
/// not on how many OS threads the team runs the parts on. `threads == 1` is
/// the strictly sequential kernel (no parallel region is opened, summation
/// order is the canonical fiber order); the size heuristic of [`gram`] does
/// not apply. This is the par-ranged entry point the sweep-executor backends
/// build on (`SeqBackend` pins 1, `RayonBackend` pins the host core count).
///
/// # Panics
/// Panics if `n` is not a valid mode.
pub fn gram_threads(t: &DenseTensor, n: usize, threads: usize) -> Matrix {
    let shape = t.shape();
    assert!(n < shape.order(), "mode {n} out of range for {shape}");
    let ln = shape.dim(n);
    let nf = shape.num_fibers(n);
    let src = t.as_slice();
    let dims = shape.dims();
    gram_ranges(ln, nf, threads, |f0, len, buf| {
        accumulate_src_range(src, dims, n, f0, len, buf)
    })
}

/// Shared split/reduce skeleton of [`gram_threads`] and
/// [`gram_view_threads`]: the fiber range is split into per-worker
/// contiguous sub-ranges handed to `accumulate`, then merged by a pairwise
/// tree reduction. Keeping one skeleton guarantees the dense and view entry
/// points produce bit-identical results at any worker count.
fn gram_ranges<F>(ln: usize, nf: usize, threads: usize, accumulate: F) -> Matrix
where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let m = ln * ln;
    let workers = threads.max(1).min(nf);
    if workers <= 1 {
        let mut g = Matrix::zeros(ln, ln);
        accumulate(0, nf, g.as_mut_slice());
        mirror_lower(g.as_mut_slice(), ln);
        return g;
    }

    // Per-part accumulators over contiguous fiber ranges ...
    let per = nf.div_ceil(workers);
    let nchunks = nf.div_ceil(per);
    let mut acc = vec![0.0; nchunks * m];
    Pool::shared().chunks_mut(&mut acc, m, |w, buf| {
        let f0 = w * per;
        let f1 = nf.min(f0 + per);
        accumulate(f0, f1 - f0, buf);
    });

    // ... merged by pairwise tree reduction into chunk 0.
    let mut width = nchunks;
    while width > 1 {
        let half = width.div_ceil(2);
        let (lo, hi) = acc.split_at_mut(half * m);
        for i in half..width {
            let src = &hi[(i - half) * m..(i - half + 1) * m];
            for (d, s) in lo[(i - half) * m..].iter_mut().zip(src) {
                *d += s;
            }
        }
        width = half;
    }
    acc.truncate(m);
    let mut g = Matrix::from_vec(ln, ln, acc);
    mirror_lower(g.as_mut_slice(), ln);
    g
}

/// Gram contribution of the contiguous unfolding-column range
/// `[c0, c0 + len)`: the `L_n × L_n` matrix `U · Uᵀ` where `U` is
/// `unfold(t, n)` restricted to those columns — computed in place from the
/// canonical layout, no column copy.
///
/// Summing [`gram_cols`] over any partition of `0..num_fibers(n)` yields
/// [`gram`]. An empty range (`len == 0`) returns the zero matrix, so callers
/// may hand trailing ranks empty shares.
///
/// Runs sequentially: the intended caller is one simulated MPI rank, and
/// ranks never open a parallel region (the mesh workers already fill the
/// host).
///
/// # Panics
/// Panics if `n` is out of range or the column range exceeds the number of
/// mode-`n` fibers.
pub fn gram_cols(t: &DenseTensor, n: usize, c0: usize, len: usize) -> Matrix {
    let shape = t.shape();
    assert!(n < shape.order(), "mode {n} out of range for {shape}");
    let nf = shape.num_fibers(n);
    assert!(
        c0 + len <= nf,
        "column range {c0}..{} exceeds {nf} mode-{n} fibers",
        c0 + len
    );
    let ln = shape.dim(n);
    let mut g = Matrix::zeros(ln, ln);
    accumulate_src_range(t.as_slice(), shape.dims(), n, c0, len, g.as_mut_slice());
    mirror_lower(g.as_mut_slice(), ln);
    g
}

/// Number of mode-`n` fibers of a view (product of the other extents);
/// `0` when any of them is empty.
fn view_num_fibers(v: &TensorView, n: usize) -> usize {
    v.dims()
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != n)
        .map(|(_, &d)| d)
        .product()
}

/// [`gram`] over an arbitrary strided [`TensorView`] — **no extraction, no
/// scratch tensor**. Contiguous views (including every full-tensor view)
/// take the canonical slab kernels on the underlying storage directly;
/// genuinely strided views run the mill kernels, which replicate the
/// canonical accumulation order element for element, so the result is
/// bit-identical to extracting the view into a fresh tensor and calling
/// [`gram_threads`] with the same worker count.
///
/// # Panics
/// Panics if `n` is not a valid mode of the view.
pub fn gram_view(v: &TensorView, n: usize) -> Matrix {
    assert!(n < v.order(), "mode {n} out of range for view");
    let ln = v.dim(n);
    let work = view_num_fibers(v, n) * ln * (ln + 1) / 2;
    gram_view_threads(v, n, crate::threads::heuristic_threads(work, PAR_MIN_WORK))
}

/// [`gram_view`] with an **explicit** worker count; the split/reduce
/// skeleton is shared with [`gram_threads`], so for equal data and worker
/// count the two agree to the bit.
///
/// # Panics
/// Panics if `n` is not a valid mode of the view.
pub fn gram_view_threads(v: &TensorView, n: usize, threads: usize) -> Matrix {
    assert!(n < v.order(), "mode {n} out of range for view");
    let ln = v.dim(n);
    let nf = view_num_fibers(v, n);
    if let Some(src) = v.contiguous_data() {
        let dims = v.dims();
        return gram_ranges(ln, nf, threads, |f0, len, buf| {
            accumulate_src_range(src, dims, n, f0, len, buf)
        });
    }
    gram_ranges(ln, nf, threads, |f0, len, buf| {
        accumulate_view_range(v, n, f0, len, buf)
    })
}

/// [`gram_cols`] over a strided view: Gram contribution of the contiguous
/// unfolding-column range `[c0, c0 + len)`, sequential, bit-identical to
/// extract-then-[`gram_cols`].
///
/// # Panics
/// Panics if `n` is out of range or the column range exceeds the view's
/// mode-`n` fiber count.
pub fn gram_view_cols(v: &TensorView, n: usize, c0: usize, len: usize) -> Matrix {
    assert!(n < v.order(), "mode {n} out of range for view");
    let nf = view_num_fibers(v, n);
    assert!(
        c0 + len <= nf,
        "column range {c0}..{} exceeds {nf} mode-{n} fibers",
        c0 + len
    );
    let ln = v.dim(n);
    let mut g = Matrix::zeros(ln, ln);
    if let Some(src) = v.contiguous_data() {
        accumulate_src_range(src, v.dims(), n, c0, len, g.as_mut_slice());
    } else {
        accumulate_view_range(v, n, c0, len, g.as_mut_slice());
    }
    mirror_lower(g.as_mut_slice(), ln);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;
    use crate::unfold::unfold;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_linalg::syrk;

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    #[test]
    fn matches_unfold_syrk_all_modes() {
        let t = rand_tensor(&[5, 4, 3, 6], 1);
        for n in 0..4 {
            let g = gram(&t, n);
            let r = syrk(&unfold(&t, n));
            assert_eq!(g.shape(), r.shape());
            assert!(g.max_abs_diff(&r) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn parallel_path_matches_reference() {
        // Big enough to clear PAR_MIN_WORK on any mode.
        let t = rand_tensor(&[24, 20, 18], 2);
        for n in 0..3 {
            let g = gram(&t, n);
            let r = syrk(&unfold(&t, n));
            assert!(g.max_abs_diff(&r) < 1e-11, "mode {n}");
        }
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let t = rand_tensor(&[10, 9, 8], 11);
        for n in 0..3 {
            let r = syrk(&unfold(&t, n));
            assert!(gram_threads(&t, n, 1).max_abs_diff(&r) < 1e-12, "mode {n}");
            for w in [2usize, 3, 5, 64] {
                let par = gram_threads(&t, n, w);
                assert!(par.max_abs_diff(&r) < 1e-11, "mode {n}, {w} workers");
            }
        }
    }

    #[test]
    fn view_full_tensor_is_bit_identical() {
        let t = rand_tensor(&[6, 5, 4], 21);
        let v = crate::view::TensorView::of(&t);
        for n in 0..3 {
            for w in [1usize, 3] {
                let g = gram_view_threads(&v, n, w);
                let r = gram_threads(&t, n, w);
                assert_eq!(g.max_abs_diff(&r), 0.0, "mode {n}, {w} workers");
            }
        }
    }

    #[test]
    fn view_region_matches_extract_bitwise() {
        use crate::subtensor::{extract, Region};
        let t = rand_tensor(&[7, 6, 5], 22);
        let r = Region {
            start: vec![1, 0, 2],
            len: vec![5, 4, 3],
        };
        let v = crate::view::TensorView::region(&t, &r);
        let c = DenseTensor::from_vec(r.shape(), extract(&t, &r));
        for n in 0..3 {
            let g = gram_view_threads(&v, n, 1);
            let gr = gram_threads(&c, n, 1);
            assert_eq!(g.max_abs_diff(&gr), 0.0, "mode {n}");
            let nf = c.shape().num_fibers(n);
            let gc = gram_view_cols(&v, n, 1, nf - 1);
            let gcr = gram_cols(&c, n, 1, nf - 1);
            assert_eq!(gc.max_abs_diff(&gcr), 0.0, "cols, mode {n}");
        }
    }

    #[test]
    fn strided_view_packed_mill_matches_extract_bitwise() {
        // Big enough that the per-range dispatch picks the packed kernel on
        // the dense side and the packed mill on the view side.
        use crate::subtensor::{extract, Region};
        let t = rand_tensor(&[24, 20, 18], 23);
        let r = Region {
            start: vec![2, 1, 3],
            len: vec![20, 17, 12],
        };
        let v = crate::view::TensorView::region(&t, &r);
        let c = DenseTensor::from_vec(r.shape(), extract(&t, &r));
        for n in 0..3 {
            for w in [1usize, 4] {
                let g = gram_view_threads(&v, n, w);
                let gr = gram_threads(&c, n, w);
                assert_eq!(g.max_abs_diff(&gr), 0.0, "mode {n}, {w} workers");
            }
        }
    }

    #[test]
    fn stepped_view_matches_copy_bitwise() {
        let t = rand_tensor(&[12, 10, 8], 24);
        let v = crate::view::TensorView::of(&t).step(0, 2).step(2, 3);
        let c = v.to_tensor();
        for n in 0..3 {
            let g = gram_view_threads(&v, n, 1);
            let gr = gram_threads(&c, n, 1);
            assert_eq!(g.max_abs_diff(&gr), 0.0, "mode {n}");
        }
    }

    #[test]
    fn gram_is_exactly_symmetric() {
        let t = rand_tensor(&[9, 8, 7], 3);
        for n in 0..3 {
            let g = gram(&t, n);
            for i in 0..t.shape().dim(n) {
                for j in 0..t.shape().dim(n) {
                    assert_eq!(g[(i, j)], g[(j, i)], "mode {n}");
                }
            }
        }
    }

    #[test]
    fn cols_partitions_sum_to_full() {
        let t = rand_tensor(&[4, 5, 6], 4);
        for n in 0..3 {
            let nf = t.shape().num_fibers(n);
            let full = gram(&t, n);
            for parts in [1usize, 2, 3, 7] {
                let per = nf.div_ceil(parts);
                let mut sum = Matrix::zeros(full.nrows(), full.ncols());
                let mut c0 = 0;
                for _ in 0..parts {
                    let len = per.min(nf - c0);
                    let part = gram_cols(&t, n, c0, len);
                    for (s, p) in sum.as_mut_slice().iter_mut().zip(part.as_slice()) {
                        *s += p;
                    }
                    c0 += len;
                }
                assert!(
                    sum.max_abs_diff(&full) < 1e-12,
                    "mode {n}, {parts} partitions"
                );
            }
        }
    }

    #[test]
    fn cols_slices_partial_slabs_correctly() {
        // A range that starts and ends mid-slab on a mode with inner > 1.
        let t = rand_tensor(&[3, 5, 4], 5);
        let u = unfold(&t, 1); // 5 x 12, inner = 3
        let (c0, len) = (2, 7);
        let g = gram_cols(&t, 1, c0, len);
        let mut r = Matrix::zeros(5, 5);
        for j in c0..c0 + len {
            let col = u.col(j);
            for l1 in 0..5 {
                for l2 in 0..5 {
                    r[(l1, l2)] += col[l1] * col[l2];
                }
            }
        }
        assert!(g.max_abs_diff(&r) < 1e-12);
    }

    #[test]
    fn empty_range_gives_zero_matrix() {
        let t = rand_tensor(&[4, 3], 6);
        let g = gram_cols(&t, 0, 3, 0);
        assert_eq!(g.shape(), (4, 4));
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_mode_tensor() {
        let t = rand_tensor(&[7], 7);
        let g = gram(&t, 0);
        let r = syrk(&unfold(&t, 0));
        assert!(g.max_abs_diff(&r) < 1e-13);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_mode_panics() {
        let t = rand_tensor(&[2, 2], 8);
        let _ = gram(&t, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overlong_column_range_panics() {
        let t = rand_tensor(&[2, 3], 9);
        let _ = gram_cols(&t, 0, 2, 2);
    }
}
