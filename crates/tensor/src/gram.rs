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
//! Every entry point takes `impl Into<TensorView>`: a `&DenseTensor` enters
//! as its full view, a contiguous view (any last-mode slice) is read where it
//! lies, and any other view is copied once into a grow-only thread-local
//! scratch and then read from there ([`with_canonical`]) — one body, and
//! view == extract to the bit because the view path *is* the extract path.
//!
//! [`gram`] evaluates that sum with [`tucker_linalg::syrk_ata_lower`]
//! (lower-triangle dot products over contiguous slab columns), splitting the
//! fiber range into `threads` parts — run on the shared worker team,
//! `tucker_linalg::Pool` — with per-part accumulators merged by a pairwise
//! tree reduction. The part count fixes the summation grouping, and with it
//! the bits; how many OS threads execute the parts does not.
//!
//! [`ColumnShare`] is the distributed Gram's unit of work: a contiguous
//! column range `[c0, c0 + len)` of the unfolding, stored on its own — the
//! layout a sender packs, a receiver assembles and [`ColumnShare::gram`]
//! reads, with the same SYRK calls on the same values as the in-place walk
//! above, so a share's Gram is bit-identical to that range's contribution
//! computed inside the whole tensor.
//!
//! The explicit-unfold formulation `syrk(&unfold(t, n))` survives only as the
//! baseline arm of the kernel-ablation bench; see `ROADMAP.md` and the
//! `BENCH_kernels.json` trajectory for the measured gap.

use crate::dense::note_buffer_alloc;
use crate::view::{copy_into, TensorView, TensorViewMut};
use tucker_linalg::{mirror_lower, syrk_aat_lower, syrk_ata_lower, Matrix, Pool};

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
    if len == 0 {
        return;
    }
    let ln = dims[n];
    let inner: usize = dims[..n].iter().product();

    if inner == 1 {
        // Mode 0: fibers are the contiguous columns of the raw buffer viewed
        // as an `L_0 × nf` matrix — rank-1 (axpy) updates, no slab walk.
        syrk_aat_lower(src, ln, f0, f0 + len, acc);
        return;
    }

    let slab_len = inner * ln;
    for_each_segment(inner, f0, len, |o, i0, w| {
        let slab = &src[o * slab_len..(o + 1) * slab_len];
        syrk_ata_lower(slab, inner, ln, i0, i0 + w, acc);
    });
}

/// Walk the fiber range `[f0, f0 + len)` slab by slab: fiber `i + o·inner`
/// lies in slab `o`, so the range cuts into *segments* `(o, i0, w)` — rows
/// `i0..i0 + w` of slab `o` — visited in fiber order. Only the first and the
/// last segment can be partial.
fn for_each_segment(inner: usize, f0: usize, len: usize, mut f: impl FnMut(usize, usize, usize)) {
    let (mut fib, end) = (f0, f0 + len);
    while fib < end {
        let o = fib / inner;
        let i0 = fib - o * inner;
        let w = (inner - i0).min(end - fib);
        f(o, i0, w);
        fib += w;
    }
}

/// A contiguous column range `[c0, c0 + len)` of a mode-`n` unfolding, stored
/// on its own: the distributed Gram's share layout, decided here once for
/// the three parties that touch it — the members that [`pack`] their rows
/// of it, the member that [`place`]s them, and the kernel that [`gram`]s it.
///
/// The range cuts the slabs into segments (rows `i0..i0 + w` of slab `o`,
/// see the module docs); the buffer holds each segment as a `w × L_n`
/// column-major matrix, back to back in fiber order — `L_n · len` elements.
/// On mode 0 that is the `L_0 × len` column block of the unfolding, and the
/// share of *every* fiber of a tensor is the tensor's own buffer.
///
/// A member that holds rows `[r0, r0 + rows)` of every fiber (a block whose
/// mode-`n` extent is `rows`, in canonical layout) contributes `rows` of the
/// `L_n` columns of each segment: per segment one run of `w · rows` elements
/// when the segment is a whole slab, else `rows` runs of `w`.
///
/// [`pack`]: ColumnShare::pack
/// [`place`]: ColumnShare::place
/// [`gram`]: ColumnShare::gram
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnShare {
    ln: usize,
    inner: usize,
    c0: usize,
    len: usize,
}

impl ColumnShare {
    /// Columns `[c0, c0 + len)` of the mode-`n` unfolding of a tensor with
    /// extents `dims` (`L_n = dims[n]`). An empty range is a valid share of
    /// nothing.
    ///
    /// # Panics
    /// Panics if `n` is out of range or the range exceeds the number of
    /// mode-`n` fibers.
    pub fn new(dims: &[usize], n: usize, c0: usize, len: usize) -> Self {
        assert!(
            n < dims.len(),
            "mode {n} out of range for order {}",
            dims.len()
        );
        let ln = dims[n];
        let inner: usize = dims[..n].iter().product();
        let nf = inner * dims[n + 1..].iter().product::<usize>();
        assert!(
            c0 + len <= nf,
            "column range {c0}..{} exceeds {nf} mode-{n} fibers",
            c0 + len
        );
        ColumnShare { ln, inner, c0, len }
    }

    /// Number of fibers (unfolding columns) in the share.
    pub fn fibers(&self) -> usize {
        self.len
    }

    /// Elements of the share's buffer: `L_n · len`.
    pub fn buf_len(&self) -> usize {
        self.ln * self.len
    }

    /// The copy runs of rows `[r0, r0 + rows)`, in buffer order, as
    /// `(offset in the holding block, offset in the share buffer, length)`.
    fn for_each_run(&self, r0: usize, rows: usize, mut f: impl FnMut(usize, usize, usize)) {
        let (ln, inner) = (self.ln, self.inner);
        let mut seg = 0;
        for_each_segment(inner, self.c0, self.len, |o, i0, w| {
            let src = o * inner * rows + i0;
            if w == inner {
                f(src, seg + r0 * w, w * rows);
            } else {
                for l in 0..rows {
                    f(src + l * inner, seg + (r0 + l) * w, w);
                }
            }
            seg += w * ln;
        });
    }

    /// The payload a member holding `rows` rows of every fiber (`block`, in
    /// canonical layout) sends the share's owner: its rows of the share's
    /// fibers, `rows · len` elements in the order [`ColumnShare::place`]
    /// reads them.
    pub fn pack(&self, block: &[f64], rows: usize) -> Vec<f64> {
        let mut payload = Vec::with_capacity(rows * self.len);
        self.for_each_run(0, rows, |src, _, n| {
            payload.extend_from_slice(&block[src..src + n]);
        });
        payload
    }

    /// Write a [`ColumnShare::pack`] payload of rows `[r0, r0 + rows)` into
    /// the share buffer `buf`.
    ///
    /// # Panics
    /// Panics if the payload is not `rows · len` elements.
    pub fn place(&self, buf: &mut [f64], payload: &[f64], r0: usize, rows: usize) {
        assert_eq!(payload.len(), rows * self.len, "share payload size");
        let mut at = 0;
        self.for_each_run(r0, rows, |_, dst, n| {
            buf[dst..dst + n].copy_from_slice(&payload[at..at + n]);
            at += n;
        });
    }

    /// [`ColumnShare::place`] straight from the holding block — the owner's
    /// own rows, never packed.
    pub fn copy_rows(&self, buf: &mut [f64], block: &[f64], r0: usize, rows: usize) {
        self.for_each_run(r0, rows, |src, dst, n| {
            buf[dst..dst + n].copy_from_slice(&block[src..src + n]);
        });
    }

    /// The share's Gram contribution `U · Uᵀ` (`L_n × L_n`, `U` the share's
    /// columns of the unfolding) from its buffer: the SYRK calls of the
    /// in-place kernel — one `A·Aᵀ` over the columns on mode 0, one `AᵀA`
    /// per segment otherwise — on the same values, so bit-identical to the
    /// range's contribution computed inside the whole tensor. Summed over a
    /// partition of the fibers it is the [`gram`]; an empty share gives the
    /// zero matrix. Sequential: the caller is one simulated rank.
    ///
    /// # Panics
    /// Panics if `buf` is not [`ColumnShare::buf_len`] elements.
    pub fn gram(&self, buf: &[f64]) -> Matrix {
        assert_eq!(buf.len(), self.buf_len(), "share buffer size");
        let ln = self.ln;
        let mut g = Matrix::zeros(ln, ln);
        let acc = g.as_mut_slice();
        if self.inner == 1 {
            syrk_aat_lower(buf, ln, 0, self.len, acc);
        } else {
            let mut seg = 0;
            for_each_segment(self.inner, self.c0, self.len, |_, _, w| {
                syrk_ata_lower(&buf[seg..seg + w * ln], w, ln, 0, w, acc);
                seg += w * ln;
            });
        }
        mirror_lower(acc, ln);
        g
    }
}

thread_local! {
    /// Grow-only landing buffer for the one copy a non-contiguous view pays
    /// on its way into the slab kernel. Growth is counted as a tensor-buffer
    /// allocation, so the zero-alloc steady-state invariant extends to views.
    static VIEW_SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Run `f` on the view's elements in canonical layout: in place when the
/// view is contiguous (every full-tensor view and last-mode slice is), else
/// copied **once** through [`copy_into`] into this thread's scratch — which
/// is extract-then-compute minus the allocation, so the bits are those of
/// the extracted tensor by construction. A strided Gram that walks the view
/// in place has to gather each fiber element by element and measured
/// 0.13–0.36× of this copy (DESIGN §11). The scratch is as large as the
/// largest strided view this thread has taken a Gram of, and is kept.
fn with_canonical<R>(v: &TensorView, f: impl FnOnce(&[f64]) -> R) -> R {
    if let Some(src) = v.contiguous_data() {
        return f(src);
    }
    VIEW_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let len = v.cardinality();
        if buf.capacity() < len {
            note_buffer_alloc();
        }
        buf.resize(len, 0.0);
        copy_into(v, &mut TensorViewMut::packed(&mut buf, v.dims()));
        let r = f(&buf);
        cell.set(buf);
        r
    })
}

/// `(L_n, number of mode-n fibers)` of a view (`0` fibers when it is empty).
fn fiber_space(v: &TensorView, n: usize) -> (usize, usize) {
    v.check_mode(n);
    let ln = v.dim(n);
    (ln, v.cardinality() / ln.max(1))
}

/// The Gram matrix `G = T(n) · T(n)ᵀ` (`L_n × L_n`) of a tensor or of any
/// strided [`TensorView`] (a `&DenseTensor` enters as its full view),
/// computed from the canonical layout without materializing the unfolding.
///
/// Numerically equivalent to `syrk(&unfold(t, n))`; the fiber-parallel path
/// regroups the summation per worker, so results can differ by a few ulps.
/// Thread count is heuristic (sequential below a work threshold, one worker
/// per host core above it); execution backends that want explicit control
/// use [`gram_threads`] directly.
///
/// # Panics
/// Panics if `n` is not a valid mode.
pub fn gram<'a>(t: impl Into<TensorView<'a>>, n: usize) -> Matrix {
    let v = t.into();
    let (ln, nf) = fiber_space(&v, n);
    let work = nf * ln * (ln + 1) / 2;
    gram_threads(v, n, crate::threads::heuristic_threads(work, PAR_MIN_WORK))
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
/// A contiguous view runs in place; any other view is copied once into a
/// thread-local scratch first (see [`with_canonical`]), so the result is
/// bit-identical to extracting the view and calling this on the copy.
///
/// # Panics
/// Panics if `n` is not a valid mode.
pub fn gram_threads<'a>(t: impl Into<TensorView<'a>>, n: usize, threads: usize) -> Matrix {
    let v = t.into();
    let (ln, nf) = fiber_space(&v, n);
    with_canonical(&v, |src| gram_ranges(src, v.dims(), n, ln, nf, threads))
}

/// The split/reduce skeleton of [`gram_threads`]: the fiber range is split
/// into per-part contiguous sub-ranges, each accumulated on its own, then
/// merged by a pairwise tree reduction.
fn gram_ranges(
    src: &[f64],
    dims: &[usize],
    n: usize,
    ln: usize,
    nf: usize,
    threads: usize,
) -> Matrix {
    let m = ln * ln;
    let workers = threads.max(1).min(nf);
    if workers <= 1 {
        let mut g = Matrix::zeros(ln, ln);
        accumulate_src_range(src, dims, n, 0, nf, g.as_mut_slice());
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
        accumulate_src_range(src, dims, n, f0, f1 - f0, buf);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{tensor_buffer_allocs, DenseTensor};
    use crate::shape::Shape;
    use crate::unfold::unfold;
    use crate::view::view_bytes_copied;
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
                let g = gram_threads(v.clone(), n, w);
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
            let g = gram_threads(v.clone(), n, 1);
            let gr = gram_threads(&c, n, 1);
            assert_eq!(g.max_abs_diff(&gr), 0.0, "mode {n}");
        }
    }

    #[test]
    fn strided_view_packed_mill_matches_extract_bitwise() {
        // Big enough that the per-range dispatch picks the packed kernel,
        // and split into parts while the view sits in the scratch copy.
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
                let g = gram_threads(v.clone(), n, w);
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
            let g = gram_threads(v.clone(), n, 1);
            let gr = gram_threads(&c, n, 1);
            assert_eq!(g.max_abs_diff(&gr), 0.0, "mode {n}");
        }
    }

    #[test]
    fn warm_strided_view_copies_once_and_allocates_nothing() {
        use crate::subtensor::Region;
        let t = rand_tensor(&[12, 10, 8], 25);
        let interior = Region {
            start: vec![1, 2, 1],
            len: vec![9, 6, 5],
        };
        let v = crate::view::TensorView::region(&t, &interior);
        assert!(!v.is_contiguous());
        for n in 0..3 {
            let cold = gram_threads(v.clone(), n, 2); // grows the scratch once
            let (allocs, bytes) = (tensor_buffer_allocs(), view_bytes_copied());
            let warm = gram_threads(v.clone(), n, 2);
            assert_eq!(tensor_buffer_allocs(), allocs, "mode {n}");
            assert_eq!(
                view_bytes_copied() - bytes,
                8 * v.cardinality() as u64,
                "mode {n}"
            );
            assert_eq!(warm.max_abs_diff(&cold), 0.0, "mode {n}");
        }
        // A boundary region and a last-mode slice are contiguous: in place.
        let boundary = crate::view::TensorView::window(&t, &[0, 0, 0], &[12, 10, 4]);
        let slice = crate::view::TensorView::of(&t).slice(2, 3, 4);
        let bytes = view_bytes_copied();
        for n in 0..3 {
            gram_threads(boundary.clone(), n, 2);
            gram(slice.clone(), n);
        }
        assert_eq!(view_bytes_copied(), bytes);
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

    /// The Gram of columns `[c0, c0 + len)` through a share packed out of the
    /// whole tensor (every row of every fiber).
    fn share_gram(t: &DenseTensor, n: usize, c0: usize, len: usize) -> Matrix {
        let share = ColumnShare::new(t.shape().dims(), n, c0, len);
        share.gram(&share.pack(t.as_slice(), t.shape().dim(n)))
    }

    /// The same range's contribution walked in place in the tensor, with the
    /// tensor's own strides.
    fn in_place_cols(t: &DenseTensor, n: usize, c0: usize, len: usize) -> Matrix {
        let ln = t.shape().dim(n);
        let mut g = Matrix::zeros(ln, ln);
        accumulate_src_range(t.as_slice(), t.shape().dims(), n, c0, len, g.as_mut_slice());
        mirror_lower(g.as_mut_slice(), ln);
        g
    }

    #[test]
    fn share_gram_is_the_in_place_column_walk_bitwise() {
        // Sizes on both sides of the packed-kernel threshold; ranges that
        // start and end mid-slab, whole slabs, single fibers, the full range.
        for (dims, seed) in [(vec![5, 4, 3, 6], 31u64), (vec![24, 20, 18], 32)] {
            let t = rand_tensor(&dims, seed);
            for n in 0..dims.len() {
                let nf = t.shape().num_fibers(n);
                let inner: usize = dims[..n].iter().product();
                let slab = (inner.min(nf), inner.min(nf - inner.min(nf)));
                for (c0, len) in [(0, nf), (1, nf - 2), slab, (nf / 3, nf / 2), (2, 1)] {
                    let got = share_gram(&t, n, c0, len);
                    let want = in_place_cols(&t, n, c0, len);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "{dims:?} mode {n} {c0}+{len}"
                    );
                }
                // The share of every fiber is the tensor's own buffer.
                let all = ColumnShare::new(&dims, n, 0, nf);
                assert_eq!(all.pack(t.as_slice(), dims[n]), t.as_slice());
                assert_eq!(
                    all.gram(t.as_slice()).as_slice(),
                    gram_threads(&t, n, 1).as_slice()
                );
            }
        }
    }

    #[test]
    fn share_rows_placed_by_parts_assemble_the_whole_share() {
        // Three holders of rows 0..2, 2..5, 5..7 of a mode-1 extent of 7.
        let t = rand_tensor(&[3, 7, 4], 33);
        let share = ColumnShare::new(t.shape().dims(), 1, 2, 7);
        let whole = share.pack(t.as_slice(), 7);
        let mut buf = vec![f64::NAN; share.buf_len()];
        for (r0, rows) in [(0, 2), (2, 3), (5, 2)] {
            let block = t.shape().with_dim(1, rows);
            let part: Vec<f64> = (0..block.cardinality())
                .map(|i| {
                    let mut c = block.coord(i);
                    c[1] += r0;
                    t.get(&c)
                })
                .collect();
            if r0 == 2 {
                share.copy_rows(&mut buf, &part, r0, rows);
            } else {
                share.place(&mut buf, &share.pack(&part, rows), r0, rows);
            }
        }
        assert_eq!(buf, whole);
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
                    let part = share_gram(&t, n, c0, len);
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
        let g = share_gram(&t, 1, c0, len);
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
        let g = share_gram(&t, 0, 3, 0);
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
        let _ = ColumnShare::new(&[2, 3], 0, 2, 2);
    }
}
