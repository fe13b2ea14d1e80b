//! Zero-copy strided tensor views (ROADMAP item 4; the `ndslice` idiom).
//!
//! [`TensorView`] / [`TensorViewMut`] describe an N-dimensional window into a
//! flat `f64` buffer as `(data, dims, strides)`: element `(c₀ … c_{N−1})`
//! lives at `data[Σ c_j · stride_j]`. Unlike [`Shape`], view dims may be
//! **zero** (an empty window is a legal result of slicing) and strides are
//! arbitrary, so one buffer can be read as sub-regions, step-sampled
//! lattices, or whole tensors without copying. Views are the lingua franca
//! of the subtensor hot paths: `gram*` / `ttm*` take `impl Into<TensorView>`
//! (a `&DenseTensor` converts to its full view). A contiguous view is read
//! where it lies; any other view pays one counted copy into a grow-only
//! thread-local scratch first (`with_canonical`), the same rule in both
//! kernels. [`copy_into`] is the single strided-copy primitive behind
//! `subtensor::extract` / `insert`, the regrid wire packing and that copy;
//! no other code walks a non-contiguous view.
//!
//! # Ownership and borrow rules
//!
//! An immutable view borrows `&'a [f64]` and is freely clonable; overlapping
//! immutable views are fine. A mutable view holds a raw pointer (plus a
//! `PhantomData<&'a mut [f64]>` so the borrow checker still pins the source
//! exclusively for `'a`), which [`copy_into`] writes through. Safety rests
//! on one invariant, checked at every mutable-view constructor: the
//! `(dims, strides)` map must be **injective** (no two coordinates share a
//! linear offset). The check is the sorted-stride nesting test — order the
//! modes with `dim > 1` by stride and require
//! `stride[i+1] ≥ stride[i] · dim[i]` — which every region/slice/step of a
//! canonical tensor satisfies by construction; hand-rolled aliasing layouts
//! (stride 0, interleaved strides) panic instead of handing out overlapping
//! `&mut` access.
//!
//! # Why views keep the zero-alloc steady state
//!
//! A view is a slice plus two inline index vectors of mode metadata — never a
//! tensor-sized buffer. The kernels reuse the same grow-only staging (pack
//! buffers, the strided view's landing scratch) whatever they are handed,
//! and every growth of that staging is counted by the same
//! debug allocation counter ([`crate::dense::tensor_buffer_allocs`]), so a
//! steady-state sweep over views performs zero tensor-buffer allocations
//! exactly like the owned-tensor fast path.

use crate::dense::{note_buffer_alloc, DenseTensor};
use crate::shape::{canonical_strides, Dims, Shape};
use crate::subtensor::Region;
use std::marker::PhantomData;

thread_local! {
    /// Bytes moved by [`copy_into`] on this thread (release builds included:
    /// the regrid benches read it to prove the one-copy-per-block claim).
    static BYTES_COPIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total bytes moved by [`copy_into`] on the calling **OS thread** so far.
/// Take a snapshot before and after a region to measure its copy traffic.
///
/// Simulated ranks share worker threads (`tucker-distsim` gives each worker
/// a contiguous block of ranks), so a delta taken inside a rank body across a
/// communication call also counts whatever the neighbouring ranks on that
/// worker copied while this one was suspended. To read it per rank, run the
/// universe with `MeshCfg { workers: nranks, .. }` — one rank per thread.
pub fn view_bytes_copied() -> u64 {
    BYTES_COPIED.with(|c| c.get())
}

/// Largest linear offset addressed by `(dims, strides)`, or `None` when the
/// index space is empty (some dim is zero).
fn max_offset(dims: &[usize], strides: &[usize]) -> Option<usize> {
    if dims.contains(&0) {
        return None;
    }
    Some(dims.iter().zip(strides).map(|(&d, &s)| (d - 1) * s).sum())
}

/// Panic unless `(dims, strides)` is an injective coordinate map (the
/// sorted-stride nesting test described in the module docs).
fn check_no_alias(dims: &[usize], strides: &[usize]) {
    if dims.contains(&0) {
        // No coordinates at all: injective vacuously (and the canonical
        // strides of an empty shape legitimately collapse to 0 past the
        // zero-length mode).
        return;
    }
    // Mode indices, not `(stride, dim)` pairs: they fit the inline vector.
    let mut modes: Dims = (0..dims.len()).filter(|&j| dims[j] > 1).collect();
    modes.sort_unstable_by_key(|&j| (strides[j], dims[j]));
    let mut floor = 1usize;
    for &j in &modes {
        let (s, d) = (strides[j], dims[j]);
        assert!(
            s >= floor,
            "aliasing mutable view: stride {s} overlaps a faster mode (need ≥ {floor})"
        );
        floor = s * d;
    }
}

/// An immutable strided view: element `(c₀ … c_{N−1})` is
/// `data[Σ c_j · stride_j]`.
#[derive(Clone, Debug)]
pub struct TensorView<'a> {
    data: &'a [f64],
    dims: Dims,
    strides: Dims,
}

/// A tensor is its full view: what lets the Gram/TTM kernels take
/// `impl Into<TensorView>` and be called with `&tensor`.
impl<'a> From<&'a DenseTensor> for TensorView<'a> {
    fn from(t: &'a DenseTensor) -> Self {
        TensorView::of(t)
    }
}

impl<'a> TensorView<'a> {
    /// The full (contiguous, canonical-stride) view of a tensor.
    pub fn of(t: &'a DenseTensor) -> Self {
        TensorView {
            data: t.as_slice(),
            dims: t.shape().dims().into(),
            strides: t.shape().strides(),
        }
    }

    /// The view of `region` inside `t` (canonical parent strides, offset
    /// base).
    ///
    /// # Panics
    /// Panics if the region does not fit inside `t`.
    pub fn region(t: &'a DenseTensor, region: &Region) -> Self {
        Self::window(t, &region.start, &region.len)
    }

    /// The view of the box `[start_n, start_n + len_n)` inside `t` —
    /// [`TensorView::region`] for callers that keep the box as two slices.
    ///
    /// # Panics
    /// Panics if the box does not fit inside `t`.
    pub fn window(t: &'a DenseTensor, start: &[usize], len: &[usize]) -> Self {
        let (off, strides) = window_parts(t.shape(), start, len);
        TensorView {
            data: &t.as_slice()[off..],
            dims: len.into(),
            strides,
        }
    }

    /// A view from raw parts. Bounds-checked: every coordinate must map
    /// inside `data`.
    ///
    /// # Panics
    /// Panics on arity mismatch or out-of-bounds extent.
    pub fn from_parts(
        data: &'a [f64],
        dims: impl AsRef<[usize]>,
        strides: impl AsRef<[usize]>,
    ) -> Self {
        let (dims, strides) = checked_parts(data.len(), dims.as_ref(), strides.as_ref());
        TensorView {
            data,
            dims,
            strides,
        }
    }

    /// The canonical (mode-0-fastest, densely packed) view of `data` as a
    /// tensor of `dims` — how a wire buffer is read back.
    ///
    /// # Panics
    /// Panics if `data` is shorter than the extent of `dims`.
    pub(crate) fn packed(data: &'a [f64], dims: &[usize]) -> Self {
        Self::from_parts(data, dims, canonical_strides(dims))
    }

    /// Number of modes.
    #[inline]
    pub(crate) fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode lengths (may contain zeros, unlike [`Shape`]).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Length along mode `n`.
    #[inline]
    pub fn dim(&self, n: usize) -> usize {
        self.dims[n]
    }

    /// Number of elements addressed by the view.
    #[inline]
    pub(crate) fn cardinality(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the view addresses no elements.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.dims.contains(&0)
    }

    /// Element at a coordinate.
    ///
    /// # Panics
    /// Panics (in debug builds) on wrong arity or out-of-bounds coordinate.
    #[inline]
    pub fn at(&self, coord: &[usize]) -> f64 {
        debug_assert_eq!(coord.len(), self.order(), "coordinate arity mismatch");
        debug_assert!(
            coord.iter().zip(&self.dims).all(|(&c, &d)| c < d),
            "coordinate {coord:?} out of bounds for dims {:?}",
            self.dims
        );
        let off: usize = coord.iter().zip(&self.strides).map(|(&c, &s)| c * s).sum();
        self.data[off]
    }

    /// Panic unless `n` is one of the view's modes (the kernels' argument
    /// check).
    pub(crate) fn check_mode(&self, n: usize) {
        assert!(
            n < self.order(),
            "mode {n} out of range for dims {:?}",
            self.dims
        );
    }

    /// Restrict mode `mode` to `[start, start + len)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the mode length.
    pub fn slice(&self, mode: usize, start: usize, len: usize) -> TensorView<'a> {
        assert!(
            start + len <= self.dims[mode],
            "slice {start}+{len} out of bounds for mode {mode} of length {}",
            self.dims[mode]
        );
        let off = (start * self.strides[mode]).min(self.data.len());
        let mut dims = self.dims.clone();
        dims[mode] = len;
        TensorView {
            data: &self.data[off..],
            dims,
            strides: self.strides.clone(),
        }
    }

    /// Keep every `step`-th index of mode `mode` (a strided subsample).
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn step(&self, mode: usize, step: usize) -> TensorView<'a> {
        assert!(step > 0, "step must be positive");
        let mut dims = self.dims.clone();
        let mut strides = self.strides.clone();
        dims[mode] = self.dims[mode].div_ceil(step);
        strides[mode] *= step;
        TensorView {
            data: self.data,
            dims,
            strides,
        }
    }

    /// Whether the view is exactly the canonical (mode-0-fastest, densely
    /// packed) layout of its dims — length-1 modes may carry any stride.
    pub(crate) fn is_contiguous(&self) -> bool {
        let mut acc = 1usize;
        for (&d, &s) in self.dims.iter().zip(&self.strides) {
            if d > 1 && s != acc {
                return false;
            }
            acc *= d;
        }
        true
    }

    /// The backing data as a canonical-layout slice, if the view is
    /// contiguous and nonempty.
    pub fn contiguous_data(&self) -> Option<&'a [f64]> {
        if !self.is_empty() && self.is_contiguous() {
            Some(&self.data[..self.cardinality()])
        } else {
            None
        }
    }

    /// Materialize the view into an owned canonical tensor (one counted
    /// tensor-buffer allocation; test/bench helper, never a hot path).
    ///
    /// # Panics
    /// Panics if the view is empty ([`Shape`] forbids zero dims).
    pub fn to_tensor(&self) -> DenseTensor {
        note_buffer_alloc();
        let mut out = vec![0.0; self.cardinality()];
        copy_into(self, &mut TensorViewMut::packed(&mut out, &self.dims));
        DenseTensor::from_vec(Shape::from(&self.dims[..]), out)
    }
}

/// A mutable strided view. Constructors enforce injectivity (see module
/// docs), which is what makes [`copy_into`]'s raw-pointer writes sound.
#[derive(Debug)]
pub struct TensorViewMut<'a> {
    ptr: *mut f64,
    len: usize,
    dims: Dims,
    strides: Dims,
    _life: PhantomData<&'a mut [f64]>,
}

impl<'a> TensorViewMut<'a> {
    /// The full mutable view of a tensor.
    pub fn of(t: &'a mut DenseTensor) -> Self {
        let dims = t.shape().dims().into();
        let strides = t.shape().strides();
        let s = t.as_mut_slice();
        TensorViewMut {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            dims,
            strides,
            _life: PhantomData,
        }
    }

    /// The mutable view of `region` inside `t`.
    ///
    /// # Panics
    /// Panics if the region does not fit inside `t`.
    pub fn region(t: &'a mut DenseTensor, region: &Region) -> Self {
        Self::window(t, &region.start, &region.len)
    }

    /// The mutable view of the box `[start_n, start_n + len_n)` inside `t`
    /// (a box of a canonical tensor is injective by construction).
    ///
    /// # Panics
    /// Panics if the box does not fit inside `t`.
    pub fn window(t: &'a mut DenseTensor, start: &[usize], len: &[usize]) -> Self {
        let (off, strides) = window_parts(t.shape(), start, len);
        let s = &mut t.as_mut_slice()[off..];
        TensorViewMut {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            dims: len.into(),
            strides,
            _life: PhantomData,
        }
    }

    /// A mutable view over a slice from raw parts.
    ///
    /// # Panics
    /// Panics on arity mismatch, out-of-bounds extent, or an **aliasing**
    /// layout (two coordinates mapping to one offset — e.g. a zero stride or
    /// interleaved strides fail the nesting test).
    pub fn from_parts(
        data: &'a mut [f64],
        dims: impl AsRef<[usize]>,
        strides: impl AsRef<[usize]>,
    ) -> Self {
        let (dims, strides) = checked_parts(data.len(), dims.as_ref(), strides.as_ref());
        check_no_alias(&dims, &strides);
        TensorViewMut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            dims,
            strides,
            _life: PhantomData,
        }
    }

    /// The canonical (densely packed) mutable view of `data` as a tensor of
    /// `dims` — how a wire buffer is filled.
    ///
    /// # Panics
    /// Panics if `data` is shorter than the extent of `dims`.
    pub(crate) fn packed(data: &'a mut [f64], dims: &[usize]) -> Self {
        Self::from_parts(data, dims, canonical_strides(dims))
    }

    /// Mode lengths.
    #[inline]
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Restrict mode `mode` to `[start, start + len)`, consuming the view
    /// (mutable windows must not overlap, so narrowing takes ownership).
    ///
    /// # Panics
    /// Panics if the range exceeds the mode length.
    pub fn slice_mut(self, mode: usize, start: usize, len: usize) -> TensorViewMut<'a> {
        assert!(
            start + len <= self.dims[mode],
            "slice {start}+{len} out of bounds for mode {mode} of length {}",
            self.dims[mode]
        );
        let off = (start * self.strides[mode]).min(self.len);
        let mut dims = self.dims;
        dims[mode] = len;
        TensorViewMut {
            ptr: unsafe { self.ptr.add(off) },
            len: self.len - off,
            dims,
            strides: self.strides,
            _life: PhantomData,
        }
    }
}

/// Offset from base and strides of the box `(start, len)` inside a shape.
fn window_parts(shape: &Shape, start: &[usize], len: &[usize]) -> (usize, Dims) {
    assert_eq!(start.len(), shape.order(), "region arity mismatch");
    assert_eq!(len.len(), shape.order(), "region arity mismatch");
    let strides = shape.strides();
    for ((&s, &l), &d) in start.iter().zip(len).zip(shape.dims()) {
        assert!(s + l <= d, "region out of bounds for {shape}");
    }
    let off: usize = start.iter().zip(&strides).map(|(&s, &st)| s * st).sum();
    // Clamp so an empty region at the far corner still yields a valid slice.
    (off.min(shape.cardinality()), strides)
}

/// Arity- and bounds-check raw view parts against a buffer of `buf_len`.
fn checked_parts(buf_len: usize, dims: &[usize], strides: &[usize]) -> (Dims, Dims) {
    assert_eq!(dims.len(), strides.len(), "dims/strides arity mismatch");
    if let Some(m) = max_offset(dims, strides) {
        assert!(
            m < buf_len,
            "view extent {m} out of bounds for buffer of {buf_len}"
        );
    }
    (dims.into(), strides.into())
}

/// Copy `src` into `dst` elementwise (same dims required) in one strided
/// pass: the longest canonical-contiguous prefix common to both views is
/// moved with `copy_from_slice` rows, the remaining modes walked by an
/// incremental odometer. Empty views copy nothing. Adds the moved byte
/// count to the thread's [`view_bytes_copied`] counter.
///
/// # Panics
/// Panics if the two views' dims differ.
pub fn copy_into(src: &TensorView, dst: &mut TensorViewMut) {
    assert_eq!(src.dims(), dst.dims(), "copy_into dims mismatch");
    if src.is_empty() {
        return;
    }
    let dims = src.dims();
    // Longest prefix that is canonically packed in BOTH layouts.
    let mut row = 1usize;
    let mut t = 0usize;
    while t < dims.len() {
        let (d, ss, ds) = (dims[t], src.strides[t], dst.strides[t]);
        if d > 1 && (ss != row || ds != row) {
            break;
        }
        row *= d;
        t += 1;
    }
    // One run per position of the remaining modes: the packed prefix moved
    // with `copy_from_slice`, or — mode 0 strided on at least one side —
    // mode 0 walked elementwise.
    let (run, s_step, d_step) = if t > 0 {
        (row, 1, 1)
    } else {
        t = 1;
        (dims[0], src.strides[0], dst.strides[0])
    };
    let (outer, ss, ds) = (&dims[t..], &src.strides[t..], &dst.strides[t..]);
    // A single odometer carries both offsets.
    let mut coord = Dims::filled(outer.len(), 0);
    let (mut sb, mut db) = (0usize, 0usize);
    for _ in 0..outer.iter().product::<usize>() {
        assert!(db + (run - 1) * d_step < dst.len, "copy_into out of bounds");
        if s_step == 1 && d_step == 1 {
            // SAFETY: the run ends inside the view's buffer (asserted above),
            // which `dst` borrows exclusively.
            let d = unsafe { std::slice::from_raw_parts_mut(dst.ptr.add(db), run) };
            d.copy_from_slice(&src.data[sb..sb + run]);
        } else {
            for i in 0..run {
                // SAFETY: `db + i · d_step` is at most the offset asserted
                // above.
                unsafe { *dst.ptr.add(db + i * d_step) = src.data[sb + i * s_step] };
            }
        }
        for j in 0..outer.len() {
            coord[j] += 1;
            sb += ss[j];
            db += ds[j];
            if coord[j] < outer[j] {
                break;
            }
            sb -= ss[j] * outer[j];
            db -= ds[j] * outer[j];
            coord[j] = 0;
        }
    }
    BYTES_COPIED.with(|c| c.set(c.get() + (src.cardinality() * std::mem::size_of::<f64>()) as u64));
}

thread_local! {
    /// Grow-only landing buffer for the one copy a non-contiguous view pays
    /// on its way into a kernel. Growth is counted as a tensor-buffer
    /// allocation, so the zero-alloc steady-state invariant extends to views.
    static VIEW_SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Run `f` on the view's elements in canonical layout: in place when the
/// view is contiguous (every full-tensor view and last-mode slice is), else
/// copied **once** through [`copy_into`] into this thread's scratch — which
/// is extract-then-compute minus the allocation, so the bits are those of
/// the extracted tensor by construction. The Gram and the TTM both take
/// this one rule (DESIGN §11); a strided Gram that walks the view in place
/// has to gather each fiber element by element and measured 0.13–0.36× of
/// the copy. The scratch is as large as the largest strided view this
/// thread has handed a kernel, and is kept.
pub(crate) fn with_canonical<R>(v: &TensorView, f: impl FnOnce(&[f64]) -> R) -> R {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn counting(dims: &[usize]) -> DenseTensor {
        let mut k = -1.0;
        DenseTensor::from_fn(Shape::new(dims.to_vec()), |_| {
            k += 1.0;
            k
        })
    }

    #[test]
    fn full_view_is_contiguous_identity() {
        let t = counting(&[3, 4, 2]);
        let v = TensorView::of(&t);
        assert!(v.is_contiguous());
        assert_eq!(v.contiguous_data().unwrap(), t.as_slice());
        assert_eq!(v.at(&[2, 3, 1]), t.get(&[2, 3, 1]));
        assert_eq!(v.to_tensor().as_slice(), t.as_slice());
    }

    #[test]
    fn region_view_matches_extract() {
        let t = counting(&[4, 5, 3]);
        let r = Region {
            start: vec![1, 2, 0],
            len: vec![2, 3, 2],
        };
        let v = TensorView::region(&t, &r);
        assert!(!v.is_contiguous());
        assert_eq!(v.to_tensor().into_vec(), crate::subtensor::extract(&t, &r));
    }

    #[test]
    fn slice_step_split_compose() {
        let t = counting(&[6, 4]);
        let v = TensorView::of(&t);
        let s = v.slice(0, 1, 4).step(0, 2); // rows 1, 3
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.at(&[0, 0]), t.get(&[1, 0]));
        assert_eq!(s.at(&[1, 2]), t.get(&[3, 2]));
        let (a, b) = (v.slice(1, 0, 3), v.slice(1, 3, 1));
        assert_eq!(a.dims(), &[6, 3]);
        assert_eq!(b.dims(), &[6, 1]);
        assert_eq!(b.at(&[2, 0]), t.get(&[2, 3]));
        assert!(a.is_contiguous(), "leading slice of last mode stays packed");
    }

    #[test]
    fn empty_views_are_legal() {
        let t = counting(&[3, 3]);
        let v = TensorView::of(&t).slice(1, 3, 0);
        assert!(v.is_empty());
        assert_eq!(v.cardinality(), 0);
        let mut out = DenseTensor::zeros([3, 3]);
        let mut d = TensorViewMut::of(&mut out).slice_mut(1, 3, 0);
        copy_into(&v, &mut d); // no-op, must not panic
    }

    #[test]
    fn copy_into_roundtrips_region() {
        let t = counting(&[4, 5, 3]);
        let r = Region {
            start: vec![2, 1, 1],
            len: vec![2, 4, 2],
        };
        let mut t2 = DenseTensor::zeros(t.shape().clone());
        let before = view_bytes_copied();
        let src = TensorView::region(&t, &r);
        let mut dst = TensorViewMut::region(&mut t2, &r);
        copy_into(&src, &mut dst);
        assert_eq!(
            view_bytes_copied() - before,
            (r.cardinality() * 8) as u64,
            "every element moved exactly once"
        );
        for c in t.shape().coords() {
            let want = if r.contains(&c) { t.get(&c) } else { 0.0 };
            assert_eq!(t2.get(&c), want, "at {c:?}");
        }
    }

    #[test]
    fn copy_into_strided_mode0() {
        // Step mode 0 so no contiguous row exists on the source side.
        let t = counting(&[6, 3]);
        let v = TensorView::of(&t).step(0, 2); // 3x3
        let mut out = DenseTensor::zeros([3, 3]);
        let mut d = TensorViewMut::of(&mut out);
        copy_into(&v, &mut d);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(out.get(&[i, j]), t.get(&[2 * i, j]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "aliasing mutable view")]
    fn aliasing_mut_layout_rejected() {
        let mut buf = vec![0.0; 8];
        // dims [4,2] strides [1,2]: offsets {0..3} and {0,2} interleave.
        let _ = TensorViewMut::from_parts(&mut buf, vec![4, 2], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "aliasing mutable view")]
    fn zero_stride_mut_rejected() {
        let mut buf = vec![0.0; 8];
        let _ = TensorViewMut::from_parts(&mut buf, vec![2, 4], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_view_rejected() {
        let buf = vec![0.0; 8];
        let _ = TensorView::from_parts(&buf, vec![3, 3], vec![1, 3]);
    }
}
