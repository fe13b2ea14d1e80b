//! Shape and stride algebra for dense tensors.
//!
//! The canonical layout generalizes column-major matrices: **mode 0 varies
//! fastest**. For a shape `(L₀, L₁, …, L_{N−1})` the stride of mode `n` is
//! `∏_{j<n} L_j`, and the linear offset of coordinate `(l₀, …, l_{N−1})` is
//! `Σ_n l_n · stride_n`.

use std::fmt;

/// Modes stored inline by [`Dims`]; longer index vectors spill to the heap.
const INLINE_MODES: usize = 8;

/// A short vector of `usize` — mode lengths, strides, block coordinates —
/// kept inline up to [`INLINE_MODES`] entries and on the heap beyond, so
/// there is no order limit. It is the storage behind [`Shape`], the strided
/// views and `tucker-distsim`'s grids: cloning or building one for a tensor
/// of ordinary order never touches the allocator, which is what a simulated
/// rank does thousands of times per sweep. Reads as a `[usize]` slice.
#[derive(Clone)]
pub struct Dims(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [usize; INLINE_MODES] },
    Heap(Vec<usize>),
}

impl Default for Dims {
    /// The empty vector.
    fn default() -> Self {
        Dims::filled(0, 0)
    }
}

impl Dims {
    /// `len` copies of `value`.
    pub fn filled(len: usize, value: usize) -> Self {
        if len <= INLINE_MODES {
            let mut buf = [0; INLINE_MODES];
            buf[..len].fill(value);
            Dims(Repr::Inline {
                len: len as u8,
                buf,
            })
        } else {
            Dims(Repr::Heap(vec![value; len]))
        }
    }

    /// Append one entry.
    pub fn push(&mut self, value: usize) {
        match &mut self.0 {
            Repr::Inline { len, buf } if (*len as usize) < INLINE_MODES => {
                buf[*len as usize] = value;
                *len += 1;
            }
            Repr::Inline { len, buf } => {
                let mut v = buf[..*len as usize].to_vec();
                v.push(value);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(value),
        }
    }
}

impl std::ops::Deref for Dims {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for Dims {
    #[inline]
    fn deref_mut(&mut self) -> &mut [usize] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl From<&[usize]> for Dims {
    fn from(values: &[usize]) -> Self {
        if values.len() <= INLINE_MODES {
            let mut buf = [0; INLINE_MODES];
            buf[..values.len()].copy_from_slice(values);
            Dims(Repr::Inline {
                len: values.len() as u8,
                buf,
            })
        } else {
            Dims(Repr::Heap(values.to_vec()))
        }
    }
}

impl FromIterator<usize> for Dims {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut out = Dims::default();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<'a> IntoIterator for &'a Dims {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl AsRef<[usize]> for Dims {
    fn as_ref(&self) -> &[usize] {
        self
    }
}

impl PartialEq for Dims {
    fn eq(&self, other: &Dims) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Dims {}

impl PartialEq<Vec<usize>> for Dims {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Dims {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// The dimensions of an `N`-dimensional tensor.
///
/// Modes are indexed `0..N` internally (the paper uses `1..N`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Dims);

impl Shape {
    /// Create a shape from mode lengths.
    ///
    /// # Panics
    /// Panics if any length is zero — empty modes are not meaningful for the
    /// Tucker algorithms and would break block-distribution arithmetic.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape::from(&dims.into()[..])
    }

    /// Number of modes `N`.
    #[inline]
    pub fn order(&self) -> usize {
        self.0.len()
    }

    /// Length along mode `n`.
    #[inline]
    pub fn dim(&self, n: usize) -> usize {
        self.0[n]
    }

    /// All mode lengths.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements `|T| = ∏ L_n`.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.0.iter().product()
    }

    /// Cardinality as `f64` (for cost models that may overflow `usize` on
    /// paper-scale metadata).
    pub fn cardinality_f64(&self) -> f64 {
        self.0.iter().map(|&d| d as f64).product()
    }

    /// Stride of mode `n` in the canonical (mode-0-fastest) layout.
    #[inline]
    pub fn stride(&self, n: usize) -> usize {
        self.0[..n].iter().product()
    }

    /// All strides.
    pub fn strides(&self) -> Dims {
        canonical_strides(&self.0)
    }

    /// Linear offset of a coordinate vector.
    ///
    /// # Panics
    /// Debug-panics if the coordinate is out of bounds or has wrong arity.
    #[inline]
    pub fn offset(&self, coord: &[usize]) -> usize {
        debug_assert_eq!(coord.len(), self.order(), "coordinate arity mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (c, d) in coord.iter().zip(self.dims()) {
            debug_assert!(c < d, "coordinate {coord:?} out of bounds for {self:?}");
            off += c * stride;
            stride *= d;
        }
        off
    }

    /// Inverse of [`Shape::offset`]: the coordinate of a linear index.
    ///
    /// Callers advance the result in place as an odometer, one per worker
    /// thread, writing to it once per element. The vector therefore gets
    /// room for 16 entries: two of them allocated back to back (malloc hands
    /// neighbouring 32-byte chunks to two threads that ask at the same
    /// moment) then never have their used parts in one cache line — which
    /// measured as a 3× slower two-thread tensor fill.
    pub fn coord(&self, mut index: usize) -> Vec<usize> {
        debug_assert!(index < self.cardinality());
        let mut c = Vec::with_capacity(self.order().max(16));
        for &d in self.dims() {
            c.push(index % d);
            index /= d;
        }
        c
    }

    /// The shape after replacing mode `n`'s length with `len`.
    pub fn with_dim(&self, n: usize, len: usize) -> Shape {
        let mut dims = self.0.clone();
        dims[n] = len;
        Shape::from(&dims[..])
    }

    /// Number of mode-`n` fibers, `|T| / L_n`.
    #[inline]
    pub fn num_fibers(&self, n: usize) -> usize {
        self.cardinality() / self.0[n]
    }

    /// Product of the lengths of modes strictly before `n` (the "inner" slab
    /// extent for the blocked TTM kernel).
    #[inline]
    pub fn inner_extent(&self, n: usize) -> usize {
        self.0[..n].iter().product()
    }

    /// Product of the lengths of modes strictly after `n` (the "outer" slab
    /// count for the blocked TTM kernel).
    #[inline]
    pub fn outer_extent(&self, n: usize) -> usize {
        self.0[n + 1..].iter().product()
    }

    /// Iterate over all coordinates in layout (mode-0-fastest) order.
    pub fn coords(&self) -> CoordIter {
        CoordIter {
            shape: self.0.to_vec(),
            next: Some(vec![0; self.order()]),
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// The conversion that never touches the heap (for up to eight modes).
///
/// # Panics
/// Panics like [`Shape::new`].
impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "tensor must have at least one mode");
        assert!(dims.iter().all(|&d| d > 0), "zero-length mode in {dims:?}");
        Shape(Dims::from(dims))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::from(&dims[..])
    }
}

impl<const K: usize> From<[usize; K]> for Shape {
    fn from(dims: [usize; K]) -> Self {
        Shape::from(&dims[..])
    }
}

/// Canonical (mode-0-fastest) strides of `dims`.
pub(crate) fn canonical_strides(dims: &[usize]) -> Dims {
    let mut acc = 1usize;
    dims.iter()
        .map(|&d| {
            let s = acc;
            acc *= d;
            s
        })
        .collect()
}

/// Iterator over all coordinates of a shape in canonical order.
pub struct CoordIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl Iterator for CoordIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        // Compute successor: increment mode 0 first (layout order).
        let mut succ = current.clone();
        let mut carry = true;
        for (c, &d) in succ.iter_mut().zip(&self.shape) {
            if !carry {
                break;
            }
            *c += 1;
            if *c == d {
                *c = 0;
            } else {
                carry = false;
            }
        }
        if !carry {
            self.next = Some(succ);
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Shape::from([3, 4, 5]);
        assert_eq!(s.order(), 3);
        assert_eq!(s.dim(1), 4);
        assert_eq!(s.cardinality(), 60);
        assert_eq!(s.num_fibers(1), 15);
    }

    #[test]
    fn strides_are_mode0_fastest() {
        let s = Shape::from([3, 4, 5]);
        assert_eq!(s.strides(), vec![1, 3, 12]);
        assert_eq!(s.stride(2), 12);
    }

    #[test]
    fn offset_coord_roundtrip() {
        let s = Shape::from([2, 3, 4]);
        for i in 0..s.cardinality() {
            let c = s.coord(i);
            assert_eq!(s.offset(&c), i);
        }
    }

    #[test]
    fn offset_formula() {
        let s = Shape::from([3, 4, 5]);
        assert_eq!(s.offset(&[1, 2, 3]), 1 + 2 * 3 + 3 * 12);
    }

    #[test]
    fn inner_outer_extents() {
        let s = Shape::from([3, 4, 5, 6]);
        assert_eq!(s.inner_extent(0), 1);
        assert_eq!(s.inner_extent(2), 12);
        assert_eq!(s.outer_extent(2), 6);
        assert_eq!(s.outer_extent(3), 1);
        for n in 0..4 {
            assert_eq!(
                s.inner_extent(n) * s.dim(n) * s.outer_extent(n),
                s.cardinality()
            );
        }
    }

    #[test]
    fn with_dim_replaces_one_mode() {
        let s = Shape::from([3, 4, 5]);
        let t = s.with_dim(1, 9);
        assert_eq!(t.dims(), &[3, 9, 5]);
        assert_eq!(s.dims(), &[3, 4, 5], "original untouched");
    }

    #[test]
    fn coords_iterate_in_layout_order() {
        let s = Shape::from([2, 3]);
        let all: Vec<Vec<usize>> = s.coords().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[1], vec![1, 0]); // mode 0 fastest
        assert_eq!(all[2], vec![0, 1]);
        assert_eq!(all[5], vec![1, 2]);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(s.offset(c), i, "coords order must match linear order");
        }
    }

    #[test]
    #[should_panic(expected = "zero-length mode")]
    fn zero_dim_rejected() {
        let _ = Shape::from([3, 0, 5]);
    }

    #[test]
    fn single_mode_shape() {
        let s = Shape::from([7]);
        assert_eq!(s.order(), 1);
        assert_eq!(s.num_fibers(0), 1);
        assert_eq!(s.coords().count(), 7);
    }

    #[test]
    fn cardinality_f64_handles_paper_scale() {
        // 2000^10 overflows u64; f64 path must not.
        let s = Shape::new(vec![2000; 10]);
        let c = s.cardinality_f64();
        assert!(c > 1e32 && c.is_finite());
    }
}
