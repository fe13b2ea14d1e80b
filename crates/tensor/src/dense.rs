//! Dense tensor storage.
//!
//! In debug builds this module also maintains a **tensor-buffer allocation
//! counter** (thread-local, see [`tensor_buffer_allocs`]): every fresh
//! tensor-sized buffer — a constructor allocation, a [`Clone`], or a pooled
//! buffer outgrowing its capacity in `ttm_into_threads` — bumps it. The counter backs
//! the allocation-regression smoke test asserting that a steady-state HOOI
//! iteration (fused Gram + workspace TTM) performs zero tensor-buffer
//! allocations. Release builds compile the counter out entirely.

use crate::shape::Shape;
use rand::distributions::Distribution;
use rand::Rng;

#[cfg(debug_assertions)]
thread_local! {
    static BUFFER_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of tensor-buffer allocations observed **on the calling thread** so
/// far (debug builds only; always 0 in release builds, where the counter is
/// compiled out). Take a snapshot before and after a region to assert it is
/// allocation-free.
///
/// The counter is deliberately thread-local rather than process-wide: a
/// global atomic would let every concurrently running test bleed into the
/// snapshot window and make the allocation-regression tests flaky. The
/// trade-off is a blind spot for allocations made on the worker threads of a
/// parallel region — which the kernels never do at steady state by design:
/// the parts of a region only receive `&mut [f64]` pieces of pre-sized
/// buffers and stage through their thread's grow-only scratch. Keep it that
/// way; a tensor constructed inside a part would escape this counter.
pub fn tensor_buffer_allocs() -> u64 {
    #[cfg(debug_assertions)]
    {
        BUFFER_ALLOCS.with(|c| c.get())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Record one tensor-buffer allocation (no-op in release builds).
#[inline]
pub(crate) fn note_buffer_alloc() {
    #[cfg(debug_assertions)]
    BUFFER_ALLOCS.with(|c| c.set(c.get() + 1));
}

/// A dense `f64` tensor in the canonical mode-0-fastest layout.
#[derive(PartialEq)]
pub struct DenseTensor {
    shape: Shape,
    data: Vec<f64>,
}

impl Clone for DenseTensor {
    fn clone(&self) -> Self {
        note_buffer_alloc();
        Self {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }
}

impl DenseTensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        note_buffer_alloc();
        let data = vec![0.0; shape.cardinality()];
        Self { shape, data }
    }

    /// Tensor built from a closure over coordinates.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let shape = shape.into();
        note_buffer_alloc();
        let card = shape.cardinality();
        let mut data = Vec::with_capacity(card);
        // One coordinate buffer advanced in place, mode 0 fastest (the
        // layout order) — no per-element allocation.
        let mut c = crate::shape::Dims::filled(shape.order(), 0);
        for _ in 0..card {
            data.push(f(&c));
            for (ci, &d) in c.iter_mut().zip(shape.dims()) {
                *ci += 1;
                if *ci < d {
                    break;
                }
                *ci = 0;
            }
        }
        Self { shape, data }
    }

    /// Wrap an existing canonical-layout buffer.
    ///
    /// Does not bump the allocation counter: the buffer may be a recycled
    /// workspace buffer (the caller that created it fresh already counted it).
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape cardinality.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f64>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.cardinality(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// Tensor filled with samples from `dist`.
    pub fn random<D: Distribution<f64>, R: Rng>(
        shape: impl Into<Shape>,
        dist: &D,
        rng: &mut R,
    ) -> Self {
        let shape = shape.into();
        note_buffer_alloc();
        let data = (0..shape.cardinality()).map(|_| dist.sample(rng)).collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of elements.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.data.len()
    }

    /// Canonical-layout backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element at a coordinate.
    #[inline]
    pub fn get(&self, coord: &[usize]) -> f64 {
        self.data[self.shape.offset(coord)]
    }

    /// Set element at a coordinate.
    #[inline]
    pub fn set(&mut self, coord: &[usize], value: f64) {
        let off = self.shape.offset(coord);
        self.data[off] = value;
    }

    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Elementwise sum with another tensor, in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &DenseTensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }
}

impl std::fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DenseTensor({}, {} elements)",
            self.shape,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_get_set() {
        let mut t = DenseTensor::zeros([2, 3, 4]);
        assert_eq!(t.cardinality(), 24);
        t.set(&[1, 2, 3], 5.0);
        assert_eq!(t.get(&[1, 2, 3]), 5.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn from_fn_coordinates() {
        let t = DenseTensor::from_fn([3, 4], |c| (c[0] * 10 + c[1]) as f64);
        assert_eq!(t.get(&[2, 3]), 23.0);
        // Layout: mode 0 fastest.
        assert_eq!(t.as_slice()[0], 0.0);
        assert_eq!(t.as_slice()[1], 10.0);
        assert_eq!(t.as_slice()[3], 1.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let v: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let t = DenseTensor::from_vec([3, 4], v.clone());
        assert_eq!(t.into_vec(), v);
    }

    #[test]
    fn add_and_scale() {
        let a = DenseTensor::from_fn([2, 2], |c| c[0] as f64);
        let mut b = a.clone();
        b.add_assign(&a);
        b.as_mut_slice().iter_mut().for_each(|x| *x *= 0.5);
        assert_eq!(b.max_abs_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_checked() {
        let _ = DenseTensor::from_vec([2, 2], vec![0.0; 5]);
    }

    #[test]
    fn alloc_counter_tracks_fresh_buffers_only() {
        if !cfg!(debug_assertions) {
            return; // counter compiled out in release builds
        }
        let t0 = tensor_buffer_allocs();
        let t = DenseTensor::zeros([3, 3]);
        let _c = t.clone();
        assert_eq!(tensor_buffer_allocs() - t0, 2, "zeros + clone count");
        let t1 = tensor_buffer_allocs();
        let _w = DenseTensor::from_vec([3, 3], t.clone().into_vec()); // clone counts,
        assert_eq!(tensor_buffer_allocs() - t1, 1, "from_vec wrap does not");
    }
}
