//! Rectangular sub-tensor extraction and insertion.
//!
//! The distributed crate's block distribution assigns each rank an
//! axis-aligned box of the global tensor, and regridding (`MPI_Alltoallv` in
//! the paper, §5) moves box intersections between ranks. This module provides
//! the box arithmetic and the pack/unpack copies.

use crate::dense::DenseTensor;
use crate::shape::{Dims, Shape};
use crate::view::{copy_into, TensorView, TensorViewMut};

/// An axis-aligned box `[start_n, start_n + len_n)` in every mode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Region {
    /// Inclusive start coordinate per mode.
    pub start: Vec<usize>,
    /// Extent per mode (all non-zero for a non-empty region).
    pub len: Vec<usize>,
}

impl Region {
    /// The region covering all of `shape`.
    pub fn full(shape: &Shape) -> Self {
        Region {
            start: vec![0; shape.order()],
            len: shape.dims().to_vec(),
        }
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.start.len()
    }

    /// Number of elements in the region.
    pub fn cardinality(&self) -> usize {
        self.len.iter().product()
    }

    /// Intersect two regions; `None` if the intersection is empty.
    ///
    /// # Panics
    /// Panics if the orders differ.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.order(), other.order(), "region order mismatch");
        let mut start = Vec::with_capacity(self.order());
        let mut len = Vec::with_capacity(self.order());
        for n in 0..self.order() {
            let (lo, l) = overlap(self.start[n], self.len[n], other.start[n], other.len[n])?;
            start.push(lo);
            len.push(l);
        }
        Some(Region { start, len })
    }

    /// `true` if `coord` lies inside the region.
    pub fn contains(&self, coord: &[usize]) -> bool {
        coord
            .iter()
            .zip(self.start.iter().zip(&self.len))
            .all(|(&c, (&s, &l))| c >= s && c < s + l)
    }

    /// The region translated so that `origin` becomes coordinate zero.
    ///
    /// Used to convert a global-coordinate region into the local coordinates
    /// of a block whose global start is `origin`. Consumes the region and
    /// translates in place — no allocation, no extent clone.
    ///
    /// # Panics
    /// Panics if the region does not lie at or after `origin` in every mode.
    pub fn relative_to(mut self, origin: &[usize]) -> Region {
        for (s, &o) in self.start.iter_mut().zip(origin) {
            assert!(*s >= o, "region starts before origin");
            *s -= o;
        }
        self
    }

    /// Shape of the region's extents.
    pub fn shape(&self) -> Shape {
        Shape::new(self.len.clone())
    }
}

/// Intersection `(start, len)` of the intervals `[a, a + al)` and
/// `[b, b + bl)`; `None` if they do not meet.
fn overlap(a: usize, al: usize, b: usize, bl: usize) -> Option<(usize, usize)> {
    let lo = a.max(b);
    let hi = (a + al).min(b + bl);
    (lo < hi).then(|| (lo, hi - lo))
}

/// A [`Region`] on inline index vectors ([`Dims`]): the box a simulated rank
/// owns, or the overlap of two of them. A rank intersects its block with
/// every peer's on each regrid, so this form never touches the allocator;
/// [`Region`], with its public `Vec` fields, stays the type of the API
/// surface, and [`Block::region`] converts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// Inclusive start coordinate per mode.
    pub start: Dims,
    /// Extent per mode.
    pub len: Dims,
}

impl Block {
    /// [`Region::intersect`].
    pub fn intersect(&self, other: &Block) -> Option<Block> {
        assert_eq!(self.start.len(), other.start.len(), "region order mismatch");
        let mut out = self.clone();
        for n in 0..self.start.len() {
            (out.start[n], out.len[n]) =
                overlap(self.start[n], self.len[n], other.start[n], other.len[n])?;
        }
        Some(out)
    }

    /// [`Region::relative_to`].
    pub fn relative_to(mut self, origin: &[usize]) -> Block {
        for (s, &o) in self.start.iter_mut().zip(origin) {
            assert!(*s >= o, "region starts before origin");
            *s -= o;
        }
        self
    }

    /// The same box as a [`Region`].
    pub fn region(&self) -> Region {
        Region {
            start: self.start.to_vec(),
            len: self.len.to_vec(),
        }
    }
}

/// Copy the elements of `region` (in `t`'s coordinates) into a fresh
/// canonical-layout buffer of shape `region.len`.
///
/// # Panics
/// Panics if the region does not fit inside `t`.
pub fn extract(t: &DenseTensor, region: &Region) -> Vec<f64> {
    extract_window(t, &region.start, &region.len)
}

/// [`extract`] of the box `(start, len)`, for callers that keep boxes as
/// slices.
///
/// # Panics
/// Panics if the box does not fit inside `t`.
pub fn extract_window(t: &DenseTensor, start: &[usize], len: &[usize]) -> Vec<f64> {
    check_window(t.shape(), start, len);
    let src = TensorView::window(t, start, len);
    let mut out = vec![0.0; src.cardinality()];
    copy_into(&src, &mut TensorViewMut::packed(&mut out, len));
    out
}

fn check_window(shape: &Shape, start: &[usize], len: &[usize]) {
    assert_eq!(start.len(), shape.order(), "region order mismatch");
    assert_eq!(len.len(), shape.order(), "region order mismatch");
    for n in 0..shape.order() {
        assert!(
            start[n] + len[n] <= shape.dim(n),
            "region exceeds tensor bounds in mode {n}"
        );
    }
}

/// Inverse of [`extract`]: write `data` (canonical layout of shape
/// `region.len`) into `region` of `t`.
///
/// # Panics
/// Panics if the region does not fit or `data` has the wrong length.
pub fn insert(t: &mut DenseTensor, region: &Region, data: &[f64]) {
    insert_window(t, &region.start, &region.len, data);
}

/// [`insert`] into the box `(start, len)`.
///
/// # Panics
/// Panics if the box does not fit or `data` has the wrong length.
pub fn insert_window(t: &mut DenseTensor, start: &[usize], len: &[usize], data: &[f64]) {
    assert_eq!(
        data.len(),
        len.iter().product::<usize>(),
        "data length mismatch"
    );
    check_window(t.shape(), start, len);
    copy_into(
        &TensorView::packed(data, len),
        &mut TensorViewMut::window(t, start, len),
    );
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
    fn extract_full_is_identity() {
        let t = counting(&[3, 4, 2]);
        let r = Region::full(t.shape());
        assert_eq!(extract(&t, &r), t.as_slice());
    }

    #[test]
    fn extract_matches_elementwise() {
        let t = counting(&[4, 5, 3]);
        let r = Region {
            start: vec![1, 2, 0],
            len: vec![2, 3, 2],
        };
        let data = extract(&t, &r);
        let sub_shape = r.shape();
        for (i, c) in sub_shape.coords().enumerate() {
            let g: Vec<usize> = c.iter().zip(&r.start).map(|(a, b)| a + b).collect();
            assert_eq!(data[i], t.get(&g), "at {c:?}");
        }
    }

    #[test]
    fn insert_roundtrip() {
        let t = counting(&[4, 5, 3]);
        let r = Region {
            start: vec![2, 1, 1],
            len: vec![2, 4, 2],
        };
        let data = extract(&t, &r);
        let mut t2 = DenseTensor::zeros(t.shape().clone());
        insert(&mut t2, &r, &data);
        for c in t.shape().coords() {
            if r.contains(&c) {
                assert_eq!(t2.get(&c), t.get(&c));
            } else {
                assert_eq!(t2.get(&c), 0.0);
            }
        }
    }

    #[test]
    fn intersect_basic() {
        let a = Region {
            start: vec![0, 0],
            len: vec![4, 4],
        };
        let b = Region {
            start: vec![2, 3],
            len: vec![4, 4],
        };
        let i = a.intersect(&b).unwrap();
        assert_eq!(
            i,
            Region {
                start: vec![2, 3],
                len: vec![2, 1]
            }
        );
    }

    #[test]
    fn intersect_empty() {
        let a = Region {
            start: vec![0, 0],
            len: vec![2, 2],
        };
        let b = Region {
            start: vec![2, 0],
            len: vec![2, 2],
        };
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn intersect_is_commutative() {
        let a = Region {
            start: vec![1, 0, 2],
            len: vec![3, 5, 2],
        };
        let b = Region {
            start: vec![0, 2, 1],
            len: vec![3, 2, 3],
        };
        assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn relative_to_translates() {
        let r = Region {
            start: vec![5, 7],
            len: vec![2, 3],
        };
        let rel = r.relative_to(&[4, 7]);
        assert_eq!(
            rel,
            Region {
                start: vec![1, 0],
                len: vec![2, 3]
            }
        );
    }

    #[test]
    fn one_dim_region() {
        let t = counting(&[10]);
        let r = Region {
            start: vec![3],
            len: vec![4],
        };
        assert_eq!(extract(&t, &r), vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds tensor bounds")]
    fn out_of_bounds_extract_panics() {
        let t = counting(&[3, 3]);
        let r = Region {
            start: vec![2, 0],
            len: vec![2, 3],
        };
        let _ = extract(&t, &r);
    }
}
