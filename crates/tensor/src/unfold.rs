//! Mode-`n` unfolding (matricization) and its inverse.
//!
//! The mode-`n` unfolding `T(n)` is the `L_n × (|T|/L_n)` matrix whose
//! columns are the mode-`n` fibers, arranged lexicographically by the
//! remaining coordinates (paper §2.1). With the canonical mode-0-fastest
//! layout, the fiber with inner index `i` (enumerating modes `< n`) and outer
//! index `o` (enumerating modes `> n`) is column `i + o·I` where
//! `I = ∏_{j<n} L_j`, and its element `l` sits at linear offset
//! `i + l·I + o·I·L_n` in the tensor buffer.
//!
//! **Invariant:** nothing on a hot path materializes an unfolding. TTMs use
//! the blocked slab kernel ([`mod@crate::ttm`]) and the SVD/Gram step uses the
//! fused slab-wise kernel ([`mod@crate::gram`]), both reading the canonical
//! layout in place. `unfold`/`fold` exist *only* for tests and for the
//! explicit-unfold baseline arm of the kernel-ablation bench; the
//! allocation-regression smoke test in `tucker-core` keeps it that way.

use crate::dense::DenseTensor;
use crate::shape::Shape;
use tucker_linalg::Matrix;

/// Materialize the mode-`n` unfolding `T(n)` as an `L_n × (|T|/L_n)` matrix.
///
/// # Panics
/// Panics if `n` is not a valid mode.
pub fn unfold(t: &DenseTensor, n: usize) -> Matrix {
    let shape = t.shape();
    assert!(n < shape.order(), "mode {n} out of range for {shape}");
    let ln = shape.dim(n);
    let inner = shape.inner_extent(n);
    let outer = shape.outer_extent(n);
    let ncols = inner * outer;
    let src = t.as_slice();

    let mut out = vec![0.0; ln * ncols];
    // Column (i, o) has elements src[i + l*inner + o*inner*ln] for l in 0..ln.
    for o in 0..outer {
        let slab = o * inner * ln;
        for i in 0..inner {
            let col = i + o * inner;
            let dst = &mut out[col * ln..(col + 1) * ln];
            let mut off = slab + i;
            for d in dst.iter_mut() {
                *d = src[off];
                off += inner;
            }
        }
    }
    Matrix::from_vec(ln, ncols, out)
}

/// Inverse of [`unfold`]: rebuild a tensor of shape `shape` from its mode-`n`
/// unfolding.
///
/// # Panics
/// Panics if the matrix dimensions are inconsistent with `shape` and `n`.
pub fn fold(m: &Matrix, n: usize, shape: &Shape) -> DenseTensor {
    assert!(n < shape.order(), "mode {n} out of range for {shape}");
    let ln = shape.dim(n);
    let inner = shape.inner_extent(n);
    let outer = shape.outer_extent(n);
    assert_eq!(m.nrows(), ln, "unfolding rows must equal L_n");
    assert_eq!(m.ncols(), inner * outer, "unfolding columns mismatch");

    let mut out = vec![0.0; shape.cardinality()];
    let src = m.as_slice();
    for o in 0..outer {
        let slab = o * inner * ln;
        for i in 0..inner {
            let col = i + o * inner;
            let s = &src[col * ln..(col + 1) * ln];
            let mut off = slab + i;
            for &v in s {
                out[off] = v;
                off += inner;
            }
        }
    }
    DenseTensor::from_vec(shape.clone(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting(dims: &[usize]) -> DenseTensor {
        let mut k = 0.0;
        DenseTensor::from_fn(Shape::new(dims.to_vec()), |_| {
            k += 1.0;
            k
        })
    }

    #[test]
    fn unfold_mode0_is_reshape() {
        // Mode-0 unfolding of canonical layout is just a reshape: columns are
        // contiguous runs of length L0.
        let t = counting(&[3, 4]);
        let u = unfold(&t, 0);
        assert_eq!(u.shape(), (3, 4));
        assert_eq!(u.as_slice(), t.as_slice());
    }

    #[test]
    fn unfold_columns_are_fibers() {
        let t = DenseTensor::from_fn([2, 3, 4], |c| (c[0] * 100 + c[1] * 10 + c[2]) as f64);
        let u = unfold(&t, 1);
        assert_eq!(u.shape(), (3, 8));
        // Column (i=i0, o=i2) holds T[i0, *, i2].
        for i0 in 0..2 {
            for i2 in 0..4 {
                let col = i0 + i2 * 2;
                for l in 0..3 {
                    assert_eq!(u[(l, col)], t.get(&[i0, l, i2]), "i0={i0} i2={i2} l={l}");
                }
            }
        }
    }

    #[test]
    fn fold_inverts_unfold_all_modes() {
        let t = counting(&[2, 3, 4, 5]);
        for n in 0..4 {
            let u = unfold(&t, n);
            let back = fold(&u, n, t.shape());
            assert_eq!(back.max_abs_diff(&t), 0.0, "mode {n}");
        }
    }

    #[test]
    fn last_mode_unfolding() {
        let t = counting(&[2, 3, 4]);
        let u = unfold(&t, 2);
        assert_eq!(u.shape(), (4, 6));
        for i0 in 0..2 {
            for i1 in 0..3 {
                let col = i0 + i1 * 2;
                for l in 0..4 {
                    assert_eq!(u[(l, col)], t.get(&[i0, i1, l]));
                }
            }
        }
    }

    #[test]
    fn unfold_1d_tensor() {
        let t = counting(&[5]);
        let u = unfold(&t, 0);
        assert_eq!(u.shape(), (5, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_mode_panics() {
        let t = counting(&[2, 2]);
        let _ = unfold(&t, 2);
    }
}
