//! Column-major dense matrix type.
//!
//! The storage convention matches Fortran/BLAS (column-major) because the
//! tensor crate's mode-`n` unfoldings are naturally column-major: a mode-`n`
//! unfolding has the `L_n`-length fibers as its columns, and fibers of the
//! first mode are contiguous in the canonical tensor layout.

use rand::distributions::Distribution;
use rand::Rng;
use std::fmt;

/// A dense, column-major `f64` matrix.
///
/// Element `(i, j)` (row `i`, column `j`) lives at `data[i + j * nrows]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a zero-filled matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Create an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Wrap an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length {} does not match shape {nrows}x{ncols}",
            data.len()
        );
        Self { nrows, ncols, data }
    }

    /// Build from row-major data (convenience for literals in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
        }
        Self::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    /// Fill with samples from `dist`.
    pub fn random<D: Distribution<f64>, R: Rng>(
        nrows: usize,
        ncols: usize,
        dist: &D,
        rng: &mut R,
    ) -> Self {
        let data = (0..nrows * ncols).map(|_| dist.sample(rng)).collect();
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Backing column-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing column-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copy of row `i` (rows are strided; this allocates).
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max absolute elementwise difference to `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` if every column has unit norm and distinct columns are
    /// orthogonal to within `tol`.
    pub fn has_orthonormal_columns(&self, tol: f64) -> bool {
        for j in 0..self.ncols {
            for k in j..self.ncols {
                let dot: f64 = self
                    .col(j)
                    .iter()
                    .zip(self.col(k))
                    .map(|(a, b)| a * b)
                    .sum();
                let expected = if j == k { 1.0 } else { 0.0 };
                if (dot - expected).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Scale all elements in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i + j * self.nrows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i + j * self.nrows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        let show_cols = self.ncols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            if show_cols < self.ncols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.nrows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_orthonormal() {
        let m = Matrix::identity(5);
        assert!(m.has_orthonormal_columns(1e-15));
        assert_eq!(m[(2, 2)], 1.0);
        assert_eq!(m[(2, 3)], 0.0);
    }

    #[test]
    fn column_major_layout() {
        // data[i + j*nrows]
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn fro_norm_simple() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn col_slices_are_contiguous() {
        let m = Matrix::from_fn(4, 3, |i, j| (j * 4 + i) as f64);
        assert_eq!(m.col(1), &[4.0, 5.0, 6.0, 7.0]);
    }
}
