//! Dense matrices with explicit layout.
//!
//! `DenseMatrix` is the numeric carrier for the workloads' dense operands
//! (CG's `P`, `R`, `S`, `X` and the small Greek-letter tensors). It is a flat
//! `Vec<f64>` plus a [`Layout`], so kernels can exercise the same
//! row-major/col-major distinctions the scheduler reasons about.

use crate::layout::Layout;
use crate::shape::Shape2D;

/// A dense `rows × cols` matrix of `f64` with an explicit storage layout.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    shape: Shape2D,
    layout: Layout,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::zeros_with_layout(rows, cols, Layout::RowMajor)
    }

    /// All-zeros matrix with a chosen layout.
    pub fn zeros_with_layout(rows: usize, cols: usize, layout: Layout) -> Self {
        Self {
            shape: Shape2D::new(rows, cols),
            layout,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data slice.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self {
            shape: Shape2D::new(rows, cols),
            layout: Layout::RowMajor,
            data: data.to_vec(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// The shape.
    pub fn shape(&self) -> Shape2D {
        self.shape
    }

    /// The storage layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Raw data slice (layout-ordered).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice (layout-ordered).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[self
            .layout
            .index(self.shape.rows, self.shape.cols, row, col)]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        let idx = self
            .layout
            .index(self.shape.rows, self.shape.cols, row, col);
        self.data[idx] = v;
    }

    /// In-place scaled accumulation `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        if self.layout == other.layout {
            for (d, s) in self.data.iter_mut().zip(other.data.iter()) {
                *d += alpha * s;
            }
        } else {
            for r in 0..self.rows() {
                for c in 0..self.cols() {
                    let v = self.get(r, c) + alpha * other.get(r, c);
                    self.set(r, c, v);
                }
            }
        }
    }

    /// Returns a copy converted to the requested layout (a *swizzle*; this is
    /// the full-tensor pass whose cost SCORE minimizes).
    pub fn to_layout(&self, layout: Layout) -> DenseMatrix {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = DenseMatrix::zeros_with_layout(self.rows(), self.cols(), layout);
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                out.set(r, c, self.get(r, c));
            }
        }
        out
    }

    /// Transposed copy (row-major result).
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols(), self.rows());
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max absolute elementwise difference against another matrix.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.shape, other.shape);
        let mut worst: f64 = 0.0;
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                worst = worst.max((self.get(r, c) - other.get(r, c)).abs());
            }
        }
        worst
    }

    /// Extracts the diagonal (for CG's convergence check `diag(Γ) ≤ ε`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows().min(self.cols()))
            .map(|i| self.get(i, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.diagonal(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn get_set_both_layouts() {
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let mut m = DenseMatrix::zeros_with_layout(3, 4, layout);
            m.set(2, 1, 7.5);
            assert_eq!(m.get(2, 1), 7.5);
            assert_eq!(m.get(1, 2), 0.0);
        }
    }

    #[test]
    fn from_rows_round_trips() {
        let m = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn to_layout_preserves_values() {
        let m = DenseMatrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let c = m.to_layout(Layout::ColMajor);
        assert_eq!(c.layout(), Layout::ColMajor);
        assert_eq!(c.max_abs_diff(&m.clone()), 0.0);
        // Underlying storage differs:
        assert_ne!(c.data(), m.data());
        assert_eq!(c.data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn transpose_correct() {
        let m = DenseMatrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.get(0, 1), 4.0);
    }

    #[test]
    fn axpy_mixed_layouts() {
        let mut a = DenseMatrix::from_rows(2, 2, &[1., 1., 1., 1.]);
        let b = DenseMatrix::from_rows(2, 2, &[1., 2., 3., 4.]).to_layout(Layout::ColMajor);
        a.axpy(2.0, &b);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(1, 1), 9.0);
    }

    #[test]
    fn frobenius_norm_simple() {
        let m = DenseMatrix::from_rows(1, 2, &[3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn axpy_rejects_shape_mismatch() {
        let mut a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::zeros(2, 3);
        a.axpy(1.0, &b);
    }
}
