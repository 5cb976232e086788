//! The core [`Matrix`] type: construction, access and structural operations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the single numeric container used throughout the KiNETGAN
/// workspace: network activations, gradients, encoded tabular batches and
/// metric histograms are all matrices. Vectors are represented as `1 × n`
/// (row) or `n × 1` (column) matrices.
///
/// # Panics
///
/// Like `ndarray` and friends, shape mismatches are programming errors and
/// panic with a descriptive message rather than returning a `Result`; all
/// panicking methods document this in their own `# Panics` section.
///
/// ```
/// use kinet_tensor::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// ```
    /// use kinet_tensor::Matrix;
    /// assert_eq!(Matrix::zeros(2, 2).sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a `rows × cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of length {} cannot be a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} but expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Builds a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds for {} columns",
            self.cols
        );
        // kinet-lint: allow(transitive-allocation) — column copy-out is a cold accessor; on the pipeline hot cone only via a name-collision method edge; runs once at fit time
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Checked element access; `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Reshapes into `rows × cols` without copying element order.
    ///
    /// # Panics
    ///
    /// Panics if the element count differs.
    pub fn reshape(mut self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            self.data.len(),
            rows * cols,
            "cannot reshape {}x{} into {rows}x{cols}",
            self.rows,
            self.cols
        );
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Stacks `mats` vertically (all must share the column count).
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or column counts differ.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack of zero matrices");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch: {} vs {cols}", m.cols);
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Stacks `mats` horizontally (all must share the row count).
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or row counts differ.
    pub fn hstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "hstack of zero matrices");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut offset = 0;
        for m in mats {
            assert_eq!(m.rows, rows, "hstack row mismatch: {} vs {rows}", m.rows);
            for r in 0..rows {
                out.row_mut(r)[offset..offset + m.cols].copy_from_slice(m.row(r));
            }
            offset += m.cols;
        }
        out
    }

    /// Copies the column range `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, end.saturating_sub(start));
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// Copies the column range `[start, end)` over every element of
    /// `out`, whose storage is reused.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`, `end > self.cols()` or `out` is not
    /// `self.rows() × (end - start)`.
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start <= end && end <= self.cols,
            "invalid column slice {start}..{end}"
        );
        assert_eq!(
            out.shape(),
            (self.rows, end - start),
            "slice_cols_into output shape mismatch"
        );
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
    }

    /// Copies the row range `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "invalid row slice {start}..{end}"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gathers the given rows (duplicates allowed) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Gathers the given rows into `out`, resizing it to
    /// `indices.len() × self.cols()`. The reusable-buffer counterpart of
    /// [`Matrix::select_rows`] for per-batch gathers in training loops:
    /// no allocation once `out` has capacity.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert!(
            indices.iter().all(|&i| i < self.rows),
            "gather index out of bounds for {} rows",
            self.rows
        );
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.resize(indices.len() * self.cols, 0.0);
        let cols = self.cols;
        for (r, &src) in indices.iter().enumerate() {
            out.data[r * cols..(r + 1) * cols]
                .copy_from_slice(&self.data[src * cols..(src + 1) * cols]);
        }
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        // A fold without an early exit vectorizes; matrices are almost
        // always finite, so a short circuit would save nothing.
        self.data.iter().fold(false, |bad, v| bad | !v.is_finite())
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols.max(1))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(12) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.4}", self[(r, c)])?;
            }
            if self.cols > 12 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Default for Matrix {
    /// The `0 × 0` empty matrix.
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(1, 4).sum(), 4.0);
        assert_eq!(Matrix::full(2, 2, 7.0)[(1, 1)], 7.0);
        let e = Matrix::eye(3);
        assert_eq!(e[(0, 0)], 1.0);
        assert_eq!(e[(0, 1)], 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn from_fn_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "cannot be a")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_column_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
        assert_eq!(m.get(5, 0), None);
        assert_eq!(m.get(1, 1), Some(4.0));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn stack_and_slice() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(h.slice_cols(1, 3).row(0), &[2.0, 3.0]);
        assert_eq!(v.slice_rows(1, 2).row(0), &[3.0, 4.0]);
    }

    #[test]
    fn select_rows_gathers_duplicates() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = m.select_rows(&[2, 0, 2]);
        assert_eq!(g.column(0), vec![3.0, 1.0, 3.0]);
    }

    #[test]
    fn gather_rows_into_matches_select_rows_and_reuses_buffer() {
        let m = Matrix::from_fn(37, 5, |r, c| (r * 10 + c) as f32);
        let idx: Vec<usize> = (0..64).map(|i| (i * 7) % 37).collect();
        let mut buf = Matrix::default();
        m.gather_rows_into(&idx, &mut buf);
        assert_eq!(buf, m.select_rows(&idx));
        // Reuse with a smaller gather.
        m.gather_rows_into(&[3, 3, 0], &mut buf);
        assert_eq!(buf, m.select_rows(&[3, 3, 0]));
        m.gather_rows_into(&[], &mut buf);
        assert_eq!(buf.rows(), 0);
    }

    #[test]
    fn reshape_preserves_order() {
        let m = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = m.reshape(3, 2);
        assert_eq!(r[(2, 1)], 5.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(1, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f32::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn debug_not_empty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(s.contains("Matrix 1x1"));
    }
}
