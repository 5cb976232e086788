//! Reductions, per-axis statistics and argmax helpers.

use crate::Matrix;

impl Matrix {
    /// Sum of all elements (0.0 for the empty matrix).
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics on the empty matrix.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty matrix");
        self.sum() / self.len() as f32
    }

    /// Population variance of all elements.
    ///
    /// # Panics
    ///
    /// Panics on the empty matrix.
    pub fn variance(&self) -> f32 {
        let mu = self.mean();
        self.as_slice()
            .iter()
            .map(|v| (v - mu) * (v - mu))
            .sum::<f32>()
            / self.len() as f32
    }

    /// Largest element (`-inf` for the empty matrix).
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (`inf` for the empty matrix).
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Column-wise sums as a `1 × cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        for r in 0..self.rows() {
            for (c, &v) in self.row(r).iter().enumerate() {
                out[(0, c)] += v;
            }
        }
        out
    }

    /// Column-wise means as a `1 × cols` row vector.
    ///
    /// # Panics
    ///
    /// Panics when the matrix has zero rows.
    pub fn mean_rows(&self) -> Matrix {
        assert!(self.rows() > 0, "mean_rows of matrix with zero rows");
        self.sum_rows().scale(1.0 / self.rows() as f32)
    }

    /// Column-wise population variances as a `1 × cols` row vector.
    ///
    /// # Panics
    ///
    /// Panics when the matrix has zero rows.
    pub fn var_rows(&self) -> Matrix {
        let mu = self.mean_rows();
        let centered = self.sub_row_broadcast(&mu);
        centered.mul(&centered).mean_rows()
    }

    /// Index of the largest element in each row.
    ///
    /// Ties resolve to the first maximum, matching `Iterator::max_by` on
    /// reversed comparison order.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Frobenius norm (`sqrt` of sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Standardizes columns to zero mean / unit variance; constant columns
    /// become all-zero. Returns `(standardized, means, stds)`.
    ///
    /// # Panics
    ///
    /// Panics when the matrix has zero rows.
    pub fn standardize_columns(&self) -> (Matrix, Matrix, Matrix) {
        let mu = self.mean_rows();
        let sd = self.var_rows().map(|v| {
            let s = v.sqrt();
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        });
        (self.sub_row_broadcast(&mu).div_row_broadcast(&sd), mu, sd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn global_reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert!(approx_eq(m.variance(), 1.25, 1e-6));
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), 1.0);
    }

    #[test]
    fn axis_reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(m.mean_rows().as_slice(), &[2.0, 3.0]);
        assert_eq!(m.var_rows().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn argmax_first_tie() {
        let m = Matrix::from_rows(&[&[0.0, 5.0, 5.0], &[9.0, 1.0, 2.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn frobenius() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!(approx_eq(m.frobenius_norm(), 5.0, 1e-6));
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 10.0], &[3.0, 10.0]]);
        let (z, mu, sd) = m.standardize_columns();
        assert!(approx_eq(z.mean_rows()[(0, 0)], 0.0, 1e-6));
        assert!(approx_eq(z.var_rows()[(0, 0)], 1.0, 1e-5));
        // constant column stays finite
        assert_eq!(z.column(1), vec![0.0, 0.0, 0.0]);
        assert_eq!(mu[(0, 1)], 10.0);
        assert_eq!(sd[(0, 1)], 1.0);
    }
}
