//! Element-wise arithmetic, broadcasting helpers and the matrix products.
//!
//! The three matrix products and their fused `C += …` accumulate variants
//! all delegate to the packed, cache-tiled, multi-threaded kernel in
//! [`crate::kernel`]; see that module for the layout and the bit-for-bit
//! determinism contract.

use crate::kernel::{self, Trans};
use crate::Matrix;

impl Matrix {
    /// Element-wise sum of two equally-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Matrix {
        self.map(|v| v + s)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice().iter().map(|&v| f(v)).collect(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Combines two equally-shaped matrices element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Matrix::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Accumulates `other * s` into `self` (axpy), in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign_scaled(&mut self, other: &Matrix, s: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign_scaled shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b * s;
        }
    }

    /// Accumulates `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in self.as_mut_slice() {
            *v *= s;
        }
    }

    /// Accumulates `f(x, y)` element-wise into `self` — the fused
    /// `zip_map`-then-accumulate used by the autodiff backward pass.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign_zip_map(&mut self, x: &Matrix, y: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            self.shape(),
            x.shape(),
            "add_assign_zip_map shape mismatch: {:?} vs {:?}",
            self.shape(),
            x.shape()
        );
        assert_eq!(
            self.shape(),
            y.shape(),
            "add_assign_zip_map shape mismatch: {:?} vs {:?}",
            self.shape(),
            y.shape()
        );
        for ((a, &xv), &yv) in self
            .as_mut_slice()
            .iter_mut()
            .zip(x.as_slice())
            .zip(y.as_slice())
        {
            *a += f(xv, yv);
        }
    }

    /// Adds the `1 × cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `row.rows() != 1` or column counts differ.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        self.broadcast_row(row, |a, b| a + b)
    }

    /// Subtracts the `1 × cols` row vector from every row.
    ///
    /// # Panics
    ///
    /// Panics if `row.rows() != 1` or column counts differ.
    pub fn sub_row_broadcast(&self, row: &Matrix) -> Matrix {
        self.broadcast_row(row, |a, b| a - b)
    }

    /// Multiplies every row element-wise by the `1 × cols` row vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.rows() != 1` or column counts differ.
    pub fn mul_row_broadcast(&self, row: &Matrix) -> Matrix {
        self.broadcast_row(row, |a, b| a * b)
    }

    /// Divides every row element-wise by the `1 × cols` row vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.rows() != 1` or column counts differ.
    pub fn div_row_broadcast(&self, row: &Matrix) -> Matrix {
        self.broadcast_row(row, |a, b| a / b)
    }

    fn broadcast_row(&self, row: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            row.rows(),
            1,
            "broadcast operand must be a row vector, got {:?}",
            row.shape()
        );
        assert_eq!(
            self.cols(),
            row.cols(),
            "broadcast column mismatch: {} vs {}",
            self.cols(),
            row.cols()
        );
        let mut out = self.clone();
        let rv = row.as_slice();
        for r in 0..out.rows() {
            for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                *v = f(*v, rv[c]);
            }
        }
        out
    }

    /// Matrix product `self · other` via the packed, cache-tiled,
    /// multi-threaded kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self · other` written over every element of `out`,
    /// whose storage is reused — bit-identical to [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul shape mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows(), self.cols(), other.cols());
        assert_eq!(out.shape(), (n, m), "matmul_into output shape mismatch");
        kernel::gemm(
            out.as_mut_slice(),
            n,
            m,
            k,
            self.as_slice(),
            Trans::No,
            other.as_slice(),
            Trans::No,
            false,
        );
    }

    /// `selfᵀ · other` without materializing the transpose (it is absorbed
    /// while packing the operand).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn shape mismatch: {:?}ᵀ · {:?}",
            self.shape(),
            other.shape()
        );
        let (k, n, m) = (self.rows(), self.cols(), other.cols());
        let mut out = Matrix::zeros(n, m);
        kernel::gemm(
            out.as_mut_slice(),
            n,
            m,
            k,
            self.as_slice(),
            Trans::Yes,
            other.as_slice(),
            Trans::No,
            false,
        );
        out
    }

    /// `self · otherᵀ` without materializing the transpose (it is absorbed
    /// while packing the operand).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt shape mismatch: {:?} · {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows(), self.cols(), other.rows());
        let mut out = Matrix::zeros(n, m);
        kernel::gemm(
            out.as_mut_slice(),
            n,
            m,
            k,
            self.as_slice(),
            Trans::No,
            other.as_slice(),
            Trans::Yes,
            false,
        );
        out
    }

    /// Fused matmul-accumulate `self += a · b`, writing directly into this
    /// matrix (the gradient-accumulation hot path of the autodiff tape).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_acc(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul_acc shape mismatch: {:?} · {:?}",
            a.shape(),
            b.shape()
        );
        assert_eq!(
            self.shape(),
            (a.rows(), b.cols()),
            "matmul_acc output mismatch: {:?} += {:?} · {:?}",
            self.shape(),
            a.shape(),
            b.shape()
        );
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        kernel::gemm(
            self.as_mut_slice(),
            n,
            m,
            k,
            a.as_slice(),
            Trans::No,
            b.as_slice(),
            Trans::No,
            true,
        );
    }

    /// Fused matmul-accumulate `self += aᵀ · b`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_tn_acc(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_tn_acc shape mismatch: {:?}ᵀ · {:?}",
            a.shape(),
            b.shape()
        );
        assert_eq!(
            self.shape(),
            (a.cols(), b.cols()),
            "matmul_tn_acc output mismatch: {:?} += {:?}ᵀ · {:?}",
            self.shape(),
            a.shape(),
            b.shape()
        );
        let (k, n, m) = (a.rows(), a.cols(), b.cols());
        kernel::gemm(
            self.as_mut_slice(),
            n,
            m,
            k,
            a.as_slice(),
            Trans::Yes,
            b.as_slice(),
            Trans::No,
            true,
        );
    }

    /// Fused matmul-accumulate `self += a · bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_nt_acc(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_nt_acc shape mismatch: {:?} · {:?}ᵀ",
            a.shape(),
            b.shape()
        );
        assert_eq!(
            self.shape(),
            (a.rows(), b.rows()),
            "matmul_nt_acc output mismatch: {:?} += {:?} · {:?}ᵀ",
            self.shape(),
            a.shape(),
            b.shape()
        );
        let (n, k, m) = (a.rows(), a.cols(), b.rows());
        kernel::gemm(
            self.as_mut_slice(),
            n,
            m,
            k,
            a.as_slice(),
            Trans::No,
            b.as_slice(),
            Trans::Yes,
            true,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn m22(a: f32, b: f32, c: f32, d: f32) -> Matrix {
        Matrix::from_rows(&[&[a, b], &[c, d]])
    }

    #[test]
    fn elementwise_ops() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(a.add(&b), Matrix::full(2, 2, 5.0));
        assert_eq!(a.sub(&a), Matrix::zeros(2, 2));
        assert_eq!(a.mul(&b)[(0, 0)], 4.0);
        assert_eq!(a.scale(2.0)[(1, 1)], 8.0);
        assert_eq!(a.add_scalar(1.0)[(0, 0)], 2.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = Matrix::zeros(2, 2).add(&Matrix::zeros(2, 3));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m22(1.0, 1.0, 1.0, 1.0);
        a.add_assign_scaled(&m22(1.0, 2.0, 3.0, 4.0), 0.5);
        assert_eq!(a, m22(1.5, 2.0, 2.5, 3.0));
    }

    #[test]
    fn broadcast_row_ops() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let r = Matrix::row_vector(&[10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&r), m22(11.0, 22.0, 13.0, 24.0));
        assert_eq!(a.sub_row_broadcast(&r), m22(-9.0, -18.0, -7.0, -16.0));
        assert_eq!(a.mul_row_broadcast(&r), m22(10.0, 40.0, 30.0, 80.0));
        assert_eq!(a.div_row_broadcast(&r), m22(0.1, 0.1, 0.3, 0.2));
    }

    #[test]
    #[should_panic(expected = "row vector")]
    fn broadcast_requires_row_vector() {
        let _ = Matrix::zeros(2, 2).add_row_broadcast(&Matrix::zeros(2, 2));
    }

    #[test]
    fn matmul_against_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(a.matmul(&Matrix::eye(4)), a);
        assert_eq!(Matrix::eye(4).matmul(&a), a);
    }

    #[test]
    fn transposed_products_match_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in tn.as_slice().iter().zip(explicit.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-5));
        }

        let c = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let nt = a.matmul_nt(&c);
        let explicit = a.matmul(&c.transpose());
        for (x, y) in nt.as_slice().iter().zip(explicit.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-5));
        }
    }

    #[test]
    fn fused_accumulate_products_match_compose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.5 - 1.5);
        let base = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);

        let mut acc = base.clone();
        acc.matmul_acc(&a, &b);
        assert_eq!(acc, base.add(&a.matmul(&b)));

        let x = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f32 * 0.1);
        let mut acc2 = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let expected2 = acc2.add(&a.matmul_tn(&x));
        acc2.matmul_tn_acc(&a, &x);
        assert_eq!(acc2, expected2);

        let y = Matrix::from_fn(5, 4, |r, c| (r * 4 + c) as f32 * 0.2);
        let mut acc3 = Matrix::ones(3, 5);
        acc3.matmul_nt_acc(&a, &y);
        assert_eq!(acc3, Matrix::ones(3, 5).add(&a.matmul_nt(&y)));
    }

    #[test]
    fn zeros_in_operands_match_dense_summation() {
        // The old kernels skipped `a == 0.0` terms; the shared kernel must
        // treat zeros exactly like any other value (same summation order as
        // a dense dot product).
        let a = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0]]);
        let b = Matrix::from_rows(&[&[5.0, 0.0], &[0.0, 7.0], &[2.0, 0.0]]);
        assert_eq!(
            a.matmul(&b),
            Matrix::from_rows(&[&[0.0, 14.0], &[11.0, 0.0]])
        );
        // 0 · inf must produce NaN (IEEE semantics), not be skipped.
        let inf = Matrix::from_rows(&[&[f32::INFINITY], &[1.0], &[1.0]]);
        let z = Matrix::from_rows(&[&[0.0, 1.0, 1.0]]);
        assert!(z.matmul(&inf)[(0, 0)].is_nan());
    }

    #[test]
    fn in_place_elementwise_variants() {
        let mut m = Matrix::row_vector(&[1.0, 2.0]);
        m.add_assign(&Matrix::row_vector(&[0.5, -0.5]));
        assert_eq!(m.as_slice(), &[1.5, 1.5]);
        m.scale_inplace(2.0);
        assert_eq!(m.as_slice(), &[3.0, 3.0]);
        m.add_assign_zip_map(
            &Matrix::row_vector(&[1.0, 1.0]),
            &Matrix::row_vector(&[2.0, 3.0]),
            |a, b| a * b,
        );
        assert_eq!(m.as_slice(), &[5.0, 6.0]);
    }

    #[test]
    fn map_inplace_applies() {
        let mut a = Matrix::row_vector(&[1.0, -2.0]);
        a.map_inplace(f32::abs);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
    }
}
