//! Property tests for the packed GEMM kernel: every product variant must be
//! *bit-identical* to a naive single-accumulator reference on random
//! rectangular shapes. Exact `==` (not approximate) is intentional — it is
//! the kernel's determinism contract: packing and tiling may never change
//! the per-element summation order.

use kinet_tensor::{Matrix, MatrixRandomExt};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Reference product: one accumulator per element, ascending `k`.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for p in 0..a.cols() {
            acc += a[(i, p)] * b[(p, j)];
        }
        acc
    })
}

fn naive_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows());
    Matrix::from_fn(a.cols(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for p in 0..a.rows() {
            acc += a[(p, i)] * b[(p, j)];
        }
        acc
    })
}

fn naive_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols());
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = 0.0f32;
        for p in 0..a.cols() {
            acc += a[(i, p)] * b[(j, p)];
        }
        acc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Shapes up to 48 straddle the kernel's small-product cutoff, the
    // MR/NR tile edges, and rectangular aspect ratios in both directions.
    #[test]
    fn products_are_bit_identical_to_naive_reference(
        n in 1usize..48,
        k in 1usize..48,
        m in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::randn(n, k, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(k, m, 0.0, 1.0, &mut rng);
        prop_assert_eq!(a.matmul(&b), naive_matmul(&a, &b));

        let at = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
        prop_assert_eq!(at.matmul_tn(&b), naive_matmul_tn(&at, &b));

        let bt = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
        prop_assert_eq!(a.matmul_nt(&bt), naive_matmul_nt(&a, &bt));
    }

    #[test]
    fn fused_accumulate_equals_product_then_add(
        n in 1usize..32,
        k in 1usize..32,
        m in 1usize..32,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = Matrix::randn(n, m, 0.0, 1.0, &mut rng);
        let a = Matrix::randn(n, k, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(k, m, 0.0, 1.0, &mut rng);
        let mut acc = base.clone();
        acc.matmul_acc(&a, &b);
        prop_assert_eq!(&acc, &base.add(&naive_matmul(&a, &b)));

        let g = Matrix::randn(n, m, 0.0, 1.0, &mut rng);
        let mut acc = Matrix::randn(k, m, 0.0, 1.0, &mut rng);
        let expected = acc.add(&naive_matmul_tn(&a, &g));
        acc.matmul_tn_acc(&a, &g);
        prop_assert_eq!(&acc, &expected);

        let mut acc = Matrix::randn(n, k, 0.0, 1.0, &mut rng);
        let expected = acc.add(&naive_matmul_nt(&g, &b));
        acc.matmul_nt_acc(&g, &b);
        prop_assert_eq!(&acc, &expected);
    }
}
