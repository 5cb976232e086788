//! Deterministic random initialization for matrices.
//!
//! Every routine takes an explicit `&mut impl Rng` so experiments are
//! reproducible from a single seed.

use crate::Matrix;
use rand::{Rng, RngExt};

/// Draws a pair of independent standard-normal samples with the Box–Muller
/// transform.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let (a, b) = kinet_tensor::gaussian_pair(&mut rng);
/// assert!(a.is_finite() && b.is_finite());
/// ```
pub fn gaussian_pair(rng: &mut impl Rng) -> (f32, f32) {
    // u1 in (0, 1] so ln(u1) is finite.
    let u1: f32 = 1.0 - rng.random::<f32>();
    let u2: f32 = rng.random::<f32>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Random-construction extension methods for [`Matrix`].
///
/// Implemented as an extension trait so the core type stays independent of
/// the `rand` API surface.
pub trait MatrixRandomExt: Sized {
    /// Matrix with elements drawn uniformly from `[lo, hi)`.
    fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Self;

    /// Matrix with i.i.d. `N(mean, std²)` elements.
    fn randn(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut impl Rng) -> Self;

    /// Glorot/Xavier-uniform initialization for a layer mapping
    /// `fan_in -> fan_out` (shape `fan_in × fan_out`).
    fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self;

    /// Kaiming/He-normal initialization, appropriate before ReLU-family
    /// activations (shape `fan_in × fan_out`).
    fn kaiming_normal(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self;

    /// Bernoulli 0/1 mask with `P(1) = keep_prob`, scaled by
    /// `1 / keep_prob` (inverted dropout convention).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep_prob <= 1`.
    fn dropout_mask(rows: usize, cols: usize, keep_prob: f32, rng: &mut impl Rng) -> Self;

    /// Matrix of standard Gumbel(0, 1) noise, used by Gumbel-Softmax heads.
    fn gumbel(rows: usize, cols: usize, rng: &mut impl Rng) -> Self;

    /// Overwrites every element with [`MatrixRandomExt::randn`]'s draws
    /// for this shape, in the same order: the allocation-free form.
    fn randn_into(&mut self, mean: f32, std: f32, rng: &mut impl Rng);

    /// Overwrites every element with [`MatrixRandomExt::dropout_mask`]'s
    /// draws for this shape, in the same order.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep_prob <= 1`.
    fn dropout_mask_into(&mut self, keep_prob: f32, rng: &mut impl Rng);

    /// Overwrites every element with [`MatrixRandomExt::gumbel`]'s draws
    /// for this shape, in the same order.
    fn gumbel_into(&mut self, rng: &mut impl Rng);
}

impl MatrixRandomExt for Matrix {
    fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(lo..hi))
    }

    fn randn(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut impl Rng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.randn_into(mean, std, rng);
        m
    }

    fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Self::rand_uniform(fan_in, fan_out, -limit, limit, rng)
    }

    fn kaiming_normal(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / fan_in as f32).sqrt();
        Self::randn(fan_in, fan_out, 0.0, std, rng)
    }

    fn dropout_mask(rows: usize, cols: usize, keep_prob: f32, rng: &mut impl Rng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.dropout_mask_into(keep_prob, rng);
        m
    }

    fn gumbel(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.gumbel_into(rng);
        m
    }

    fn randn_into(&mut self, mean: f32, std: f32, rng: &mut impl Rng) {
        // Draws come in Box–Muller pairs; an odd count discards the last
        // pair's second value.
        let mut pairs = self.as_mut_slice().chunks_exact_mut(2);
        for pair in &mut pairs {
            let (a, b) = gaussian_pair(rng);
            pair.copy_from_slice(&[mean + std * a, mean + std * b]);
        }
        if let [last] = pairs.into_remainder() {
            let (a, _) = gaussian_pair(rng);
            *last = mean + std * a;
        }
    }

    fn dropout_mask_into(&mut self, keep_prob: f32, rng: &mut impl Rng) {
        assert!(
            keep_prob > 0.0 && keep_prob <= 1.0,
            "keep_prob must be in (0, 1], got {keep_prob}"
        );
        let scale = 1.0 / keep_prob;
        for v in self.as_mut_slice() {
            *v = if rng.random::<f32>() < keep_prob {
                scale
            } else {
                0.0
            };
        }
    }

    fn gumbel_into(&mut self, rng: &mut impl Rng) {
        for v in self.as_mut_slice() {
            // Clamp *both* tails: `random::<f32>()` can return exactly 0,
            // and `u = 1` would make `-ln(-ln(u)) = +inf` — one infinite
            // Gumbel draw poisons the softmax downstream and NaNs the
            // whole training step (observed roughly once per ~10⁷ draws).
            let u: f32 = (1.0f32 - rng.random::<f32>()).clamp(1e-12, 1.0 - 1e-7);
            *v = -(-u.ln()).ln();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::rand_uniform(50, 50, -0.5, 0.5, &mut rng);
        assert!(m.max() < 0.5 && m.min() >= -0.5);
    }

    #[test]
    fn randn_moments_close() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Matrix::randn(200, 200, 1.0, 2.0, &mut rng);
        assert!((m.mean() - 1.0).abs() < 0.05, "mean {}", m.mean());
        assert!(
            (m.variance().sqrt() - 2.0).abs() < 0.05,
            "std {}",
            m.variance().sqrt()
        );
    }

    #[test]
    fn randn_odd_element_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::randn(3, 3, 0.0, 1.0, &mut rng);
        assert_eq!(m.len(), 9);
        assert!(!m.has_non_finite());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Matrix::randn(4, 4, 0.0, 1.0, &mut StdRng::seed_from_u64(9));
        let b = Matrix::randn(4, 4, 0.0, 1.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Matrix::glorot_uniform(100, 100, &mut rng);
        let limit = (6.0f32 / 200.0).sqrt();
        assert!(m.max() <= limit && m.min() >= -limit);
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Matrix::kaiming_normal(512, 64, &mut rng);
        let expected = (2.0f32 / 512.0).sqrt();
        assert!((m.variance().sqrt() - expected).abs() < 0.01);
    }

    #[test]
    fn dropout_mask_values() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = Matrix::dropout_mask(100, 100, 0.8, &mut rng);
        let scale = 1.0 / 0.8;
        for &v in m.as_slice() {
            assert!(v == 0.0 || (v - scale).abs() < 1e-6);
        }
        let keep_frac = m.as_slice().iter().filter(|&&v| v > 0.0).count() as f32 / 10_000.0;
        assert!((keep_frac - 0.8).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "keep_prob")]
    fn dropout_rejects_zero_keep() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = Matrix::dropout_mask(1, 1, 0.0, &mut rng);
    }

    #[test]
    fn gumbel_finite_and_centered() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = Matrix::gumbel(100, 100, &mut rng);
        assert!(!m.has_non_finite());
        // Gumbel(0,1) mean is the Euler–Mascheroni constant ≈ 0.5772.
        assert!((m.mean() - 0.5772).abs() < 0.05, "mean {}", m.mean());
    }

    /// An Rng that replays fixed 64-bit words (degenerate-uniform probe).
    struct FixedBits(Vec<u64>, usize);
    impl rand::Rng for FixedBits {
        fn next_u64(&mut self) -> u64 {
            let v = self.0[self.1 % self.0.len()];
            self.1 += 1;
            v
        }
    }

    #[test]
    fn gumbel_finite_at_uniform_extremes() {
        // All-zero and all-one bit patterns drive `random::<f32>()` to its
        // extreme outputs; both tails of `-ln(-ln(u))` must stay finite.
        for bits in [0u64, u64::MAX] {
            let mut rng = FixedBits(vec![bits], 0);
            let m = Matrix::gumbel(4, 4, &mut rng);
            assert!(
                !m.has_non_finite(),
                "gumbel({bits:#x}) produced a non-finite value: {:?}",
                m.as_slice()
            );
        }
    }
}
