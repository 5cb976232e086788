//! The two discriminators of the KiNETGAN framework (paper §III-B).
//!
//! * [`RecordDiscriminator`] (`D_M`): a standard conditional GAN critic
//!   scoring `(encoded row ⊕ C)` pairs as real or generated.
//! * [`KnowledgeDiscriminator`] (`D_KG`): a critic over encoded rows that
//!   is trained with *KG-valid* positives (sampled through the reasoner)
//!   against generator output, so its score reflects domain validity
//!   rather than data realism. The combined score of Eq. 3 is
//!   `D_C = D_KG + D_M`.

use kinet_nn::layers::{Activation, Mlp, MlpConfig};
use kinet_nn::{ParamSet, Tape, Var};
use kinet_tensor::Matrix;
use rand::Rng;

/// The regular data discriminator `D_M`.
#[derive(Debug)]
pub struct RecordDiscriminator {
    net: Mlp,
    input_dim: usize,
}

impl RecordDiscriminator {
    /// Builds `D_M` over `(encoded width + condition width)` inputs.
    pub fn new(
        encoded_dim: usize,
        cond_dim: usize,
        hidden: &[usize],
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let cfg = MlpConfig::new(encoded_dim + cond_dim, hidden, 1)
            .with_activation(Activation::LeakyRelu(0.2))
            .with_dropout(dropout);
        Self {
            net: Mlp::new(&cfg, rng),
            input_dim: encoded_dim + cond_dim,
        }
    }

    /// Scores `(rows ⊕ C)`; returns `batch × 1` logits.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        rows: Var<'t>,
        c: &Matrix,
        training: bool,
        rng: &mut impl Rng,
    ) -> Var<'t> {
        let c_node = tape.constant_copy(c);
        let input = Var::concat_cols(&[rows, c_node]);
        assert_eq!(input.shape().1, self.input_dim, "D_M input width mismatch");
        self.net.forward(tape, input, training, rng)
    }

    /// Inference-mode logits for a raw matrix (no dropout).
    pub fn score(&self, rows: &Matrix, c: &Matrix) -> Matrix {
        self.net.infer(&Matrix::hstack(&[rows, c]))
    }

    /// All trainable parameters.
    pub fn params(&self) -> ParamSet {
        self.net.params()
    }
}

/// The knowledge-guided discriminator `D_KG`.
#[derive(Debug)]
pub struct KnowledgeDiscriminator {
    net: Mlp,
    input_dim: usize,
}

impl KnowledgeDiscriminator {
    /// Builds `D_KG` over encoded rows (no condition concatenation: the
    /// validity of an attribute combination is condition-independent once
    /// the event class is part of the row itself).
    pub fn new(encoded_dim: usize, hidden: &[usize], dropout: f32, rng: &mut impl Rng) -> Self {
        let cfg = MlpConfig::new(encoded_dim, hidden, 1)
            .with_activation(Activation::LeakyRelu(0.2))
            .with_dropout(dropout);
        Self {
            net: Mlp::new(&cfg, rng),
            input_dim: encoded_dim,
        }
    }

    /// Scores encoded rows; returns `batch × 1` logits (higher = more
    /// domain-valid).
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        rows: Var<'t>,
        training: bool,
        rng: &mut impl Rng,
    ) -> Var<'t> {
        assert_eq!(rows.shape().1, self.input_dim, "D_KG input width mismatch");
        self.net.forward(tape, rows, training, rng)
    }

    /// Inference-mode logits for a raw matrix.
    pub fn score(&self, rows: &Matrix) -> Matrix {
        self.net.infer(rows)
    }

    /// All trainable parameters.
    pub fn params(&self) -> ParamSet {
        self.net.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_nn::optim::{Adam, Optimizer};
    use kinet_tensor::MatrixRandomExt;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn record_discriminator_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = RecordDiscriminator::new(10, 4, &[16], 0.1, &mut rng);
        let tape = Tape::new();
        let rows = tape.constant(Matrix::zeros(6, 10));
        let c = Matrix::zeros(6, 4);
        let out = d.forward(&tape, rows, &c, true, &mut rng);
        assert_eq!(out.shape(), (6, 1));
        assert_eq!(
            d.score(&Matrix::zeros(3, 10), &Matrix::zeros(3, 4)).shape(),
            (3, 1)
        );
    }

    #[test]
    fn knowledge_discriminator_learns_separable_validity() {
        // Valid rows have feature0 ≈ +1, invalid ≈ -1. D_KG must separate
        // them after a few steps — this is the mechanism the GAN relies on.
        let mut rng = StdRng::seed_from_u64(1);
        let d = KnowledgeDiscriminator::new(4, &[16], 0.0, &mut rng);
        let mut opt = Adam::with_betas(d.params(), 5e-3, 0.5, 0.9);
        for _ in 0..120 {
            let mut valid = Matrix::randn(16, 4, 0.0, 0.3, &mut rng);
            let mut invalid = Matrix::randn(16, 4, 0.0, 0.3, &mut rng);
            for r in 0..16 {
                valid[(r, 0)] += 1.0;
                invalid[(r, 0)] -= 1.0;
            }
            let tape = Tape::new();
            let vp = d.forward(&tape, tape.constant(valid), true, &mut rng);
            let vi = d.forward(&tape, tape.constant(invalid), true, &mut rng);
            let loss = vp
                .bce_with_logits(&Matrix::ones(16, 1))
                .add(vi.bce_with_logits(&Matrix::zeros(16, 1)));
            tape.backward(loss);
            opt.step();
            opt.zero_grad();
        }
        let mut probe_valid = Matrix::zeros(1, 4);
        probe_valid[(0, 0)] = 1.0;
        let mut probe_invalid = Matrix::zeros(1, 4);
        probe_invalid[(0, 0)] = -1.0;
        let sv = d.score(&probe_valid)[(0, 0)];
        let si = d.score(&probe_invalid)[(0, 0)];
        assert!(sv > si + 1.0, "valid {sv} vs invalid {si}");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn dkg_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = KnowledgeDiscriminator::new(4, &[8], 0.0, &mut rng);
        let tape = Tape::new();
        let _ = d.forward(&tape, tape.constant(Matrix::zeros(2, 5)), true, &mut rng);
    }

    #[test]
    fn params_exposed_for_optimizers() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = RecordDiscriminator::new(6, 2, &[8, 8], 0.0, &mut rng);
        assert_eq!(d.params().len(), 6); // 3 linear layers × (w, b)
        let k = KnowledgeDiscriminator::new(6, &[8], 0.0, &mut rng);
        assert_eq!(k.params().len(), 4);
    }
}
