//! The conditional generator (paper §III-A).
//!
//! Architecture (inherited from CTGAN, which KiNETGAN extends):
//!
//! ```text
//! [z ⊕ C] → ResidualBlock(h₁) → ResidualBlock(h₂) → Linear → heads
//! ```
//!
//! where each output head is either a `tanh` scalar (a continuous column's
//! normalized alpha) or a Gumbel-Softmax block (a mode or category one-hot),
//! matching [`DataTransformer::head_layout`].

use kinet_data::transform::{DataTransformer, HeadKind, HeadSpec};
use kinet_nn::layers::{head_logits, output_heads, Linear, OutputHead, ResidualBlock};
use kinet_nn::{ParamSet, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::Rng;

/// Output of one generator forward pass.
pub struct GeneratorOutput<'t> {
    /// The assembled encoded row batch (post-activation), ready for the
    /// discriminators or for decoding.
    pub output: Var<'t>,
    /// Pre-activation logits per head, in head order (used by the
    /// condition-consistency and mask losses): column slices of the
    /// logits node.
    pub head_logits: Vec<Var<'t>>,
}

/// The `kinet_nn` head layout for an encoded layout.
fn output_layout(heads: &[HeadSpec]) -> Vec<OutputHead> {
    heads
        .iter()
        .map(|h| match h.kind {
            HeadKind::Tanh => OutputHead::Tanh(h.width),
            HeadKind::Softmax => OutputHead::GumbelSoftmax(h.width),
        })
        .collect()
}

/// The KiNETGAN conditional generator network.
pub struct ConditionalGenerator {
    blocks: Vec<ResidualBlock>,
    output: Linear,
    heads: Vec<HeadSpec>,
    layout: Vec<OutputHead>,
    z_dim: usize,
    cond_dim: usize,
}

impl ConditionalGenerator {
    /// Builds the network for the given encoded layout.
    pub fn new(
        z_dim: usize,
        cond_dim: usize,
        hidden: &[usize],
        transformer: &DataTransformer,
        rng: &mut impl Rng,
    ) -> Self {
        let heads = transformer.head_layout();
        let mut dim = z_dim + cond_dim;
        let mut blocks = Vec::with_capacity(hidden.len());
        for &h in hidden {
            let block = ResidualBlock::new(dim, h, rng);
            dim = block.out_dim();
            blocks.push(block);
        }
        let output = Linear::new(dim, transformer.width(), rng);
        Self {
            blocks,
            output,
            layout: output_layout(&heads),
            heads,
            z_dim,
            cond_dim,
        }
    }

    /// Noise dimension.
    pub fn z_dim(&self) -> usize {
        self.z_dim
    }

    /// Condition-vector dimension.
    pub fn cond_dim(&self) -> usize {
        self.cond_dim
    }

    /// The output head layout.
    pub fn heads(&self) -> &[HeadSpec] {
        &self.heads
    }

    /// Forward pass from explicit noise and condition batches.
    ///
    /// `training` controls batch-norm statistics; `tau` is the
    /// Gumbel-Softmax temperature.
    ///
    /// # Panics
    ///
    /// Panics if `z`/`c` widths disagree with the constructed dimensions.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        z: &Matrix,
        c: &Matrix,
        tau: f32,
        training: bool,
        rng: &mut impl Rng,
    ) -> GeneratorOutput<'t> {
        assert_eq!(z.cols(), self.z_dim, "z width mismatch");
        assert_eq!(c.cols(), self.cond_dim, "condition width mismatch");
        assert_eq!(z.rows(), c.rows(), "z/c batch mismatch");
        let input = Matrix::hstack(&[z, c]);
        let mut h = tape.constant(input);
        for block in &self.blocks {
            h = block.forward(tape, h, training);
        }
        let logits = self.output.forward(tape, h);
        GeneratorOutput {
            output: output_heads(logits, &self.layout, tau, rng),
            head_logits: head_logits(logits, &self.layout),
        }
    }

    /// Convenience: draws `batch` rows with fresh standard-normal noise.
    pub fn generate<'t>(
        &self,
        tape: &'t Tape,
        c: &Matrix,
        tau: f32,
        training: bool,
        rng: &mut impl Rng,
    ) -> GeneratorOutput<'t> {
        let z = Matrix::randn(c.rows(), self.z_dim, 0.0, 1.0, rng);
        self.forward(tape, &z, c, tau, training, rng)
    }

    /// All trainable parameters.
    pub fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for b in &self.blocks {
            set.extend(&b.params());
        }
        set.extend(&self.output.params());
        set
    }
}

impl std::fmt::Debug for ConditionalGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ConditionalGenerator(z={}, c={}, blocks={}, heads={})",
            self.z_dim,
            self.cond_dim,
            self.blocks.len(),
            self.heads.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_data::{ColumnMeta, Schema, Table, Value};
    use rand::{rngs::StdRng, SeedableRng};

    fn transformer() -> DataTransformer {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("proto"),
            ColumnMeta::continuous("port"),
        ]);
        let rows = (0..50)
            .map(|i| {
                vec![
                    Value::cat(if i % 2 == 0 { "udp" } else { "tcp" }),
                    Value::num(40.0 + i as f64),
                ]
            })
            .collect();
        let t = Table::from_rows(schema, rows).unwrap();
        DataTransformer::fit(&t, 3, 0).unwrap()
    }

    #[test]
    fn output_width_matches_transformer() {
        let tx = transformer();
        let mut rng = StdRng::seed_from_u64(0);
        let g = ConditionalGenerator::new(16, 2, &[32, 32], &tx, &mut rng);
        let tape = Tape::new();
        let c = Matrix::zeros(8, 2);
        let out = g.generate(&tape, &c, 0.5, true, &mut rng);
        assert_eq!(out.output.shape(), (8, tx.width()));
        assert_eq!(out.head_logits.len(), tx.head_layout().len());
    }

    #[test]
    fn softmax_blocks_are_simplex() {
        let tx = transformer();
        let mut rng = StdRng::seed_from_u64(1);
        let g = ConditionalGenerator::new(8, 2, &[16], &tx, &mut rng);
        let tape = Tape::new();
        let out = g
            .generate(&tape, &Matrix::zeros(4, 2), 0.3, true, &mut rng)
            .output
            .value();
        // proto block: columns 0..2 must sum to 1
        for r in 0..4 {
            let s = out[(r, 0)] + out[(r, 1)];
            assert!((s - 1.0).abs() < 1e-4, "row {r}: {s}");
        }
        // alpha (column 2) must be in [-1, 1]
        for r in 0..4 {
            assert!(out[(r, 2)].abs() <= 1.0);
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let tx = transformer();
        let mut rng = StdRng::seed_from_u64(2);
        let g = ConditionalGenerator::new(8, 2, &[16], &tx, &mut rng);
        let tape = Tape::new();
        let out = g.generate(&tape, &Matrix::ones(4, 2), 0.5, true, &mut rng);
        let loss = out.output.mse(&Matrix::zeros(4, tx.width()));
        tape.backward(loss);
        let params = g.params();
        assert!(params.grad_norm() > 0.0, "some gradient must flow");
    }

    #[test]
    #[should_panic(expected = "condition width")]
    fn rejects_wrong_condition_width() {
        let tx = transformer();
        let mut rng = StdRng::seed_from_u64(3);
        let g = ConditionalGenerator::new(8, 2, &[16], &tx, &mut rng);
        let tape = Tape::new();
        let _ = g.generate(&tape, &Matrix::zeros(4, 5), 0.5, true, &mut rng);
    }

    #[test]
    fn param_count_is_stable() {
        let tx = transformer();
        let mut rng = StdRng::seed_from_u64(4);
        let g = ConditionalGenerator::new(8, 2, &[16, 16], &tx, &mut rng);
        // 2 residual blocks × (linear w+b, bn gamma+beta) + output w+b
        assert_eq!(g.params().len(), 2 * 4 + 2);
    }
}
