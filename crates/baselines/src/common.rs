//! Shared building blocks for the baseline generators.

use kinet_data::synth::SynthError;
use kinet_data::transform::{DataTransformer, HeadKind, HeadSpec};
use kinet_nn::layers::{head_logits, output_heads, OutputHead};
use kinet_nn::Var;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Applies the per-column output heads (tanh for alphas, Gumbel-Softmax
/// for one-hot blocks) to raw generator logits.
///
/// Returns the activated, re-concatenated batch plus the per-head logit
/// slices (used by conditional losses).
pub fn apply_heads<'t>(
    logits: Var<'t>,
    heads: &[HeadSpec],
    tau: f32,
    rng: &mut impl Rng,
) -> (Var<'t>, Vec<Var<'t>>) {
    let layout: Vec<OutputHead> = heads
        .iter()
        .map(|h| match h.kind {
            HeadKind::Tanh => OutputHead::Tanh(h.width),
            HeadKind::Softmax => OutputHead::GumbelSoftmax(h.width),
        })
        .collect();
    (
        output_heads(logits, &layout, tau, rng),
        head_logits(logits, &layout),
    )
}

/// Reconstruction loss in encoded space: MSE on tanh (alpha) blocks plus
/// softmax cross-entropy on one-hot blocks — the TVAE decoder loss and a
/// useful general-purpose target.
pub fn reconstruction_loss<'t>(
    logits: Var<'t>,
    target: &kinet_tensor::Matrix,
    heads: &[HeadSpec],
) -> Var<'t> {
    let mut loss: Option<Var<'t>> = None;
    let mut offset = 0;
    for head in heads {
        let slice = logits.slice_cols(offset, offset + head.width);
        let t = target_block(target, offset, head.width);
        let term = match head.kind {
            HeadKind::Tanh => slice.tanh().mse(&t),
            HeadKind::Softmax => slice.softmax_cross_entropy(&t),
        };
        loss = Some(match loss {
            Some(l) => l.add(term),
            None => term,
        });
        offset += head.width;
    }
    loss.expect("head layout is never empty")
}

fn target_block(m: &kinet_tensor::Matrix, offset: usize, width: usize) -> kinet_tensor::Matrix {
    kinet_tensor::Matrix::from_fn(m.rows(), width, |r, j| m[(r, offset + j)])
}

/// Common hyperparameters shared by every baseline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Latent / noise dimension.
    pub z_dim: usize,
    /// Hidden widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Gumbel-Softmax temperature (GAN baselines).
    pub tau: f32,
    /// Maximum mixture modes per continuous column.
    pub max_modes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Global gradient-clip norm (0 disables).
    pub clip_norm: f32,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch_size: 128,
            z_dim: 64,
            hidden: vec![128, 128],
            lr: 2e-4,
            tau: 0.2,
            max_modes: 8,
            seed: 99,
            clip_norm: 5.0,
        }
    }
}

impl BaselineConfig {
    /// A configuration small enough for unit tests and smoke benches.
    pub fn fast_demo() -> Self {
        Self {
            epochs: 6,
            batch_size: 64,
            z_dim: 32,
            hidden: vec![64],
            max_modes: 4,
            ..Self::default()
        }
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

pub use kinet_data::synth::sample_in_batches;

/// Fits the shared data transformer, mapping `DataError` into the trait's
/// error space.
pub fn fit_transformer(
    table: &kinet_data::Table,
    cfg: &BaselineConfig,
) -> Result<DataTransformer, SynthError> {
    Ok(DataTransformer::fit(table, cfg.max_modes, cfg.seed)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_data::{ColumnMeta, Schema, Table, Value};
    use kinet_nn::Tape;
    use kinet_tensor::Matrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn tx() -> DataTransformer {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("c"),
            ColumnMeta::continuous("x"),
        ]);
        let rows = (0..40)
            .map(|i| {
                vec![
                    Value::cat(if i % 2 == 0 { "a" } else { "b" }),
                    Value::num(i as f64),
                ]
            })
            .collect();
        DataTransformer::fit(&Table::from_rows(schema, rows).unwrap(), 3, 0).unwrap()
    }

    #[test]
    fn apply_heads_width_and_simplex() {
        let t = tx();
        let mut rng = StdRng::seed_from_u64(0);
        let tape = Tape::new();
        let logits = tape.constant(Matrix::zeros(5, t.width()));
        let (out, slices) = apply_heads(logits, &t.head_layout(), 0.4, &mut rng);
        assert_eq!(out.shape(), (5, t.width()));
        assert_eq!(slices.len(), t.head_layout().len());
        let v = out.value();
        for r in 0..5 {
            let s = v[(r, 0)] + v[(r, 1)]; // categorical block
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn reconstruction_loss_zero_at_target_softmax_peak() {
        let t = tx();
        let tape = Tape::new();
        // logits strongly peaked at the target categories, alphas exact
        let mut target = Matrix::zeros(2, t.width());
        target[(0, 0)] = 1.0;
        target[(1, 1)] = 1.0;
        let mut logits = Matrix::zeros(2, t.width());
        logits[(0, 0)] = 50.0;
        logits[(1, 1)] = 50.0;
        let loss =
            reconstruction_loss(tape.constant(logits), &target, &t.head_layout()).value()[(0, 0)];
        assert!(
            loss < 0.2,
            "near-perfect reconstruction should be cheap: {loss}"
        );
    }

    #[test]
    fn baseline_config_builders() {
        let cfg = BaselineConfig::fast_demo().with_epochs(3).with_seed(7);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.seed, 7);
    }
}
