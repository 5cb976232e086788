//! KiNETGAN hyperparameters.

use kinet_data::sampler::BalanceMode;
use serde::{Deserialize, Serialize};

/// How knowledge guidance is applied during training.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum KgMode {
    /// Train a neural `D_KG` on KG-valid positives vs. generator output
    /// and add its score into `D_C = D_KG + D_M` (the paper's design).
    #[default]
    Neural,
    /// Differentiable soft penalty only: probability mass the generator
    /// assigns to KG-invalid categories is penalized directly.
    SoftMask,
    /// Both the neural `D_KG` and the soft mask penalty.
    Both,
    /// No knowledge guidance (ablation: reduces to a conditional GAN).
    Off,
}

/// Hyperparameters for [`crate::KinetGan`].
///
/// Defaults follow the CTGAN-family conventions the paper builds on
/// (Adam with betas `(0.5, 0.9)`, Gumbel-Softmax `tau = 0.2`, residual
/// generator, LeakyReLU discriminator with dropout).
///
/// ```
/// use kinetgan::{KgMode, KinetGanConfig};
/// let cfg = KinetGanConfig::default()
///     .with_epochs(50)
///     .with_batch_size(256)
///     .with_kg_mode(KgMode::Both);
/// assert_eq!(cfg.epochs, 50);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KinetGanConfig {
    /// Training epochs (full passes over `n_rows / batch_size` steps).
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Dimension of the noise vector `z`.
    pub z_dim: usize,
    /// Widths of the generator's residual blocks.
    pub gen_hidden: Vec<usize>,
    /// Widths of the discriminators' hidden layers.
    pub disc_hidden: Vec<usize>,
    /// Adam learning rate for all networks.
    pub lr: f32,
    /// Gumbel-Softmax temperature.
    pub tau: f32,
    /// Weight of the `BCE(C, Ĉ)` condition-consistency loss.
    pub lambda_cond: f32,
    /// Weight of the knowledge-guidance term (`D_KG` contribution to the
    /// generator loss, and/or the soft mask penalty).
    pub lambda_kg: f32,
    /// Knowledge-guidance mode.
    pub kg_mode: KgMode,
    /// Condition-sampling balance mode used during **training**
    /// (train-by-sampling). `LogFreq` is the CTGAN-lineage default — rare
    /// classes are boosted by log-frequency, which on small shards trains
    /// measurably better than the paper's §III-A-3 `Uniform` boost (a
    /// 500-row device shard may hold only a handful of rows for a rare
    /// attack class; conditioning on it as often as on the majority class
    /// starves the majority modes). `Uniform` remains available.
    pub balance: BalanceMode,
    /// Condition-sampling balance mode used at **sampling** time.
    /// `None` (the default) draws conditions from random real rows, so the
    /// release reproduces the original class marginals. `LogFreq` /
    /// `Uniform` oversample rare classes in the release itself — useful
    /// when the synthetic data feeds a detector that must see minority
    /// attack classes.
    pub sample_balance: BalanceMode,
    /// Maximum Gaussian-mixture modes per continuous column.
    pub max_modes: usize,
    /// Dropout probability in the discriminators.
    pub disc_dropout: f32,
    /// Global gradient-clipping norm (0 disables).
    pub clip_norm: f32,
    /// Label for real samples in the discriminator loss (label smoothing).
    pub real_label: f32,
    /// Rejection-resampling rounds at sampling time (0 = keep everything;
    /// each round replaces KG-invalid rows with fresh draws).
    pub rejection_rounds: usize,
    /// Master RNG seed for parameter init and training randomness.
    pub seed: u64,
}

impl Default for KinetGanConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch_size: 128,
            z_dim: 64,
            gen_hidden: vec![128, 128],
            disc_hidden: vec![128, 128],
            lr: 2e-4,
            tau: 0.2,
            lambda_cond: 1.0,
            lambda_kg: 1.0,
            kg_mode: KgMode::Neural,
            balance: BalanceMode::LogFreq,
            sample_balance: BalanceMode::None,
            max_modes: 8,
            disc_dropout: 0.25,
            clip_norm: 5.0,
            real_label: 0.9,
            rejection_rounds: 0,
            seed: 1234,
        }
    }
}

impl KinetGanConfig {
    /// A configuration small and fast enough for unit tests, doc examples
    /// and smoke benches (seconds, not minutes, on one CPU core).
    pub fn fast_demo() -> Self {
        Self {
            epochs: 8,
            batch_size: 64,
            z_dim: 32,
            gen_hidden: vec![64, 64],
            disc_hidden: vec![64],
            max_modes: 4,
            ..Self::default()
        }
    }

    /// A schedule tuned for **small per-device shards** (a few hundred
    /// rows), as trained by the distributed NIDS simulation: a 500-row
    /// shard at batch 128 sees only 3 optimizer steps per epoch, so the
    /// stock defaults undertrain by an order of magnitude and the released
    /// labels are noise. This preset shrinks the batch (more steps per
    /// pass), raises the learning rate (fewer total steps available),
    /// trains longer, and turns on KG rejection resampling — together
    /// with the condition-balancing fixes it moves the 4×500 lab sim's
    /// downstream detection accuracy from ≈0.24–0.33 to ≈0.81 (see
    /// `DESIGN.md` §2.4 for the full before/after table).
    pub fn small_shard() -> Self {
        Self {
            epochs: 60,
            batch_size: 32,
            z_dim: 32,
            gen_hidden: vec![64, 64],
            disc_hidden: vec![64],
            lr: 5e-4,
            max_modes: 4,
            balance: BalanceMode::LogFreq,
            rejection_rounds: 6,
            ..Self::default()
        }
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the minibatch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Sets the knowledge-guidance mode.
    pub fn with_kg_mode(mut self, mode: KgMode) -> Self {
        self.kg_mode = mode;
        self
    }

    /// Sets the training-time condition balance mode.
    pub fn with_balance(mut self, balance: BalanceMode) -> Self {
        self.balance = balance;
        self
    }

    /// Sets the sampling-time condition balance mode.
    pub fn with_sample_balance(mut self, balance: BalanceMode) -> Self {
        self.sample_balance = balance;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the rejection-resampling rounds used at sampling time.
    pub fn with_rejection_rounds(mut self, rounds: usize) -> Self {
        self.rejection_rounds = rounds;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.epochs == 0 {
            return Err("epochs must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.z_dim == 0 {
            return Err("z_dim must be positive".into());
        }
        if self.gen_hidden.is_empty() {
            return Err("generator needs at least one residual block".into());
        }
        if self.disc_hidden.is_empty() {
            return Err("discriminator needs at least one hidden layer".into());
        }
        if self.lr.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("learning rate must be positive".into());
        }
        if self.tau.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("gumbel temperature must be positive".into());
        }
        if !(0.0..1.0).contains(&self.disc_dropout) {
            return Err("discriminator dropout must be in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.real_label) || self.real_label <= 0.5 {
            return Err("real_label must be in (0.5, 1.0]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(KinetGanConfig::default().validate().is_ok());
        assert!(KinetGanConfig::fast_demo().validate().is_ok());
        assert!(KinetGanConfig::small_shard().validate().is_ok());
    }

    #[test]
    fn small_shard_trains_harder_than_fast_demo() {
        let shard = KinetGanConfig::small_shard();
        let demo = KinetGanConfig::fast_demo();
        // More optimizer steps per row and KG rejection on by default —
        // the properties the distributed sim's quality floor rests on.
        assert!(shard.epochs > demo.epochs);
        assert!(shard.batch_size < demo.batch_size);
        assert!(shard.lr > demo.lr);
        assert!(shard.rejection_rounds > 0);
        assert_eq!(shard.balance, BalanceMode::LogFreq);
        assert_eq!(shard.sample_balance, BalanceMode::None);
    }

    #[test]
    fn builder_chains() {
        let cfg = KinetGanConfig::default()
            .with_epochs(3)
            .with_batch_size(32)
            .with_kg_mode(KgMode::Off)
            .with_balance(BalanceMode::Uniform)
            .with_sample_balance(BalanceMode::LogFreq)
            .with_seed(9)
            .with_rejection_rounds(2);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.batch_size, 32);
        assert_eq!(cfg.kg_mode, KgMode::Off);
        assert_eq!(cfg.balance, BalanceMode::Uniform);
        assert_eq!(cfg.sample_balance, BalanceMode::LogFreq);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.rejection_rounds, 2);
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(KinetGanConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(KinetGanConfig {
            lr: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(KinetGanConfig {
            tau: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(KinetGanConfig {
            real_label: 0.4,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(KinetGanConfig {
            gen_hidden: vec![],
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn with_batch_size_rejects_zero() {
        let _ = KinetGanConfig::default().with_batch_size(0);
    }
}
