//! TVAE (Xu et al., NeurIPS 2019): a variational autoencoder over the
//! mode-specific-normalized encoding — typically the strongest baseline on
//! pure fidelity, which is exactly how it behaves in the paper's Table I.

use crate::common::{fit_transformer, reconstruction_loss, BaselineConfig};
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::transform::{DataTransformer, HeadKind};
use kinet_data::Table;
use kinet_nn::layers::{Activation, Linear, Mlp, MlpConfig};
use kinet_nn::loss::gaussian_kl;
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::{ParamSet, Tape};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::{rngs::StdRng, RngExt, SeedableRng};

struct Fitted {
    transformer: DataTransformer,
    encoder: Mlp,
    mu_head: Linear,
    #[allow(dead_code)] // retained for checkpoint completeness / future use
    logvar_head: Linear,
    decoder: Mlp,
    table: Table,
}

/// The TVAE baseline synthesizer.
///
/// ```no_run
/// use kinet_baselines::{common::BaselineConfig, Tvae};
/// use kinet_data::synth::TabularSynthesizer;
/// use kinet_datasets::lab::{LabSimConfig, LabSimulator};
///
/// let data = LabSimulator::new(LabSimConfig::small(1000, 0)).generate()?;
/// let mut model = Tvae::new(BaselineConfig::fast_demo());
/// model.fit(&data)?;
/// let synth = model.sample(200, 1)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Tvae {
    config: BaselineConfig,
    fitted: Option<Fitted>,
}

impl Tvae {
    /// Creates an unfitted TVAE.
    pub fn new(config: BaselineConfig) -> Self {
        Self {
            config,
            fitted: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }
}

impl TabularSynthesizer for Tvae {
    fn name(&self) -> &str {
        "TVAE"
    }

    fn fit(&mut self, table: &Table) -> Result<(), SynthError> {
        if table.is_empty() {
            return Err(SynthError::Training("training table is empty".into()));
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transformer = fit_transformer(table, cfg)?;
        let width = transformer.width();

        let enc_cfg = MlpConfig::new(width, &cfg.hidden, *cfg.hidden.last().unwrap())
            .with_activation(Activation::Relu);
        let encoder = Mlp::new(&enc_cfg, &mut rng);
        let mu_head = Linear::new(*cfg.hidden.last().unwrap(), cfg.z_dim, &mut rng);
        let logvar_head = Linear::new(*cfg.hidden.last().unwrap(), cfg.z_dim, &mut rng);
        let dec_cfg =
            MlpConfig::new(cfg.z_dim, &cfg.hidden, width).with_activation(Activation::Relu);
        let decoder = Mlp::new(&dec_cfg, &mut rng);

        let mut params = ParamSet::new();
        params.extend(&encoder.params());
        params.extend(&mu_head.params());
        params.extend(&logvar_head.params());
        params.extend(&decoder.params());
        let mut opt = Adam::new(params.clone(), cfg.lr);

        let encoded = transformer.transform(table, &mut rng);
        let heads = transformer.head_layout();
        let steps = (table.n_rows() / cfg.batch_size).max(1);

        for _epoch in 0..cfg.epochs {
            for _step in 0..steps {
                let idx: Vec<usize> = (0..cfg.batch_size)
                    .map(|_| rng.random_range(0..table.n_rows()))
                    .collect();
                let batch = encoded.select_rows(&idx);
                let tape = Tape::new();
                let x = tape.constant(batch.clone());
                let h = encoder.forward(&tape, x, true, &mut rng);
                let h = h.relu();
                let mu = mu_head.forward(&tape, h);
                let logvar = logvar_head.forward(&tape, h);
                // reparameterization: z = mu + exp(0.5 logvar) * eps
                let eps = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                let z = mu.add(logvar.scale(0.5).exp().mul_const(eps));
                let logits = decoder.forward(&tape, z, true, &mut rng);
                let recon = reconstruction_loss(logits, &batch, &heads);
                let kl = gaussian_kl(mu, logvar);
                let loss = recon.add(kl.scale(0.2));
                tape.backward(loss);
                if cfg.clip_norm > 0.0 {
                    params.clip_grad_norm(cfg.clip_norm);
                }
                opt.step();
                opt.zero_grad();
            }
        }

        self.fitted = Some(Fitted {
            transformer,
            encoder,
            mu_head,
            logvar_head,
            decoder,
            table: table.clone(),
        });
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Table, SynthError> {
        let f = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let heads = f.transformer.head_layout();
        crate::common::sample_in_batches(
            f.table.schema().clone(),
            n,
            self.config.batch_size,
            &mut rng,
            |want, rng| {
                let z = Matrix::randn(want, self.config.z_dim, 0.0, 1.0, rng);
                let logits = f.decoder.infer(&z);
                // activate heads: tanh for alphas, gumbel-argmax for one-hots
                let mut activated = Matrix::zeros(want, logits.cols());
                let mut offset = 0;
                for head in &heads {
                    match head.kind {
                        HeadKind::Tanh => {
                            for r in 0..want {
                                activated[(r, offset)] = logits[(r, offset)].tanh();
                            }
                        }
                        HeadKind::Softmax => {
                            let noise = Matrix::gumbel(want, head.width, rng);
                            for r in 0..want {
                                let mut best = 0;
                                let mut best_v = f32::NEG_INFINITY;
                                for j in 0..head.width {
                                    let v = logits[(r, offset + j)] + noise[(r, j)];
                                    if v > best_v {
                                        best_v = v;
                                        best = j;
                                    }
                                }
                                activated[(r, offset + best)] = 1.0;
                            }
                        }
                    }
                    offset += head.width;
                }
                f.transformer
                    .inverse_transform(&activated)
                    .map_err(Into::into)
            },
        )
    }

    fn critic_scores(&self, table: &Table) -> Option<Vec<f64>> {
        // White-box signal for a VAE: negative reconstruction error (higher
        // = more "real" to the model), the standard MI surrogate.
        let f = self.fitted.as_ref()?;
        let encoded = f.transformer.transform_deterministic(table);
        let h = f.encoder.infer(&encoded).map(|v| v.max(0.0));
        let mu = h
            .matmul(&f.mu_head.weight().value())
            .add_row_broadcast(&f.mu_head.bias().value());
        let logits = f.decoder.infer(&mu);
        let scores = (0..table.n_rows())
            .map(|r| {
                let mut err = 0.0f64;
                for c in 0..encoded.cols() {
                    let d = (logits[(r, c)].tanh() - encoded[(r, c)]) as f64;
                    err += d * d;
                }
                -err
            })
            .collect();
        Some(scores)
    }
}

impl std::fmt::Debug for Tvae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tvae(fitted={})", self.fitted.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};

    fn data(n: usize, seed: u64) -> Table {
        LabSimulator::new(LabSimConfig::small(n, seed))
            .generate()
            .unwrap()
    }

    fn cfg() -> BaselineConfig {
        BaselineConfig {
            epochs: 3,
            batch_size: 32,
            z_dim: 16,
            hidden: vec![32],
            max_modes: 3,
            lr: 1e-3,
            ..Default::default()
        }
    }

    #[test]
    fn fit_sample_roundtrip() {
        let t = data(300, 1);
        let mut m = Tvae::new(cfg());
        m.fit(&t).unwrap();
        let s = m.sample(64, 5).unwrap();
        assert_eq!(s.n_rows(), 64);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn deterministic_sampling() {
        let t = data(200, 2);
        let mut m = Tvae::new(cfg());
        m.fit(&t).unwrap();
        assert_eq!(m.sample(32, 11).unwrap(), m.sample(32, 11).unwrap());
    }

    #[test]
    fn critic_prefers_training_data_direction() {
        let t = data(400, 3);
        let mut m = Tvae::new(BaselineConfig {
            epochs: 10,
            ..cfg()
        });
        m.fit(&t).unwrap();
        let scores = m.critic_scores(&t).unwrap();
        assert!(scores.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn not_fitted() {
        assert!(matches!(
            Tvae::new(cfg()).sample(5, 0),
            Err(SynthError::NotFitted)
        ));
    }
}
