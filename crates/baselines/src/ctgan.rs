//! CTGAN (Xu et al., *Modeling Tabular Data using Conditional GAN*,
//! NeurIPS 2019) — the strongest general-purpose baseline in the paper's
//! comparison and the architecture KiNETGAN extends.
//!
//! Faithful elements: mode-specific normalization, a single-column
//! condition vector with log-frequency training-by-sampling, a residual
//! generator, Gumbel-Softmax heads, and the generator's cross-entropy
//! penalty on the conditioned column. Deviation (documented in `DESIGN.md`
//! §3): the WGAN-GP critic is replaced by a non-saturating GAN loss, since
//! gradient penalties need second-order autograd.

use crate::common::{apply_heads, diverged, fit_transformer, BaselineConfig};
use kinet_data::condition::ConditionVectorSpec;
use kinet_data::sampler::{BalanceMode, TrainingSampler};
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::transform::DataTransformer;
use kinet_data::{ColumnKind, Table};
use kinet_nn::layers::{Activation, Linear, Mlp, MlpConfig, ResidualBlock};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::{ParamSet, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::{rngs::StdRng, SeedableRng};

struct Nets {
    blocks: Vec<ResidualBlock>,
    out: Linear,
    disc: Mlp,
}

struct Fitted {
    transformer: DataTransformer,
    cond_spec: ConditionVectorSpec,
    sampler: TrainingSampler,
    nets: Nets,
    table: Table,
    head_of_col: Vec<usize>,
}

/// The CTGAN baseline synthesizer.
///
/// ```no_run
/// use kinet_baselines::{common::BaselineConfig, CtGan};
/// use kinet_data::synth::TabularSynthesizer;
/// use kinet_datasets::lab::{LabSimConfig, LabSimulator};
///
/// let data = LabSimulator::new(LabSimConfig::small(1000, 0)).generate()?;
/// let mut model = CtGan::new(BaselineConfig::fast_demo());
/// model.fit(&data)?;
/// let synth = model.sample(500, 1)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CtGan {
    config: BaselineConfig,
    fitted: Option<Fitted>,
}

impl CtGan {
    /// Creates an unfitted CTGAN.
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

    fn gen_forward<'t>(
        &self,
        nets: &Nets,
        tape: &'t Tape,
        c: &Matrix,
        heads: &[kinet_data::transform::HeadSpec],
        training: bool,
        rng: &mut StdRng,
    ) -> (Var<'t>, Vec<Var<'t>>) {
        let z = Matrix::randn(c.rows(), self.config.z_dim, 0.0, 1.0, rng);
        let mut h = tape.constant(Matrix::hstack(&[&z, c]));
        for b in &nets.blocks {
            h = b.forward(tape, h, training);
        }
        let logits = nets.out.forward(tape, h);
        apply_heads(logits, heads, self.config.tau, rng)
    }
}

impl TabularSynthesizer for CtGan {
    fn name(&self) -> &str {
        "CTGAN"
    }

    fn fit(&mut self, table: &Table) -> Result<(), SynthError> {
        if table.is_empty() {
            return Err(SynthError::Training("training table is empty".into()));
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transformer = fit_transformer(table, cfg)?;
        let cat_cols = table.schema().categorical_names();
        if cat_cols.is_empty() {
            return Err(SynthError::Training(
                "CTGAN requires at least one categorical column".into(),
            ));
        }
        let cond_spec = ConditionVectorSpec::fit(table, &cat_cols)?;
        let sampler = TrainingSampler::fit(table, &cond_spec)?;

        // map conditional (categorical) columns to head indices
        let mut head_of_col = Vec::new();
        let mut h = 0;
        for col in table.schema().iter() {
            head_of_col.push(h);
            h += match col.kind() {
                ColumnKind::Categorical => 1,
                ColumnKind::Continuous => 2,
            };
        }

        let mut dim = cfg.z_dim + cond_spec.width();
        let mut blocks = Vec::new();
        for &w in &cfg.hidden {
            let b = ResidualBlock::new(dim, w, &mut rng);
            dim = b.out_dim();
            blocks.push(b);
        }
        let out = Linear::new(dim, transformer.width(), &mut rng);
        let disc_cfg = MlpConfig::new(transformer.width() + cond_spec.width(), &cfg.hidden, 1)
            .with_activation(Activation::LeakyRelu(0.2))
            .with_dropout(0.25);
        let disc = Mlp::new(&disc_cfg, &mut rng);
        let nets = Nets { blocks, out, disc };

        let mut g_params = ParamSet::new();
        for b in &nets.blocks {
            g_params.extend(&b.params());
        }
        g_params.extend(&nets.out.params());
        let mut g_opt = Adam::with_betas(g_params, cfg.lr, 0.5, 0.9);
        let mut d_opt = Adam::with_betas(nets.disc.params(), cfg.lr, 0.5, 0.9);

        let encoded = transformer.try_transform(table, &mut rng)?;
        let heads = transformer.head_layout();
        let steps = (table.n_rows() / cfg.batch_size).max(1);
        let fitted = Fitted {
            transformer,
            cond_spec,
            sampler,
            nets,
            table: table.clone(),
            head_of_col,
        };
        let nets = &fitted.nets;
        let mut real = Matrix::default();
        let mut gen_tape = Tape::no_grad();
        let mut d_tape = Tape::new();
        let mut g_tape = Tape::frozen(d_opt.params());

        for epoch in 0..cfg.epochs {
            for step in 0..steps {
                // CTGAN: single-column condition, log-frequency category
                let conds = fitted.sampler.sample_batch(
                    &fitted.table,
                    &fitted.cond_spec,
                    BalanceMode::LogFreq,
                    false,
                    cfg.batch_size,
                    &mut rng,
                )?;
                let c = Matrix::from_fn(cfg.batch_size, fitted.cond_spec.width(), |r, j| {
                    conds[r].vector[j]
                });
                let rows: Vec<usize> = conds.iter().map(|s| s.row).collect();
                encoded.gather_rows_into(&rows, &mut real);

                // discriminator step (the fake batch enters detached)
                gen_tape.reset();
                let (fake, _) = self.gen_forward(nets, &gen_tape, &c, &heads, true, &mut rng);
                d_tape.reset();
                let tape = &d_tape;
                let fake = fake.with_value(|v| tape.constant_copy(v));
                let c_node = tape.constant_copy(&c);
                let real_in = Var::concat_cols(&[tape.constant_copy(&real), c_node]);
                let d_real = nets.disc.forward(tape, real_in, true, &mut rng);
                let fake_in = Var::concat_cols(&[fake, c_node]);
                let d_fake = nets.disc.forward(tape, fake_in, true, &mut rng);
                let loss = kinet_nn::loss::gan_discriminator_loss(d_real, d_fake, 0.9);
                d_opt
                    .minimize(loss, cfg.clip_norm)
                    .map_err(|v| diverged("CTGAN", "discriminator", epoch, step, v))?;

                // generator step over the frozen discriminator
                g_tape.reset();
                let tape = &g_tape;
                let (fake, head_logits) = self.gen_forward(nets, tape, &c, &heads, true, &mut rng);
                let fake_in = Var::concat_cols(&[fake, tape.constant_copy(&c)]);
                let d_fake = nets.disc.forward(tape, fake_in, true, &mut rng);
                let mut loss = kinet_nn::loss::gan_generator_loss(d_fake);
                // cross-entropy on the boosted column only (CTGAN)
                // group conditions by boosted column for batched CE
                for (spec_idx, name) in fitted.cond_spec.columns().iter().enumerate() {
                    let members: Vec<usize> = conds
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.boosted_column == Some(spec_idx))
                        .map(|(i, _)| i)
                        .collect();
                    if members.is_empty() {
                        continue;
                    }
                    let sidx = fitted.table.schema().index_of(name).expect("known column");
                    let head = fitted.head_of_col[sidx];
                    let w = fitted.cond_spec.encoder(spec_idx).n_categories();
                    let target = Matrix::from_fn(members.len(), w, |i, j| {
                        conds[members[i]].vector[fitted.cond_spec.offset(spec_idx) + j]
                    });
                    // select member rows of the head logits
                    let sel = Matrix::from_fn(members.len(), cfg.batch_size, |i, j| {
                        if members[i] == j {
                            1.0
                        } else {
                            0.0
                        }
                    });
                    let selected = tape.constant(sel).matmul(head_logits[head]);
                    loss = loss.add(selected.softmax_cross_entropy(&target));
                }
                g_opt
                    .minimize(loss, cfg.clip_norm)
                    .map_err(|v| diverged("CTGAN", "generator", epoch, step, v))?;
            }
        }
        self.fitted = Some(fitted);
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Table, SynthError> {
        let f = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(seed);
        crate::common::sample_in_batches(
            f.table.schema().clone(),
            n,
            self.config.batch_size,
            &mut rng,
            |want, rng| {
                let conds = f.sampler.sample_batch(
                    &f.table,
                    &f.cond_spec,
                    BalanceMode::None,
                    true,
                    want,
                    rng,
                )?;
                let c = Matrix::from_fn(want, f.cond_spec.width(), |r, j| conds[r].vector[j]);
                let tape = Tape::no_grad();
                let (fake, _) =
                    self.gen_forward(&f.nets, &tape, &c, &f.transformer.head_layout(), false, rng);
                f.transformer
                    .inverse_transform(&fake.value())
                    .map_err(Into::into)
            },
        )
    }

    fn critic_scores(&self, table: &Table) -> Result<Option<Vec<f64>>, SynthError> {
        let Some(f) = &self.fitted else {
            return Ok(None);
        };
        let encoded = f.transformer.transform_deterministic(table)?;
        let c = Matrix::from_fn(table.n_rows(), f.cond_spec.width(), |r, j| {
            f.cond_spec
                .vector_from_row(table, r)
                .map(|v| v[j])
                .unwrap_or(0.0)
        });
        let scores = f.nets.disc.infer(&Matrix::hstack(&[&encoded, &c]));
        Ok(Some(scores.column(0).iter().map(|&v| v as f64).collect()))
    }
}

impl std::fmt::Debug for CtGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CtGan(fitted={})", self.fitted.is_some())
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
            epochs: 2,
            batch_size: 32,
            z_dim: 16,
            hidden: vec![32],
            max_modes: 3,
            ..Default::default()
        }
    }

    #[test]
    fn fit_sample_roundtrip() {
        let t = data(300, 1);
        let mut m = CtGan::new(cfg());
        m.fit(&t).unwrap();
        let s = m.sample(80, 3).unwrap();
        assert_eq!(s.n_rows(), 80);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn not_fitted() {
        assert!(matches!(
            CtGan::new(cfg()).sample(5, 0),
            Err(SynthError::NotFitted)
        ));
    }

    #[test]
    fn deterministic_sampling() {
        let t = data(200, 2);
        let mut m = CtGan::new(cfg());
        m.fit(&t).unwrap();
        assert_eq!(m.sample(40, 9).unwrap(), m.sample(40, 9).unwrap());
    }

    #[test]
    fn critic_scores_finite() {
        let t = data(200, 3);
        let mut m = CtGan::new(cfg());
        m.fit(&t).unwrap();
        let s = m.critic_scores(&t).unwrap().unwrap();
        assert_eq!(s.len(), t.n_rows());
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_empty_table() {
        let t = data(50, 4);
        let empty = Table::empty(t.schema().clone());
        assert!(CtGan::new(cfg()).fit(&empty).is_err());
    }
}
