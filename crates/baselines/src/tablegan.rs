//! TableGAN (Park et al., *Data Synthesis based on Generative Adversarial
//! Networks*, VLDB 2018).
//!
//! TableGAN operates on a min-max-scaled numeric view of the record (it
//! predates mode-specific normalization) and adds two auxiliary losses:
//! an **information loss** matching first/second moments of real and
//! generated batches, and a **classification loss** from an auxiliary
//! classifier that keeps the label attribute consistent with the features.
//! Per `DESIGN.md` §3 the original DCGAN convolutions over a reshaped
//! record matrix are replaced by MLP blocks; the loss structure — which is
//! what drives its behaviour in the paper's comparison — is kept.

use crate::common::{diverged, BaselineConfig};
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::{ColumnKind, DataError, Schema, Table, Value};
use kinet_nn::layers::{Activation, Mlp, MlpConfig};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::{Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Min-max encoder mapping every column (categorical codes included) into
/// `[-1, 1]` — TableGAN's representation.
#[derive(Clone, Debug)]
struct MinMaxCodec {
    /// The fitted schema; [`MinMaxCodec::encode`] accepts only tables of it.
    schema: Schema,
    /// Per column: categorical dictionary (empty for continuous).
    cats: Vec<Vec<String>>,
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxCodec {
    fn fit(table: &Table) -> Result<Self, SynthError> {
        let mut cats = Vec::new();
        let mut mins = Vec::new();
        let mut maxs = Vec::new();
        for col in table.schema().iter() {
            match col.kind() {
                ColumnKind::Categorical => {
                    let mut dict: Vec<String> = table.cat_column(col.name())?.to_vec();
                    dict.sort();
                    dict.dedup();
                    mins.push(0.0);
                    maxs.push((dict.len().max(2) - 1) as f64);
                    cats.push(dict);
                }
                ColumnKind::Continuous => {
                    let vals = table.num_column(col.name())?;
                    let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    mins.push(lo);
                    maxs.push(if hi > lo { hi } else { lo + 1.0 });
                    cats.push(Vec::new());
                }
            }
        }
        Ok(Self {
            schema: table.schema().clone(),
            cats,
            mins,
            maxs,
        })
    }

    fn width(&self) -> usize {
        self.mins.len()
    }

    /// Scales `table` into `[-1, 1]`.
    ///
    /// # Errors
    ///
    /// [`DataError::SchemaMismatch`] when `table`'s schema differs from the
    /// fitted one or a categorical value was never seen by
    /// [`MinMaxCodec::fit`]; the message names the column and value.
    fn encode(&self, table: &Table) -> Result<Matrix, DataError> {
        if table.schema() != &self.schema {
            return Err(DataError::SchemaMismatch(
                "table schema differs from fitted schema".to_string(),
            ));
        }
        let mut out = Matrix::zeros(table.n_rows(), self.width());
        let bounds = self.mins.iter().zip(&self.maxs);
        for (ci, ((col, dict), (&lo, &hi))) in
            self.schema.iter().zip(&self.cats).zip(bounds).enumerate()
        {
            let name = col.name();
            let scale = |raw: f64| (2.0 * (raw - lo) / (hi - lo) - 1.0).clamp(-1.0, 1.0) as f32;
            match col.kind() {
                ColumnKind::Categorical => {
                    for (r, v) in table.cat_column(name)?.iter().enumerate() {
                        let code = dict.iter().position(|c| c == v).ok_or_else(|| {
                            DataError::SchemaMismatch(format!(
                                "unseen category {v:?} in column {name:?}"
                            ))
                        })?;
                        out[(r, ci)] = scale(code as f64);
                    }
                }
                ColumnKind::Continuous => {
                    for (r, &x) in table.num_column(name)?.iter().enumerate() {
                        out[(r, ci)] = scale(x);
                    }
                }
            }
        }
        Ok(out)
    }

    fn decode(&self, m: &Matrix) -> Result<Table, SynthError> {
        let mut rows = Vec::with_capacity(m.rows());
        for r in 0..m.rows() {
            let mut row = Vec::with_capacity(self.width());
            for (ci, col) in self.schema.iter().enumerate() {
                let raw = (m[(r, ci)].clamp(-1.0, 1.0) as f64 + 1.0) / 2.0
                    * (self.maxs[ci] - self.mins[ci])
                    + self.mins[ci];
                match col.kind() {
                    ColumnKind::Categorical => {
                        let k = self.cats[ci].len();
                        let code = (raw.round() as usize).min(k.saturating_sub(1));
                        row.push(Value::cat(self.cats[ci][code].clone()));
                    }
                    ColumnKind::Continuous => row.push(Value::num(raw)),
                }
            }
            rows.push(row);
        }
        Ok(Table::from_rows(self.schema.clone(), rows)?)
    }
}

struct Fitted {
    codec: MinMaxCodec,
    gen: Mlp,
    disc: Mlp,
}

/// The TableGAN baseline synthesizer.
pub struct TableGan {
    config: BaselineConfig,
    /// Index of the label column used by the classification loss (defaults
    /// to the last categorical column).
    label_column: Option<String>,
    fitted: Option<Fitted>,
}

impl TableGan {
    /// Creates an unfitted TableGAN.
    pub fn new(config: BaselineConfig) -> Self {
        Self {
            config,
            label_column: None,
            fitted: None,
        }
    }

    /// Overrides the label column used by the classification loss.
    pub fn with_label_column(mut self, name: &str) -> Self {
        self.label_column = Some(name.to_string());
        self
    }

    /// The configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }
}

impl TabularSynthesizer for TableGan {
    fn name(&self) -> &str {
        "TableGAN"
    }

    fn fit(&mut self, table: &Table) -> Result<(), SynthError> {
        if table.is_empty() {
            return Err(SynthError::Training("training table is empty".into()));
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let codec = MinMaxCodec::fit(table)?;
        let width = codec.width();

        let label_idx = match &self.label_column {
            Some(name) => table
                .schema()
                .index_of(name)
                .ok_or_else(|| SynthError::Training(format!("unknown label column {name:?}")))?,
            None => {
                let mut found = 0;
                for (i, c) in table.schema().iter().enumerate() {
                    if c.kind() == ColumnKind::Categorical {
                        found = i;
                    }
                }
                found
            }
        };

        let gen_cfg =
            MlpConfig::new(cfg.z_dim, &cfg.hidden, width).with_activation(Activation::Relu);
        let gen = Mlp::new(&gen_cfg, &mut rng);
        let disc_cfg = MlpConfig::new(width, &cfg.hidden, 1)
            .with_activation(Activation::LeakyRelu(0.2))
            .with_dropout(0.25);
        let disc = Mlp::new(&disc_cfg, &mut rng);
        // classifier: predicts the scaled label from the other columns
        let clf_cfg = MlpConfig::new(width - 1, &cfg.hidden, 1).with_activation(Activation::Relu);
        let clf = Mlp::new(&clf_cfg, &mut rng);

        let mut g_opt = Adam::with_betas(gen.params(), cfg.lr, 0.5, 0.9);
        let mut d_opt = Adam::with_betas(disc.params(), cfg.lr, 0.5, 0.9);
        let mut c_opt = Adam::new(clf.params(), cfg.lr);

        let encoded = codec.encode(table)?;
        let steps = (table.n_rows() / cfg.batch_size).max(1);
        fn drop_label<'t>(v: Var<'t>, label_idx: usize) -> Var<'t> {
            // remove the label column for the classifier input
            let (_, w) = v.shape();
            let left = v.slice_cols(0, label_idx);
            let right = v.slice_cols(label_idx + 1, w);
            if label_idx == 0 {
                right
            } else if label_idx + 1 == w {
                left
            } else {
                Var::concat_cols(&[left, right])
            }
        }

        let mut idx: Vec<usize> = Vec::with_capacity(cfg.batch_size);
        let mut real = Matrix::default();
        let mut gen_tape = Tape::no_grad();
        // The classifier and discriminator steps each train every
        // parameter on their tape; the generator step freezes both nets.
        let mut c_tape = Tape::new();
        let mut d_tape = Tape::new();
        let mut frozen = d_opt.params().clone();
        frozen.extend(c_opt.params());
        let mut g_tape = Tape::frozen(&frozen);
        for epoch in 0..cfg.epochs {
            for step in 0..steps {
                idx.clear();
                idx.extend((0..cfg.batch_size).map(|_| rng.random_range(0..table.n_rows())));
                encoded.gather_rows_into(&idx, &mut real);

                // classifier step (on real data)
                c_tape.reset();
                let tape = &c_tape;
                let features = drop_label(tape.constant_copy(&real), label_idx);
                let pred = clf.forward(tape, features, true, &mut rng);
                let target = Matrix::from_fn(cfg.batch_size, 1, |r, _| real[(r, label_idx)]);
                let loss = pred.tanh().mse(&target);
                c_opt
                    .minimize(loss, 0.0)
                    .map_err(|v| diverged("TableGAN", "classifier", epoch, step, v))?;

                // discriminator step (the fake batch enters detached)
                let z = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                gen_tape.reset();
                let fake = gen
                    .forward(&gen_tape, gen_tape.constant(z), true, &mut rng)
                    .tanh();
                d_tape.reset();
                let tape = &d_tape;
                let fake = fake.with_value(|v| tape.constant_copy(v));
                let d_real = disc.forward(tape, tape.constant_copy(&real), true, &mut rng);
                let d_fake = disc.forward(tape, fake, true, &mut rng);
                let loss = kinet_nn::loss::gan_discriminator_loss(d_real, d_fake, 0.9);
                d_opt
                    .minimize(loss, cfg.clip_norm)
                    .map_err(|v| diverged("TableGAN", "discriminator", epoch, step, v))?;

                // generator step: adversarial + information + classification
                g_tape.reset();
                let tape = &g_tape;
                let z = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                let fake = gen.forward(tape, tape.constant(z), true, &mut rng).tanh();
                let d_fake = disc.forward(tape, fake, true, &mut rng);
                let adv = kinet_nn::loss::gan_generator_loss(d_fake);
                // information loss: match batch mean and variance
                let real_mu = real.mean_rows();
                let real_var = real.var_rows();
                let fake_mu = fake.mean_rows();
                let centered = fake.sub_row(fake_mu);
                let fake_var = centered.mul(centered).mean_rows();
                let info = fake_mu.mse(&real_mu).add(fake_var.mse(&real_var));
                // classification loss: generated label consistent with
                // the (frozen) classifier's prediction
                let features = drop_label(fake, label_idx);
                let pred = clf.forward(tape, features, false, &mut rng).tanh();
                let label = fake.slice_cols(label_idx, label_idx + 1);
                let class = label.sub(pred).mul(label.sub(pred)).mean();
                let loss = adv.add(info.scale(1.0)).add(class.scale(1.0));
                g_opt
                    .minimize(loss, cfg.clip_norm)
                    .map_err(|v| diverged("TableGAN", "generator", epoch, step, v))?;
            }
        }
        self.fitted = Some(Fitted { codec, gen, disc });
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Table, SynthError> {
        let f = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let z = Matrix::randn(n, self.config.z_dim, 0.0, 1.0, &mut rng);
        let raw = f.gen.infer(&z).map(f32::tanh);
        f.codec.decode(&raw)
    }

    fn critic_scores(&self, table: &Table) -> Result<Option<Vec<f64>>, SynthError> {
        let Some(f) = &self.fitted else {
            return Ok(None);
        };
        let encoded = f.codec.encode(table)?;
        let s = f.disc.infer(&encoded);
        Ok(Some(s.column(0).iter().map(|&v| v as f64).collect()))
    }
}

impl std::fmt::Debug for TableGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TableGan(fitted={})", self.fitted.is_some())
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
            ..Default::default()
        }
    }

    #[test]
    fn fit_sample_roundtrip() {
        let t = data(300, 1);
        let mut m = TableGan::new(cfg()).with_label_column("event");
        m.fit(&t).unwrap();
        let s = m.sample(50, 2).unwrap();
        assert_eq!(s.n_rows(), 50);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn codec_roundtrip_is_lossless_for_categories() {
        let t = data(100, 2);
        let codec = MinMaxCodec::fit(&t).unwrap();
        let enc = codec.encode(&t).unwrap();
        let dec = codec.decode(&enc).unwrap();
        assert_eq!(
            dec.cat_column("event").unwrap(),
            t.cat_column("event").unwrap()
        );
        assert_eq!(
            dec.cat_column("protocol").unwrap(),
            t.cat_column("protocol").unwrap()
        );
    }

    #[test]
    fn unknown_label_column_rejected() {
        let t = data(60, 3);
        let mut m = TableGan::new(cfg()).with_label_column("ghost");
        assert!(m.fit(&t).is_err());
    }

    #[test]
    fn deterministic_sampling() {
        let t = data(200, 4);
        let mut m = TableGan::new(cfg());
        m.fit(&t).unwrap();
        assert_eq!(m.sample(30, 5).unwrap(), m.sample(30, 5).unwrap());
    }

    #[test]
    fn critic_rejects_rows_the_codec_was_not_fitted_on() {
        let t = data(150, 5);
        let mut m = TableGan::new(cfg());
        m.fit(&t).unwrap();
        let mut unseen = t.select_rows(&[0]);
        let mut row = unseen.row(0);
        let protocol = t.schema().index_of("protocol").unwrap();
        row[protocol] = Value::cat("gopher");
        unseen.set_row(0, row).unwrap();
        let err = m.critic_scores(&unseen).unwrap_err().to_string();
        assert!(
            err.contains("\"gopher\"") && err.contains("\"protocol\""),
            "{err}"
        );
        // Same columns in another order: an error, not a misbinding.
        let mut names: Vec<&str> = t.schema().iter().map(|c| c.name()).collect();
        names.reverse();
        assert!(m.critic_scores(&t.project(&names).unwrap()).is_err());
    }

    #[test]
    fn critic_scores_finite() {
        let t = data(150, 5);
        let mut m = TableGan::new(cfg());
        m.fit(&t).unwrap();
        assert!(m
            .critic_scores(&t)
            .unwrap()
            .unwrap()
            .iter()
            .all(|v| v.is_finite()));
    }
}
