//! PATE-GAN (Jordon et al., *PATE-GAN: Generating Synthetic Data with
//! Differential Privacy Guarantees*, ICLR 2019).
//!
//! `k` teacher discriminators are trained on disjoint partitions of the
//! real data; a student discriminator never sees real data — it is trained
//! on generated samples labeled by the Laplace-noised majority vote of the
//! teachers (the PATE mechanism); the generator trains against the
//! student. The noise scale is `1/LAMBDA` per query, giving the
//! data-dependent (ε, δ) guarantees of the original paper.

use crate::common::{apply_heads, diverged, fit_transformer, BaselineConfig};
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::transform::{DataTransformer, HeadSpec};
use kinet_data::Table;
use kinet_nn::layers::{Activation, Mlp, MlpConfig};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::{Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Laplace noise inverse-scale for the PATE vote (larger = less noise,
/// weaker privacy).
const LAMBDA: f64 = 1.0;

struct Fitted {
    transformer: DataTransformer,
    gen: Mlp,
    student: Mlp,
    table: Table,
}

/// The PATE-GAN baseline synthesizer.
pub struct PateGan {
    config: BaselineConfig,
    n_teachers: usize,
    fitted: Option<Fitted>,
}

impl PateGan {
    /// Creates an unfitted PATE-GAN with 5 teachers.
    pub fn new(config: BaselineConfig) -> Self {
        Self {
            config,
            n_teachers: 5,
            fitted: None,
        }
    }

    /// Sets the number of teacher discriminators.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_teachers(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one teacher");
        self.n_teachers = n;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }
}

fn laplace(scale: f64, rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random::<f64>() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-300).ln()
}

/// One generator pass from noise `z` on the value-only `tape`, which it
/// resets first: the encoded fake batch, with no gradient recorded. The
/// teachers, the student and the release all consume it as a constant.
fn generate<'t>(
    gen: &Mlp,
    tape: &'t mut Tape,
    z: &Matrix,
    heads: &[HeadSpec],
    tau: f32,
    training: bool,
    rng: &mut StdRng,
) -> Var<'t> {
    tape.reset();
    let tape: &'t Tape = tape;
    let logits = gen.forward(tape, tape.constant_copy(z), training, rng);
    apply_heads(logits, heads, tau, rng).0
}

impl TabularSynthesizer for PateGan {
    fn name(&self) -> &str {
        "PATEGAN"
    }

    fn fit(&mut self, table: &Table) -> Result<(), SynthError> {
        if table.n_rows() < self.n_teachers * 2 {
            return Err(SynthError::Training(format!(
                "need at least {} rows for {} teachers",
                self.n_teachers * 2,
                self.n_teachers
            )));
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transformer = fit_transformer(table, cfg)?;
        let width = transformer.width();
        let heads = transformer.head_layout();

        let gen_cfg =
            MlpConfig::new(cfg.z_dim, &cfg.hidden, width).with_activation(Activation::Relu);
        let gen = Mlp::new(&gen_cfg, &mut rng);
        let disc_cfg =
            MlpConfig::new(width, &cfg.hidden, 1).with_activation(Activation::LeakyRelu(0.2));
        let teachers: Vec<Mlp> = (0..self.n_teachers)
            .map(|_| Mlp::new(&disc_cfg, &mut rng))
            .collect();
        let student = Mlp::new(&disc_cfg, &mut rng);

        let mut g_opt = Adam::with_betas(gen.params(), cfg.lr, 0.5, 0.9);
        let mut s_opt = Adam::with_betas(student.params(), cfg.lr, 0.5, 0.9);
        let mut t_opts: Vec<Adam> = teachers
            .iter()
            .map(|t| Adam::with_betas(t.params(), cfg.lr, 0.5, 0.9))
            .collect();

        // disjoint partitions, one per teacher
        let encoded = transformer.try_transform(table, &mut rng)?;
        let mut order: Vec<usize> = (0..table.n_rows()).collect();
        // deterministic shuffle
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let partition_size = order.len() / self.n_teachers;
        let partitions: Vec<Vec<usize>> = (0..self.n_teachers)
            .map(|t| order[t * partition_size..(t + 1) * partition_size].to_vec())
            .collect();

        let steps = (table.n_rows() / cfg.batch_size).max(1);
        let mut idx: Vec<usize> = Vec::with_capacity(cfg.batch_size);
        let mut real = Matrix::default();
        let mut gen_tape = Tape::no_grad();
        // The teachers and the student share one shape, so one tape.
        let mut d_tape = Tape::new();
        let mut g_tape = Tape::frozen(s_opt.params());
        for epoch in 0..cfg.epochs {
            for step in 0..steps {
                // --- teachers: each on its own partition vs fresh fakes ---
                let z = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                for ((teacher, t_opt), part) in teachers.iter().zip(&mut t_opts).zip(&partitions) {
                    idx.clear();
                    idx.extend((0..cfg.batch_size).map(|_| part[rng.random_range(0..part.len())]));
                    encoded.gather_rows_into(&idx, &mut real);
                    // The fake batch enters the teacher's graph detached.
                    let fake = generate(&gen, &mut gen_tape, &z, &heads, cfg.tau, true, &mut rng);
                    d_tape.reset();
                    let tape = &d_tape;
                    let fake = fake.with_value(|v| tape.constant_copy(v));
                    let d_real = teacher.forward(tape, tape.constant_copy(&real), true, &mut rng);
                    let d_fake = teacher.forward(tape, fake, true, &mut rng);
                    let loss = kinet_nn::loss::gan_discriminator_loss(d_real, d_fake, 1.0);
                    t_opt
                        .minimize(loss, 0.0)
                        .map_err(|v| diverged("PATEGAN", "teacher", epoch, step, v))?;
                }

                // --- student: on generated samples with noisy PATE labels ---
                let z = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                let fake = generate(&gen, &mut gen_tape, &z, &heads, cfg.tau, true, &mut rng);
                // PATE vote: each teacher classifies; add Laplace noise
                let mut votes = vec![0.0f64; cfg.batch_size];
                for teacher in &teachers {
                    let scores = fake.with_value(|v| teacher.infer(v));
                    for (r, v) in votes.iter_mut().enumerate() {
                        if scores[(r, 0)] > 0.0 {
                            *v += 1.0;
                        }
                    }
                }
                let target = Matrix::from_fn(cfg.batch_size, 1, |r, _| {
                    let noisy = votes[r] + laplace(1.0 / LAMBDA, &mut rng);
                    if noisy > self.n_teachers as f64 / 2.0 {
                        1.0
                    } else {
                        0.0
                    }
                });
                d_tape.reset();
                let tape = &d_tape;
                let fake = fake.with_value(|v| tape.constant_copy(v));
                let s_logits = student.forward(tape, fake, true, &mut rng);
                let loss = s_logits.bce_with_logits(&target);
                s_opt
                    .minimize(loss, 0.0)
                    .map_err(|v| diverged("PATEGAN", "student", epoch, step, v))?;

                // --- generator: fool the frozen student ---
                g_tape.reset();
                let tape = &g_tape;
                let z = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                let logits = gen.forward(tape, tape.constant(z), true, &mut rng);
                let (fake, _) = apply_heads(logits, &heads, cfg.tau, &mut rng);
                let s_logits = student.forward(tape, fake, true, &mut rng);
                let loss = kinet_nn::loss::gan_generator_loss(s_logits);
                g_opt
                    .minimize(loss, cfg.clip_norm)
                    .map_err(|v| diverged("PATEGAN", "generator", epoch, step, v))?;
            }
        }
        self.fitted = Some(Fitted {
            transformer,
            gen,
            student,
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
                let mut tape = Tape::no_grad();
                let fake = generate(&f.gen, &mut tape, &z, &heads, self.config.tau, false, rng);
                let release = fake.with_value(|v| f.transformer.inverse_transform(v));
                release.map_err(Into::into)
            },
        )
    }

    fn critic_scores(&self, table: &Table) -> Result<Option<Vec<f64>>, SynthError> {
        // The student never saw real data — by construction its scores leak
        // little membership signal. This is the property Figure 7 rewards.
        let Some(f) = &self.fitted else {
            return Ok(None);
        };
        let encoded = f.transformer.transform_deterministic(table)?;
        let s = f.student.infer(&encoded);
        Ok(Some(s.column(0).iter().map(|&v| v as f64).collect()))
    }
}

impl std::fmt::Debug for PateGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PateGan(teachers={}, lambda={}, fitted={})",
            self.n_teachers,
            LAMBDA,
            self.fitted.is_some()
        )
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
        let mut m = PateGan::new(cfg()).with_teachers(3);
        m.fit(&t).unwrap();
        let s = m.sample(60, 2).unwrap();
        assert_eq!(s.n_rows(), 60);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn too_few_rows_for_teachers() {
        let t = data(8, 2);
        let mut m = PateGan::new(cfg()).with_teachers(5);
        assert!(m.fit(&t).is_err());
    }

    #[test]
    fn laplace_noise_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..5000).map(|_| laplace(1.0, &mut rng)).sum::<f64>() / 5000.0;
        assert!(mean.abs() < 0.1, "laplace mean {mean}");
    }

    #[test]
    fn deterministic_sampling() {
        let t = data(200, 4);
        let mut m = PateGan::new(cfg()).with_teachers(2);
        m.fit(&t).unwrap();
        assert_eq!(m.sample(30, 6).unwrap(), m.sample(30, 6).unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one teacher")]
    fn zero_teachers_panics() {
        let _ = PateGan::new(cfg()).with_teachers(0);
    }
}
