//! OCT-GAN (Kim et al., *OCT-GAN: Neural ODE-based Conditional Tabular
//! GANs*, WWW 2021).
//!
//! Both networks carry a neural-ODE block: the hidden state evolves as
//! `dh/dt = f(h, t)` with `f` an MLP, integrated over `t ∈ [0, 1]`. The
//! original uses the adjoint method; per `DESIGN.md` §3 we integrate with
//! a fixed-step RK4 unroll and backpropagate through the steps
//! (discretize-then-optimize) — identical forward semantics, simpler
//! reverse pass.

use crate::common::{apply_heads, diverged, fit_transformer, BaselineConfig};
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::transform::DataTransformer;
use kinet_data::Table;
use kinet_nn::layers::{Activation, Linear, Mlp, MlpConfig};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::{ParamSet, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// An ODE block `dh/dt = f(h, t)` with `f` a two-layer MLP over `[h, t]`,
/// integrated by RK4 in `steps` fixed steps over `t ∈ [0, 1]`.
pub struct OdeBlock {
    fc1: Linear,
    fc2: Linear,
    dim: usize,
    steps: usize,
}

impl OdeBlock {
    /// Creates a block over `dim`-wide states.
    pub fn new(dim: usize, hidden: usize, steps: usize, rng: &mut impl rand::Rng) -> Self {
        assert!(steps > 0, "ODE integration needs at least one step");
        Self {
            fc1: Linear::new(dim + 1, hidden, rng),
            fc2: Linear::new(hidden, dim, rng),
            dim,
            steps,
        }
    }

    fn dynamics<'t>(&self, tape: &'t Tape, h: Var<'t>, t: f32) -> Var<'t> {
        let (batch, _) = h.shape();
        let t_col = tape.constant_with(batch, 1, |m| m.as_mut_slice().fill(t));
        let input = Var::concat_cols(&[h, t_col]);
        let mid = self.fc1.forward(tape, input).tanh();
        self.fc2.forward(tape, mid)
    }

    /// Integrates the state forward with RK4.
    pub fn forward<'t>(&self, tape: &'t Tape, h0: Var<'t>) -> Var<'t> {
        assert_eq!(h0.shape().1, self.dim, "ODE state width mismatch");
        let dt = 1.0 / self.steps as f32;
        let mut h = h0;
        for s in 0..self.steps {
            let t = s as f32 * dt;
            let k1 = self.dynamics(tape, h, t);
            let k2 = self.dynamics(tape, h.add(k1.scale(dt / 2.0)), t + dt / 2.0);
            let k3 = self.dynamics(tape, h.add(k2.scale(dt / 2.0)), t + dt / 2.0);
            let k4 = self.dynamics(tape, h.add(k3.scale(dt)), t + dt);
            let incr = k1
                .add(k2.scale(2.0))
                .add(k3.scale(2.0))
                .add(k4)
                .scale(dt / 6.0);
            h = h.add(incr);
        }
        h
    }

    /// Trainable parameters of the dynamics network.
    pub fn params(&self) -> ParamSet {
        let mut p = self.fc1.params();
        p.extend(&self.fc2.params());
        p
    }
}

struct Fitted {
    transformer: DataTransformer,
    gen_in: Linear,
    gen_ode: OdeBlock,
    gen_out: Linear,
    disc_in: Linear,
    disc_ode: OdeBlock,
    disc_out: Mlp,
    table: Table,
}

/// The OCT-GAN baseline synthesizer.
pub struct OctGan {
    config: BaselineConfig,
    ode_steps: usize,
    fitted: Option<Fitted>,
}

impl OctGan {
    /// Creates an unfitted OCT-GAN with 4 RK4 steps per block.
    pub fn new(config: BaselineConfig) -> Self {
        Self {
            config,
            ode_steps: 4,
            fitted: None,
        }
    }

    /// Sets the RK4 step count.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn with_ode_steps(mut self, steps: usize) -> Self {
        assert!(steps > 0, "ODE integration needs at least one step");
        self.ode_steps = steps;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    fn gen_forward<'t>(
        &self,
        f: &Fitted,
        tape: &'t Tape,
        z: &Matrix,
        tau: f32,
        rng: &mut StdRng,
    ) -> Var<'t> {
        let h0 = f.gen_in.forward(tape, tape.constant_copy(z)).tanh();
        let h1 = f.gen_ode.forward(tape, h0);
        let logits = f.gen_out.forward(tape, h1);
        let (fake, _) = apply_heads(logits, &f.transformer.head_layout(), tau, rng);
        fake
    }

    fn disc_forward<'t>(
        &self,
        f: &Fitted,
        tape: &'t Tape,
        rows: Var<'t>,
        training: bool,
        rng: &mut StdRng,
    ) -> Var<'t> {
        let h0 = f.disc_in.forward(tape, rows).leaky_relu(0.2);
        let h1 = f.disc_ode.forward(tape, h0);
        f.disc_out.forward(tape, h1, training, rng)
    }
}

impl TabularSynthesizer for OctGan {
    fn name(&self) -> &str {
        "OCTGAN"
    }

    fn fit(&mut self, table: &Table) -> Result<(), SynthError> {
        if table.is_empty() {
            return Err(SynthError::Training("training table is empty".into()));
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let transformer = fit_transformer(table, cfg)?;
        let width = transformer.width();
        let h = cfg.hidden[0];

        let fitted = Fitted {
            gen_in: Linear::new(cfg.z_dim, h, &mut rng),
            gen_ode: OdeBlock::new(h, h, self.ode_steps, &mut rng),
            gen_out: Linear::new(h, width, &mut rng),
            disc_in: Linear::new(width, h, &mut rng),
            disc_ode: OdeBlock::new(h, h, self.ode_steps, &mut rng),
            disc_out: Mlp::new(
                &MlpConfig::new(h, &[h], 1).with_activation(Activation::LeakyRelu(0.2)),
                &mut rng,
            ),
            transformer,
            table: table.clone(),
        };

        let mut g_params = fitted.gen_in.params();
        g_params.extend(&fitted.gen_ode.params());
        g_params.extend(&fitted.gen_out.params());
        let mut d_params = fitted.disc_in.params();
        d_params.extend(&fitted.disc_ode.params());
        d_params.extend(&fitted.disc_out.params());
        let mut g_opt = Adam::with_betas(g_params, cfg.lr, 0.5, 0.9);
        let mut d_opt = Adam::with_betas(d_params, cfg.lr, 0.5, 0.9);

        let encoded = fitted.transformer.try_transform(table, &mut rng)?;
        let steps = (table.n_rows() / cfg.batch_size).max(1);
        let mut idx: Vec<usize> = Vec::with_capacity(cfg.batch_size);
        let mut real = Matrix::default();
        let mut gen_tape = Tape::no_grad();
        let mut d_tape = Tape::new();
        let mut g_tape = Tape::frozen(d_opt.params());

        for epoch in 0..cfg.epochs {
            for step in 0..steps {
                idx.clear();
                idx.extend((0..cfg.batch_size).map(|_| rng.random_range(0..table.n_rows())));
                encoded.gather_rows_into(&idx, &mut real);

                // discriminator (the fake batch enters detached)
                let z = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                gen_tape.reset();
                let fake = self.gen_forward(&fitted, &gen_tape, &z, cfg.tau, &mut rng);
                d_tape.reset();
                let tape = &d_tape;
                let fake = fake.with_value(|v| tape.constant_copy(v));
                let real_in = tape.constant_copy(&real);
                let d_real = self.disc_forward(&fitted, tape, real_in, true, &mut rng);
                let d_fake = self.disc_forward(&fitted, tape, fake, true, &mut rng);
                let loss = kinet_nn::loss::gan_discriminator_loss(d_real, d_fake, 0.9);
                d_opt
                    .minimize(loss, cfg.clip_norm)
                    .map_err(|v| diverged("OCTGAN", "discriminator", epoch, step, v))?;

                // generator over the frozen discriminator
                g_tape.reset();
                let tape = &g_tape;
                let z = Matrix::randn(cfg.batch_size, cfg.z_dim, 0.0, 1.0, &mut rng);
                let fake = self.gen_forward(&fitted, tape, &z, cfg.tau, &mut rng);
                let d_fake = self.disc_forward(&fitted, tape, fake, true, &mut rng);
                let loss = kinet_nn::loss::gan_generator_loss(d_fake);
                g_opt
                    .minimize(loss, cfg.clip_norm)
                    .map_err(|v| diverged("OCTGAN", "generator", epoch, step, v))?;
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
                let z = Matrix::randn(want, self.config.z_dim, 0.0, 1.0, rng);
                let tape = Tape::no_grad();
                let fake = self.gen_forward(f, &tape, &z, self.config.tau, rng);
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
        let mut rng = StdRng::seed_from_u64(0);
        let tape = Tape::no_grad();
        let s = self
            .disc_forward(f, &tape, tape.constant(encoded), false, &mut rng)
            .value();
        Ok(Some(s.column(0).iter().map(|&v| v as f64).collect()))
    }
}

impl std::fmt::Debug for OctGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OctGan(ode_steps={}, fitted={})",
            self.ode_steps,
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
    fn ode_block_identity_dynamics_limit() {
        // With zeroed dynamics weights the block is the identity map.
        let mut rng = StdRng::seed_from_u64(0);
        let block = OdeBlock::new(3, 8, 4, &mut rng);
        for p in block.params().iter() {
            p.update(|m| *m = kinet_tensor::Matrix::zeros(m.rows(), m.cols()));
        }
        let tape = Tape::new();
        let h0 = tape.constant(Matrix::from_rows(&[&[1.0, -2.0, 0.5]]));
        let h1 = block.forward(&tape, h0);
        assert_eq!(h1.value(), Matrix::from_rows(&[&[1.0, -2.0, 0.5]]));
    }

    #[test]
    fn ode_block_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let block = OdeBlock::new(4, 8, 3, &mut rng);
        let tape = Tape::new();
        let h0 = tape.constant(Matrix::ones(2, 4));
        let h1 = block.forward(&tape, h0);
        let loss = h1.mse(&Matrix::zeros(2, 4));
        tape.backward(loss);
        assert!(block.params().grad_norm() > 0.0);
    }

    #[test]
    fn fit_sample_roundtrip() {
        let t = data(300, 1);
        let mut m = OctGan::new(cfg()).with_ode_steps(2);
        m.fit(&t).unwrap();
        let s = m.sample(50, 2).unwrap();
        assert_eq!(s.n_rows(), 50);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn deterministic_sampling() {
        let t = data(200, 3);
        let mut m = OctGan::new(cfg()).with_ode_steps(2);
        m.fit(&t).unwrap();
        assert_eq!(m.sample(25, 4).unwrap(), m.sample(25, 4).unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_ode_steps_panics() {
        let _ = OctGan::new(cfg()).with_ode_steps(0);
    }
}
