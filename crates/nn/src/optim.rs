//! First-order optimizers operating on a [`ParamSet`].

use crate::param::ParamSet;
use crate::Var;
use kinet_tensor::Matrix;

/// A first-order optimizer over a fixed parameter set.
///
/// Implementations read the accumulated gradients from the parameters and
/// update the values in place. Training steps go through
/// [`Optimizer::minimize`], which runs the reverse pass, clips, steps and
/// zeroes the gradients in that order.
pub trait Optimizer {
    /// Applies one update step using the currently accumulated gradients.
    fn step(&mut self);

    /// Clears the gradients of every managed parameter.
    fn zero_grad(&mut self);

    /// The managed parameters.
    fn params(&self) -> &ParamSet;

    /// One training step on the graph that recorded `loss`: reads the
    /// loss value and, when it is finite, runs the reverse pass, clips the
    /// managed gradients to global norm `clip_norm` (0 disables), steps
    /// and zeroes the gradients. Returns the loss value.
    ///
    /// # Errors
    ///
    /// Returns the loss value itself, with no reverse pass and no step,
    /// when it is not finite, so the caller can report where training
    /// diverged.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `1 × 1` scalar.
    fn minimize(&mut self, loss: Var<'_>, clip_norm: f32) -> Result<f32, f32> {
        // An empty loss reads as NaN, which is not finite.
        let value = loss.with_value(|v| v.get(0, 0).unwrap_or(f32::NAN));
        if !value.is_finite() {
            return Err(value);
        }
        loss.tape.backward(loss);
        if clip_norm > 0.0 {
            self.params().clip_grad_norm(clip_norm);
        }
        self.step();
        self.zero_grad();
        Ok(value)
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction — the optimizer used for
/// every GAN and VAE in this workspace, with the CTGAN-standard betas `(0.5, 0.9)` available through
/// [`Adam::with_betas`].
#[derive(Debug)]
pub struct Adam {
    params: ParamSet,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the PyTorch-default betas `(0.9, 0.999)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(params: ParamSet, lr: f32) -> Self {
        Self::with_betas(params, lr, 0.9, 0.999)
    }

    /// Adam with explicit betas; GAN training conventionally uses
    /// `(0.5, 0.9)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or either beta is outside `[0, 1)`.
    pub fn with_betas(params: ParamSet, lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "betas must be in [0, 1)"
        );
        let m: Vec<Matrix> = params
            .iter()
            .map(|p| Matrix::zeros(p.shape().0, p.shape().1))
            .collect();
        let v = m.clone();
        Self {
            params,
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (inv_bc1, inv_bc2) = (1.0 / bc1, 1.0 / bc2);
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (c1, c2) = (1.0 - self.beta1, 1.0 - self.beta2);
        let (lr, eps) = (self.lr, self.eps);
        for ((p, m), v) in self
            .params
            .iter()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            // The whole step is one pass, in place: each element's moments
            // and update run in the same order as the allocating
            // formulation, so trajectories are unchanged.
            p.apply_update(|w, g| {
                // One exploded gradient must not poison the moment estimates
                // (inf -> m/v = inf -> update = inf/inf = NaN forever).
                if g.has_non_finite() {
                    return;
                }
                let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
                let params = w.as_mut_slice().iter_mut().zip(g.as_slice());
                for ((wi, &gi), (mi, vi)) in params.zip(moments) {
                    *mi = *mi * beta1 + gi * c1;
                    *vi = *vi * beta2 + (gi * gi) * c2;
                    let update = (*mi * inv_bc1) / ((*vi * inv_bc2).sqrt() + eps);
                    *wi += update * -lr;
                }
            });
        }
    }

    fn zero_grad(&mut self) {
        self.params.zero_grad();
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Param, Tape};

    /// Minimizes f(x) = (x - 3)² from x = 0 and returns the final x.
    fn fit_quadratic(opt_factory: impl Fn(ParamSet) -> Box<dyn Optimizer>, steps: usize) -> f32 {
        let p = Param::new(Matrix::zeros(1, 1));
        let mut set = ParamSet::new();
        set.push(p.clone());
        let mut opt = opt_factory(set);
        let mut tape = Tape::new();
        for _ in 0..steps {
            tape.reset();
            let x = tape.param(&p);
            let loss = x.add_scalar(-3.0).mul(x.add_scalar(-3.0)).sum();
            opt.minimize(loss, 0.0).expect("finite loss");
        }
        p.value()[(0, 0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = fit_quadratic(|s| Box::new(Adam::new(s, 0.3)), 150);
        assert!((x - 3.0).abs() < 1e-2, "adam converged to {x}");
    }

    #[test]
    fn adam_with_gan_betas_converges() {
        let x = fit_quadratic(|s| Box::new(Adam::with_betas(s, 0.2, 0.5, 0.9)), 200);
        assert!((x - 3.0).abs() < 5e-2, "adam(0.5,0.9) converged to {x}");
    }

    #[test]
    fn minimize_matches_the_hand_rolled_step_and_clips() {
        // backward, clip, step, zero by hand on one parameter; `minimize`
        // on a twin: the weights agree bit for bit and its grad ends zero.
        let a = Param::new(Matrix::zeros(1, 2));
        let b = Param::new(Matrix::zeros(1, 2));
        let mut opt_a = Adam::new([a.clone()].into_iter().collect(), 0.1);
        let mut opt_b = Adam::new([b.clone()].into_iter().collect(), 0.1);
        let target = Matrix::from_vec(1, 2, vec![3.0, -40.0]);
        for _ in 0..5 {
            let tape = Tape::new();
            let loss = tape.param(&a).mse(&target);
            tape.backward(loss);
            opt_a.params().clip_grad_norm(1.0);
            opt_a.step();
            opt_a.zero_grad();
            let tape = Tape::new();
            let loss = tape.param(&b).mse(&target);
            let value = opt_b.minimize(loss, 1.0).unwrap();
            assert!(value > 0.0);
        }
        assert_eq!(a.value(), b.value());
        assert_eq!(b.grad().sum(), 0.0);
    }

    #[test]
    fn non_finite_loss_leaves_the_parameters_alone() {
        let p = Param::new(Matrix::ones(1, 1));
        let mut opt = Adam::new([p.clone()].into_iter().collect(), 0.1);
        let tape = Tape::new();
        let loss = tape.param(&p).scale(f32::INFINITY).sum();
        assert_eq!(opt.minimize(loss, 0.0), Err(f32::INFINITY));
        assert_eq!(p.value()[(0, 0)], 1.0);
        assert_eq!(p.grad().sum(), 0.0, "no reverse pass ran");
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_non_positive_lr() {
        let _ = Adam::new(ParamSet::new(), 0.0);
    }

    #[test]
    fn zero_grad_clears() {
        let p = Param::new(Matrix::ones(1, 1));
        p.accumulate_grad(&Matrix::ones(1, 1));
        let mut set = ParamSet::new();
        set.push(p.clone());
        let mut opt = Adam::new(set, 0.1);
        opt.zero_grad();
        assert_eq!(p.grad().sum(), 0.0);
    }
}
