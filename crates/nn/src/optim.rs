//! First-order optimizers operating on a [`ParamSet`].

use crate::param::ParamSet;
use kinet_tensor::Matrix;

/// A first-order optimizer over a fixed parameter set.
///
/// Implementations read the accumulated gradients from the parameters and
/// update the values in place. `zero_grad` must be called between steps (or
/// gradients will accumulate across steps, which is occasionally desirable
/// for gradient accumulation but usually a bug).
pub trait Optimizer {
    /// Applies one update step using the currently accumulated gradients.
    fn step(&mut self);

    /// Clears the gradients of every managed parameter.
    fn zero_grad(&mut self);

    /// The managed parameters.
    fn params(&self) -> &ParamSet;
}

/// Stochastic gradient descent, optionally with classical momentum.
#[derive(Debug)]
pub struct Sgd {
    params: ParamSet,
    lr: f32,
    momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(params: ParamSet, lr: f32) -> Self {
        Self::with_momentum(params, lr, 0.0)
    }

    /// SGD with momentum coefficient `momentum` (0 disables).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn with_momentum(params: ParamSet, lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        let velocity = params
            .iter()
            .map(|p| Matrix::zeros(p.shape().0, p.shape().1))
            .collect();
        Self {
            params,
            lr,
            momentum,
            velocity,
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        self.lr = lr;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        let (lr, momentum) = (self.lr, self.momentum);
        for (p, v) in self.params.iter().zip(self.velocity.iter_mut()) {
            p.apply_update(|w, g| {
                if g.has_non_finite() {
                    return;
                }
                if momentum > 0.0 {
                    for (vi, &gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        *vi = *vi * momentum + gi;
                    }
                    w.add_assign_scaled(v, -lr);
                } else {
                    w.add_assign_scaled(g, -lr);
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

/// Adam (Kingma & Ba, 2015) with bias correction and optional decoupled
/// weight decay — the optimizer used for every GAN and VAE in this
/// workspace, with the CTGAN-standard betas `(0.5, 0.9)` available through
/// [`Adam::with_betas`].
#[derive(Debug)]
pub struct Adam {
    params: ParamSet,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
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
            weight_decay: 0.0,
            t: 0,
            m,
            v,
        }
    }

    /// Enables decoupled weight decay (AdamW-style).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative, got {wd}");
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        self.lr = lr;
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
        let (lr, wd, eps) = (self.lr, self.weight_decay, self.eps);
        for ((p, m), v) in self
            .params
            .iter()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            // The whole step is one pass, in place: each element's moments,
            // decay and update run in the same order as the allocating
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
                    if wd > 0.0 {
                        *wi += (*wi * wd) * -lr;
                    }
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
    fn minimize(opt_factory: impl Fn(ParamSet) -> Box<dyn Optimizer>, steps: usize) -> f32 {
        let p = Param::new(Matrix::zeros(1, 1));
        let mut set = ParamSet::new();
        set.push(p.clone());
        let mut opt = opt_factory(set);
        for _ in 0..steps {
            let tape = Tape::new();
            let x = tape.param(&p);
            let loss = x.add_scalar(-3.0).mul(x.add_scalar(-3.0)).sum();
            tape.backward(loss);
            opt.step();
            opt.zero_grad();
        }
        p.value()[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = minimize(|s| Box::new(Sgd::new(s, 0.1)), 100);
        assert!((x - 3.0).abs() < 1e-3, "sgd converged to {x}");
    }

    #[test]
    fn momentum_accelerates() {
        let plain = minimize(|s| Box::new(Sgd::new(s, 0.01)), 40);
        let fast = minimize(|s| Box::new(Sgd::with_momentum(s, 0.01, 0.9)), 40);
        assert!(
            (fast - 3.0).abs() < (plain - 3.0).abs(),
            "momentum should be closer: {fast} vs {plain}"
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = minimize(|s| Box::new(Adam::new(s, 0.3)), 150);
        assert!((x - 3.0).abs() < 1e-2, "adam converged to {x}");
    }

    #[test]
    fn adam_with_gan_betas_converges() {
        let x = minimize(|s| Box::new(Adam::with_betas(s, 0.2, 0.5, 0.9)), 200);
        assert!((x - 3.0).abs() < 5e-2, "adam(0.5,0.9) converged to {x}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let no_decay = minimize(|s| Box::new(Adam::new(s, 0.2)), 300);
        let decay = minimize(|s| Box::new(Adam::new(s, 0.2).with_weight_decay(0.5)), 300);
        assert!(
            decay < no_decay,
            "decay {decay} should undershoot {no_decay}"
        );
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_non_positive_lr() {
        let _ = Sgd::new(ParamSet::new(), 0.0);
    }

    #[test]
    fn zero_grad_clears() {
        let p = Param::new(Matrix::zeros(1, 1));
        p.accumulate_grad(&Matrix::ones(1, 1));
        let mut set = ParamSet::new();
        set.push(p.clone());
        let mut opt = Sgd::new(set, 0.1);
        opt.zero_grad();
        assert_eq!(p.grad().sum(), 0.0);
    }
}
