//! A compact reverse-mode automatic-differentiation engine and neural-network
//! toolkit over [`kinet_tensor::Matrix`].
//!
//! This crate is the deep-learning substrate of the KiNETGAN reproduction.
//! It provides exactly what the paper's models need — conditional GAN
//! generators and discriminators, a VAE, PATE teacher ensembles and unrolled
//! neural-ODE blocks — with deterministic, seedable behaviour throughout:
//!
//! * [`Tape`]/[`Var`]: a dynamic computation graph built per training step,
//!   with gradients accumulated back into persistent [`Param`]s.
//! * [`layers`]: `Linear`, `BatchNorm1d`, `Dropout`, residual blocks and an
//!   `Mlp` builder.
//! * [`loss`]: BCE-with-logits, softmax cross-entropy, MSE and GAN losses.
//! * [`optim`]: SGD (with momentum) and Adam, plus global-norm clipping.
//!
//! # Quick start: fit `y = 2x` with one linear layer
//!
//! ```
//! use kinet_nn::{layers::Linear, loss, optim::{Adam, Optimizer}, Tape};
//! use kinet_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new(1, 1, &mut rng);
//! let mut opt = Adam::new(layer.params(), 0.1);
//! let x = Matrix::col_vector(&[0.0, 1.0, 2.0, 3.0]);
//! let y = Matrix::col_vector(&[0.0, 2.0, 4.0, 6.0]);
//! for _ in 0..200 {
//!     let tape = Tape::new();
//!     let out = layer.forward(&tape, tape.constant(x.clone()));
//!     let l = loss::mse(out, &y);
//!     tape.backward(l);
//!     opt.step();
//!     opt.zero_grad();
//! }
//! let w = layer.weight().value();
//! assert!((w[(0, 0)] - 2.0).abs() < 0.05);
//! ```

mod fused;
mod param;
mod tape;

pub mod layers;
pub mod loss;
pub mod optim;

pub use param::{Param, ParamSet};
pub use tape::{Tape, Var};

/// Numerically compares an analytic gradient against central finite
/// differences; intended for tests of new ops and layers.
///
/// `f` must rebuild the full forward pass from scratch (it is called many
/// times with perturbed parameter values) and return the scalar loss.
///
/// Returns the maximum absolute difference across all checked entries.
pub fn gradient_check(
    param: &Param,
    mut f: impl FnMut() -> f32,
    analytic: &kinet_tensor::Matrix,
    eps: f32,
) -> f32 {
    let mut max_diff = 0.0f32;
    let (rows, cols) = param.value().shape();
    for r in 0..rows {
        for c in 0..cols {
            let orig = param.value()[(r, c)];
            param.update(|m| m[(r, c)] = orig + eps);
            let up = f();
            param.update(|m| m[(r, c)] = orig - eps);
            let down = f();
            param.update(|m| m[(r, c)] = orig);
            let numeric = (up - down) / (2.0 * eps);
            max_diff = max_diff.max((numeric - analytic[(r, c)]).abs());
        }
    }
    max_diff
}
