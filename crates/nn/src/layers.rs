//! Neural-network building blocks: linear layers, batch normalization,
//! dropout, residual blocks and a configurable [`Mlp`].

use crate::{fused, Param, ParamSet, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::Rng;
use std::cell::RefCell;

/// Activation functions applied element-wise after a layer.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    #[default]
    Identity,
}

impl Activation {
    /// Applies the activation to a graph node.
    pub fn apply<'t>(self, x: Var<'t>) -> Var<'t> {
        match self {
            Activation::Relu => x.relu(),
            Activation::LeakyRelu(a) => x.leaky_relu(a),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Identity => x,
        }
    }

    /// Applies the activation to a plain matrix in place — the tape-free
    /// inference path. Uses the same scalar functions as [`Self::apply`],
    /// so values are identical to the tape forward pass.
    pub fn apply_matrix(self, x: &mut Matrix) {
        match self {
            Activation::Relu => x.map_inplace(|v| v.max(0.0)),
            Activation::LeakyRelu(a) => x.map_inplace(|v| if v > 0.0 { v } else { a * v }),
            Activation::Tanh => x.map_inplace(f32::tanh),
            Activation::Sigmoid => x.map_inplace(crate::tape::sigmoid_scalar),
            Activation::Identity => {}
        }
    }
}

/// A fully-connected layer `y = xW + b`.
///
/// ```
/// use kinet_nn::{layers::Linear, Tape};
/// use kinet_tensor::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(0);
/// let l = Linear::new(3, 2, &mut rng);
/// let tape = Tape::new();
/// let y = l.forward(&tape, tape.constant(Matrix::ones(4, 3)));
/// assert_eq!(y.shape(), (4, 2));
/// ```
#[derive(Clone, Debug)]
pub struct Linear {
    w: Param,
    b: Param,
}

impl Linear {
    /// Creates a layer mapping `fan_in -> fan_out` with Glorot-uniform
    /// weights and zero bias.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(Matrix::glorot_uniform(fan_in, fan_out, rng)),
            b: Param::new(Matrix::zeros(1, fan_out)),
        }
    }

    /// Creates a layer with Kaiming-normal weights (for ReLU-family nets).
    pub fn kaiming(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(Matrix::kaiming_normal(fan_in, fan_out, rng)),
            b: Param::new(Matrix::zeros(1, fan_out)),
        }
    }

    /// Applies the layer to a batch (`batch × fan_in`) as one node on
    /// `x`'s tape, bit-identical to `x.matmul(w).add_row(b)`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        fused::linear(tape, x, &self.w, &self.b)
    }

    /// The weight parameter (`fan_in × fan_out`).
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// The bias parameter (`1 × fan_out`).
    pub fn bias(&self) -> &Param {
        &self.b
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.shape().1
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.shape().0
    }

    /// This layer's trainable parameters.
    pub fn params(&self) -> ParamSet {
        [self.w.clone(), self.b.clone()].into_iter().collect()
    }
}

/// Batch normalization over the feature axis with learned scale/shift and
/// running statistics for inference.
#[derive(Debug)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: RefCell<Matrix>,
    running_var: RefCell<Matrix>,
    momentum: f32,
    eps: f32,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Matrix::ones(1, dim)),
            beta: Param::new(Matrix::zeros(1, dim)),
            running_mean: RefCell::new(Matrix::zeros(1, dim)),
            running_var: RefCell::new(Matrix::ones(1, dim)),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Applies batch norm as one tape node. In training mode the batch
    /// statistics are used and folded into the running averages; in eval
    /// mode the running statistics are used.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>, training: bool) -> Var<'t> {
        if training {
            let (y, mu, var) = fused::batch_norm_train(tape, x, &self.gamma, &self.beta, self.eps);
            let mut rm = self.running_mean.borrow_mut();
            let mut rv = self.running_var.borrow_mut();
            *rm = rm.scale(1.0 - self.momentum).add(&mu.scale(self.momentum));
            *rv = rv.scale(1.0 - self.momentum).add(&var.scale(self.momentum));
            y
        } else {
            fused::batch_norm_eval(
                tape,
                x,
                &self.gamma,
                &self.beta,
                &self.running_mean.borrow(),
                &self.running_var.borrow(),
                self.eps,
            )
        }
    }

    /// Copies of the running mean and variance (`1 × dim` each).
    pub fn running_stats(&self) -> (Matrix, Matrix) {
        (
            self.running_mean.borrow().clone(),
            self.running_var.borrow().clone(),
        )
    }

    /// This layer's trainable parameters.
    pub fn params(&self) -> ParamSet {
        [self.gamma.clone(), self.beta.clone()]
            .into_iter()
            .collect()
    }
}

/// Inverted dropout: active only in training mode.
#[derive(Clone, Copy, Debug)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer dropping activations with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1), got {p}"
        );
        Self { p }
    }

    /// Applies dropout (a no-op when `training` is false or `p == 0`).
    pub fn forward<'t>(&self, x: Var<'t>, training: bool, rng: &mut impl Rng) -> Var<'t> {
        if !training || self.p == 0.0 {
            return x;
        }
        let (r, c) = x.shape();
        x.mul_const(Matrix::dropout_mask(r, c, 1.0 - self.p, rng))
    }
}

/// A CTGAN-style residual block: `out = concat(x, relu(bn(linear(x))))`.
///
/// The concatenation grows the representation, letting later layers see both
/// raw and transformed features — the generator architecture used by CTGAN
/// and inherited by KiNETGAN.
#[derive(Debug)]
pub struct ResidualBlock {
    fc: Linear,
    bn: BatchNorm1d,
}

impl ResidualBlock {
    /// Creates a block mapping `dim_in` to `dim_in + width` features.
    pub fn new(dim_in: usize, width: usize, rng: &mut impl Rng) -> Self {
        Self {
            fc: Linear::kaiming(dim_in, width, rng),
            bn: BatchNorm1d::new(width),
        }
    }

    /// Applies the block.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>, training: bool) -> Var<'t> {
        let h = self
            .bn
            .forward(tape, self.fc.forward(tape, x), training)
            .relu();
        Var::concat_cols(&[x, h])
    }

    /// Output width given this block's input width.
    pub fn out_dim(&self) -> usize {
        self.fc.fan_in() + self.fc.fan_out()
    }

    /// This block's trainable parameters.
    pub fn params(&self) -> ParamSet {
        let mut p = self.fc.params();
        p.extend(&self.bn.params());
        p
    }
}

/// Configuration for [`Mlp`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Input width.
    pub input_dim: usize,
    /// Hidden layer widths, in order.
    pub hidden: Vec<usize>,
    /// Output width.
    pub output_dim: usize,
    /// Activation between hidden layers.
    pub activation: Activation,
    /// Dropout probability applied after each hidden activation.
    pub dropout: f32,
}

impl MlpConfig {
    /// Convenience constructor with LeakyReLU(0.2) and no dropout —
    /// the discriminator default throughout this workspace.
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: hidden.to_vec(),
            output_dim,
            activation: Activation::LeakyRelu(0.2),
            dropout: 0.0,
        }
    }

    /// Sets the activation.
    pub fn with_activation(mut self, a: Activation) -> Self {
        self.activation = a;
        self
    }

    /// Sets the dropout probability.
    pub fn with_dropout(mut self, p: f32) -> Self {
        self.dropout = p;
        self
    }
}

/// A multi-layer perceptron with configurable activation and dropout; the
/// final layer is linear (logits).
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    dropout: Dropout,
}

impl Mlp {
    /// Builds the MLP described by `config`.
    pub fn new(config: &MlpConfig, rng: &mut impl Rng) -> Self {
        let mut dims = vec![config.input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.output_dim);
        let layers = dims
            .windows(2)
            .map(|w| Linear::kaiming(w[0], w[1], rng))
            .collect::<Vec<_>>();
        Self {
            layers,
            activation: config.activation,
            dropout: Dropout::new(config.dropout),
        }
    }

    /// Forward pass; `training` controls dropout.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        x: Var<'t>,
        training: bool,
        rng: &mut impl Rng,
    ) -> Var<'t> {
        let mut h = x;
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, h);
            if i + 1 < n {
                h = self.activation.apply(h);
                h = self.dropout.forward(h, training, rng);
            }
        }
        h
    }

    /// Forward pass without dropout randomness (inference).
    ///
    /// Runs tape-free — no graph nodes, no gradient buffers — but applies
    /// exactly the same matrix and activation operations as the training
    /// forward pass, so outputs are bit-identical to it.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let n = self.layers.len();
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.weight().with_value(|w| h.matmul(w));
            h = layer.bias().with_value(|b| h.add_row_broadcast(b));
            if i + 1 < n {
                self.activation.apply_matrix(&mut h);
            }
        }
        h
    }

    /// All trainable parameters, in layer order.
    pub fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for l in &self.layers {
            set.extend(&l.params());
        }
        set
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// One generator output head: how a block of logit columns is activated,
/// and the block's width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputHead {
    /// `tanh` (a continuous column's normalized alpha).
    Tanh(usize),
    /// Gumbel-Softmax (a mode or category one-hot block).
    GumbelSoftmax(usize),
}

impl OutputHead {
    /// Number of logit columns the head covers.
    pub fn width(self) -> usize {
        match self {
            OutputHead::Tanh(w) | OutputHead::GumbelSoftmax(w) => w,
        }
    }
}

/// Applies each output head to its block of `logits` columns, in layout
/// order, as one tape node: bit-identical to slicing each block, applying
/// `tanh` or [`gumbel_softmax`] and concatenating the results, with the
/// Gumbel noise drawn per head in the same order.
///
/// # Panics
///
/// Panics if the layout's total width differs from `logits`' width, or if
/// a Gumbel-Softmax head is present and `tau <= 0`.
pub fn output_heads<'t>(
    logits: Var<'t>,
    heads: &[OutputHead],
    tau: f32,
    rng: &mut impl Rng,
) -> Var<'t> {
    fused::output_heads(logits, heads, tau, rng)
}

/// Column slices of `logits`, one per head of `heads`, in layout order —
/// the per-head pre-activation logits that conditional losses read.
pub fn head_logits<'t>(logits: Var<'t>, heads: &[OutputHead]) -> Vec<Var<'t>> {
    let mut offset = 0;
    heads
        .iter()
        .map(|h| {
            offset += h.width();
            logits.slice_cols(offset - h.width(), offset)
        })
        .collect()
}

/// Samples from `logits + Gumbel noise` with temperature `tau` via softmax —
/// the differentiable relaxation of categorical sampling used by the
/// generator output heads (soft one-hot during training; take `argmax` of
/// the result when materializing synthetic rows).
pub fn gumbel_softmax<'t>(logits: Var<'t>, tau: f32, rng: &mut impl Rng) -> Var<'t> {
    let width = logits.shape().1;
    output_heads(logits, &[OutputHead::GumbelSoftmax(width)], tau, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn linear_shapes_and_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(5, 3, &mut rng);
        assert_eq!(l.fan_in(), 5);
        assert_eq!(l.fan_out(), 3);
        assert_eq!(l.params().len(), 2);
        let tape = Tape::new();
        let y = l.forward(&tape, tape.constant(Matrix::ones(2, 5)));
        assert_eq!(y.shape(), (2, 3));
    }

    #[test]
    fn batchnorm_normalizes_in_training() {
        let mut rng = StdRng::seed_from_u64(1);
        let bn = BatchNorm1d::new(3);
        let x = Matrix::randn(64, 3, 5.0, 2.0, &mut rng);
        let tape = Tape::new();
        let y = bn.forward(&tape, tape.constant(x), true).value();
        let mu = y.mean_rows();
        let var = y.var_rows();
        for c in 0..3 {
            assert!(mu[(0, c)].abs() < 1e-3, "mean {}", mu[(0, c)]);
            assert!((var[(0, c)] - 1.0).abs() < 1e-2, "var {}", var[(0, c)]);
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(2);
        let bn = BatchNorm1d::new(2);
        let x = Matrix::randn(128, 2, 3.0, 1.0, &mut rng);
        // accumulate running stats
        for _ in 0..50 {
            let tape = Tape::new();
            let _ = bn.forward(&tape, tape.constant(x.clone()), true);
        }
        let tape = Tape::new();
        let y = bn.forward(&tape, tape.constant(x.clone()), false).value();
        // eval output should be roughly standardized too
        assert!(y.mean_rows()[(0, 0)].abs() < 0.2);
    }

    #[test]
    fn batchnorm_backward_runs() {
        let mut rng = StdRng::seed_from_u64(3);
        let bn = BatchNorm1d::new(2);
        let x = Matrix::randn(16, 2, 0.0, 1.0, &mut rng);
        let tape = Tape::new();
        let y = bn.forward(&tape, tape.constant(x), true);
        let loss = y.mse(&Matrix::zeros(16, 2));
        tape.backward(loss);
        assert_eq!(bn.params().len(), 2);
        assert!(bn.params().grad_norm().is_finite());
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Dropout::new(0.5);
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(4, 4));
        let y = d.forward(x, false, &mut rng);
        assert_eq!(y.value(), Matrix::ones(4, 4));
    }

    #[test]
    fn dropout_training_zeroes_some() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dropout::new(0.5);
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(20, 20));
        let y = d.forward(x, true, &mut rng).value();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 50, "expected many dropped activations, got {zeros}");
    }

    #[test]
    fn residual_block_concatenates() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = ResidualBlock::new(8, 4, &mut rng);
        assert_eq!(block.out_dim(), 12);
        let tape = Tape::new();
        let y = block.forward(&tape, tape.constant(Matrix::ones(3, 8)), true);
        assert_eq!(y.shape(), (3, 12));
        // the first 8 columns are the untouched input
        assert_eq!(y.value().slice_cols(0, 8), Matrix::ones(3, 8));
    }

    #[test]
    fn mlp_trains_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MlpConfig::new(2, &[16, 16], 1).with_activation(Activation::Tanh);
        let mlp = Mlp::new(&cfg, &mut rng);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let t = Matrix::col_vector(&[0.0, 1.0, 1.0, 0.0]);
        let mut opt = crate::optim::Adam::new(mlp.params(), 0.05);
        for _ in 0..400 {
            let tape = Tape::new();
            let out = mlp.forward(&tape, tape.constant(x.clone()), true, &mut rng);
            let loss = out.bce_with_logits(&t);
            tape.backward(loss);
            crate::optim::Optimizer::step(&mut opt);
            crate::optim::Optimizer::zero_grad(&mut opt);
        }
        let probs = mlp.infer(&x).map(|v| 1.0 / (1.0 + (-v).exp()));
        assert!(probs[(0, 0)] < 0.3 && probs[(3, 0)] < 0.3, "{probs:?}");
        assert!(probs[(1, 0)] > 0.7 && probs[(2, 0)] > 0.7, "{probs:?}");
    }

    #[test]
    fn gumbel_softmax_is_distribution() {
        let mut rng = StdRng::seed_from_u64(8);
        let tape = Tape::new();
        let logits = tape.constant(Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[0.0, 0.0, 5.0]]));
        let s = gumbel_softmax(logits, 0.5, &mut rng).value();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
        // strongly peaked logits usually win the sample
        assert_eq!(s.argmax_rows(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn gumbel_softmax_rejects_zero_tau() {
        let mut rng = StdRng::seed_from_u64(9);
        let tape = Tape::new();
        let logits = tape.constant(Matrix::ones(1, 2));
        let _ = gumbel_softmax(logits, 0.0, &mut rng);
    }
}
