//! Fused layer nodes: one tape node per `Linear`, per `BatchNorm1d` and per
//! generator output-head pass.
//!
//! Each layer is also expressible as a chain of primitive `Var` nodes
//! (`matmul → add_row`; `mean_rows → sub_row → mul → mean_rows →
//! add_scalar → sqrt → div_row → mul_row → add_row`; `slice_cols → tanh |
//! add_const → scale → softmax → concat_cols`). A fused node replays that
//! chain's f32 operations element by element, in the same order, in both
//! its forward and its hand-written backward, so values and gradients are
//! bit-identical to the chain while the tape holds one node and one
//! gradient buffer instead of up to eleven. `tests/fused_ops.rs` builds
//! each chain and compares bits.
//!
//! Where the chain accumulates an intermediate gradient into a freshly
//! zeroed buffer, the replay keeps that `0.0 + x` step. It can only turn a
//! `-0.0` into `+0.0`, but keeping it makes the identity hold by
//! construction rather than by an argument about signed zeros.
//!
//! Parameters are read in place (never cloned onto the tape), and a
//! parameter the tape does not train — any on a [`Tape::no_grad`] tape,
//! those listed in [`Tape::frozen`] — costs no gradient work. Weight and
//! bias gradients are accumulated straight into the [`Param`]: the chain
//! stages each in its parameter node's zeroed buffer and then adds it in,
//! which gives the same bits because a sum that starts at `+0.0` is never
//! `-0.0`.

use crate::layers::OutputHead;
use crate::tape::{
    acc, acc_col_sums, acc_col_sums_prod, mean_rows_into, softmax_row_in_place, Node, Op,
};
use crate::{Param, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use rand::Rng;
use std::rc::Rc;

/// A parameter operand of a fused node: the handle and whether this tape
/// computes its gradient.
pub(crate) struct ParamOperand {
    param: Param,
    pub(crate) trains: bool,
}

impl ParamOperand {
    fn new(tape: &Tape, param: &Param) -> Self {
        Self {
            param: param.clone(),
            trains: tape.trains(param),
        }
    }
}

/// `y = x·W + b`.
pub(crate) struct LinearOp {
    pub(crate) x: usize,
    pub(crate) w: ParamOperand,
    pub(crate) b: ParamOperand,
}

/// The statistics a batch-norm node normalizes with.
enum Stats {
    /// Train mode: the centered batch `x − μ` and the `1 × cols` batch
    /// std `sqrt(var + eps)`.
    Batch { centered: Matrix, std: Matrix },
    /// Eval mode: the `1 × cols` `1 / sqrt(running_var + eps)`.
    Running { inv_std: Matrix },
}

/// `y = x̂ ⊙ γ + β`, with `x̂` normalized by [`Stats`].
pub(crate) struct BatchNormOp {
    pub(crate) x: usize,
    pub(crate) gamma: ParamOperand,
    pub(crate) beta: ParamOperand,
    /// The normalized input `x̂`.
    xn: Matrix,
    stats: Stats,
}

impl BatchNormOp {
    /// Hands the matrices this op holds to `spare`, in the reverse of the
    /// order they were taken.
    pub(crate) fn release(self, spare: &mut Vec<Vec<f32>>) {
        spare.push(self.xn.into_vec());
        match self.stats {
            Stats::Batch { centered, std } => {
                spare.push(std.into_vec());
                spare.push(centered.into_vec());
            }
            Stats::Running { inv_std } => spare.push(inv_std.into_vec()),
        }
    }
}

/// The generator output heads over one logits node.
pub(crate) struct HeadsOp {
    pub(crate) x: usize,
    heads: Rc<[OutputHead]>,
    /// `1 / tau`, the Gumbel-Softmax scale.
    inv_tau: f32,
}

/// Checks that a layer was handed `x`'s own tape.
fn same_tape(tape: &Tape, x: Var<'_>) {
    assert!(
        std::ptr::eq(tape, x.tape),
        "layer input lives on a different tape"
    );
}

/// Adds the `1 × cols` row `b` to every row of `m` in place (`m + b`, as
/// `Matrix::add_row_broadcast`).
fn add_row_in_place(m: &mut Matrix, b: &Matrix) {
    assert_eq!(b.shape(), (1, m.cols()), "bias shape mismatch");
    let bv = b.as_slice();
    for r in 0..m.rows() {
        for (o, &bc) in m.row_mut(r).iter_mut().zip(bv) {
            *o += bc;
        }
    }
}

/// Records `x·W + b` as one node.
pub(crate) fn linear<'t>(tape: &'t Tape, x: Var<'t>, w: &Param, b: &Param) -> Var<'t> {
    same_tape(tape, x);
    let mut value = tape.buffer(x.shape().0, w.shape().1);
    tape.with_value(x.idx, |xv| {
        w.with_value(|wv| xv.matmul_into(wv, &mut value))
    });
    b.with_value(|bv| add_row_in_place(&mut value, bv));
    let (w, b) = (ParamOperand::new(tape, w), ParamOperand::new(tape, b));
    let op = if x.requires_grad() || w.trains || b.trains {
        Op::Linear(LinearOp { x: x.idx, w, b })
    } else {
        Op::Leaf
    };
    tape.push_var(value, op)
}

/// The reverse of [`linear`]: the chain's `add_row` (bias), then its
/// `matmul` (input, then weight).
pub(crate) fn linear_backward(head: &mut [Node], g: &Matrix, op: &LinearOp) {
    if op.b.trains {
        op.b.param.with_grad_mut(|gb| acc_col_sums(gb, g, 1.0));
    }
    op.w.param
        .with_value(|wv| acc(head, op.x, |gx| gx.matmul_nt_acc(g, wv)));
    if op.w.trains {
        op.w.param
            .with_grad_mut(|gw| gw.matmul_tn_acc(&head[op.x].value, g));
    }
}

/// Records train-mode batch norm as one node, handing the batch mean and
/// variance (`1 × cols`) to `update_running` for the running statistics.
pub(crate) fn batch_norm_train<'t>(
    tape: &'t Tape,
    x: Var<'t>,
    gamma: &Param,
    beta: &Param,
    eps: f32,
    update_running: impl FnOnce(&Matrix, &Matrix),
) -> Var<'t> {
    same_tape(tape, x);
    let (rows, cols) = x.shape();
    let mut mu = tape.zero_buffer(1, cols);
    let mut centered = tape.buffer(rows, cols);
    let mut var = tape.zero_buffer(1, cols);
    tape.with_value(x.idx, |xv| {
        mean_rows_into(xv, &mut mu);
        // `xv.sub_row_broadcast(&mu)`.
        for r in 0..rows {
            let src = xv.row(r).iter().zip(mu.as_slice());
            for (o, (&v, &m)) in centered.row_mut(r).iter_mut().zip(src) {
                *o = v - m;
            }
        }
        // `centered.mul(centered).mean_rows()` without the squared matrix.
        for r in 0..rows {
            for (s, &c) in var.as_mut_slice().iter_mut().zip(centered.row(r)) {
                *s += c * c;
            }
        }
        var.scale_inplace(1.0 / rows as f32);
    });
    update_running(&mu, &var);
    tape.recycle(mu);
    let mut std = var;
    std.map_inplace(|v| (v + eps).max(0.0).sqrt());
    let mut xn = tape.buffer(rows, cols);
    for r in 0..rows {
        let src = centered.row(r).iter().zip(std.as_slice());
        for (v, (&c, &s)) in xn.row_mut(r).iter_mut().zip(src) {
            *v = c / s;
        }
    }
    let stats = Stats::Batch { centered, std };
    batch_norm_node(tape, x, gamma, beta, xn, stats)
}

/// Records eval-mode batch norm (running statistics) as one node.
pub(crate) fn batch_norm_eval<'t>(
    tape: &'t Tape,
    x: Var<'t>,
    gamma: &Param,
    beta: &Param,
    running_mean: &Matrix,
    running_var: &Matrix,
    eps: f32,
) -> Var<'t> {
    same_tape(tape, x);
    // The chain adds the zero-padded `-μ` rows and multiplies by a ones
    // matrix scaled by `1 / std`; both pads are kept as `0.0 + …`/`1.0 * …`.
    let mut neg_mean = tape.copy_of(running_mean);
    neg_mean.map_inplace(|m| 0.0 + -m);
    let mut inv_std = tape.copy_of(running_var);
    inv_std.map_inplace(|v| 1.0 * (1.0 / (v + eps).sqrt()));
    let (rows, cols) = x.shape();
    let mut xn = tape.buffer(rows, cols);
    tape.with_value(x.idx, |xv| {
        for r in 0..rows {
            let stats = neg_mean.as_slice().iter().zip(inv_std.as_slice());
            for ((v, &xi), (&m, &s)) in xn.row_mut(r).iter_mut().zip(xv.row(r)).zip(stats) {
                *v = (xi + m) * s;
            }
        }
    });
    tape.recycle(neg_mean);
    batch_norm_node(tape, x, gamma, beta, xn, Stats::Running { inv_std })
}

/// Pushes the batch-norm node `x̂ ⊙ γ + β` over the normalized input.
fn batch_norm_node<'t>(
    tape: &'t Tape,
    x: Var<'t>,
    gamma: &Param,
    beta: &Param,
    xn: Matrix,
    stats: Stats,
) -> Var<'t> {
    let value = affine(tape, &xn, gamma, beta);
    let (gamma, beta) = (
        ParamOperand::new(tape, gamma),
        ParamOperand::new(tape, beta),
    );
    let op = BatchNormOp {
        x: x.idx,
        gamma,
        beta,
        xn,
        stats,
    };
    let op = if x.requires_grad() || op.gamma.trains || op.beta.trains {
        Op::BatchNorm(Box::new(op))
    } else {
        op.release(&mut tape.spare_list());
        Op::Leaf
    };
    tape.push_var(value, op)
}

/// `x̂ ⊙ γ + β` with row broadcasting (the chain's `mul_row → add_row`).
fn affine(tape: &Tape, xn: &Matrix, gamma: &Param, beta: &Param) -> Matrix {
    let mut y = tape.copy_of(xn);
    gamma.with_value(|gv| {
        beta.with_value(|bv| {
            assert_eq!(gv.shape(), (1, y.cols()), "gamma shape mismatch");
            assert_eq!(bv.shape(), (1, y.cols()), "beta shape mismatch");
            for r in 0..y.rows() {
                for ((v, &ga), &be) in y
                    .row_mut(r)
                    .iter_mut()
                    .zip(gv.as_slice())
                    .zip(bv.as_slice())
                {
                    *v = *v * ga + be;
                }
            }
        })
    });
    y
}

/// The reverse of [`batch_norm_train`]/[`batch_norm_eval`]: `β` and `γ`
/// first (the chain's `add_row` and `mul_row`), then the input.
pub(crate) fn batch_norm_backward(head: &mut [Node], g: &Matrix, op: &BatchNormOp) {
    if op.beta.trains {
        op.beta.param.with_grad_mut(|gb| acc_col_sums(gb, g, 1.0));
    }
    if op.gamma.trains {
        op.gamma
            .param
            .with_grad_mut(|gg| acc_col_sums_prod(gg, g, &op.xn, 1.0));
    }
    if head[op.x].grad.is_none() {
        return;
    }
    op.gamma.param.with_value(|gv| {
        let gamma = gv.as_slice();
        match &op.stats {
            Stats::Batch { centered, std } => {
                acc(head, op.x, |gx| {
                    batch_input_grad(gx, g, &op.xn, centered, std.as_slice(), gamma);
                });
            }
            Stats::Running { inv_std } => acc(head, op.x, |gx| {
                // mul_row → mul_const → add_const.
                let inv_std = inv_std.as_slice();
                for r in 0..g.rows() {
                    let cols = gx.row_mut(r).iter_mut().zip(g.row(r));
                    for ((o, &gi), (&ga, &s)) in cols.zip(gamma.iter().zip(inv_std)) {
                        *o += 0.0 + (0.0 + gi * ga) * s;
                    }
                }
            }),
        }
    });
}

/// Feature columns [`batch_input_grad`] finishes together: wide enough
/// for the row loops to vectorize, small enough to live on the stack.
const BN_BLOCK: usize = 16;

/// Train-mode input gradient: the chain's `div_row → sqrt → add_scalar →
/// mean_rows → mul → sub_row → mean_rows` backward, replayed per element.
/// Every step reduces or broadcasts along rows only, so each feature
/// column is finished on its own (rows ascending, as the chain summed);
/// columns are taken [`BN_BLOCK`] at a time so every pass reads rows
/// contiguously.
fn batch_input_grad(
    gx: &mut Matrix,
    g: &Matrix,
    xn: &Matrix,
    centered: &Matrix,
    std: &[f32],
    gamma: &[f32],
) {
    let rows = g.rows();
    let inv = 1.0 / rows as f32;
    for c0 in (0..gamma.len()).step_by(BN_BLOCK) {
        let c1 = (c0 + BN_BLOCK).min(gamma.len());
        let (ga, sd) = (&gamma[c0..c1], &std[c0..c1]);
        // div_row backward, the std side: `-Σ_rows (dx̂ ⊙ x̂) / std`, with
        // `dx̂ = 0.0 + g ⊙ γ` (mul_row backward).
        let mut sum = [0.0f32; BN_BLOCK];
        for r in 0..rows {
            let cols = g.row(r)[c0..c1].iter().zip(&xn.row(r)[c0..c1]);
            for ((s, (&gi, &xi)), (&gaj, &sdj)) in sum.iter_mut().zip(cols).zip(ga.iter().zip(sd)) {
                *s += ((0.0 + gi * gaj) * xi) / sdj;
            }
        }
        // sqrt → add_scalar → mean_rows: the gradient of each squared
        // centered entry of the column.
        let mut dsq = [0.0f32; BN_BLOCK];
        for ((d, &s), &sdj) in dsq.iter_mut().zip(&sum).zip(sd) {
            let dstd = 0.0 + -s;
            let dvar = 0.0 + (0.0 + dstd * 0.5 / sdj.max(1e-6));
            *d = 0.0 + dvar * inv;
        }
        // The centered entry's gradient: div_row's input side, then `mul`'s
        // two operands (the same node twice). It goes into the input (the
        // sub_row's input side) and into the column sum that is μ's
        // gradient (its other side).
        let mut sum = [0.0f32; BN_BLOCK];
        for r in 0..rows {
            let src = g.row(r)[c0..c1].iter().zip(&centered.row(r)[c0..c1]);
            let dst = gx.row_mut(r)[c0..c1].iter_mut().zip(sum.iter_mut());
            for (((o, s), (&gi, &cen)), ((&gaj, &sdj), &dsqj)) in
                dst.zip(src).zip(ga.iter().zip(sd).zip(&dsq))
            {
                let mut d = 0.0 + (0.0 + gi * gaj) / sdj;
                d += dsqj * cen;
                d += dsqj * cen;
                *o += d;
                *s += d;
            }
        }
        // mean_rows backward of μ's gradient into the input.
        for r in 0..rows {
            for (o, &s) in gx.row_mut(r)[c0..c1].iter_mut().zip(&sum) {
                *o += (0.0 + -s) * inv;
            }
        }
    }
}

/// Records the output heads over `logits` as one node, drawing each
/// Gumbel-Softmax head's noise in head order.
pub(crate) fn output_heads<'t>(
    logits: Var<'t>,
    heads: &[OutputHead],
    tau: f32,
    rng: &mut impl Rng,
) -> Var<'t> {
    let tape = logits.tape;
    let width: usize = heads.iter().map(|h| h.width()).sum();
    let inv_tau = 1.0 / tau;
    let value = tape.with_value(logits.idx, |lv| {
        assert_eq!(
            lv.cols(),
            width,
            "head layout covers {width} columns, logits have {}",
            lv.cols()
        );
        let rows = lv.rows();
        let mut out = tape.buffer(rows, width);
        let mut off = 0;
        for &head in heads {
            let w = head.width();
            match head {
                OutputHead::Tanh(_) => {
                    for r in 0..rows {
                        let src = &lv.row(r)[off..off + w];
                        for (o, &l) in out.row_mut(r)[off..off + w].iter_mut().zip(src) {
                            *o = l.tanh();
                        }
                    }
                }
                OutputHead::GumbelSoftmax(_) => {
                    assert!(
                        tau > 0.0,
                        "gumbel-softmax temperature must be positive, got {tau}"
                    );
                    let mut noise = tape.buffer(rows, w);
                    noise.gumbel_into(rng);
                    for r in 0..rows {
                        let block = &mut out.row_mut(r)[off..off + w];
                        let src = lv.row(r)[off..off + w].iter().zip(noise.row(r));
                        for (o, (&l, &n)) in block.iter_mut().zip(src) {
                            *o = (l + n) * inv_tau;
                        }
                        softmax_row_in_place(block);
                    }
                    tape.recycle(noise);
                }
            }
            off += w;
        }
        out
    });
    let op = if logits.requires_grad() {
        Op::Heads(HeadsOp {
            x: logits.idx,
            heads: heads.into(),
            inv_tau,
        })
    } else {
        Op::Leaf
    };
    tape.push_var(value, op)
}

/// The reverse of [`output_heads`]: per head, `tanh` backward, or
/// `softmax → scale → add_const` backward, into the logits' columns.
pub(crate) fn heads_backward(head: &mut [Node], g: &Matrix, out: &Matrix, op: &HeadsOp) {
    acc(head, op.x, |gx| {
        let mut off = 0;
        for &h in op.heads.iter() {
            let w = h.width();
            for r in 0..g.rows() {
                let grow = &g.row(r)[off..off + w];
                let orow = &out.row(r)[off..off + w];
                let dst = &mut gx.row_mut(r)[off..off + w];
                match h {
                    OutputHead::Tanh(_) => {
                        for ((o, &gi), &oi) in dst.iter_mut().zip(grow).zip(orow) {
                            *o += (0.0 + gi) * (1.0 - oi * oi);
                        }
                    }
                    OutputHead::GumbelSoftmax(_) => {
                        let dot: f32 = orow.iter().zip(grow).map(|(&o, &gi)| o * gi).sum();
                        for ((o, &gi), &oi) in dst.iter_mut().zip(grow).zip(orow) {
                            let d_scaled = 0.0 + oi * (gi - dot);
                            *o += 0.0 + d_scaled * op.inv_tau;
                        }
                    }
                }
            }
            off += w;
        }
    });
}
