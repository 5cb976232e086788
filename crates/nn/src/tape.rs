//! The dynamic computation graph: [`Tape`], [`Var`] and the reverse pass.
//!
//! A [`Tape`] records every forward operation as a node; [`Tape::backward`]
//! walks the nodes in reverse creation order (a valid topological order,
//! since operands always precede results) and accumulates gradients, finally
//! writing parameter gradients back into their [`Param`] cells. Only nodes
//! that depend on a parameter carry a gradient; a [`Tape::no_grad`] tape
//! records values alone.
//!
//! Tapes are intended to be short-lived: build one per training step, run
//! `backward`, drop it. The layers in [`crate::layers`] record one fused
//! node each (see the `fused` module).

use crate::fused::{self, BatchNormOp, HeadsOp, LinearOp};
use crate::param::{Param, ParamSet};
use kinet_tensor::Matrix;
use std::cell::RefCell;
use std::rc::Rc;

pub(crate) enum Op {
    Leaf,
    Param(Param),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Neg(usize),
    Matmul(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    AddConst(usize),
    MulConst(usize, Matrix),
    AddRow(usize, usize),
    SubRow(usize, usize),
    MulRow(usize, usize),
    DivRow(usize, usize),
    MeanRows(usize),
    Sum(usize),
    Mean(usize),
    Relu(usize),
    LeakyRelu(usize, f32),
    Tanh(usize),
    Sigmoid(usize),
    Exp(usize),
    Ln(usize),
    Sqrt(usize),
    Softmax(usize),
    ConcatCols(Rc<Vec<usize>>),
    SliceCols(usize, usize, usize),
    Reshape(usize),
    BceWithLogits(usize, Rc<Matrix>),
    SoftmaxCrossEntropy(usize, Rc<Matrix>),
    Mse(usize, Rc<Matrix>),
    Linear(LinearOp),
    BatchNorm(Box<BatchNormOp>),
    Heads(HeadsOp),
}

impl Op {
    /// The requires-grad rule: a node with this op requires grad when it
    /// is a parameter or one of its operands requires grad.
    fn requires_grad(&self, nodes: &[Node]) -> bool {
        let rg = |i: &usize| nodes[*i].grad.is_some();
        match self {
            Op::Leaf => false,
            Op::Param(_) => true,
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Matmul(a, b)
            | Op::AddRow(a, b)
            | Op::SubRow(a, b)
            | Op::MulRow(a, b)
            | Op::DivRow(a, b) => rg(a) || rg(b),
            Op::Neg(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::AddConst(a)
            | Op::MulConst(a, _)
            | Op::MeanRows(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Sqrt(a)
            | Op::Softmax(a)
            | Op::SliceCols(a, _, _)
            | Op::Reshape(a)
            | Op::BceWithLogits(a, _)
            | Op::SoftmaxCrossEntropy(a, _)
            | Op::Mse(a, _) => rg(a),
            Op::ConcatCols(parents) => parents.iter().any(rg),
            Op::Linear(op) => rg(&op.x) || op.w.trains || op.b.trains,
            Op::BatchNorm(op) => rg(&op.x) || op.gamma.trains || op.beta.trains,
            Op::Heads(op) => rg(&op.x),
        }
    }
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    /// The gradient buffer, present exactly when the node requires grad:
    /// it is a parameter, or one of its operands requires grad. Constants
    /// and everything computed only from constants carry `None`, so the
    /// reverse pass neither allocates nor fills gradients for them.
    pub(crate) grad: Option<Matrix>,
    op: Op,
}

/// A computation graph recording forward operations for reverse-mode
/// differentiation.
///
/// See the [crate-level docs](crate) for an end-to-end example.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// `false` on a [`Tape::no_grad`] tape: parameters enter as constants.
    grad_enabled: bool,
    /// Parameters that enter as constants on this tape ([`Tape::frozen`]).
    frozen: Vec<Param>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// A handle to a node on a [`Tape`].
///
/// `Var` is `Copy`; all arithmetic methods allocate a new node and return a
/// new handle. Mixing `Var`s from different tapes is a logic error and will
/// panic (on an index out of bounds) or silently corrupt gradients; each
/// training step should use exactly one tape.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    pub(crate) tape: &'t Tape,
    pub(crate) idx: usize,
}

impl Tape {
    /// Creates an empty tape that records gradients for every parameter
    /// registered on it.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::default(),
            grad_enabled: true,
            frozen: Vec::new(),
        }
    }

    /// Creates an empty value-only tape: parameters enter without
    /// gradients, so no node requires grad and [`Tape::backward`] is a
    /// no-op. Every forward value is computed by the same code as on a
    /// [`Tape::new`] tape, so outputs are bit-identical — the tape for a
    /// forward pass whose gradients would be thrown away (a discriminator
    /// step's generator batch, sampling).
    pub fn no_grad() -> Self {
        Self {
            nodes: RefCell::default(),
            grad_enabled: false,
            frozen: Vec::new(),
        }
    }

    /// Creates an empty tape on which every parameter in `frozen` enters
    /// as a constant. Gradients still flow *through* a frozen layer into
    /// its input, but none is computed for its parameters — the tape for a
    /// generator step, whose discriminator weights the step leaves alone.
    /// Every other parameter trains as on a [`Tape::new`] tape, with
    /// bit-identical gradients.
    pub fn frozen(frozen: &ParamSet) -> Self {
        Self {
            nodes: RefCell::default(),
            grad_enabled: true,
            frozen: frozen.iter().cloned().collect(),
        }
    }

    /// `true` when [`Tape::backward`] computes `p`'s gradient on this tape.
    pub(crate) fn trains(&self, p: &Param) -> bool {
        self.grad_enabled && !self.frozen.iter().any(|f| f.same_as(p))
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when no node has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Pushes a node and returns its handle.
    pub(crate) fn push_var(&self, value: Matrix, op: Op) -> Var<'_> {
        Var {
            tape: self,
            idx: self.push(value, op),
        }
    }

    fn push(&self, value: Matrix, op: Op) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        let grad = op
            .requires_grad(&nodes)
            .then(|| Matrix::zeros(value.rows(), value.cols()));
        nodes.push(Node { value, grad, op });
        nodes.len() - 1
    }

    fn value_of(&self, idx: usize) -> Matrix {
        // kinet-lint: allow(transitive-allocation) — accessor clone behind Var::value; backward reads node storage in place — on the tape hot cone only via the `.row()`/`.value()` name-collision edges (the tape walks Matrix rows in place)
        self.nodes.borrow()[idx].value.clone()
    }

    /// Computes a new value from one node's value without cloning it.
    pub(crate) fn with_value<R>(&self, idx: usize, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.nodes.borrow()[idx].value)
    }

    /// Computes a new value from two nodes' values without cloning them.
    fn with_values<R>(&self, a: usize, b: usize, f: impl FnOnce(&Matrix, &Matrix) -> R) -> R {
        let nodes = self.nodes.borrow();
        f(&nodes[a].value, &nodes[b].value)
    }

    /// Registers a constant (non-differentiable) input.
    pub fn constant(&self, value: Matrix) -> Var<'_> {
        Var {
            tape: self,
            idx: self.push(value, Op::Leaf),
        }
    }

    /// Registers a trainable parameter; its gradient is filled in by
    /// [`Tape::backward`]. On a [`Tape::no_grad`] tape, or when the tape
    /// was built [`Tape::frozen`] over it, the parameter's current value
    /// enters as a constant.
    pub fn param(&self, p: &Param) -> Var<'_> {
        let op = if self.trains(p) {
            Op::Param(p.clone())
        } else {
            Op::Leaf
        };
        Var {
            tape: self,
            idx: self.push(p.value(), op),
        }
    }

    /// Runs the reverse pass from `loss`, which must be a `1 × 1` scalar
    /// node, accumulating gradients into every [`Param`] on the tape.
    ///
    /// The pass is allocation-free: every gradient buffer was preallocated
    /// when its node was pushed, and each rule accumulates directly into
    /// the parents' buffers through fused in-place kernels
    /// (`add_assign`/`add_assign_zip_map`/`matmul_*_acc`). Nodes that do
    /// not require grad are skipped and never accumulated into, so no
    /// gradient is computed for an input no parameter depends on. Summation
    /// order per element is unchanged, so fixed-seed trajectories are
    /// preserved.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward(&self, loss: Var<'_>) {
        let mut nodes = self.nodes.borrow_mut();
        {
            let l = &mut nodes[loss.idx];
            assert_eq!(
                l.value.shape(),
                (1, 1),
                "backward target must be a 1x1 scalar"
            );
            match l.grad.as_mut() {
                Some(g) => g.as_mut_slice().fill(1.0),
                None => return,
            }
        }
        for i in (0..nodes.len()).rev() {
            // Operands always precede results, so `head` holds every parent
            // of `node` and the borrows are disjoint.
            let (head, tail) = nodes.split_at_mut(i);
            let node = &tail[0];
            let Some(g) = &node.grad else {
                continue;
            };
            if g.as_slice().iter().all(|&v| v == 0.0) {
                continue;
            }
            let out = &node.value;
            match &node.op {
                Op::Leaf => {}
                Op::Param(p) => p.accumulate_grad(g),
                Op::Add(a, b) => {
                    acc(head, *a, |ga| ga.add_assign(g));
                    acc(head, *b, |gb| gb.add_assign(g));
                }
                Op::Sub(a, b) => {
                    acc(head, *a, |ga| ga.add_assign(g));
                    acc(head, *b, |gb| gb.add_assign_scaled(g, -1.0));
                }
                Op::Mul(a, b) => {
                    acc_with(head, *a, *b, |ga, vb| {
                        ga.add_assign_zip_map(g, vb, |gi, vi| gi * vi)
                    });
                    acc_with(head, *b, *a, |gb, va| {
                        gb.add_assign_zip_map(g, va, |gi, vi| gi * vi)
                    });
                }
                Op::Div(a, b) => {
                    acc_with(head, *a, *b, |ga, vb| {
                        ga.add_assign_zip_map(g, vb, |gi, vi| gi / vi)
                    });
                    acc_with(head, *b, *b, |gb, vb| {
                        gb.add_assign_zip3_map(g, out, vb, |gi, oi, vi| -((gi * oi) / vi))
                    });
                }
                Op::Neg(a) => acc(head, *a, |ga| ga.add_assign_scaled(g, -1.0)),
                Op::Matmul(a, b) => {
                    acc_with(head, *a, *b, |ga, vb| ga.matmul_nt_acc(g, vb));
                    acc_with(head, *b, *a, |gb, va| gb.matmul_tn_acc(va, g));
                }
                Op::Scale(a, s) => acc(head, *a, |ga| ga.add_assign_scaled(g, *s)),
                Op::AddScalar(a) | Op::AddConst(a) => acc(head, *a, |ga| ga.add_assign(g)),
                Op::MulConst(a, c) => {
                    acc(head, *a, |ga| ga.add_assign_zip_map(g, c, |gi, ci| gi * ci));
                }
                Op::Linear(op) => fused::linear_backward(head, g, op),
                Op::BatchNorm(op) => fused::batch_norm_backward(head, g, op),
                Op::Heads(op) => fused::heads_backward(head, g, out, op),
                Op::AddRow(a, r) => {
                    acc(head, *a, |ga| ga.add_assign(g));
                    acc(head, *r, |gr| acc_col_sums(gr, g, 1.0));
                }
                Op::SubRow(a, r) => {
                    acc(head, *a, |ga| ga.add_assign(g));
                    acc(head, *r, |gr| acc_col_sums(gr, g, -1.0));
                }
                Op::MulRow(a, r) => {
                    acc_with(head, *a, *r, |ga, vr| {
                        acc_row_broadcast(ga, g, vr, |gi, ri| gi * ri)
                    });
                    acc_with(head, *r, *a, |gr, va| acc_col_sums_prod(gr, g, va, 1.0));
                }
                Op::DivRow(a, r) => {
                    acc_with(head, *a, *r, |ga, vr| {
                        acc_row_broadcast(ga, g, vr, |gi, ri| gi / ri)
                    });
                    acc_with(head, *r, *r, |gr, vr| {
                        // d/dr = -Σ_rows (g ⊙ out) / r, column-wise.
                        for c in 0..g.cols() {
                            let rv = vr.as_slice()[c];
                            let mut sum = 0.0f32;
                            for row in 0..g.rows() {
                                let idx = row * g.cols() + c;
                                sum += (g.as_slice()[idx] * out.as_slice()[idx]) / rv;
                            }
                            gr.as_mut_slice()[c] += -sum;
                        }
                    });
                }
                Op::MeanRows(a) => acc(head, *a, |ga| {
                    let inv = 1.0 / ga.rows() as f32;
                    let gs = g.as_slice();
                    for r in 0..ga.rows() {
                        for (o, &gv) in ga.row_mut(r).iter_mut().zip(gs) {
                            *o += gv * inv;
                        }
                    }
                }),
                Op::Sum(a) => acc(head, *a, |ga| {
                    let gv = g[(0, 0)];
                    for o in ga.as_mut_slice() {
                        *o += gv;
                    }
                }),
                Op::Mean(a) => acc(head, *a, |ga| {
                    let gv = g[(0, 0)] / ga.len() as f32;
                    for o in ga.as_mut_slice() {
                        *o += gv;
                    }
                }),
                Op::Relu(a) => acc_with(head, *a, *a, |ga, va| {
                    ga.add_assign_zip_map(g, va, |gi, vi| if vi > 0.0 { gi } else { 0.0 })
                }),
                Op::LeakyRelu(a, alpha) => {
                    let alpha = *alpha;
                    acc_with(head, *a, *a, |ga, va| {
                        ga.add_assign_zip_map(
                            g,
                            va,
                            |gi, vi| if vi > 0.0 { gi } else { gi * alpha },
                        )
                    });
                }
                Op::Tanh(a) => acc(head, *a, |ga| {
                    ga.add_assign_zip_map(g, out, |gi, oi| gi * (1.0 - oi * oi))
                }),
                Op::Sigmoid(a) => acc(head, *a, |ga| {
                    ga.add_assign_zip_map(g, out, |gi, oi| gi * oi * (1.0 - oi))
                }),
                Op::Exp(a) => acc(head, *a, |ga| {
                    ga.add_assign_zip_map(g, out, |gi, oi| gi * oi)
                }),
                Op::Ln(a) => acc_with(head, *a, *a, |ga, va| {
                    ga.add_assign_zip_map(g, va, |gi, vi| gi / vi.max(LN_EPS))
                }),
                Op::Sqrt(a) => acc(head, *a, |ga| {
                    ga.add_assign_zip_map(g, out, |gi, oi| gi * 0.5 / oi.max(1e-6))
                }),
                Op::Softmax(a) => acc(head, *a, |ga| {
                    for r in 0..out.rows() {
                        let orow = out.row(r);
                        let grow = g.row(r);
                        let dot: f32 = orow.iter().zip(grow).map(|(&o, &gi)| o * gi).sum();
                        for (c, o) in ga.row_mut(r).iter_mut().enumerate() {
                            *o += orow[c] * (grow[c] - dot);
                        }
                    }
                }),
                Op::ConcatCols(parents) => {
                    let mut offset = 0;
                    for &p in parents.iter() {
                        acc_with(head, p, p, |pg, pv| {
                            let w = pv.cols();
                            for r in 0..pg.rows() {
                                let gsrc = &g.row(r)[offset..offset + w];
                                for (o, &gv) in pg.row_mut(r).iter_mut().zip(gsrc) {
                                    *o += gv;
                                }
                            }
                        });
                        offset += head[p].value.cols();
                    }
                }
                Op::SliceCols(a, start, end) => acc(head, *a, |ga| {
                    for r in 0..ga.rows() {
                        let dst = &mut ga.row_mut(r)[*start..*end];
                        for (o, &gv) in dst.iter_mut().zip(g.row(r)) {
                            *o += gv;
                        }
                    }
                }),
                Op::Reshape(a) => acc(head, *a, |ga| {
                    // Same element order, different shape: accumulate
                    // buffer-to-buffer.
                    for (o, &gv) in ga.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        *o += gv;
                    }
                }),
                Op::BceWithLogits(a, target) => {
                    let gv = g[(0, 0)];
                    acc_with(head, *a, *a, |ga, va| {
                        let n = va.len() as f32;
                        ga.add_assign_zip_map(va, target, |x, t| (sigmoid_scalar(x) - t) * gv / n)
                    });
                }
                Op::SoftmaxCrossEntropy(a, target) => {
                    let gv = g[(0, 0)];
                    acc_with(head, *a, *a, |ga, va| {
                        let n = va.rows() as f32;
                        for r in 0..va.rows() {
                            let varow = va.row(r);
                            let (max, sum) = softmax_row_max_sum(varow);
                            let trow = target.row(r);
                            for (c, o) in ga.row_mut(r).iter_mut().enumerate() {
                                let p = (varow[c] - max).exp() / sum;
                                *o += (p - trow[c]) * gv / n;
                            }
                        }
                    });
                }
                Op::Mse(a, target) => {
                    let gv = g[(0, 0)];
                    acc_with(head, *a, *a, |ga, va| {
                        let n = va.len() as f32;
                        ga.add_assign_zip_map(va, target, |x, t| 2.0 * (x - t) * gv / n)
                    });
                }
            }
        }
    }
}

/// Runs `f` on `nodes[i]`'s gradient buffer; a no-op when that node does
/// not require grad.
pub(crate) fn acc(nodes: &mut [Node], i: usize, f: impl FnOnce(&mut Matrix)) {
    if let Some(grad) = nodes.get_mut(i).and_then(|n| n.grad.as_mut()) {
        f(grad);
    }
}

/// Runs `f` on `nodes[gi]`'s gradient buffer (mutable) and `nodes[vi]`'s
/// value (shared); a no-op when `nodes[gi]` does not require grad.
/// `gi == vi` is legal because the fields are distinct.
fn acc_with(nodes: &mut [Node], gi: usize, vi: usize, f: impl FnOnce(&mut Matrix, &Matrix)) {
    let (grad, value) = if gi == vi {
        let Node { grad, value, .. } = &mut nodes[gi];
        (grad, &*value)
    } else if gi < vi {
        let (l, r) = nodes.split_at_mut(vi);
        (&mut l[gi].grad, &r[0].value)
    } else {
        let (l, r) = nodes.split_at_mut(gi);
        (&mut r[0].grad, &l[vi].value)
    };
    if let Some(grad) = grad.as_mut() {
        f(grad, value);
    }
}

/// `dst[0][c] += s * Σ_r g[r][c]`, rows summed in ascending order — the
/// fused form of `dst.add_assign_scaled(&g.sum_rows(), s)`.
pub(crate) fn acc_col_sums(dst: &mut Matrix, g: &Matrix, s: f32) {
    let cols = g.cols();
    let gs = g.as_slice();
    for (c, o) in dst.as_mut_slice().iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for r in 0..g.rows() {
            sum += gs[r * cols + c];
        }
        *o += sum * s;
    }
}

/// `dst[0][c] += s * Σ_r g[r][c] * x[r][c]` — the fused form of
/// `dst.add_assign_scaled(&g.mul(&x).sum_rows(), s)`.
pub(crate) fn acc_col_sums_prod(dst: &mut Matrix, g: &Matrix, x: &Matrix, s: f32) {
    let cols = g.cols();
    let (gs, xs) = (g.as_slice(), x.as_slice());
    for (c, o) in dst.as_mut_slice().iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for r in 0..g.rows() {
            sum += gs[r * cols + c] * xs[r * cols + c];
        }
        *o += sum * s;
    }
}

/// `dst[r][c] += f(g[r][c], row[0][c])` — the fused form of
/// `dst.add_assign_scaled(&g.op_row_broadcast(&row), 1.0)`.
fn acc_row_broadcast(dst: &mut Matrix, g: &Matrix, row: &Matrix, f: impl Fn(f32, f32) -> f32) {
    let rv = row.as_slice();
    for r in 0..dst.rows() {
        for ((o, &gv), &rc) in dst.row_mut(r).iter_mut().zip(g.row(r)).zip(rv) {
            *o += f(gv, rc);
        }
    }
}

const LN_EPS: f32 = 1e-8;

pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Row max and exponential sum — the shared numerics behind every softmax
/// in this module. [`softmax_forward`] and the `SoftmaxCrossEntropy`
/// backward rule both derive probabilities as `(x - max).exp() / sum` from
/// this helper, keeping the two paths in bitwise lockstep.
pub(crate) fn softmax_row_max_sum(row: &[f32]) -> (f32, f32) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &x in row {
        sum += (x - max).exp();
    }
    (max, sum)
}

fn softmax_forward(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let (max, sum) = softmax_row_max_sum(row);
        for v in row.iter_mut() {
            *v = (*v - max).exp() / sum;
        }
    }
    out
}

// The arithmetic methods intentionally mirror `Matrix`'s inherent
// `add`/`sub`/`mul`/`div`/`neg` names rather than the operator traits:
// tape nodes are `Copy` handles and the graph DSL reads as method chains.
#[allow(clippy::should_implement_trait)]
impl<'t> Var<'t> {
    /// Clones this node's current value.
    pub fn value(&self) -> Matrix {
        self.tape.value_of(self.idx)
    }

    /// `(rows, cols)` of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.nodes.borrow()[self.idx].value.shape()
    }

    /// Clones this node's accumulated gradient (meaningful after
    /// [`Tape::backward`]); `None` when the node does not require grad.
    pub fn grad(&self) -> Option<Matrix> {
        self.tape.nodes.borrow()[self.idx].grad.clone()
    }

    /// `true` when this node is a parameter or depends on one (on a
    /// gradient-recording tape).
    pub fn requires_grad(&self) -> bool {
        self.tape.nodes.borrow()[self.idx].grad.is_some()
    }

    fn unary(self, value: Matrix, op: Op) -> Var<'t> {
        Var {
            tape: self.tape,
            idx: self.tape.push(value, op),
        }
    }

    /// Element-wise sum.
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        let v = self.tape.with_values(self.idx, other.idx, |a, b| a.add(b));
        self.unary(v, Op::Add(self.idx, other.idx))
    }

    /// Element-wise difference.
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        let v = self.tape.with_values(self.idx, other.idx, |a, b| a.sub(b));
        self.unary(v, Op::Sub(self.idx, other.idx))
    }

    /// Element-wise product.
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        let v = self.tape.with_values(self.idx, other.idx, |a, b| a.mul(b));
        self.unary(v, Op::Mul(self.idx, other.idx))
    }

    /// Element-wise quotient.
    pub fn div(self, other: Var<'t>) -> Var<'t> {
        let v = self.tape.with_values(self.idx, other.idx, |a, b| a.div(b));
        self.unary(v, Op::Div(self.idx, other.idx))
    }

    /// Negation.
    pub fn neg(self) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.scale(-1.0));
        self.unary(v, Op::Neg(self.idx))
    }

    /// Matrix product `self · other`.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        let v = self
            .tape
            .with_values(self.idx, other.idx, |a, b| a.matmul(b));
        self.unary(v, Op::Matmul(self.idx, other.idx))
    }

    /// Multiplies every element by `s`.
    pub fn scale(self, s: f32) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.scale(s));
        self.unary(v, Op::Scale(self.idx, s))
    }

    /// Adds `s` to every element.
    pub fn add_scalar(self, s: f32) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.add_scalar(s));
        self.unary(v, Op::AddScalar(self.idx))
    }

    /// Adds a constant matrix (no gradient flows into it).
    pub fn add_const(self, c: &Matrix) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.add(c));
        self.unary(v, Op::AddConst(self.idx))
    }

    /// Multiplies element-wise by a constant matrix (e.g. a dropout mask),
    /// which the node keeps for the backward pass.
    pub fn mul_const(self, c: Matrix) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.mul(&c));
        self.unary(v, Op::MulConst(self.idx, c))
    }

    /// Adds a `1 × cols` row node to every row.
    pub fn add_row(self, row: Var<'t>) -> Var<'t> {
        let v = self
            .tape
            .with_values(self.idx, row.idx, |a, r| a.add_row_broadcast(r));
        self.unary(v, Op::AddRow(self.idx, row.idx))
    }

    /// Subtracts a `1 × cols` row node from every row.
    pub fn sub_row(self, row: Var<'t>) -> Var<'t> {
        let v = self
            .tape
            .with_values(self.idx, row.idx, |a, r| a.sub_row_broadcast(r));
        self.unary(v, Op::SubRow(self.idx, row.idx))
    }

    /// Multiplies every row element-wise by a `1 × cols` row node.
    pub fn mul_row(self, row: Var<'t>) -> Var<'t> {
        let v = self
            .tape
            .with_values(self.idx, row.idx, |a, r| a.mul_row_broadcast(r));
        self.unary(v, Op::MulRow(self.idx, row.idx))
    }

    /// Divides every row element-wise by a `1 × cols` row node.
    pub fn div_row(self, row: Var<'t>) -> Var<'t> {
        let v = self
            .tape
            .with_values(self.idx, row.idx, |a, r| a.div_row_broadcast(r));
        self.unary(v, Op::DivRow(self.idx, row.idx))
    }

    /// Column-wise mean as a `1 × cols` node.
    pub fn mean_rows(self) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.mean_rows());
        self.unary(v, Op::MeanRows(self.idx))
    }

    /// Sum of all elements as a `1 × 1` node.
    pub fn sum(self) -> Var<'t> {
        let v = Matrix::full(1, 1, self.tape.with_value(self.idx, |a| a.sum()));
        self.unary(v, Op::Sum(self.idx))
    }

    /// Mean of all elements as a `1 × 1` node.
    pub fn mean(self) -> Var<'t> {
        let v = Matrix::full(1, 1, self.tape.with_value(self.idx, |a| a.mean()));
        self.unary(v, Op::Mean(self.idx))
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.map(|x| x.max(0.0)));
        self.unary(v, Op::Relu(self.idx))
    }

    /// Leaky ReLU with slope `alpha` for negative inputs.
    pub fn leaky_relu(self, alpha: f32) -> Var<'t> {
        let v = self
            .tape
            .with_value(self.idx, |a| a.map(|x| if x > 0.0 { x } else { alpha * x }));
        self.unary(v, Op::LeakyRelu(self.idx, alpha))
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.map(f32::tanh));
        self.unary(v, Op::Tanh(self.idx))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.map(sigmoid_scalar));
        self.unary(v, Op::Sigmoid(self.idx))
    }

    /// Element-wise exponential.
    pub fn exp(self) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.map(f32::exp));
        self.unary(v, Op::Exp(self.idx))
    }

    /// Element-wise natural log, clamped below at a small epsilon.
    pub fn ln(self) -> Var<'t> {
        let v = self
            .tape
            .with_value(self.idx, |a| a.map(|x| x.max(LN_EPS).ln()));
        self.unary(v, Op::Ln(self.idx))
    }

    /// Element-wise square root, clamped below at zero.
    pub fn sqrt(self) -> Var<'t> {
        let v = self
            .tape
            .with_value(self.idx, |a| a.map(|x| x.max(0.0).sqrt()));
        self.unary(v, Op::Sqrt(self.idx))
    }

    /// Row-wise softmax.
    pub fn softmax(self) -> Var<'t> {
        let v = self.tape.with_value(self.idx, softmax_forward);
        self.unary(v, Op::Softmax(self.idx))
    }

    /// Concatenates `vars` along columns (all must share the row count and
    /// live on the same tape).
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or row counts differ.
    pub fn concat_cols(vars: &[Var<'t>]) -> Var<'t> {
        assert!(!vars.is_empty(), "concat of zero vars");
        let values: Vec<Matrix> = vars.iter().map(|v| v.value()).collect();
        let refs: Vec<&Matrix> = values.iter().collect();
        let v = Matrix::hstack(&refs);
        let tape = vars[0].tape;
        let idxs: Vec<usize> = vars.iter().map(|v| v.idx).collect();
        Var {
            tape,
            idx: tape.push(v, Op::ConcatCols(Rc::new(idxs))),
        }
    }

    /// Copies the column range `[start, end)` as a new node.
    pub fn slice_cols(self, start: usize, end: usize) -> Var<'t> {
        let v = self.tape.with_value(self.idx, |a| a.slice_cols(start, end));
        self.unary(v, Op::SliceCols(self.idx, start, end))
    }

    /// Reshapes to `rows × cols` (same element count).
    pub fn reshape(self, rows: usize, cols: usize) -> Var<'t> {
        let v = self.value().reshape(rows, cols);
        self.unary(v, Op::Reshape(self.idx))
    }

    /// Mean binary-cross-entropy between these logits and constant targets,
    /// as a `1 × 1` node (numerically stable log-sum-exp form).
    pub fn bce_with_logits(self, target: &Matrix) -> Var<'t> {
        let va = self.value();
        assert_eq!(va.shape(), target.shape(), "bce target shape mismatch");
        let total: f32 = va
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&x, &t)| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln())
            .sum();
        let v = Matrix::full(1, 1, total / va.len() as f32);
        self.unary(v, Op::BceWithLogits(self.idx, Rc::new(target.clone())))
    }

    /// Mean softmax cross-entropy between these logits and constant one-hot
    /// (or soft) targets, as a `1 × 1` node.
    pub fn softmax_cross_entropy(self, target: &Matrix) -> Var<'t> {
        let va = self.value();
        assert_eq!(
            va.shape(),
            target.shape(),
            "cross-entropy target shape mismatch"
        );
        let probs = softmax_forward(&va);
        let mut total = 0.0;
        for r in 0..va.rows() {
            for (p, t) in probs.row(r).iter().zip(target.row(r)) {
                total -= t * p.max(LN_EPS).ln();
            }
        }
        let v = Matrix::full(1, 1, total / va.rows() as f32);
        self.unary(
            v,
            Op::SoftmaxCrossEntropy(self.idx, Rc::new(target.clone())),
        )
    }

    /// Mean squared error against constant targets as a `1 × 1` node.
    pub fn mse(self, target: &Matrix) -> Var<'t> {
        let va = self.value();
        assert_eq!(va.shape(), target.shape(), "mse target shape mismatch");
        let total: f32 = va
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&x, &t)| (x - t) * (x - t))
            .sum();
        let v = Matrix::full(1, 1, total / va.len() as f32);
        self.unary(v, Op::Mse(self.idx, Rc::new(target.clone())))
    }
}

impl std::fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Var#{} {:?}", self.idx, self.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_tensor::MatrixRandomExt;
    use rand::{rngs::StdRng, SeedableRng};

    fn scalar(tape: &Tape, v: f32) -> Var<'_> {
        tape.constant(Matrix::full(1, 1, v))
    }

    #[test]
    fn add_mul_chain_gradients() {
        // f(a, b) = sum(a * b + a); df/da = b + 1, df/db = a
        let tape = Tape::new();
        let pa = Param::new(Matrix::full(1, 1, 3.0));
        let pb = Param::new(Matrix::full(1, 1, 4.0));
        let a = tape.param(&pa);
        let b = tape.param(&pb);
        let f = a.mul(b).add(a).sum();
        assert_eq!(f.value()[(0, 0)], 15.0);
        tape.backward(f);
        assert_eq!(pa.grad()[(0, 0)], 5.0);
        assert_eq!(pb.grad()[(0, 0)], 3.0);
    }

    #[test]
    fn div_gradients() {
        // f = a / b at a=6, b=3: df/da = 1/3, df/db = -6/9
        let tape = Tape::new();
        let pa = Param::new(Matrix::full(1, 1, 6.0));
        let pb = Param::new(Matrix::full(1, 1, 3.0));
        let f = tape.param(&pa).div(tape.param(&pb)).sum();
        tape.backward(f);
        assert!((pa.grad()[(0, 0)] - 1.0 / 3.0).abs() < 1e-6);
        assert!((pb.grad()[(0, 0)] + 6.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_gradient_matches_manual() {
        let tape = Tape::new();
        let pw = Param::new(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let w = tape.param(&pw);
        let loss = x.matmul(w).sum();
        tape.backward(loss);
        // d sum(XW)/dW = Xᵀ · 1
        assert_eq!(pw.grad(), Matrix::from_rows(&[&[2.0, 2.0], &[2.0, 2.0]]));
    }

    #[test]
    fn activation_values() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::row_vector(&[-1.0, 0.0, 2.0]));
        assert_eq!(x.relu().value().as_slice(), &[0.0, 0.0, 2.0]);
        assert_eq!(x.leaky_relu(0.1).value().as_slice(), &[-0.1, 0.0, 2.0]);
        let s = x.sigmoid().value();
        assert!((s[(0, 1)] - 0.5).abs() < 1e-6);
        let t = x.tanh().value();
        assert!((t[(0, 2)] - 2.0f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[1000.0, 1000.0, 1000.0],
        ]));
        let s = x.softmax().value();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(
            !s.has_non_finite(),
            "softmax must be stable for large logits"
        );
    }

    #[test]
    fn broadcast_row_gradients() {
        // loss = sum(x + b) where b is 1x2 and x is 3x2 -> db = [3, 3]
        let tape = Tape::new();
        let pb = Param::new(Matrix::row_vector(&[0.5, -0.5]));
        let x = tape.constant(Matrix::ones(3, 2));
        let loss = x.add_row(tape.param(&pb)).sum();
        tape.backward(loss);
        assert_eq!(pb.grad().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn concat_and_slice_gradients() {
        let tape = Tape::new();
        let pa = Param::new(Matrix::ones(2, 2));
        let pb = Param::new(Matrix::ones(2, 3));
        let a = tape.param(&pa);
        let b = tape.param(&pb);
        let cat = Var::concat_cols(&[a, b]);
        assert_eq!(cat.shape(), (2, 5));
        // only the second half contributes
        let loss = cat.slice_cols(2, 5).sum();
        tape.backward(loss);
        assert_eq!(pa.grad().sum(), 0.0);
        assert_eq!(pb.grad().sum(), 6.0);
    }

    #[test]
    fn bce_with_logits_matches_closed_form() {
        let tape = Tape::new();
        let p = Param::new(Matrix::row_vector(&[0.0, 2.0]));
        let target = Matrix::row_vector(&[1.0, 0.0]);
        let loss = tape.param(&p).bce_with_logits(&target);
        let expected = (-0.5f32.ln() + (1.0 + 2.0f32.exp()).ln()) / 2.0;
        assert!((loss.value()[(0, 0)] - expected).abs() < 1e-5);
        tape.backward(loss);
        let g = p.grad();
        assert!((g[(0, 0)] - (0.5 - 1.0) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_cross_entropy_gradient_direction() {
        let tape = Tape::new();
        let p = Param::new(Matrix::row_vector(&[0.0, 0.0, 0.0]));
        let target = Matrix::row_vector(&[0.0, 1.0, 0.0]);
        let loss = tape.param(&p).softmax_cross_entropy(&target);
        assert!((loss.value()[(0, 0)] - 3.0f32.ln()).abs() < 1e-5);
        tape.backward(loss);
        let g = p.grad();
        assert!(
            g[(0, 1)] < 0.0,
            "gradient must push the true-class logit up"
        );
        assert!(g[(0, 0)] > 0.0 && g[(0, 2)] > 0.0);
    }

    #[test]
    fn mean_rows_gradient_spreads() {
        let tape = Tape::new();
        let p = Param::new(Matrix::ones(4, 2));
        let loss = tape.param(&p).mean_rows().sum();
        tape.backward(loss);
        assert_eq!(p.grad(), Matrix::full(4, 2, 0.25));
    }

    #[test]
    fn numeric_gradient_check_mlp_like_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let pw = Param::new(Matrix::randn(3, 4, 0.0, 0.5, &mut rng));
        let x = Matrix::randn(5, 3, 0.0, 1.0, &mut rng);
        let t = Matrix::randn(5, 4, 0.0, 1.0, &mut rng);

        let loss_value = |pw: &Param, backward: bool| -> f32 {
            let tape = Tape::new();
            let out = tape.constant(x.clone()).matmul(tape.param(pw)).tanh();
            let loss = out.mse(&t);
            if backward {
                tape.backward(loss);
            }
            loss.value()[(0, 0)]
        };
        let _ = loss_value(&pw, true);
        let analytic = pw.grad();
        pw.zero_grad();
        let max_diff = crate::gradient_check(&pw, || loss_value(&pw, false), &analytic, 1e-2);
        assert!(
            max_diff < 2e-2,
            "numeric vs analytic gradient diff {max_diff}"
        );
    }

    #[test]
    fn gradient_does_not_flow_into_constants() {
        let tape = Tape::new();
        let p = Param::new(Matrix::full(1, 1, 2.0));
        let c = scalar(&tape, 10.0);
        let loss = tape.param(&p).mul(c).sum();
        tape.backward(loss);
        assert_eq!(p.grad()[(0, 0)], 10.0);
        // A constant requires no grad, so it has no buffer to fill.
        assert!(!c.requires_grad());
        assert!(c.grad().is_none());
    }

    #[test]
    fn constant_only_nodes_get_no_gradient_buffer() {
        let mut rng = StdRng::seed_from_u64(12);
        let pw = Param::new(Matrix::randn(3, 4, 0.0, 0.5, &mut rng));
        let x = Matrix::randn(5, 3, 0.0, 1.0, &mut rng);
        let t = Matrix::randn(5, 4, 0.0, 1.0, &mut rng);
        let loss_value = |backward: bool| -> f32 {
            let tape = Tape::new();
            // `xs` is computed from constants only; `h` mixes in the param.
            let xc = tape.constant(x.clone());
            let xs = xc.tanh().scale(2.0);
            let h = Var::concat_cols(&[xs, xc])
                .slice_cols(0, 3)
                .matmul(tape.param(&pw));
            let loss = h.sigmoid().mse(&t);
            assert!(!xc.requires_grad() && !xs.requires_grad());
            assert!(h.requires_grad() && loss.requires_grad());
            if backward {
                tape.backward(loss);
                assert!(xc.grad().is_none() && xs.grad().is_none());
                assert!(h.grad().is_some_and(|g| g.sum() != 0.0));
            }
            loss.value()[(0, 0)]
        };
        let _ = loss_value(true);
        let analytic = pw.grad();
        pw.zero_grad();
        let max_diff = crate::gradient_check(&pw, || loss_value(false), &analytic, 1e-2);
        assert!(
            max_diff < 2e-2,
            "numeric vs analytic gradient diff {max_diff}"
        );
    }

    #[test]
    fn backward_from_a_constant_loss_is_a_no_op() {
        let tape = Tape::new();
        let loss = tape.constant(Matrix::ones(2, 2)).sum();
        tape.backward(loss);
        assert!(loss.grad().is_none());
    }

    #[test]
    fn no_grad_tape_records_values_but_no_gradients() {
        let p = Param::new(Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]));
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5], &[0.0, 1.0]]);
        let run = |tape: &Tape| -> Matrix {
            let y = tape.constant(x.clone()).matmul(tape.param(&p)).tanh();
            let loss = y.mse(&Matrix::zeros(3, 2));
            tape.backward(loss);
            y.value()
        };
        let no_grad = Tape::no_grad();
        let value = run(&no_grad);
        assert_eq!(p.grad(), Matrix::zeros(2, 2), "no-grad tape filled a param");
        assert_eq!(value, run(&Tape::new()), "values must match a normal tape");
        assert!(
            p.grad().sum() != 0.0,
            "a normal tape still reaches the param"
        );
    }

    #[test]
    fn param_used_twice_accumulates() {
        let tape = Tape::new();
        let p = Param::new(Matrix::full(1, 1, 3.0));
        let a = tape.param(&p);
        let b = tape.param(&p);
        let loss = a.add(b).sum(); // d/dp = 2 (two separate registrations)
        tape.backward(loss);
        assert_eq!(p.grad()[(0, 0)], 2.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(2, 2));
        tape.backward(x);
    }

    #[test]
    fn exp_ln_sqrt_gradients() {
        let tape = Tape::new();
        let p = Param::new(Matrix::full(1, 1, 4.0));
        let x = tape.param(&p);
        let loss = x.exp().add(x.ln()).add(x.sqrt()).sum();
        tape.backward(loss);
        let expected = 4.0f32.exp() + 0.25 + 0.5 / 2.0;
        assert!((p.grad()[(0, 0)] - expected).abs() < 1e-2);
    }

    #[test]
    fn reshape_gradient_roundtrip() {
        let tape = Tape::new();
        let p = Param::new(Matrix::ones(2, 3));
        let loss = tape.param(&p).reshape(3, 2).mse(&Matrix::zeros(3, 2));
        tape.backward(loss);
        assert_eq!(p.grad().shape(), (2, 3));
        assert!((p.grad()[(0, 0)] - 2.0 / 6.0).abs() < 1e-6);
    }
}
