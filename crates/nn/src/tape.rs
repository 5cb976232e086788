//! The dynamic computation graph: [`Tape`], [`Var`] and the reverse pass.
//!
//! A [`Tape`] records every forward operation as a node; [`Tape::backward`]
//! walks the nodes in reverse creation order (a valid topological order,
//! since operands always precede results) and accumulates gradients, finally
//! writing parameter gradients back into their [`Param`] cells. Only nodes
//! that depend on a parameter carry a gradient; a [`Tape::no_grad`] tape
//! records values alone.
//!
//! A tape records one graph, runs `backward`, and is then either dropped
//! or [`Tape::reset`] to record the next one. Reset keeps the storage of
//! every node — values, gradients and the matrices an op holds for its
//! backward rule — and the next recording takes its buffers from there, so
//! a training loop that resets one tape per step re-records the same graph
//! without allocating matrix storage. The layers in [`crate::layers`]
//! record one fused node each (see the `fused` module).

use crate::fused::{self, BatchNormOp, HeadsOp, LinearOp};
use crate::param::{Param, ParamSet};
use kinet_tensor::Matrix;
use std::cell::{Cell, RefCell, RefMut};

pub(crate) enum Op {
    Leaf,
    Param(Param),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
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
    /// The operands are `Tape::operands[start..end]`.
    ConcatCols(usize, usize),
    SliceCols(usize, usize, usize),
    BceWithLogits(usize, Matrix),
    SoftmaxCrossEntropy(usize, Matrix),
    Mse(usize, Matrix),
    Linear(LinearOp),
    BatchNorm(Box<BatchNormOp>),
    Heads(HeadsOp),
}

impl Op {
    /// The requires-grad rule: a node with this op requires grad when it
    /// is a parameter or one of its operands requires grad.
    fn requires_grad(&self, nodes: &[Node], operands: &[usize]) -> bool {
        let rg = |i: &usize| nodes[*i].grad.is_some();
        match self {
            Op::Leaf => false,
            Op::Param(_) => true,
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Matmul(a, b)
            | Op::AddRow(a, b)
            | Op::SubRow(a, b)
            | Op::MulRow(a, b)
            | Op::DivRow(a, b) => rg(a) || rg(b),
            Op::Scale(a, _)
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
            | Op::BceWithLogits(a, _)
            | Op::SoftmaxCrossEntropy(a, _)
            | Op::Mse(a, _) => rg(a),
            Op::ConcatCols(start, end) => operands[*start..*end].iter().any(rg),
            Op::Linear(op) => rg(&op.x) || op.w.trains || op.b.trains,
            Op::BatchNorm(op) => rg(&op.x) || op.gamma.trains || op.beta.trains,
            Op::Heads(op) => rg(&op.x),
        }
    }

    /// Hands the matrices this op holds to `spare`.
    fn release(self, spare: &mut Vec<Vec<f32>>) {
        match self {
            Op::MulConst(_, m)
            | Op::BceWithLogits(_, m)
            | Op::SoftmaxCrossEntropy(_, m)
            | Op::Mse(_, m) => spare.push(m.into_vec()),
            Op::BatchNorm(op) => op.release(spare),
            _ => {}
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

impl Node {
    /// Hands this node's storage to `spare`, in the reverse of the order
    /// the node took it, so the next identical recording finds each buffer
    /// at the end of the list.
    fn release(self, spare: &mut Vec<Vec<f32>>) {
        if let Some(g) = self.grad {
            spare.push(g.into_vec());
        }
        spare.push(self.value.into_vec());
        self.op.release(spare);
    }
}

/// A computation graph recording forward operations for reverse-mode
/// differentiation.
///
/// See the [crate-level docs](crate) for an end-to-end example.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Buffers no node holds — those [`Tape::reset`] took back and those a
    /// node was done with while recording — handed back out by exact
    /// length.
    spare: RefCell<Vec<Vec<f32>>>,
    /// Buffers handed out since the last reset: as many as an identical
    /// recording can use, so `reset` keeps no more spares than that.
    handed_out: Cell<usize>,
    /// The operand lists of `ConcatCols` nodes, back to back.
    operands: RefCell<Vec<usize>>,
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
/// `Var` is `Copy`; all arithmetic methods record a new node and return a
/// new handle. Mixing `Var`s from different tapes is a logic error and will
/// panic (on an index out of bounds) or silently corrupt gradients; each
/// graph should be recorded on exactly one tape.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    pub(crate) tape: &'t Tape,
    pub(crate) idx: usize,
}

impl Tape {
    /// Creates an empty tape that records gradients for every parameter
    /// registered on it.
    pub fn new() -> Self {
        Self::with_frozen(true, Vec::new())
    }

    fn with_frozen(grad_enabled: bool, frozen: Vec<Param>) -> Self {
        Self {
            nodes: RefCell::default(),
            spare: RefCell::default(),
            handed_out: Cell::new(0),
            operands: RefCell::default(),
            grad_enabled,
            frozen,
        }
    }

    /// Creates an empty value-only tape: parameters enter without
    /// gradients, so no node requires grad and [`Tape::backward`] is a
    /// no-op. Every forward value is computed by the same code as on a
    /// [`Tape::new`] tape, so outputs are bit-identical — the tape for a
    /// forward pass whose gradients would be thrown away (a discriminator
    /// step's generator batch, sampling).
    pub fn no_grad() -> Self {
        Self::with_frozen(false, Vec::new())
    }

    /// Creates an empty tape on which every parameter in `frozen` enters
    /// as a constant. Gradients still flow *through* a frozen layer into
    /// its input, but none is computed for its parameters — the tape for a
    /// generator step, whose discriminator weights the step leaves alone.
    /// Every other parameter trains as on a [`Tape::new`] tape, with
    /// bit-identical gradients.
    pub fn frozen(frozen: &ParamSet) -> Self {
        Self::with_frozen(true, frozen.iter().cloned().collect())
    }

    /// Clears every recorded node so the tape can record the next graph,
    /// keeping the tape's kind (gradients, frozen parameters) and the
    /// nodes' storage: values, gradients, and the matrices ops hold for
    /// the backward pass. Recording then takes each buffer back by exact
    /// length, so a graph recorded again with the same shapes allocates no
    /// matrix storage; gradients are zero-filled as on a new tape, and
    /// every other buffer is overwritten, so results are bit-identical to
    /// a new tape's. The tape keeps at most as many spare buffers as the
    /// cleared recording used.
    pub fn reset(&mut self) {
        let spare = self.spare.get_mut();
        for node in self.nodes.get_mut().drain(..).rev() {
            node.release(spare);
        }
        self.operands.get_mut().clear();
        let excess = spare.len().saturating_sub(self.handed_out.replace(0));
        spare.drain(..excess);
    }

    /// A `rows × cols` matrix on a spare buffer of exactly that length
    /// when there is one. Its contents are unspecified: the caller
    /// overwrites every element.
    pub(crate) fn buffer(&self, rows: usize, cols: usize) -> Matrix {
        self.handed_out.set(self.handed_out.get() + 1);
        let len = rows * cols;
        let mut spare = self.spare.borrow_mut();
        match spare.iter().rposition(|b| b.len() == len) {
            // `remove` keeps the list in order, so `reset` trims the
            // buffers that sat unused longest.
            Some(i) => Matrix::from_vec(rows, cols, spare.remove(i)),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// [`Tape::buffer`], zero-filled like `Matrix::zeros`.
    pub(crate) fn zero_buffer(&self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.buffer(rows, cols);
        m.as_mut_slice().fill(0.0);
        m
    }

    /// A copy of `m` on a tape buffer.
    pub(crate) fn copy_of(&self, m: &Matrix) -> Matrix {
        let mut out = self.buffer(m.rows(), m.cols());
        out.as_mut_slice().copy_from_slice(m.as_slice());
        out
    }

    /// Returns a buffer the caller is done with to the spare list.
    pub(crate) fn recycle(&self, m: Matrix) {
        self.spare_list().push(m.into_vec());
    }

    /// The spare list, for returning several buffers at once.
    pub(crate) fn spare_list(&self) -> RefMut<'_, Vec<Vec<f32>>> {
        self.spare.borrow_mut()
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

    /// Records a node and returns its handle.
    pub(crate) fn push_var(&self, value: Matrix, op: Op) -> Var<'_> {
        Var {
            tape: self,
            idx: self.record(value, op),
        }
    }

    fn record(&self, value: Matrix, op: Op) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        let grad = op
            .requires_grad(&nodes, &self.operands.borrow())
            .then(|| self.zero_buffer(value.rows(), value.cols()));
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
        self.push_var(value, Op::Leaf)
    }

    /// Registers a copy of `value` as a constant, on the tape's own
    /// storage: the form for an input a reused tape takes every step.
    pub fn constant_copy(&self, value: &Matrix) -> Var<'_> {
        self.push_var(self.copy_of(value), Op::Leaf)
    }

    /// Registers a `rows × cols` constant on the tape's own storage,
    /// which `fill` receives zero-filled and writes in place.
    pub fn constant_with(
        &self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Matrix),
    ) -> Var<'_> {
        let mut value = self.zero_buffer(rows, cols);
        fill(&mut value);
        self.push_var(value, Op::Leaf)
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
        self.push_var(p.with_value(|v| self.copy_of(v)), op)
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
        let operands = self.operands.borrow();
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
                Op::ConcatCols(start, end) => {
                    let mut offset = 0;
                    for &p in &operands[*start..*end] {
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
/// in this module. The cross-entropy loss and its backward rule derive
/// probabilities as `(x - max).exp() / sum` from this helper, and
/// [`softmax_row_in_place`] computes the same values, keeping every path
/// in bitwise lockstep.
pub(crate) fn softmax_row_max_sum(row: &[f32]) -> (f32, f32) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &x in row {
        sum += (x - max).exp();
    }
    (max, sum)
}

/// Softmax of one row in place, one `exp` per element: each
/// `(x - max).exp()` is stored as it is summed, then divided by the sum —
/// bit for bit what [`softmax_row_max_sum`]'s `(x - max).exp() / sum` gives.
pub(crate) fn softmax_row_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Row-wise softmax in place.
fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        softmax_row_in_place(m.row_mut(r));
    }
}

/// `out[i] = f(a[i], b[i])` over two equally shaped operands.
fn zip_into(out: &mut Matrix, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "element-wise shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    let pairs = a.as_slice().iter().zip(b.as_slice());
    for (o, (&x, &y)) in out.as_mut_slice().iter_mut().zip(pairs) {
        *o = f(x, y);
    }
}

/// Asserts `row` is a `1 × cols` row vector broadcastable over `m`.
fn row_shape(m: &Matrix, row: &Matrix) {
    assert_eq!(
        row.rows(),
        1,
        "broadcast operand must be a row vector, got {:?}",
        row.shape()
    );
    assert_eq!(
        m.cols(),
        row.cols(),
        "broadcast column mismatch: {} vs {}",
        m.cols(),
        row.cols()
    );
}

// The arithmetic methods intentionally mirror `Matrix`'s inherent
// `add`/`sub`/`mul` names rather than the operator traits:
// tape nodes are `Copy` handles and the graph DSL reads as method chains.
// Every node value is written into a tape buffer with the same per-element
// arithmetic as the `Matrix` method of the same name.
#[allow(clippy::should_implement_trait)]
impl<'t> Var<'t> {
    /// Clones this node's current value.
    pub fn value(&self) -> Matrix {
        self.tape.value_of(self.idx)
    }

    /// Reads this node's value in place. `f` must not record on this
    /// node's tape.
    pub fn with_value<R>(&self, f: impl FnOnce(&Matrix) -> R) -> R {
        self.tape.with_value(self.idx, f)
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
        self.tape.push_var(value, op)
    }

    /// Records `op` with the value `f(x)` for each element `x`.
    fn map(self, op: Op, f: impl Fn(f32) -> f32) -> Var<'t> {
        let (rows, cols) = self.shape();
        let mut out = self.tape.buffer(rows, cols);
        self.with_value(|a| {
            for (o, &x) in out.as_mut_slice().iter_mut().zip(a.as_slice()) {
                *o = f(x);
            }
        });
        self.unary(out, op)
    }

    /// Records `op` with the value `f(x, y)` for each element pair of this
    /// node and `other`.
    fn zip(self, other: &Matrix, op: Op, f: impl Fn(f32, f32) -> f32) -> Var<'t> {
        let (rows, cols) = self.shape();
        let mut out = self.tape.buffer(rows, cols);
        self.with_value(|a| zip_into(&mut out, a, other, f));
        self.unary(out, op)
    }

    /// Records `op` with the value `f(x, y)` for each element pair of this
    /// node and the node `other`.
    fn zip_var(self, other: Var<'t>, op: Op, f: impl Fn(f32, f32) -> f32) -> Var<'t> {
        let (rows, cols) = self.shape();
        let mut out = self.tape.buffer(rows, cols);
        self.tape
            .with_values(self.idx, other.idx, |a, b| zip_into(&mut out, a, b, f));
        self.unary(out, op)
    }

    /// Records `op` with the value `f(x, row[c])` for each element `x` in
    /// column `c`.
    fn broadcast(self, row: Var<'t>, op: Op, f: impl Fn(f32, f32) -> f32) -> Var<'t> {
        let (rows, cols) = self.shape();
        let mut out = self.tape.buffer(rows, cols);
        self.tape.with_values(self.idx, row.idx, |a, rv| {
            row_shape(a, rv);
            for r in 0..rows {
                let src = a.row(r).iter().zip(rv.as_slice());
                for (o, (&x, &y)) in out.row_mut(r).iter_mut().zip(src) {
                    *o = f(x, y);
                }
            }
        });
        self.unary(out, op)
    }

    /// Records the `1 × 1` node `op` with value `v`.
    fn scalar(self, v: f32, op: Op) -> Var<'t> {
        let mut out = self.tape.buffer(1, 1);
        out.as_mut_slice().fill(v);
        self.unary(out, op)
    }

    /// Element-wise sum.
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.zip_var(other, Op::Add(self.idx, other.idx), |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.zip_var(other, Op::Sub(self.idx, other.idx), |a, b| a - b)
    }

    /// Element-wise product.
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.zip_var(other, Op::Mul(self.idx, other.idx), |a, b| a * b)
    }

    /// Matrix product `self · other`.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        let (rows, cols) = (self.shape().0, other.shape().1);
        let mut out = self.tape.buffer(rows, cols);
        self.tape
            .with_values(self.idx, other.idx, |a, b| a.matmul_into(b, &mut out));
        self.unary(out, Op::Matmul(self.idx, other.idx))
    }

    /// Multiplies every element by `s`.
    pub fn scale(self, s: f32) -> Var<'t> {
        self.map(Op::Scale(self.idx, s), |v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(self, s: f32) -> Var<'t> {
        self.map(Op::AddScalar(self.idx), |v| v + s)
    }

    /// Adds a constant matrix (no gradient flows into it).
    pub fn add_const(self, c: &Matrix) -> Var<'t> {
        self.zip(c, Op::AddConst(self.idx), |a, b| a + b)
    }

    /// Multiplies element-wise by a constant matrix (e.g. a dropout mask),
    /// which the node keeps for the backward pass.
    pub fn mul_const(self, c: Matrix) -> Var<'t> {
        let (rows, cols) = self.shape();
        let mut out = self.tape.buffer(rows, cols);
        self.with_value(|a| zip_into(&mut out, a, &c, |x, y| x * y));
        self.unary(out, Op::MulConst(self.idx, c))
    }

    /// Adds a `1 × cols` row node to every row.
    pub fn add_row(self, row: Var<'t>) -> Var<'t> {
        self.broadcast(row, Op::AddRow(self.idx, row.idx), |a, b| a + b)
    }

    /// Subtracts a `1 × cols` row node from every row.
    pub fn sub_row(self, row: Var<'t>) -> Var<'t> {
        self.broadcast(row, Op::SubRow(self.idx, row.idx), |a, b| a - b)
    }

    /// Multiplies every row element-wise by a `1 × cols` row node.
    pub fn mul_row(self, row: Var<'t>) -> Var<'t> {
        self.broadcast(row, Op::MulRow(self.idx, row.idx), |a, b| a * b)
    }

    /// Divides every row element-wise by a `1 × cols` row node.
    pub fn div_row(self, row: Var<'t>) -> Var<'t> {
        self.broadcast(row, Op::DivRow(self.idx, row.idx), |a, b| a / b)
    }

    /// Column-wise mean as a `1 × cols` node.
    pub fn mean_rows(self) -> Var<'t> {
        let mut out = self.tape.zero_buffer(1, self.shape().1);
        self.with_value(|a| mean_rows_into(a, &mut out));
        self.unary(out, Op::MeanRows(self.idx))
    }

    /// Sum of all elements as a `1 × 1` node.
    pub fn sum(self) -> Var<'t> {
        let v = self.with_value(|a| a.sum());
        self.scalar(v, Op::Sum(self.idx))
    }

    /// Mean of all elements as a `1 × 1` node.
    pub fn mean(self) -> Var<'t> {
        let v = self.with_value(|a| a.mean());
        self.scalar(v, Op::Mean(self.idx))
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        self.map(Op::Relu(self.idx), |x| x.max(0.0))
    }

    /// Leaky ReLU with slope `alpha` for negative inputs.
    pub fn leaky_relu(self, alpha: f32) -> Var<'t> {
        self.map(Op::LeakyRelu(self.idx, alpha), |x| {
            if x > 0.0 {
                x
            } else {
                alpha * x
            }
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        self.map(Op::Tanh(self.idx), f32::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        self.map(Op::Sigmoid(self.idx), sigmoid_scalar)
    }

    /// Element-wise exponential.
    pub fn exp(self) -> Var<'t> {
        self.map(Op::Exp(self.idx), f32::exp)
    }

    /// Element-wise natural log, clamped below at a small epsilon.
    pub fn ln(self) -> Var<'t> {
        self.map(Op::Ln(self.idx), |x| x.max(LN_EPS).ln())
    }

    /// Element-wise square root, clamped below at zero.
    pub fn sqrt(self) -> Var<'t> {
        self.map(Op::Sqrt(self.idx), |x| x.max(0.0).sqrt())
    }

    /// Row-wise softmax.
    pub fn softmax(self) -> Var<'t> {
        let mut out = self.with_value(|a| self.tape.copy_of(a));
        softmax_rows(&mut out);
        self.unary(out, Op::Softmax(self.idx))
    }

    /// Concatenates `vars` along columns (all must share the row count and
    /// live on the same tape).
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty, row counts differ or the vars live on
    /// different tapes.
    pub fn concat_cols(vars: &[Var<'t>]) -> Var<'t> {
        assert!(!vars.is_empty(), "concat of zero vars");
        let tape = vars[0].tape;
        assert!(
            vars.iter().all(|v| std::ptr::eq(v.tape, tape)),
            "concat of vars on different tapes"
        );
        let rows = vars[0].shape().0;
        let cols = vars.iter().map(|v| v.shape().1).sum();
        let mut out = tape.buffer(rows, cols);
        {
            let nodes = tape.nodes.borrow();
            let mut offset = 0;
            for v in vars {
                let m = &nodes[v.idx].value;
                assert_eq!(
                    m.rows(),
                    rows,
                    "concat row mismatch: {} vs {rows}",
                    m.rows()
                );
                for r in 0..rows {
                    out.row_mut(r)[offset..offset + m.cols()].copy_from_slice(m.row(r));
                }
                offset += m.cols();
            }
        }
        let start = {
            let mut operands = tape.operands.borrow_mut();
            operands.extend(vars.iter().map(|v| v.idx));
            operands.len() - vars.len()
        };
        tape.push_var(out, Op::ConcatCols(start, start + vars.len()))
    }

    /// Copies the column range `[start, end)` as a new node.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end` exceeds the column count.
    pub fn slice_cols(self, start: usize, end: usize) -> Var<'t> {
        let mut out = self.tape.buffer(self.shape().0, end.saturating_sub(start));
        self.with_value(|a| a.slice_cols_into(start, end, &mut out));
        self.unary(out, Op::SliceCols(self.idx, start, end))
    }

    /// Mean binary-cross-entropy between these logits and constant targets,
    /// as a `1 × 1` node (numerically stable log-sum-exp form).
    pub fn bce_with_logits(self, target: &Matrix) -> Var<'t> {
        let v = self.with_value(|va| {
            assert_eq!(va.shape(), target.shape(), "bce target shape mismatch");
            let total: f32 = va
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(&x, &t)| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln())
                .sum();
            total / va.len() as f32
        });
        let target = self.tape.copy_of(target);
        self.scalar(v, Op::BceWithLogits(self.idx, target))
    }

    /// Mean softmax cross-entropy between these logits and constant one-hot
    /// (or soft) targets, as a `1 × 1` node.
    pub fn softmax_cross_entropy(self, target: &Matrix) -> Var<'t> {
        let v = self.with_value(|va| {
            assert_eq!(
                va.shape(),
                target.shape(),
                "cross-entropy target shape mismatch"
            );
            let mut total = 0.0;
            for r in 0..va.rows() {
                let row = va.row(r);
                let (max, sum) = softmax_row_max_sum(row);
                for (&x, t) in row.iter().zip(target.row(r)) {
                    let p = (x - max).exp() / sum;
                    total -= t * p.max(LN_EPS).ln();
                }
            }
            total / va.rows() as f32
        });
        let target = self.tape.copy_of(target);
        self.scalar(v, Op::SoftmaxCrossEntropy(self.idx, target))
    }

    /// Mean squared error against constant targets as a `1 × 1` node.
    pub fn mse(self, target: &Matrix) -> Var<'t> {
        let v = self.with_value(|va| {
            assert_eq!(va.shape(), target.shape(), "mse target shape mismatch");
            let total: f32 = va
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(&x, &t)| (x - t) * (x - t))
                .sum();
            total / va.len() as f32
        });
        let target = self.tape.copy_of(target);
        self.scalar(v, Op::Mse(self.idx, target))
    }
}

/// `out = a.mean_rows()` into a zero-filled `1 × cols` buffer, with the
/// same arithmetic: rows summed in ascending order, then scaled.
///
/// # Panics
///
/// Panics when `a` has zero rows.
pub(crate) fn mean_rows_into(a: &Matrix, out: &mut Matrix) {
    assert!(a.rows() > 0, "mean_rows of matrix with zero rows");
    for r in 0..a.rows() {
        for (s, &v) in out.as_mut_slice().iter_mut().zip(a.row(r)) {
            *s += v;
        }
    }
    let inv = 1.0 / a.rows() as f32;
    for s in out.as_mut_slice() {
        *s *= inv;
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

    /// The addresses of every buffer a tape owns, read after a reset.
    fn storage_after_reset(tape: &mut Tape) -> Vec<usize> {
        tape.reset();
        assert!(tape.is_empty());
        let spare = tape.spare.borrow();
        let mut ptrs: Vec<usize> = spare.iter().map(|b| b.as_ptr() as usize).collect();
        ptrs.sort_unstable();
        ptrs
    }

    #[test]
    fn reset_reuses_every_buffer_of_an_identical_recording() {
        use crate::layers::{output_heads, BatchNorm1d, Dropout, Linear, OutputHead};
        let mut rng = StdRng::seed_from_u64(13);
        let fc = Linear::kaiming(4, 5, &mut rng);
        let bn = BatchNorm1d::new(5);
        let heads = [OutputHead::Tanh(2), OutputHead::GumbelSoftmax(3)];
        let x = Matrix::randn(6, 4, 0.0, 1.0, &mut rng);
        let target = Matrix::randn(6, 5, 0.0, 1.0, &mut rng);
        let record = |tape: &Tape, rng: &mut StdRng, training: bool| {
            let h = bn.forward(tape, fc.forward(tape, tape.constant_copy(&x)), training);
            let h = Dropout::new(0.3).forward(h.leaky_relu(0.2), training, rng);
            let y = output_heads(h, &heads, 0.5, rng);
            let loss = y
                .mse(&target)
                .add(h.softmax_cross_entropy(&target.map(f32::abs)));
            tape.backward(loss);
        };
        for mut tape in [Tape::new(), Tape::no_grad()] {
            for training in [true, false] {
                record(&tape, &mut rng, training);
                let first = storage_after_reset(&mut tape);
                assert!(!first.is_empty());
                for _ in 0..3 {
                    record(&tape, &mut rng, training);
                    assert_eq!(storage_after_reset(&mut tape), first, "training={training}");
                }
            }
        }
    }

    #[test]
    fn reset_keeps_no_more_spares_than_a_recording_uses() {
        let mut tape = Tape::new();
        for _ in 0..5 {
            // Owned constants bring storage the tape never handed out.
            let a = tape.constant(Matrix::ones(3, 3));
            let _ = a.scale(2.0);
            tape.reset();
            assert!(tape.spare.borrow().len() <= 1);
        }
    }
}
