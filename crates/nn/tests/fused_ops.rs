//! Every fused layer node is bit-identical to the chain of primitive `Var`
//! nodes it replaces: forward values, input and parameter gradients, RNG
//! draws and batch-norm running statistics. The chains below express each
//! layer with the public `Var` API and serve as the reference.

use kinet_nn::layers::{
    head_logits, output_heads, BatchNorm1d, Linear, Mlp, MlpConfig, OutputHead, ResidualBlock,
};
use kinet_nn::{Param, ParamSet, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// `BatchNorm1d::new`'s constants.
const BN_MOMENTUM: f32 = 0.1;
const BN_EPS: f32 = 1e-5;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Each parameter's gradient bits, then every gradient reset to zero.
fn take_grads(params: &[&Param]) -> Vec<Vec<u32>> {
    params
        .iter()
        .map(|p| {
            let g = bits(&p.grad());
            p.zero_grad();
            g
        })
        .collect()
}

fn randn(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Matrix {
    Matrix::randn(rows, cols, 0.0, std, rng)
}

fn linear_chain<'t>(tape: &'t Tape, layer: &Linear, x: Var<'t>) -> Var<'t> {
    x.matmul(tape.param(layer.weight()))
        .add_row(tape.param(layer.bias()))
}

fn linear<'t>(tape: &'t Tape, layer: &Linear, x: Var<'t>, fused: bool) -> Var<'t> {
    if fused {
        layer.forward(tape, x)
    } else {
        linear_chain(tape, layer, x)
    }
}

/// The chain's running statistics, updated as `BatchNorm1d` does.
struct Running {
    mean: Matrix,
    var: Matrix,
}

fn batch_norm_chain<'t>(
    tape: &'t Tape,
    gamma: &Param,
    beta: &Param,
    x: Var<'t>,
    training: bool,
    running: &mut Running,
) -> Var<'t> {
    let gamma = tape.param(gamma);
    let beta = tape.param(beta);
    let rows = x.shape().0;
    if training {
        let mu = x.mean_rows();
        let centered = x.sub_row(mu);
        let var = centered.mul(centered).mean_rows();
        let std = var.add_scalar(BN_EPS).sqrt();
        let xn = centered.div_row(std);
        running.mean = running
            .mean
            .scale(1.0 - BN_MOMENTUM)
            .add(&mu.value().scale(BN_MOMENTUM));
        running.var = running
            .var
            .scale(1.0 - BN_MOMENTUM)
            .add(&var.value().scale(BN_MOMENTUM));
        xn.mul_row(gamma).add_row(beta)
    } else {
        let std = running.var.map(|v| (v + BN_EPS).sqrt());
        let neg_mean = Matrix::zeros(rows, std.cols()).add_row_broadcast(&running.mean.scale(-1.0));
        let inv_std = Matrix::ones(rows, std.cols()).mul_row_broadcast(&std.map(|s| 1.0 / s));
        let xn = x.add_const(&neg_mean).mul_const(inv_std);
        xn.mul_row(gamma).add_row(beta)
    }
}

/// The former output-head loop: slice, activate, concatenate.
fn heads_chain<'t>(
    logits: Var<'t>,
    layout: &[OutputHead],
    tau: f32,
    rng: &mut StdRng,
) -> (Var<'t>, Vec<Var<'t>>) {
    let rows = logits.shape().0;
    let (mut activated, mut slices, mut offset) = (Vec::new(), Vec::new(), 0);
    for &head in layout {
        let w = head.width();
        let slice = logits.slice_cols(offset, offset + w);
        slices.push(slice);
        activated.push(match head {
            OutputHead::Tanh(_) => slice.tanh(),
            OutputHead::GumbelSoftmax(_) => slice
                .add_const(&Matrix::gumbel(rows, w, rng))
                .scale(1.0 / tau)
                .softmax(),
        });
        offset += w;
    }
    (Var::concat_cols(&activated), slices)
}

fn layout_from(spec: &[(bool, usize)], tanh_only: bool) -> Vec<OutputHead> {
    spec.iter()
        .map(|&(softmax, w)| {
            if softmax && !tanh_only {
                OutputHead::GumbelSoftmax(w)
            } else {
                OutputHead::Tanh(w)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_node_matches_matmul_add_row(
        seed in any::<u64>(),
        batch in 1usize..=64,
        fan_in in 1usize..12,
        fan_out in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::kaiming(fan_in, fan_out, &mut rng);
        layer.bias().update(|b| *b = randn(1, fan_out, 0.5, &mut rng));
        let (x1, x2) = (
            Param::new(randn(batch, fan_in, 1.0, &mut rng)),
            Param::new(randn(batch, fan_in, 1.0, &mut rng)),
        );
        let (t1, t2) = (randn(batch, fan_out, 1.0, &mut rng), randn(batch, fan_out, 1.0, &mut rng));
        // The layer runs twice on one tape, as a discriminator does, so the
        // second weight-gradient accumulation lands on a non-zero buffer.
        let run = |fused: bool| -> Vec<Vec<u32>> {
            let tape = Tape::new();
            let y1 = linear(&tape, &layer, tape.param(&x1), fused);
            let y2 = linear(&tape, &layer, tape.param(&x2), fused);
            tape.backward(y1.mse(&t1).add(y2.mse(&t2)));
            let mut out = vec![bits(&y1.value()), bits(&y2.value())];
            out.extend(take_grads(&[&x1, &x2, layer.weight(), layer.bias()]));
            out
        };
        prop_assert_eq!(run(true), run(false));

        let no_grad = Tape::no_grad();
        let fused = layer.forward(&no_grad, no_grad.constant(x1.value()));
        let chain = linear_chain(&no_grad, &layer, no_grad.constant(x1.value()));
        prop_assert!(!fused.requires_grad());
        prop_assert_eq!(bits(&fused.value()), bits(&chain.value()));
    }

    #[test]
    fn batch_norm_node_matches_its_chain_in_train_and_eval_mode(
        seed in any::<u64>(),
        batch in 1usize..=64,
        dim in 1usize..10,
        steps in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bn = BatchNorm1d::new(dim);
        let params = bn.params();
        let ps: Vec<&Param> = params.iter().collect();
        let (gamma, beta) = (ps[0], ps[1]);
        gamma.update(|g| *g = randn(1, dim, 1.0, &mut rng).add_scalar(1.0));
        beta.update(|b| *b = randn(1, dim, 0.5, &mut rng));
        let mut running = Running { mean: Matrix::zeros(1, dim), var: Matrix::ones(1, dim) };
        for step in 0..=steps {
            // The last step runs in eval mode on the accumulated statistics.
            let training = step < steps;
            let x = Param::new(randn(batch, dim, 2.0, &mut rng).add_scalar(step as f32));
            let target = randn(batch, dim, 1.0, &mut rng);
            let mut outs = Vec::new();
            for fused in [true, false] {
                let tape = Tape::new();
                let xv = tape.param(&x);
                let y = if fused {
                    bn.forward(&tape, xv, training)
                } else {
                    batch_norm_chain(&tape, gamma, beta, xv, training, &mut running)
                };
                tape.backward(y.mse(&target));
                let mut out = vec![bits(&y.value())];
                out.extend(take_grads(&[&x, gamma, beta]));
                outs.push(out);
            }
            prop_assert_eq!(&outs[0], &outs[1], "step {} (training={})", step, training);
            let (mean, var) = bn.running_stats();
            prop_assert_eq!(bits(&mean), bits(&running.mean));
            prop_assert_eq!(bits(&var), bits(&running.var));
        }

        // Value-only tapes: the same values and running-statistic updates.
        let x = randn(batch, dim, 1.0, &mut rng);
        for training in [true, false] {
            let tape = Tape::no_grad();
            let fused = bn.forward(&tape, tape.constant(x.clone()), training);
            let chain =
                batch_norm_chain(&tape, gamma, beta, tape.constant(x.clone()), training, &mut running);
            prop_assert!(!fused.requires_grad());
            prop_assert_eq!(bits(&fused.value()), bits(&chain.value()));
            let (mean, var) = bn.running_stats();
            prop_assert_eq!(bits(&mean), bits(&running.mean));
            prop_assert_eq!(bits(&var), bits(&running.var));
        }
    }

    #[test]
    fn output_heads_node_matches_slice_activate_concat(
        seed in any::<u64>(),
        batch in 1usize..=64,
        spec in prop::collection::vec((any::<bool>(), 1usize..5), 1..8),
        tanh_only in any::<bool>(),
        tau in 0.1f32..1.5,
    ) {
        let layout = layout_from(&spec, tanh_only);
        let width: usize = layout.iter().map(|h| h.width()).sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = Param::new(randn(batch, width, 2.0, &mut rng));
        let target = randn(batch, width, 0.5, &mut rng);
        let noise_seed = rng.random::<u64>();
        // Softmax heads at even positions also feed a cross-entropy and a
        // masked-softmax penalty through their logit slice, as the
        // generator's condition and knowledge losses do.
        let run = |fused: bool, tape: &Tape| -> (Vec<Vec<u32>>, u64) {
            let mut noise = StdRng::seed_from_u64(noise_seed);
            let lv = tape.param(&logits);
            let (out, slices) = if fused {
                (output_heads(lv, &layout, tau, &mut noise), head_logits(lv, &layout))
            } else {
                heads_chain(lv, &layout, tau, &mut noise)
            };
            let mut loss = out.mse(&target);
            for (i, (&head, slice)) in layout.iter().zip(&slices).enumerate() {
                if i % 2 == 0 && matches!(head, OutputHead::GumbelSoftmax(_)) {
                    let w = head.width();
                    let onehot = Matrix::from_fn(batch, w, |r, c| f32::from(u8::from(c == r % w)));
                    let mask = Matrix::from_fn(batch, w, |r, c| f32::from(u8::from((r + c) % 3 == 0)));
                    loss = loss
                        .add(slice.softmax_cross_entropy(&onehot))
                        .add(slice.softmax().mul_const(mask).sum().scale(0.5));
                }
            }
            tape.backward(loss);
            let mut bits_out = vec![bits(&out.value())];
            bits_out.extend(slices.iter().map(|s| bits(&s.value())));
            bits_out.extend(take_grads(&[&logits]));
            (bits_out, noise.random::<u64>())
        };
        prop_assert_eq!(run(true, &Tape::new()), run(false, &Tape::new()));
        prop_assert_eq!(run(true, &Tape::no_grad()), run(false, &Tape::no_grad()));
    }

    #[test]
    fn frozen_params_get_no_gradient_but_pass_input_gradients_through(
        seed in any::<u64>(),
        batch in 1usize..=64,
        width in 1usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let block = ResidualBlock::new(4, width, &mut rng);
        let mlp = Mlp::new(&MlpConfig::new(block.out_dim(), &[width], 2), &mut rng);
        let mut frozen = mlp.params();
        frozen.extend(&block.params());
        let x = Param::new(randn(batch, 4, 1.0, &mut rng));
        let target = randn(batch, 2, 1.0, &mut rng);
        let run = |tape: &Tape| -> (Vec<u32>, Vec<Vec<u32>>) {
            let mut draws = StdRng::seed_from_u64(seed ^ 7);
            let h = block.forward(tape, tape.param(&x), true);
            let y = mlp.forward(tape, h, true, &mut draws);
            tape.backward(y.mse(&target));
            let params: Vec<&Param> = frozen.iter().collect();
            let x_grad = take_grads(&[&x]).remove(0);
            (x_grad, take_grads(&params))
        };
        let (x_free, layer_grads) = run(&Tape::new());
        let (x_frozen, frozen_grads) = run(&Tape::frozen(&frozen));
        prop_assert_eq!(x_free, x_frozen, "input gradient differs when frozen");
        prop_assert!(layer_grads.iter().flatten().any(|&b| b != 0), "unfrozen layers train");
        prop_assert!(frozen_grads.iter().flatten().all(|&b| b == 0), "a frozen param got a gradient");

        let tape = Tape::frozen(&ParamSet::from_iter([mlp.params().iter().next().unwrap().clone()]));
        let w = tape.param(mlp.params().iter().next().unwrap());
        prop_assert!(!w.requires_grad(), "a frozen param enters as a constant");
        prop_assert!(tape.param(&x).requires_grad(), "other params still train");
    }
}
