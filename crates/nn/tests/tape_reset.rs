//! A reset tape records the next graph exactly as a new tape would:
//! bit-identical forward values, parameter gradients, RNG draws and
//! batch-norm running statistics, also when the graph's shape changed
//! since the reset. The steps below have the shape of a conditional GAN's
//! training step: the generator on a value-only tape, a discriminator step
//! on a recording tape, and a generator step on a tape frozen over the
//! discriminator.

use kinet_nn::layers::{
    head_logits, output_heads, BatchNorm1d, Linear, Mlp, MlpConfig, OutputHead,
};
use kinet_nn::loss::{gan_discriminator_loss, gan_generator_loss};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::{Param, ParamSet, Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const Z: usize = 5;
const COND: usize = 3;
const TAU: f32 = 0.4;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Each parameter's gradient bits.
fn grads(params: &ParamSet) -> Vec<Vec<u32>> {
    params.iter().map(|p| bits(&p.grad())).collect()
}

/// A one-block residual generator and two discriminators with dropout.
struct Gan {
    fc: Linear,
    bn: BatchNorm1d,
    out: Linear,
    layout: Vec<OutputHead>,
    d_m: Mlp,
    d_kg: Mlp,
    g_opt: Adam,
    d_opt: Adam,
}

impl Gan {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let layout = vec![
            OutputHead::Tanh(1),
            OutputHead::GumbelSoftmax(COND),
            OutputHead::GumbelSoftmax(2),
        ];
        let width: usize = layout.iter().map(|h| h.width()).sum();
        let hidden = 6;
        let fc = Linear::kaiming(Z + COND, hidden, &mut rng);
        let bn = BatchNorm1d::new(hidden);
        let out = Linear::new(Z + COND + hidden, width, &mut rng);
        let disc = |input: usize, rng: &mut StdRng| {
            Mlp::new(&MlpConfig::new(input, &[7], 1).with_dropout(0.3), rng)
        };
        let d_m = disc(width + COND, &mut rng);
        let d_kg = disc(width, &mut rng);
        let mut g_params = fc.params();
        g_params.extend(&bn.params());
        g_params.extend(&out.params());
        let mut d_params = d_m.params();
        d_params.extend(&d_kg.params());
        Self {
            g_opt: Adam::with_betas(g_params, 0.01, 0.5, 0.9),
            d_opt: Adam::with_betas(d_params, 0.01, 0.5, 0.9),
            fc,
            bn,
            out,
            layout,
            d_m,
            d_kg,
        }
    }

    /// The generated batch and its per-head logits.
    fn generate<'t>(
        &self,
        tape: &'t Tape,
        c: &Matrix,
        rng: &mut StdRng,
    ) -> (Var<'t>, Vec<Var<'t>>) {
        let z = tape.constant_with(c.rows(), Z, |z| z.randn_into(0.0, 1.0, rng));
        let x = Var::concat_cols(&[z, tape.constant_copy(c)]);
        let h = self.bn.forward(tape, self.fc.forward(tape, x), true).relu();
        let logits = self.out.forward(tape, Var::concat_cols(&[x, h]));
        (
            output_heads(logits, &self.layout, TAU, rng),
            head_logits(logits, &self.layout),
        )
    }

    fn d_m<'t>(&self, tape: &'t Tape, rows: Var<'t>, c: &Matrix, rng: &mut StdRng) -> Var<'t> {
        let input = Var::concat_cols(&[rows, tape.constant_copy(c)]);
        self.d_m.forward(tape, input, true, rng)
    }
}

/// The three tapes of a step.
struct Tapes {
    gen: Tape,
    d: Tape,
    g: Tape,
}

impl Tapes {
    fn new(gan: &Gan) -> Self {
        Self {
            gen: Tape::no_grad(),
            d: Tape::new(),
            g: Tape::frozen(gan.d_opt.params()),
        }
    }
}

/// One discriminator step and one generator step over `batch` rows, on
/// `tapes` reset (`fresh = false`) or replaced by new ones. Returns the
/// bits of every forward value, gradient and running statistic.
fn step(
    gan: &mut Gan,
    tapes: &mut Tapes,
    fresh: bool,
    batch: usize,
    kg: bool,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let c = Matrix::from_fn(batch, COND, |r, j| f32::from(u8::from(r % COND == j)));
    let real = Matrix::randn(
        batch,
        gan.layout.iter().map(|h| h.width()).sum(),
        0.0,
        1.0,
        rng,
    );
    if fresh {
        *tapes = Tapes::new(gan);
    }

    // Discriminator step: the fake batch comes from a value-only tape.
    tapes.gen.reset();
    let (fake, _) = gan.generate(&tapes.gen, &c, rng);
    tapes.d.reset();
    let tape = &tapes.d;
    let fake = fake.with_value(|v| tape.constant_copy(v));
    let real = tape.constant_copy(&real);
    let (d_real, d_fake) = (gan.d_m(tape, real, &c, rng), gan.d_m(tape, fake, &c, rng));
    let mut loss = gan_discriminator_loss(d_real, d_fake, 0.9);
    if kg {
        let kg_pos = gan.d_kg.forward(tape, real, true, rng);
        let kg_neg = gan.d_kg.forward(tape, fake, true, rng);
        loss = loss.add(gan_discriminator_loss(kg_pos, kg_neg, 1.0));
    }
    tape.backward(loss);
    out.extend(
        [fake, d_real, d_fake, loss]
            .iter()
            .map(|v| bits(&v.value())),
    );
    out.extend(grads(gan.d_opt.params()));
    gan.d_opt.step();
    gan.d_opt.zero_grad();

    // Generator step: gradients flow through the frozen discriminators.
    tapes.g.reset();
    let tape = &tapes.g;
    let (fake, logits) = gan.generate(tape, &c, rng);
    let mut score = gan.d_m(tape, fake, &c, rng);
    if kg {
        score = score.add(gan.d_kg.forward(tape, fake, true, rng).scale(0.5));
    }
    let mut loss = gan_generator_loss(score);
    loss = loss.add(logits[1].softmax_cross_entropy(&c));
    // An owned constant on the reused tape, as a knowledge mask is.
    let mask = Matrix::from_fn(batch, 2, |r, j| f32::from(u8::from((r + j) % 3 == 0)));
    loss = loss.add(logits[2].softmax().mul_const(mask).sum().scale(0.1));
    tape.backward(loss);
    out.extend([fake, score, loss].iter().map(|v| bits(&v.value())));
    out.extend(logits.iter().map(|v| bits(&v.value())));
    out.extend(grads(gan.g_opt.params()));
    out.extend(grads(gan.d_opt.params()));
    gan.g_opt.step();
    gan.g_opt.zero_grad();

    let (mean, var) = gan.bn.running_stats();
    out.extend([bits(&mean), bits(&var)]);
    out
}

/// Runs the steps `(batch, kg)` on one model with kept, reset tapes and on
/// a twin model with new tapes every step, and compares them step by step.
fn reset_matches_fresh(seed: u64, steps: &[(usize, bool)]) -> Result<(), String> {
    let (mut kept, mut fresh) = (Gan::new(seed), Gan::new(seed));
    let mut kept_tapes = Tapes::new(&kept);
    let mut fresh_tapes = Tapes::new(&fresh);
    let (mut kept_rng, mut fresh_rng) =
        (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
    for (i, &(batch, kg)) in steps.iter().enumerate() {
        let a = step(&mut kept, &mut kept_tapes, false, batch, kg, &mut kept_rng);
        let b = step(
            &mut fresh,
            &mut fresh_tapes,
            true,
            batch,
            kg,
            &mut fresh_rng,
        );
        prop_assert_eq!(a, b, "step {} (batch {}, kg {})", i, batch, kg);
    }
    prop_assert_eq!(
        kept_rng.next_u64(),
        fresh_rng.next_u64(),
        "RNG end state differs"
    );
    let params = |g: &Gan| -> Vec<Vec<u32>> {
        let all = g.g_opt.params().iter().chain(g.d_opt.params().iter());
        all.map(|p: &Param| bits(&p.value())).collect()
    };
    prop_assert_eq!(params(&kept), params(&fresh));
    Ok(())
}

#[test]
fn reset_tapes_match_fresh_tapes_across_a_shape_change() {
    // The third step shrinks the batch and drops D_KG; the fourth grows
    // the batch past the first steps' buffers; the last two repeat the
    // first step's shapes.
    let steps = [
        (8, true),
        (8, true),
        (5, false),
        (11, true),
        (8, true),
        (8, true),
    ];
    reset_matches_fresh(17, &steps).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reset_tapes_match_fresh_tapes(
        seed in any::<u64>(),
        steps in prop::collection::vec((1usize..10, any::<bool>()), 3..6),
    ) {
        reset_matches_fresh(seed, &steps)?;
    }
}
