//! The discriminator step and sampling run the generator on a value-only
//! tape (`Tape::no_grad`). That is only sound if the no-grad forward is the
//! same computation: bit-identical output and head logits, the same RNG
//! draws, and the same batch-norm running-statistic updates as a forward on
//! a gradient-recording tape, for any batch size and head layout.

use kinet_data::transform::DataTransformer;
use kinet_data::{ColumnMeta, Schema, Table, Value};
use kinet_nn::{Tape, Var};
use kinet_tensor::{Matrix, MatrixRandomExt};
use kinetgan::ConditionalGenerator;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};

const COND_DIM: usize = 3;
const Z_DIM: usize = 6;

/// A table with `n_cat` categorical columns (2, 3, … categories) and
/// `n_cont` continuous ones, so the transformer's head layout varies.
fn transformer(seed: u64, n_cat: usize, n_cont: usize) -> DataTransformer {
    let mut cols = Vec::new();
    for i in 0..n_cat {
        cols.push(ColumnMeta::categorical(format!("c{i}")));
    }
    for i in 0..n_cont {
        cols.push(ColumnMeta::continuous(format!("x{i}")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..40)
        .map(|r| {
            let mut row: Vec<Value> = (0..n_cat)
                .map(|i| Value::cat(format!("v{}", (r + rng.random_range(0..2usize)) % (i + 2))))
                .collect();
            row.extend((0..n_cont).map(|_| Value::num(rng.random::<f64>() * 100.0)));
            row
        })
        .collect();
    let table = Table::from_rows(Schema::new(cols), rows).expect("consistent rows");
    DataTransformer::fit(&table, 3, seed).expect("fit succeeds")
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Output bits, per-head logit bits and whether the output requires grad.
type Forward = (Vec<u32>, Vec<Vec<u32>>, bool);

fn run(
    g: &ConditionalGenerator,
    tape: &Tape,
    c: &Matrix,
    training: bool,
    rng: &mut StdRng,
) -> Forward {
    let out = g.generate(tape, c, 0.4, training, rng);
    let heads = out.head_logits.iter().map(|h: &Var<'_>| bits(&h.value()));
    (
        bits(&out.output.value()),
        heads.collect(),
        out.output.requires_grad(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_grad_generator_forward_is_bit_identical(
        seed in any::<u64>(),
        batch in 1usize..9,
        n_cat in 1usize..4,
        n_cont in 0usize..3,
        hidden in 1usize..3,
    ) {
        let tx = transformer(seed, n_cat, n_cont);
        let widths = vec![8; hidden];
        // Two generators with identical weights and separate batch-norm
        // running statistics: one per tape kind.
        let recorded = ConditionalGenerator::new(
            Z_DIM, COND_DIM, &widths, &tx, &mut StdRng::seed_from_u64(seed));
        let value_only = ConditionalGenerator::new(
            Z_DIM, COND_DIM, &widths, &tx, &mut StdRng::seed_from_u64(seed));
        let c = Matrix::randn(batch, COND_DIM, 0.0, 1.0, &mut StdRng::seed_from_u64(!seed));

        for training in [true, false] {
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5eed);
            let a = run(&recorded, &Tape::new(), &c, training, &mut rng_a);
            let b = run(&value_only, &Tape::no_grad(), &c, training, &mut rng_b);
            prop_assert_eq!(&a.0, &b.0, "output differs (training={})", training);
            prop_assert_eq!(&a.1, &b.1, "head logits differ (training={})", training);
            prop_assert!(a.2 && !b.2, "only the recording tape requires grad");
            prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG state differs");
        }

        // Eval mode reads the running statistics: identical eval outputs on
        // the same input mean the training forward updated them identically.
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let a = run(&recorded, &Tape::new(), &c, false, &mut rng_a);
        let b = run(&value_only, &Tape::new(), &c, false, &mut rng_b);
        prop_assert_eq!(a.0, b.0, "batch-norm running statistics differ");
    }
}
