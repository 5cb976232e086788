//! A `Tape::no_grad` forward is the same computation as a recording one:
//! bit-identical values, identical RNG draws (dropout masks), identical
//! batch-norm running-statistic updates — only the gradient buffers are
//! missing.

use kinet_nn::layers::{Activation, Mlp, MlpConfig, ResidualBlock};
use kinet_nn::Tape;
use kinet_tensor::{Matrix, MatrixRandomExt};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_grad_mlp_forward_with_dropout_is_bit_identical(
        seed in any::<u64>(),
        batch in 1usize..9,
        depth in 0usize..3,
        width in 1usize..7,
        dropout_pct in 0u32..60,
    ) {
        let mut init = StdRng::seed_from_u64(seed);
        let cfg = MlpConfig::new(4, &vec![width; depth], 2)
            .with_activation(Activation::LeakyRelu(0.2))
            .with_dropout(dropout_pct as f32 / 100.0);
        let mlp = Mlp::new(&cfg, &mut init);
        let x = Matrix::randn(batch, 4, 0.0, 1.0, &mut init);
        for training in [true, false] {
            let run = |tape: &Tape, rng: &mut StdRng| -> (Vec<u32>, bool) {
                let out = mlp.forward(tape, tape.constant(x.clone()), training, rng);
                (bits(&out.value()), out.requires_grad())
            };
            let mut rng_a = StdRng::seed_from_u64(seed ^ 1);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 1);
            let (a, a_grad) = run(&Tape::new(), &mut rng_a);
            let (b, b_grad) = run(&Tape::no_grad(), &mut rng_b);
            prop_assert_eq!(a, b, "output differs (training={})", training);
            prop_assert!(a_grad && !b_grad, "only the recording tape requires grad");
            prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG state differs");
        }
    }

    #[test]
    fn no_grad_residual_block_updates_running_stats_identically(
        seed in any::<u64>(),
        batch in 1usize..9,
        width in 1usize..6,
    ) {
        let recorded = ResidualBlock::new(3, width, &mut StdRng::seed_from_u64(seed));
        let value_only = ResidualBlock::new(3, width, &mut StdRng::seed_from_u64(seed));
        let x = Matrix::randn(batch, 3, 0.5, 2.0, &mut StdRng::seed_from_u64(!seed));
        let fwd = |block: &ResidualBlock, tape: &Tape, training: bool| -> Vec<u32> {
            let out = block.forward(tape, tape.constant(x.clone()), training);
            bits(&out.value())
        };
        prop_assert_eq!(
            fwd(&recorded, &Tape::new(), true),
            fwd(&value_only, &Tape::no_grad(), true),
            "training output differs"
        );
        // Eval mode reads the running statistics the training pass folded in.
        prop_assert_eq!(
            fwd(&recorded, &Tape::new(), false),
            fwd(&value_only, &Tape::new(), false),
            "running statistics differ"
        );
    }
}
