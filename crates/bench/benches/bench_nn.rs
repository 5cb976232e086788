//! Benchmarks one full GAN-style training step (forward + backward +
//! optimizer) on the autograd stack, and the KiNETGAN generator's forward
//! and backward at the fleet's `small_shard` shapes (the fused layer
//! nodes' path).

use criterion::{criterion_group, criterion_main, Criterion};
use kinet_data::condition::ConditionVectorSpec;
use kinet_data::transform::DataTransformer;
use kinet_data::ColumnKind;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_nn::layers::{Activation, Mlp, MlpConfig};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::Tape;
use kinet_tensor::{Matrix, MatrixRandomExt};
use kinetgan::{ConditionalGenerator, KinetGanConfig};
use rand::{rngs::StdRng, SeedableRng};

fn bench_training_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mlp = Mlp::new(
        &MlpConfig::new(96, &[128, 128], 1).with_activation(Activation::LeakyRelu(0.2)),
        &mut rng,
    );
    let mut opt = Adam::new(mlp.params(), 1e-3);
    let x = Matrix::randn(128, 96, 0.0, 1.0, &mut rng);
    let t = Matrix::zeros(128, 1);
    c.bench_function("mlp_train_step_128x96", |bencher| {
        bencher.iter(|| {
            let tape = Tape::new();
            let out = mlp.forward(&tape, tape.constant(x.clone()), true, &mut rng);
            let loss = out.bce_with_logits(&t);
            tape.backward(loss);
            opt.step();
            opt.zero_grad();
        });
    });
}

fn bench_generator_step(c: &mut Criterion) {
    let cfg = KinetGanConfig::small_shard();
    let shard = LabSimulator::new(LabSimConfig::small(500, 42))
        .generate()
        .expect("lab shard");
    let transformer = DataTransformer::fit(&shard, cfg.max_modes, 42).expect("transformer");
    assert_eq!(transformer.width(), 53, "small_shard lab encoding width");
    let schema = shard.schema();
    let kg = LabSimulator::knowledge_graph();
    let cond_cols: Vec<&str> = kg
        .conditional_fields()
        .iter()
        .map(String::as_str)
        .filter(|f| {
            schema
                .index_of(f)
                .is_some_and(|i| schema.column(i).kind() == ColumnKind::Categorical)
        })
        .collect();
    let cond_dim = ConditionVectorSpec::fit(&shard, &cond_cols)
        .expect("condition spec")
        .width();
    let mut rng = StdRng::seed_from_u64(2);
    let gen =
        ConditionalGenerator::new(cfg.z_dim, cond_dim, &cfg.gen_hidden, &transformer, &mut rng);
    let params = gen.params();
    let cond = Matrix::from_fn(cfg.batch_size, cond_dim, |r, j| {
        f32::from(u8::from(j == r % cond_dim))
    });
    let target = Matrix::zeros(cfg.batch_size, transformer.width());
    c.bench_function("generator_step_32x53", |bencher| {
        bencher.iter(|| {
            let tape = Tape::new();
            let out = gen.generate(&tape, &cond, cfg.tau, true, &mut rng);
            let loss = out
                .output
                .mse(&target)
                .add(out.head_logits[0].softmax().sum());
            tape.backward(loss);
            params.zero_grad();
        });
    });
}

fn bench_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mlp = Mlp::new(
        &MlpConfig::new(96, &[128, 128], 1).with_activation(Activation::LeakyRelu(0.2)),
        &mut rng,
    );
    let x = Matrix::randn(512, 96, 0.0, 1.0, &mut rng);
    c.bench_function("mlp_infer_512x96", |bencher| {
        bencher.iter(|| std::hint::black_box(mlp.infer(&x)));
    });
}

criterion_group!(
    benches,
    bench_training_step,
    bench_generator_step,
    bench_inference
);
criterion_main!(benches);
