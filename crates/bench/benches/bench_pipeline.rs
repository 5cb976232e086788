//! End-to-end pipeline benchmarks: the `fast_demo` KiNETGAN fit (with and
//! without knowledge guidance), the `paper` Lab roster fit, a
//! rejection-sampling release, and one training step's knowledge-infusion
//! work.

use criterion::{criterion_group, criterion_main, Criterion};
use kinet_bench::{fit_roster, Dataset, ExpConfig};
use kinet_data::synth::TabularSynthesizer;
use kinet_data::transform::DataTransformer;
use kinet_data::Table;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinetgan::pipeline::KgTrainPipeline;
use kinetgan::{KgMode, KinetGan, KinetGanConfig};
use rand::{rngs::StdRng, SeedableRng};

fn lab_data(n: usize) -> Table {
    LabSimulator::new(LabSimConfig {
        n_records: n,
        seed: 3,
        ..LabSimConfig::default()
    })
    .generate()
    .expect("lab generation succeeds")
}

fn config() -> KinetGanConfig {
    KinetGanConfig::fast_demo().with_epochs(4).with_seed(7)
}

fn bench_fit(c: &mut Criterion) {
    let data = lab_data(512);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(5);
    group.bench_function("fit_fast_demo_interned", |b| {
        b.iter(|| {
            let mut model = KinetGan::new(config(), LabSimulator::knowledge_graph());
            model.fit(&data).expect("training succeeds");
            criterion::black_box(model.report().map(|r| r.g_loss.len()))
        });
    });
    // The floor: no knowledge guidance at all (pure conditional GAN).
    group.bench_function("fit_fast_demo_kg_off", |b| {
        b.iter(|| {
            let mut model = KinetGan::new(
                config().with_kg_mode(KgMode::Off),
                LabSimulator::knowledge_graph(),
            );
            model.fit(&data).expect("training succeeds");
            criterion::black_box(model.report().map(|r| r.g_loss.len()))
        });
    });
    group.finish();
}

/// KiNETGAN and the five baselines fitted once on the Lab dataset, as the
/// `paper` binary fits them, at CI scale (250 rows, 2 epochs, seed 7).
fn bench_fit_roster(c: &mut Criterion) {
    let cfg = ExpConfig {
        rows: 250,
        epochs: 2,
        seed: 7,
        probes: 40,
    };
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(5);
    group.bench_function("fit_roster_lab", |b| {
        b.iter(|| criterion::black_box(fit_roster(Dataset::Lab, &cfg).models.len()));
    });
    group.finish();
}

fn bench_sample_rejection(c: &mut Criterion) {
    let data = lab_data(512);
    let mut model = KinetGan::new(
        config().with_rejection_rounds(2),
        LabSimulator::knowledge_graph(),
    );
    model.fit(&data).expect("training succeeds");
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(5);
    group.bench_function("sample_rejection_interned", |b| {
        b.iter(|| criterion::black_box(model.sample(1024, 5).expect("sampling succeeds")));
    });
    group.finish();
}

/// The fast_demo fit step's knowledge-infusion work, end to end (real rows
/// in → encoded KG-valid positives matrix out).
fn bench_kg_infusion_step(c: &mut Criterion) {
    let data = lab_data(512);
    let kg = LabSimulator::knowledge_graph();
    let transformer = DataTransformer::fit(&data, 4, 7).expect("non-empty table");
    let real_idx: Vec<usize> = (0..64).map(|i| (i * 7) % data.n_rows()).collect();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.bench_function("kg_infusion_step_interned", |b| {
        let mut pipe = KgTrainPipeline::new(&kg, &data, &transformer);
        let mut pos = kinet_tensor::Matrix::default();
        let mut rng = StdRng::seed_from_u64(9);
        b.iter(|| {
            pipe.fill_positives(&real_idx, &mut pos, &mut rng, 8)
                .expect("lab KG rules align with the schema");
            criterion::black_box(pos.as_slice()[0])
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fit,
    bench_fit_roster,
    bench_sample_rejection,
    bench_kg_infusion_step
);
criterion_main!(benches);
