//! Benchmarks the data pipeline: GMM fitting, whole-table transforms,
//! condition sampling, and parsing persisted JSON (snapshot recovery and
//! report reloads).

use criterion::{criterion_group, criterion_main, Criterion};
use kinet_data::condition::ConditionVectorSpec;
use kinet_data::gmm::GaussianMixture1d;
use kinet_data::sampler::{BalanceMode, TrainingSampler};
use kinet_data::transform::DataTransformer;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde_json::Value;

fn bench_gmm_fit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let data: Vec<f64> = (0..2000)
        .map(|i| if i % 2 == 0 { 10.0 } else { 100.0 } + rng.random::<f64>())
        .collect();
    c.bench_function("gmm_fit_2000x4", |bencher| {
        bencher.iter(|| std::hint::black_box(GaussianMixture1d::fit(&data, 4, 50, 1)));
    });
}

fn bench_transform(c: &mut Criterion) {
    let table = LabSimulator::new(LabSimConfig::small(2000, 1))
        .generate()
        .unwrap();
    let tx = DataTransformer::fit(&table, 6, 0).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("transform_2000_rows", |bencher| {
        bencher.iter(|| std::hint::black_box(tx.transform(&table, &mut rng)));
    });
    let encoded = tx.transform(&table, &mut rng);
    c.bench_function("inverse_transform_2000_rows", |bencher| {
        bencher.iter(|| std::hint::black_box(tx.inverse_transform(&encoded).unwrap()));
    });
}

fn bench_condition_sampling(c: &mut Criterion) {
    let table = LabSimulator::new(LabSimConfig::small(2000, 3))
        .generate()
        .unwrap();
    let spec = ConditionVectorSpec::fit(&table, &["event", "device", "protocol"]).unwrap();
    let sampler = TrainingSampler::fit(&table, &spec).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("sample_condition_batch_128", |bencher| {
        bencher.iter(|| {
            std::hint::black_box(
                sampler
                    .sample_batch(&table, &spec, BalanceMode::Uniform, true, 128, &mut rng)
                    .unwrap(),
            )
        });
    });
}

/// Parses a compact JSON array of `n` 10-character strings (13 bytes per
/// element). Many short strings is the shape that made the parser
/// quadratic when it re-validated the rest of the input per character.
fn bench_json_parse(c: &mut Criterion) {
    for (name, n) in [("json_parse_52kb", 4_000), ("json_parse_832kb", 64_000)] {
        let text = Value::Array(
            (0..n)
                .map(|i| Value::String(format!("flow-{i:05}")))
                .collect(),
        )
        .to_json_string();
        c.bench_function(name, |bencher| {
            bencher.iter(|| std::hint::black_box(serde_json::parse_value(&text).unwrap()));
        });
    }
}

criterion_group!(
    benches,
    bench_gmm_fit,
    bench_transform,
    bench_condition_sampling,
    bench_json_parse
);
criterion_main!(benches);
