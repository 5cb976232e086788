//! Benchmarks the knowledge-graph reasoner — the component sitting inside
//! the GAN training loop's hot path — including the string-reference vs
//! interned-compiled comparison on a 20k-row batch.

use criterion::{criterion_group, criterion_main, Criterion};
use kinet_data::encoded::{row_to_assignment, EncodedTable, KgColumnBinding, KgTableChecker};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_kg::{Assignment, AttrValue, NetworkKg};

fn record(port: f64) -> Assignment {
    Assignment::new()
        .with("event", "cve_1999_0003".into())
        .with("protocol", "udp".into())
        .with("dst_port", AttrValue::num(port))
        .with("src_ip", "192.168.1.12".into())
        .with("dst_ip", "192.168.1.10".into())
}

fn bench_validity(c: &mut Criterion) {
    let kg = NetworkKg::lab_default();
    let a = record(33000.0);
    c.bench_function("reasoner_is_valid_uncached", |bencher| {
        bencher.iter(|| std::hint::black_box(kg.reasoner().is_valid(&a).is_valid()));
    });
}

fn bench_batch_validity(c: &mut Criterion) {
    let kg = NetworkKg::lab_default();
    let batch: Vec<Assignment> = (0..128)
        .map(|i| record(32000.0 + i as f64 * 20.0))
        .collect();
    c.bench_function("reasoner_validity_rate_128", |bencher| {
        bencher.iter(|| std::hint::black_box(kg.reasoner().validity_rate(&batch)));
    });
}

/// The tentpole comparison: scoring a 20k-row table through the reference
/// string pipeline (rows → assignments → reasoner) vs the
/// compiled interned path, from the same `Table`.
fn bench_validity_rate_20k(c: &mut Criterion) {
    let table = LabSimulator::new(LabSimConfig {
        n_records: 20_000,
        seed: 11,
        ..LabSimConfig::default()
    })
    .generate()
    .expect("lab generation succeeds");
    let kg = LabSimulator::knowledge_graph();
    let mut group = c.benchmark_group("validity_rate");
    group.sample_size(10);
    group.bench_function("20k_string", |b| {
        b.iter(|| {
            let batch: Vec<Assignment> = (0..table.n_rows())
                .map(|r| row_to_assignment(&table, r))
                .collect();
            criterion::black_box(kg.reasoner().validity_rate(&batch))
        });
    });
    group.bench_function("20k_interned", |b| {
        b.iter(|| {
            let checker = KgTableChecker::new(kg.compiled(), kg.base_interner(), table.schema());
            criterion::black_box(checker.validity_rate(&table).expect("schema matches"))
        });
    });
    // Pre-encoded variant: the cost once a pipeline holds an EncodedTable.
    let enc = EncodedTable::encode(&table, kg.base_interner().clone());
    let binding = KgColumnBinding::bind(kg.compiled(), table.schema());
    group.bench_function("20k_pre_encoded", |b| {
        b.iter(|| criterion::black_box(enc.validity_rate(kg.compiled(), &binding)));
    });
    group.finish();
}

fn bench_store_query(c: &mut Criterion) {
    let kg = NetworkKg::lab_default();
    let subject = kinet_kg::Iri::new("lab:blink_camera");
    c.bench_function("store_query_by_subject", |bencher| {
        bencher.iter(|| std::hint::black_box(kg.store().query(Some(&subject), None, None).len()));
    });
}

criterion_group!(
    benches,
    bench_validity,
    bench_batch_validity,
    bench_validity_rate_20k,
    bench_store_query
);
criterion_main!(benches);
