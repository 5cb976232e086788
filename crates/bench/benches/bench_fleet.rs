//! Fleet-throughput benchmarks: the streaming raw-sharing pipeline at
//! growing devices × rows scales (shard generation, chunked windows,
//! pooling, global evaluation — no GAN training, so the numbers isolate
//! the orchestration subsystem itself), plus the chunked UNSW generator
//! the out-of-core path rides on, the two detector fits every
//! resident-service round ends with (the evaluation forest and the
//! serving model), each alone on a raw 4 × 500 pool, the serving
//! model's flow scorer alone, and one resident-service restart.
//!
//! The scaling curve lands in `target/experiments/BENCH_fleet.json`;
//! `bench_gate` diffs it against `benches/baseline/BENCH_fleet.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use kinet_data::stream::ChunkSource;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_datasets::unsw::{UnswSimConfig, UnswSimulator};
use kinet_eval::classifiers::{Classifier, RandomForest};
use kinet_eval::encode::MlEncoder;
use kinet_fleet::schedule::run_indexed_settled;
use kinet_fleet::{
    FleetConfig, FleetService, FleetSim, MemStorage, ServiceConfig, ServingConfig, ServingModel,
    SharingPolicy, SnapshotStore,
};
use std::time::Instant;

fn fleet_config(devices: usize, rows: usize) -> FleetConfig {
    FleetConfig {
        n_devices: devices,
        rows_per_device: rows,
        test_records: 600,
        policy: SharingPolicy::Raw,
        seed: 11,
        chunk_rows: 512,
        device_window: Some(128),
        ..FleetConfig::default()
    }
}

/// The two detector fits of a resident-service round, each alone: the
/// `evaluate_nids` forest (12 trees, depth 10) on the pool's `MlEncoder`
/// features, and `ServingModel::train` at the service's 40 epochs.
fn bench_detector_fits(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(5);
    // A resident-service round's pool: all 2,000 rows, no device window.
    let cfg = FleetConfig {
        n_devices: 4,
        rows_per_device: 500,
        policy: SharingPolicy::Raw,
        seed: 11,
        ..FleetConfig::default()
    };
    let (_, pool) = FleetSim::new(cfg)
        .run_detailed()
        .expect("setup round succeeds");
    let pool = pool.expect("raw sharing commits a pool");
    let encoder = MlEncoder::fit(&pool, LabSimulator::label_column()).expect("pool encoder fits");
    let (x, y) = encoder.encode(&pool).expect("pool encodes");
    assert_eq!(x.shape(), (2_000, 24), "forest input shape");
    group.bench_function("forest_fit/2000x24", |b| {
        b.iter(|| {
            let mut forest = RandomForest::new(12, 10);
            forest.fit(&x, &y, encoder.n_classes());
            criterion::black_box(forest)
        });
    });
    group.bench_function("serving_train/4x500", |b| {
        b.iter(|| {
            let model = ServingModel::train(&pool, 40, 29).expect("serving model trains");
            criterion::black_box(model)
        });
    });
    group.finish();
}

/// The serving scorer alone, uncontended: 64 flow batches of 96 rows
/// (the resident-service benchmark's batch shape) through
/// `ServingModel::score_batch`, the model fitted at the service's 40
/// epochs on a raw 4 × 500 pool.
fn bench_serving_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(5);
    let cfg = FleetConfig {
        n_devices: 4,
        rows_per_device: 500,
        policy: SharingPolicy::Raw,
        seed: 11,
        ..FleetConfig::default()
    };
    let (_, pool) = FleetSim::new(cfg)
        .run_detailed()
        .expect("setup round succeeds");
    let pool = pool.expect("raw sharing commits a pool");
    let model = ServingModel::train(&pool, 40, 29).expect("serving model trains");
    let flows: Vec<_> = (0..64u64)
        .map(|b| {
            LabSimulator::new(LabSimConfig::small(96, 1009 ^ b.wrapping_mul(0x9e37_79b9)))
                .generate()
                .expect("flow batch generation succeeds")
        })
        .collect();
    group.bench_function("serving_score/64x96", |b| {
        b.iter(|| {
            let mut flagged = 0usize;
            for flow in &flows {
                let (rows, f) = model.score_batch(flow).expect("serving batch succeeds");
                assert_eq!(rows, 96);
                flagged += f;
            }
            criterion::black_box(flagged)
        });
    });
    group.finish();
}

/// One resident-service restart: `FleetService::run` over a store that
/// already holds 40 committed raw-sharing rounds (4 × 500, serving on),
/// so it reads and decodes the newest snapshot, reinstalls its serving
/// model and runs no round. The store is built on the first call, outside
/// the timed loop, and only when the case is selected.
fn bench_service_recover(c: &mut Criterion) {
    const ROUNDS: usize = 40;
    let mut group = c.benchmark_group("fleet");
    group.sample_size(5);
    let mut built = None;
    group.bench_function(&format!("service_recover/{ROUNDS}"), |b| {
        let (service, store) = built.get_or_insert_with(|| {
            let service = FleetService::new(ServiceConfig {
                fleet: FleetConfig {
                    n_devices: 4,
                    rows_per_device: 500,
                    test_records: 800,
                    policy: SharingPolicy::Raw,
                    seed: 11,
                    ..FleetConfig::default()
                },
                rounds: ROUNDS,
                serving: ServingConfig::enabled(4, 128),
                ..ServiceConfig::default()
            });
            let mut store = SnapshotStore::new(Box::new(MemStorage::new()));
            let report = service.run(&mut store).expect("service run succeeds");
            assert_eq!(report.committed_rounds, ROUNDS);
            (service, store)
        });
        b.iter(|| {
            let back = service.run(store).expect("restart succeeds");
            assert_eq!(back.resumed_from_generation, Some(ROUNDS as u64));
            criterion::black_box(back.rounds.len())
        });
    });
    group.finish();
}

/// Raw-sharing fleet runs across the devices × rows grid named in the
/// ROADMAP (4×500 toy scale up to the 32×5k fleet scale).
fn bench_fleet_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(5);
    for (devices, rows) in [(4usize, 500usize), (8, 1_000), (32, 5_000)] {
        let name = format!("raw_stream/{devices}x{rows}");
        group.bench_function(&name, |b| {
            let cfg = fleet_config(devices, rows);
            b.iter(|| {
                let report = FleetSim::new(cfg.clone())
                    .run()
                    .expect("fleet run succeeds");
                assert!(report.peak_decoded_rows <= 512 + 128);
                criterion::black_box(report.global_accuracy)
            });
        });
    }
    group.finish();
}

/// The chunked UNSW generator feeding out-of-core pipelines: cost of
/// streaming 20k rows in 1k chunks without materializing the table.
fn bench_unsw_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(5);
    group.bench_function("unsw_chunked/20k", |b| {
        let sim = UnswSimulator::new(UnswSimConfig {
            n_records: 20_000,
            seed: 15,
        });
        b.iter(|| {
            let mut source = sim.chunk_source();
            let mut rows = 0usize;
            while let Some(chunk) = source.next_chunk(1_024).expect("generation succeeds") {
                rows += chunk.n_rows();
            }
            assert_eq!(rows, 20_000);
            criterion::black_box(rows)
        });
    });
    group.finish();
}

/// Serving under training pressure: each iteration schedules a full
/// raw-sharing round and a 32-batch flow-scoring burst as two settled
/// tasks on the shared worker pool, so `score_rows` is measured while a
/// round contends for the same workers. The closing summary reports
/// rows/s (wall clock — this crate is the sanctioned timing module).
fn bench_serving_under_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(5);

    let cfg = fleet_config(4, 500);
    let (_, pool) = FleetSim::new(cfg.clone())
        .run_detailed()
        .expect("setup round succeeds");
    let pool = pool.expect("raw sharing commits a pool");
    let model = ServingModel::train(&pool, 10, 29).expect("serving model trains");
    let batches = 32usize;
    let batch_rows = 96usize;
    let flows: Vec<_> = (0..batches)
        .map(|b| {
            LabSimulator::new(LabSimConfig::small(batch_rows, 29 ^ (b as u64 + 11)))
                .generate()
                .expect("flow batch generation succeeds")
        })
        .collect();

    let t0 = Instant::now();
    let mut rows_scored = 0u64;
    group.bench_function("serve_under_train/4x500+32x96", |b| {
        b.iter(|| {
            let outcomes = run_indexed_settled(2, |task| {
                if task == 0 {
                    let report = FleetSim::new(cfg.clone())
                        .run()
                        .expect("training round succeeds");
                    (report.global_accuracy * 1e6) as u64
                } else {
                    let mut rows = 0u64;
                    for flow in &flows {
                        let (n, _) = model.score_batch(flow).expect("serving batch succeeds");
                        rows += n as u64;
                    }
                    rows
                }
            });
            rows_scored += outcomes[1];
            criterion::black_box(outcomes[1])
        });
    });
    let wall_secs = t0.elapsed().as_secs_f64().max(1e-9);
    // Nothing to summarize when the bench-name filter skipped the case.
    if rows_scored > 0 {
        println!(
            "serve_under_train: {rows_scored} rows scored in {wall_secs:.3}s — \
             {:.0} rows/s under a concurrent round",
            rows_scored as f64 / wall_secs
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fleet_scaling,
    bench_unsw_streaming,
    bench_serving_under_training,
    bench_detector_fits,
    bench_serving_score,
    bench_service_recover
);
criterion_main!(benches);
