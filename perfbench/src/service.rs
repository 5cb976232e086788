//! `resident_service`: `FleetService::run` over `ROUNDS` rounds of raw
//! sharing (4 × 500) with serving on and every snapshot committed to a
//! `DirStorage`, while a second settled task on the same worker pool
//! scores flow batches open loop through a `ServingHandle` installed in
//! set-up. Ends with a restart over the same directory, which recovers and
//! runs zero rounds.

use crate::score::{self, Flows, ScoreLog};
use crate::trace::{fastest, now, quantile, Tracer};
use crate::{repeat_for, timed_setup, Ctx, Metrics};
use kinet_data::encoded::KgTableChecker;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_fleet::schedule::run_indexed_settled;
use kinet_fleet::{
    DirStorage, FleetService, FleetSim, ServiceConfig, ServiceReport, ServingConfig, ServingHandle,
    ServingModel, SnapshotStore, Storage,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rounds per service run: enough that the snapshot (the whole ledger,
/// re-encoded every commit) is large enough for its parse to show in
/// `follow_s` (recovery), and few enough that a run holds several service
/// runs, whose fastest is `work_s`.
pub const ROUNDS: usize = 40;
const BATCHES_PER_ROUND: usize = 4;
const SERVE_ROWS: usize = 128;
/// Restarts after each service run. A restart only reads the store, so
/// repeating it gives `follow_s` more samples per run.
const RESTARTS: usize = 3;

pub fn config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        fleet: score::raw_fleet(seed),
        rounds: ROUNDS,
        serving: ServingConfig::enabled(BATCHES_PER_ROUND, SERVE_ROWS),
        ..ServiceConfig::default()
    }
}

fn open_store(dir: &Path) -> Result<SnapshotStore, String> {
    Ok(SnapshotStore::new(Box::new(DirStorage::open(dir)?)))
}

/// A `DirStorage` that stamps the wall time of every write. A service
/// round ends with exactly one commit, so the stamps time each round from
/// outside the service.
#[derive(Debug)]
struct Stamped {
    inner: DirStorage,
    writes: Arc<Mutex<Vec<Instant>>>,
}

impl Storage for Stamped {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, String> {
        self.inner.read(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), String> {
        let written = self.inner.write_atomic(name, bytes);
        if let Ok(mut writes) = self.writes.lock() {
            writes.push(now());
        }
        written
    }

    fn list(&self) -> Result<Vec<String>, String> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> Result<(), String> {
        self.inner.remove(name)
    }
}

/// One service run, with the scorer running alongside the service on the
/// pool's second settled task, plus its restarts and their wall times.
struct ServiceOut {
    report: ServiceReport,
    restarts: Vec<(ServiceReport, f64)>,
    service_s: f64,
    /// Each round's wall time, from the service's start or the previous
    /// round's commit to the round's commit.
    round_s: Vec<f64>,
    log: ScoreLog,
}

fn service_once(
    cfg: &ServiceConfig,
    dir: &Path,
    handle: &ServingHandle,
    flows: &Flows,
) -> Result<ServiceOut, String> {
    let _ = std::fs::remove_dir_all(dir);
    let done = AtomicBool::new(false);
    let writes = Arc::new(Mutex::new(Vec::new()));
    enum Task {
        Service(Result<(ServiceReport, Instant, f64), String>),
        Scorer(ScoreLog),
    }
    let mut tasks = run_indexed_settled(2, |task| {
        if task == 0 {
            let out = DirStorage::open(dir).and_then(|inner| {
                let mut store = SnapshotStore::new(Box::new(Stamped {
                    inner,
                    writes: writes.clone(),
                }));
                let t0 = now();
                let report = FleetService::new(cfg.clone())
                    .run(&mut store)
                    .map_err(|e| format!("service: {e}"))?;
                Ok((report, t0, t0.elapsed().as_secs_f64()))
            });
            done.store(true, Ordering::SeqCst);
            Task::Service(out)
        } else {
            let mut log = ScoreLog::default();
            loop {
                score::slice(handle, flows, &mut log);
                if done.load(Ordering::SeqCst) {
                    break;
                }
            }
            Task::Scorer(log)
        }
    });
    let (Some(Task::Scorer(log)), Some(Task::Service(out))) = (tasks.pop(), tasks.pop()) else {
        unreachable!("two settled tasks in index order");
    };
    let (report, t0, service_s) = out?;
    let writes = writes.lock().map_err(|_| "write stamps poisoned")?;
    let round_s = std::iter::once(&t0)
        .chain(writes.iter())
        .zip(writes.iter())
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .collect();

    let mut restarts = Vec::new();
    for _ in 0..RESTARTS {
        let mut store = open_store(dir)?;
        let t0 = now();
        let restarted = FleetService::new(cfg.clone())
            .run(&mut store)
            .map_err(|e| format!("restart: {e}"))?;
        restarts.push((restarted, t0.elapsed().as_secs_f64()));
    }
    Ok(ServiceOut {
        report,
        restarts,
        service_s,
        round_s,
        log,
    })
}

/// Every round committed and every serving batch answered; every restart
/// resumed past the end without running a round, all alike.
fn check_service(ctx: &mut Ctx, out: &ServiceOut) {
    let r = &out.report;
    ctx.checks.check(
        r.committed_rounds == ROUNDS && out.round_s.len() == ROUNDS,
        || {
            format!(
                "{} of {ROUNDS} rounds committed, {} snapshot writes",
                r.committed_rounds,
                out.round_s.len()
            )
        },
    );
    ctx.checks.check(
        r.unanswered_batches() == 0 && r.serving_batches() == ROUNDS * BATCHES_PER_ROUND,
        || format!("{} serving batches unanswered", r.unanswered_batches()),
    );
    let first = out.restarts[0].0.deterministic_fingerprint();
    for (back, _) in &out.restarts {
        ctx.checks.check(
            back.resumed_from_generation == Some(ROUNDS as u64)
                && back.rounds.len() == ROUNDS
                && back.deterministic_fingerprint() == first,
            || format!("restart resumed from {:?}", back.resumed_from_generation),
        );
    }
    ctx.checks.scored(&out.log);
}

struct Setup {
    handle: ServingHandle,
    flows: Flows,
    /// KG validity of the served traffic.
    flow_validity: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let handle = score::deployed_handle(seed)?;
    let flows = Flows::generate(seed, &handle)?;
    let kg = LabSimulator::knowledge_graph();
    let mut rates = Vec::new();
    for b in &flows.batches {
        let checker = KgTableChecker::new(kg.compiled(), kg.base_interner(), b.schema());
        rates.push(checker.validity_rate(b).map_err(|e| e.to_string())?);
    }
    Ok(Setup {
        handle,
        flows,
        flow_validity: rates.iter().sum::<f64>() / rates.len() as f64,
    })
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let mut m = Metrics::default();
    let (setup_s, s) = timed_setup(|| setup(ctx.args.seed));
    m.put("setup_s", setup_s, "s");
    let Some(s) = ctx.checks.result("resident_service set-up", s) else {
        return m;
    };
    let cfg = config(ctx.args.seed);
    let dir = ctx.scratch("service");
    let mut outs = Vec::new();
    repeat_for(ctx.args.seconds, 2, || {
        outs.push(service_once(&cfg, &dir, &s.handle, &s.flows));
    });
    let _ = std::fs::remove_dir_all(&dir);

    let mut log = ScoreLog::default();
    // `round_s[r]`: round r's wall time in every service run. A round's
    // cost grows with r (the snapshot re-encodes the whole ledger), so each
    // round index keeps its own fastest sample.
    let (mut round_s, mut recover_s) = (vec![Vec::new(); ROUNDS], Vec::new());
    let mut fingerprints = None;
    let mut last = None;
    for out in outs {
        let Some(out) = ctx.checks.result("service run", out) else {
            continue;
        };
        check_service(ctx, &out);
        let fp = (
            out.report.deterministic_fingerprint(),
            out.restarts[0].0.deterministic_fingerprint(),
        );
        let same = fingerprints.get_or_insert_with(|| fp.clone()) == &fp;
        ctx.checks.check(same, || {
            "service fingerprint differs between repetitions".into()
        });
        for (r, secs) in out.round_s.iter().enumerate().take(ROUNDS) {
            round_s[r].push(*secs);
        }
        recover_s.extend(out.restarts.iter().map(|(_, secs)| secs));
        log.absorb(out.log);
        last = out.report.rounds.last().cloned();
    }
    let best_rounds: f64 = round_s.iter().map(|v| fastest(v)).sum();
    m.put("work_s", best_rounds / ROUNDS as f64, "s");
    m.put("follow_s", fastest(&recover_s), "s");
    m.put_scoring(&log);
    let (accuracy, recall) = last.map_or((f64::NAN, f64::NAN), |r| {
        (
            r.global_accuracy.unwrap_or(f64::NAN),
            r.attack_recall.unwrap_or(f64::NAN),
        )
    });
    m.put("accuracy", accuracy, "ratio");
    m.put("attack_recall", recall, "ratio");
    m.put("kg_validity", s.flow_validity, "ratio");
    m
}

/// Untraced reference for `trace.overhead_share`: one service run's wall
/// time, after a warm-up run.
pub fn untraced_op_s(ctx: &mut Ctx) -> f64 {
    let Some(s) = ctx.checks.result("set-up", setup(ctx.args.seed)) else {
        return f64::NAN;
    };
    let dir = ctx.scratch("untraced");
    let mut wall = f64::NAN;
    for _ in 0..2 {
        let out = service_once(&config(ctx.args.seed), &dir, &s.handle, &s.flows);
        wall = ctx
            .checks
            .result("service run", out)
            .map_or(f64::NAN, |o| o.service_s);
    }
    let _ = std::fs::remove_dir_all(&dir);
    wall
}

/// The traced pass: one service run with its scorer and restart, then
/// one round's layers called alone at the service's shapes. Returns the
/// traced service run's wall time (s).
pub fn trace(ctx: &mut Ctx, t: &mut Tracer, m: &mut Metrics) -> f64 {
    let seed = ctx.args.seed;
    let cfg = config(seed);
    let group = t.open("workload.resident_service");
    let Some(s) = ctx.checks.result("set-up", t.time("setup", || setup(seed))) else {
        t.close(group);
        return f64::NAN;
    };
    let dir = ctx.scratch("traced");
    let out = t.time("fleet.service_run_and_restart", || {
        service_once(&cfg, &dir, &s.handle, &s.flows)
    });
    let Some(out) = ctx.checks.result("service run", out) else {
        t.close(group);
        return f64::NAN;
    };
    check_service(ctx, &out);

    let round = t.time("fleet.raw_round", || {
        FleetSim::new(cfg.fleet.clone()).run_detailed()
    });
    if let Some((_, Some(pool))) = ctx.checks.result("raw round", round) {
        let model = t.time("serving.train", || ServingModel::train(&pool, 40, seed));
        ctx.checks.result("serving model", model);
    }
    for b in 0..BATCHES_PER_ROUND {
        let batch = t.time("datasets.flow_batch", || {
            LabSimulator::new(LabSimConfig::small(SERVE_ROWS, seed ^ b as u64)).generate()
        });
        ctx.checks.result("flow batch", batch);
    }
    let encoded = t.time("serde.encode", || serde_json::to_string(&out.report));
    ctx.checks.result("report encoding", encoded);
    let loaded = t.time("storage.load_latest", || {
        open_store(&dir)?.load_latest().map_err(|e| e.to_string())
    });
    let mut snapshot_bytes = f64::NAN;
    if let Some(Some(snap)) = ctx.checks.result("snapshot load", loaded) {
        snapshot_bytes = snap.payload.len() as f64;
        let text = String::from_utf8_lossy(&snap.payload).into_owned();
        let parsed = t.time("serde.parse", || serde_json::parse_value(&text));
        ctx.checks.result("snapshot parse", parsed);
        let copy = ctx.scratch("commit");
        let committed = t.time("storage.commit", || {
            open_store(&copy)?
                .commit(snap.generation, &snap.payload)
                .map_err(|e| e.to_string())
        });
        ctx.checks.result("snapshot commit", committed);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
    for i in 0..200 {
        let batch = &s.flows.batches[i % s.flows.batches.len()];
        let answer = t.time("serving.answer", || s.handle.answer(batch, 0));
        ctx.checks.result("uncontended answer", answer);
    }
    t.close(group);

    let ms = |name: &str| t.median_us(name) / 1e3;
    let service_round_ms = out.service_s * 1e3 / ROUNDS as f64;
    // Per round: the raw round, the serving model, the round's flow
    // batches and answers, and a snapshot encode + commit, charged at half
    // the final snapshot's cost (the ledger grows linearly with rounds).
    let attributed_ms = ms("fleet.raw_round")
        + ms("serving.train")
        + BATCHES_PER_ROUND as f64 * (ms("datasets.flow_batch") + ms("serving.answer"))
        + (ms("serde.encode") + ms("storage.commit")) / 2.0;
    m.put("fleet.raw_round_ms", ms("fleet.raw_round"), "ms");
    m.put("serving.train_ms", ms("serving.train"), "ms");
    m.put("datasets.flow_batch_ms", ms("datasets.flow_batch"), "ms");
    m.put("serde.encode_ms", ms("serde.encode"), "ms");
    m.put("storage.commit_ms", ms("storage.commit"), "ms");
    m.put("storage.load_latest_ms", ms("storage.load_latest"), "ms");
    m.put("serde.parse_ms", ms("serde.parse"), "ms");
    m.put("storage.snapshot_bytes", snapshot_bytes, "bytes");
    m.put("serving.answer_us", t.median_us("serving.answer"), "us");
    m.put(
        "serving.score_late_ms",
        quantile(&out.log.late_us, 0.99) / 1e3,
        "ms",
    );
    m.put("serving.score_p99_us", out.log.p99_us(), "us");
    m.put("serving.batches_sent", out.log.sent as f64, "count");
    m.put("serving.batches_failed", out.log.failed as f64, "count");
    m.put(
        "fleet.rounds_committed",
        out.report.committed_rounds as f64,
        "count",
    );
    m.put(
        "trace.resident_service.covered_share",
        t.child_coverage(group),
        "ratio",
    );
    m.put(
        "trace.resident_service.unattributed_share",
        1.0 - attributed_ms / service_round_ms,
        "ratio",
    );
    out.service_s
}
