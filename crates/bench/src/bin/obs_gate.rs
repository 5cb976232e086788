//! Observability gate: proves the `kinet_obs` journal is deterministic,
//! agrees with the report it narrates, is invisible to fingerprints, and
//! is cheap enough to leave on.
//!
//! Four contracts, each persisted as evidence before the verdict:
//!
//! 1. **Journal determinism** — one faulted fleet round (straggler retry
//!    plus a poisoned share, so the retry/quarantine events actually
//!    fire) recorded at `KINET_THREADS` ∈ {1, 2, 4} must produce a
//!    byte-identical journal rendering: virtual ticks only, appended on
//!    the orchestrator thread in emission order.
//! 2. **Journal agrees with the report** — the journal's `fleet.retry`
//!    and `fleet.quarantine` counts equal the report's
//!    `FaultReport::retries` and `quarantined.len()`, and both are
//!    non-zero.
//! 3. **Fingerprint invisibility** — `FleetSim::run` (journal dropped)
//!    must fingerprint bit-identically to `FleetSim::run_recorded`:
//!    recording never perturbs the round it watches.
//! 4. **Serving throughput floor** — a serving burst must clear a
//!    wall-clock rows/s floor and score exactly `batches × 96` rows.
//!
//! The last recorded journal's tail is written to
//! `target/experiments/obs_gate_obs_dump.json`, pass or fail.
//!
//! ```text
//! obs_gate [--quick] [--seed N]
//! ```
//!
//! Exit code 1 on any violated assertion.

use kinet_bench::gate::{self, Args, THREAD_COUNTS};
use kinet_fleet::{
    DeviceFaultSpec, FaultConfig, FaultKind, FleetConfig, FleetError, FleetSim, ModelKind,
    ResilienceConfig, ServingModel, SharingPolicy, UnionConfig,
};
use kinet_obs::Recorder;
use serde::Serialize;
use std::time::Instant;

/// Rows per serving-burst batch.
const BATCH_ROWS: usize = 96;

/// Wall-clock serving floor (rows/s). Deliberately conservative: the
/// committed `bench_fleet` baseline measures the real number; this floor
/// only catches order-of-magnitude regressions (e.g. accidental
/// allocation or locking in `score_rows`) on a loaded CI box.
const SERVING_ROWS_PER_SEC_FLOOR: f64 = 20_000.0;

/// The faulted round every determinism check runs: a transient straggler
/// on device 1 (exercises `fleet.retry`) and a NaN-poisoned share from
/// device 3 (exercises `fleet.quarantine`).
fn faulted_config(args: &Args) -> FleetConfig {
    let (rows, epochs) = if args.quick { (220, 2) } else { (400, 8) };
    let mut resilience = ResilienceConfig::tolerant();
    if args.quick {
        // 2-epoch generators emit noise with KG validity under the
        // tolerant floor; keep only the non-finite quarantine armed.
        resilience.min_share_validity = 0.0;
    }
    FleetConfig {
        n_devices: 4,
        rows_per_device: rows,
        test_records: 600,
        policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
        model_epochs: epochs,
        seed: args.seed,
        union: UnionConfig::enabled(),
        fault: FaultConfig::scripted(vec![
            DeviceFaultSpec::transient(1, FaultKind::Straggle, 1).with_magnitude(2500),
            DeviceFaultSpec::permanent(3, FaultKind::PoisonShareNan),
        ]),
        resilience,
        ..FleetConfig::default()
    }
}

#[derive(Serialize)]
struct ThreadRun {
    threads: usize,
    fingerprint: String,
    journal_records: usize,
    journal_bytes: usize,
    journal_retries: usize,
    journal_quarantines: usize,
    report_retries: usize,
    report_quarantines: usize,
}

#[derive(Serialize)]
struct ServingProbe {
    batches: usize,
    rows_scored: u64,
    wall_secs: f64,
    rows_per_sec: f64,
    rows_per_sec_floor: f64,
}

#[derive(Serialize)]
struct ObsReport {
    quick: bool,
    seed: u64,
    thread_counts: Vec<usize>,
    journal_identical: bool,
    journal_matches_report: bool,
    fingerprint_recorded: String,
    fingerprint_unrecorded: String,
    recording_invisible_to_fingerprint: bool,
    phase_summary: String,
    serving: Option<ServingProbe>,
    runs: Vec<ThreadRun>,
    failures: Vec<String>,
}

fn main() {
    let args = Args::from_env("obs_gate");
    println!(
        "obs_gate — deterministic journal contracts{}\n",
        if args.quick { " (quick mode)" } else { "" }
    );
    let cfg = faulted_config(&args);
    let mut failures: Vec<String> = Vec::new();

    // ---- contracts 1 + 2: journal byte-identical across threads and in
    // agreement with the report it narrates ----
    let mut runs = Vec::new();
    let mut journal = Recorder::new();
    let (_, journal_identical) = gate::across_threads(
        "journal",
        &mut failures,
        |threads| {
            journal = Recorder::new();
            let (report, _) = FleetSim::new(cfg.clone()).run_recorded(&mut journal)?;
            let render = journal.render();
            println!("[threads={threads}] {}", journal.phase_summary());
            runs.push(ThreadRun {
                threads,
                fingerprint: report.deterministic_fingerprint(),
                journal_records: journal.records().len(),
                journal_bytes: render.len(),
                journal_retries: journal.events_for("fleet.retry").count(),
                journal_quarantines: journal.events_for("fleet.quarantine").count(),
                report_retries: report.fault.retries,
                report_quarantines: report.fault.quarantined.len(),
            });
            Ok::<_, FleetError>(render)
        },
        String::clone,
    );
    let mut journal_matches_report = !runs.is_empty();
    for run in &runs {
        if run.journal_retries != run.report_retries
            || run.journal_quarantines != run.report_quarantines
        {
            journal_matches_report = false;
            failures.push(format!(
                "journal disagrees with the report at {} thread(s): {} vs {} retries, \
                 {} vs {} quarantines",
                run.threads,
                run.journal_retries,
                run.report_retries,
                run.journal_quarantines,
                run.report_quarantines
            ));
        }
    }
    if let Some(run) = runs.first() {
        if run.journal_records == 0 {
            failures.push("recorded faulted round produced an empty journal".into());
        }
        if run.report_retries == 0 {
            failures.push("straggler injection produced no retry".into());
        }
        if run.report_quarantines == 0 {
            failures.push("poisoned share produced no quarantine".into());
        }
    }

    // ---- contract 3: recording is invisible to the round fingerprint ----
    let fingerprint_recorded = runs
        .first()
        .map(|r| r.fingerprint.clone())
        .unwrap_or_default();
    let fingerprint_unrecorded = match FleetSim::new(cfg.clone()).run() {
        Ok(r) => r.deterministic_fingerprint(),
        Err(e) => {
            failures.push(format!("unrecorded round failed: {e}"));
            String::new()
        }
    };
    let recording_invisible_to_fingerprint =
        !fingerprint_recorded.is_empty() && fingerprint_recorded == fingerprint_unrecorded;
    if !recording_invisible_to_fingerprint {
        failures.push("fingerprint differs between run and run_recorded".into());
    }

    // ---- contract 4: serving burst clears the floor ----
    let serving = run_serving_probe(&args, &cfg, &mut failures);

    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    let failed = !failures.is_empty();
    let report = ObsReport {
        quick: args.quick,
        seed: args.seed,
        thread_counts: THREAD_COUNTS.to_vec(),
        journal_identical,
        journal_matches_report,
        fingerprint_recorded,
        fingerprint_unrecorded,
        recording_invisible_to_fingerprint,
        phase_summary: journal.phase_summary(),
        serving,
        runs,
        failures,
    };
    gate::finish(
        "obs_gate",
        &journal,
        "obs_report",
        &report,
        failed,
        "observability contracts",
    );
}

/// Trains a serving model on the faulted round's committed pool, then
/// scores a flow burst: rows/s is wall clock (this is `crates/bench`,
/// the sanctioned timing module).
fn run_serving_probe(
    args: &Args,
    cfg: &FleetConfig,
    failures: &mut Vec<String>,
) -> Option<ServingProbe> {
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};

    let pool = match FleetSim::new(cfg.clone()).run_detailed() {
        Ok((_, Some(pool))) if pool.n_rows() > 0 => pool,
        Ok(_) => {
            failures.push("faulted round committed no pool for the serving probe".into());
            return None;
        }
        Err(e) => {
            failures.push(format!("serving-probe round failed: {e}"));
            return None;
        }
    };
    let model = match ServingModel::train(&pool, if args.quick { 10 } else { 25 }, args.seed ^ 7) {
        Ok(m) => m,
        Err(e) => {
            failures.push(format!("serving model training failed: {e}"));
            return None;
        }
    };
    let batches = if args.quick { 40 } else { 200 };
    let mut flows = Vec::with_capacity(batches);
    for b in 0..batches {
        match LabSimulator::new(LabSimConfig::small(BATCH_ROWS, args.seed ^ (b as u64 + 11)))
            .generate()
        {
            Ok(t) => flows.push(t),
            Err(e) => {
                failures.push(format!("serving flow batch {b} generation failed: {e}"));
                return None;
            }
        }
    }

    let t0 = Instant::now();
    let mut rows_scored = 0u64;
    for flow in &flows {
        match model.score_batch(flow) {
            Ok((rows, _, _)) => rows_scored += rows as u64,
            Err(e) => {
                failures.push(format!("serving burst batch failed: {e}"));
                break;
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let rows_per_sec = rows_scored as f64 / wall_secs;
    println!(
        "[serving] {batches} batches, {rows_scored} rows in {wall_secs:.4}s — {rows_per_sec:.0} \
         rows/s (floor {SERVING_ROWS_PER_SEC_FLOOR:.0})"
    );
    if rows_scored != (batches * BATCH_ROWS) as u64 {
        failures.push(format!(
            "serving burst scored {rows_scored} rows, expected {batches} x {BATCH_ROWS}"
        ));
    }
    if rows_per_sec < SERVING_ROWS_PER_SEC_FLOOR {
        failures.push(format!(
            "serving throughput {rows_per_sec:.0} rows/s under floor {SERVING_ROWS_PER_SEC_FLOOR}"
        ));
    }
    Some(ServingProbe {
        batches,
        rows_scored,
        wall_secs,
        rows_per_sec,
        rows_per_sec_floor: SERVING_ROWS_PER_SEC_FLOOR,
    })
}
