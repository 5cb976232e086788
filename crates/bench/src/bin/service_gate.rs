//! Service gate: runs the resident-fleet-service scenario matrix and
//! enforces the durability, churn, watchdog, and degraded-serving
//! contracts end to end.
//!
//! The matrix (each scenario executed at `KINET_THREADS` ∈ {1, 2, 4} to
//! prove the whole multi-round [`ServiceReport`] fingerprint is
//! bit-identical):
//!
//! | scenario | injection | must hold |
//! |---|---|---|
//! | `restart-torn-snapshot` | torn write on the gen-2 snapshot, then a process restart | restart rejects the torn record, resumes from gen 1, re-runs the lost round, recommits gen 2 |
//! | `churn-join-recall` | one member joins before round 1 of a skewed split | quorum re-derives to the live count, joiner folds into the union, recall floor (full mode) |
//! | `watchdog-abort-continue` | straggler blows the round-1 phase deadline | verdicts committed → aborted → committed; the service never wedges |
//! | `degraded-serving` | every device crashes in round 1 under full quorum | ≥ 1k flow rows answered from generation 1 at staleness 1; round 2 goes fresh |
//!
//! A final probe scripts the whole fleet leaving below the membership
//! floor and asserts the service dies with the dedicated
//! membership-collapse exit code (5).
//!
//! The full per-scenario reports are persisted as
//! `target/experiments/service_report.json` **before** the pass/fail
//! verdict, so a red gate still uploads evidence; the last recorded
//! journal's tail goes to `target/experiments/service_gate_obs_dump.json`.
//!
//! ```text
//! service_gate [--quick] [--seed N]
//! ```
//!
//! `--quick` shrinks training to CI-smoke scale and skips the recall
//! floor (2-epoch generators are noise); the durability, churn, watchdog,
//! and serving mechanics still run. Exit code 1 on any violated
//! assertion.

use kinet_bench::gate::{self, Args, ProbeRecord, THREAD_COUNTS};
use kinet_fleet::{
    ChurnConfig, DeviceFaultSpec, FaultKind, FaultStorage, FleetConfig, FleetError, FleetService,
    MemStorage, ModelKind, RoundVerdict, ServiceConfig, ServiceReport, ServingConfig,
    SharingPolicy, SnapshotStore, StorageFaultKind, StorageFaultSpec, EXIT_MEMBERSHIP_COLLAPSE,
};
use kinet_obs::Recorder;
use serde::Serialize;

/// Attack recall the churned committed round must clear in full mode
/// (same floor as `chaos_gate`).
const RECALL_FLOOR: f64 = 0.6;

/// One matrix entry: a service configuration, a storage-fault plan, how
/// many times to run the service against the *same* store (a restart per
/// extra run), and the contract the final report must satisfy.
struct Scenario {
    name: &'static str,
    description: &'static str,
    config: fn(&Args) -> ServiceConfig,
    storage_faults: Vec<StorageFaultSpec>,
    runs: usize,
    check: fn(&Args, &ServiceReport, &mut Vec<String>),
    /// Journal assertions, run against the recorded journal of every
    /// thread-count run.
    journal_check: Option<fn(&Recorder, &mut Vec<String>)>,
}

/// The small raw-sharing fleet most mechanics scenarios run on.
fn raw_fleet(args: &Args) -> FleetConfig {
    FleetConfig {
        n_devices: 2,
        rows_per_device: 250,
        test_records: 400,
        policy: SharingPolicy::Raw,
        model_epochs: 2,
        seed: args.seed,
        ..FleetConfig::default()
    }
}

/// Every device crashes on acquire: under the default full-quorum policy
/// the round fails outright.
fn kill_all(n_devices: usize) -> Vec<DeviceFaultSpec> {
    (0..n_devices)
        .map(|d| DeviceFaultSpec::permanent(d, FaultKind::CrashAcquire))
        .collect()
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "restart-torn-snapshot",
            description: "gen-2 snapshot write is torn mid-flight; the restarted service \
                          must roll back to gen 1 and re-run the lost round",
            config: |args| ServiceConfig {
                fleet: raw_fleet(args),
                rounds: 2,
                serving: ServingConfig::enabled(2, 64),
                ..ServiceConfig::default()
            },
            storage_faults: vec![StorageFaultSpec::new(1, StorageFaultKind::TornWrite)],
            runs: 2,
            journal_check: None,
            check: |_, report, failures| {
                if report.resumed_from_generation != Some(1) {
                    failures.push(format!(
                        "restart should resume from generation 1, got {:?}",
                        report.resumed_from_generation
                    ));
                }
                if report.storage.rejected_snapshots.is_empty() {
                    failures.push("the torn snapshot was never rejected".into());
                }
                if report.storage.injected.is_empty() {
                    failures.push("the storage fault was never injected".into());
                }
                if report.final_generation != Some(2) || report.committed_rounds != 2 {
                    failures.push(format!(
                        "restart should recommit generation 2 ({} committed, final {:?})",
                        report.committed_rounds, report.final_generation
                    ));
                }
                if report.rounds.len() != 2 {
                    failures.push(format!(
                        "resumed ledger should hold both rounds, got {}",
                        report.rounds.len()
                    ));
                }
            },
        },
        Scenario {
            name: "churn-join-recall",
            description: "skewed split (member 0 is the sole attack observer); a fresh \
                          member joins before round 1 and the union re-derives",
            config: |args| {
                let (rows, epochs) = if args.quick { (220, 2) } else { (400, 60) };
                ServiceConfig {
                    fleet: FleetConfig {
                        n_devices: 4,
                        rows_per_device: rows,
                        test_records: 800,
                        policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
                        model_epochs: epochs,
                        seed: args.seed,
                        union: true,
                        ..FleetConfig::default()
                    },
                    rounds: 2,
                    churn: ChurnConfig {
                        scripted_joins: vec![(1, 1)],
                        min_members: 1,
                        ..ChurnConfig::default()
                    },
                    member_attack_fraction: vec![(1, 0.0), (2, 0.0), (3, 0.0)],
                    ..ServiceConfig::default()
                }
            },
            storage_faults: Vec::new(),
            runs: 1,
            journal_check: None,
            check: |args, report, failures| {
                if report.committed_rounds != 2 {
                    failures.push(format!(
                        "both rounds should commit, got {} committed / {} aborted / {} failed",
                        report.committed_rounds, report.aborted_rounds, report.failed_rounds
                    ));
                    return;
                }
                if !report.churn.iter().any(|e| e.contains("+4 joined")) {
                    failures.push(format!(
                        "join missing from churn ledger: {:?}",
                        report.churn
                    ));
                }
                let (r0, r1) = (&report.rounds[0], &report.rounds[1]);
                if r0.members.len() != 4 || r1.members.len() != 5 {
                    failures.push(format!(
                        "memberships should grow 4 → 5, got {} → {}",
                        r0.members.len(),
                        r1.members.len()
                    ));
                }
                if r1.quorum_required != r0.quorum_required + 1 {
                    failures.push(format!(
                        "quorum must re-derive from the live membership: {} → {}",
                        r0.quorum_required, r1.quorum_required
                    ));
                }
                if !args.quick {
                    let recall = r1.attack_recall.unwrap_or(0.0);
                    if recall < RECALL_FLOOR {
                        failures.push(format!(
                            "churned round recall {recall:.3} under floor {RECALL_FLOOR}"
                        ));
                    }
                }
            },
        },
        Scenario {
            name: "watchdog-abort-continue",
            description: "round 1's acquire phase blows its virtual-tick deadline; the \
                          round aborts and the service proceeds",
            config: |args| {
                let mut fleet = raw_fleet(args);
                fleet.watchdog_ticks = Some(500);
                ServiceConfig {
                    fleet,
                    rounds: 3,
                    round_faults: vec![(
                        1,
                        vec![DeviceFaultSpec::permanent(1, FaultKind::Straggle).with_magnitude(900)],
                    )],
                    ..ServiceConfig::default()
                }
            },
            storage_faults: Vec::new(),
            runs: 1,
            journal_check: None,
            check: |_, report, failures| {
                let labels: Vec<&str> = report.rounds.iter().map(|r| r.verdict.label()).collect();
                if labels != ["committed", "aborted", "committed"] {
                    failures.push(format!(
                        "verdicts should be committed → aborted → committed, got {labels:?}"
                    ));
                }
                if !report
                    .rounds
                    .iter()
                    .any(|r| matches!(&r.verdict, RoundVerdict::Aborted { phase, .. } if phase == "acquire"))
                {
                    failures.push("the aborted round should name the acquire phase".into());
                }
                if report.final_generation != Some(2) {
                    failures.push(format!(
                        "two committed rounds should end at generation 2, got {:?}",
                        report.final_generation
                    ));
                }
            },
        },
        Scenario {
            name: "degraded-serving",
            description: "round 1 fails outright (all devices crash, full quorum); the \
                          handle keeps answering from generation 1, stamped stale",
            config: |args| {
                let fleet = raw_fleet(args);
                let kill = kill_all(fleet.n_devices);
                ServiceConfig {
                    fleet,
                    rounds: 3,
                    round_faults: vec![(1, kill)],
                    serving: ServingConfig::enabled(8, 128),
                    ..ServiceConfig::default()
                }
            },
            storage_faults: Vec::new(),
            runs: 1,
            // The report only keeps per-round aggregates; the journal's
            // `serve.answer` events prove every individual batch carried
            // the right generation + staleness stamp through the outage.
            journal_check: Some(|journal, failures| {
                let answers: Vec<_> = journal.events_for("serve.answer").collect();
                if answers.len() != 24 {
                    failures.push(format!(
                        "expected 24 serve.answer events (3 rounds x 8 batches), got {}",
                        answers.len()
                    ));
                    return;
                }
                for (i, rec) in answers.iter().enumerate() {
                    let (want_gen, want_stale) = match i / 8 {
                        0 => (1, 0), // round 0 committed: fresh gen-1 answers
                        1 => (1, 1), // round 1 failed: stale gen-1 answers
                        _ => (2, 0), // round 2 committed: fresh gen-2 answers
                    };
                    if rec.field_val("generation") != Some(want_gen)
                        || rec.field_val("staleness") != Some(want_stale)
                    {
                        failures.push(format!(
                            "batch {i}: expected generation={want_gen} staleness={want_stale}, \
                             got generation={:?} staleness={:?}",
                            rec.field_val("generation"),
                            rec.field_val("staleness")
                        ));
                        return;
                    }
                    if rec.field_val("rows") != Some(128) {
                        failures.push(format!(
                            "batch {i}: expected 128 rows, got {:?}",
                            rec.field_val("rows")
                        ));
                        return;
                    }
                }
            }),
            check: |_, report, failures| {
                if report.failed_rounds != 1 || report.rounds[1].verdict.label() != "failed" {
                    failures.push(format!(
                        "round 1 should fail, got {} failed round(s)",
                        report.failed_rounds
                    ));
                    return;
                }
                let degraded = &report.rounds[1].serving;
                if degraded.answered_generation != Some(1) || degraded.staleness != Some(1) {
                    failures.push(format!(
                        "degraded answers should come from gen 1 at staleness 1, got gen \
                         {:?} staleness {:?}",
                        degraded.answered_generation, degraded.staleness
                    ));
                }
                if degraded.unanswered_batches != 0 {
                    failures.push(format!(
                        "{} batches went unanswered during the failed round",
                        degraded.unanswered_batches
                    ));
                }
                if report.rounds[2].serving.staleness != Some(0) {
                    failures.push("the recovery round should serve fresh again".into());
                }
                if report.final_generation != Some(2) {
                    failures.push(format!(
                        "service should end at generation 2, got {:?}",
                        report.final_generation
                    ));
                }
            },
        },
    ]
}

#[derive(Serialize)]
struct ScenarioRecord {
    scenario: String,
    description: String,
    thread_counts: Vec<usize>,
    fingerprints_identical: bool,
    failures: Vec<String>,
    report: Option<ServiceReport>,
}

#[derive(Serialize)]
struct ServiceGateReport {
    quick: bool,
    seed: u64,
    recall_floor: f64,
    scenarios: Vec<ScenarioRecord>,
    collapse_probe: ProbeRecord,
}

/// Runs one scenario's full restart sequence on a fresh faulted store,
/// once per thread count, recording each into its own journal, and
/// cross-checks the final fingerprints. A scenario's `journal_check` runs
/// on every thread count's journal; the last journal is returned for the
/// gate's dump.
fn run_scenario(args: &Args, sc: &Scenario) -> (ScenarioRecord, Recorder) {
    let cfg = (sc.config)(args);
    let mut failures = Vec::new();
    let mut journal_failures = Vec::new();
    let mut last_journal = Recorder::new();
    let (report, fingerprints_identical) = gate::across_threads(
        "fingerprint",
        &mut failures,
        |threads| {
            let mut journal = Recorder::new();
            let outcome = run_restarts(sc, &cfg, &mut journal);
            if let Some(jc) = sc.journal_check {
                let mut found = Vec::new();
                jc(&journal, &mut found);
                journal_failures.extend(
                    found
                        .into_iter()
                        .map(|f| format!("journal at {threads} thread(s): {f}")),
                );
            }
            last_journal = journal;
            outcome
        },
        ServiceReport::deterministic_fingerprint,
    );
    failures.extend(journal_failures);
    if let Some(report) = &report {
        (sc.check)(args, report, &mut failures);
    }
    (
        ScenarioRecord {
            scenario: sc.name.to_string(),
            description: sc.description.to_string(),
            thread_counts: THREAD_COUNTS.to_vec(),
            fingerprints_identical,
            failures,
            report,
        },
        last_journal,
    )
}

/// One restart sequence: the service runs `sc.runs` times against the
/// same fresh faulted store, all recorded into `journal`.
fn run_restarts(
    sc: &Scenario,
    cfg: &ServiceConfig,
    journal: &mut Recorder,
) -> Result<ServiceReport, FleetError> {
    let mut store = SnapshotStore::new(Box::new(FaultStorage::new(
        MemStorage::new(),
        sc.storage_faults.clone(),
    )));
    let service = FleetService::new(cfg.clone());
    let mut last = None;
    for _ in 0..sc.runs {
        last = Some(service.run_recorded(&mut store, journal)?);
    }
    last.ok_or_else(|| FleetError::Internal("scenario ran zero times".into()))
}

/// Scripting the whole fleet away below the membership floor must kill
/// the service with the dedicated exit code — a collapsed fleet is an
/// operator page, not a 1.
fn collapse_probe(args: &Args) -> ProbeRecord {
    let cfg = ServiceConfig {
        fleet: raw_fleet(args),
        rounds: 3,
        churn: ChurnConfig {
            scripted_leaves: vec![(1, 0), (1, 1)],
            min_members: 2,
            ..ChurnConfig::default()
        },
        ..ServiceConfig::default()
    };
    let mut store = SnapshotStore::new(Box::new(MemStorage::new()));
    ProbeRecord::expect_exit(
        "scripted leaves below min_members must exit with the membership-collapse code",
        EXIT_MEMBERSHIP_COLLAPSE,
        FleetService::new(cfg).run(&mut store),
        "service kept scheduling rounds below the membership floor",
    )
}

fn main() {
    let args = Args::from_env("service_gate");
    println!(
        "service_gate — resident fleet service contracts{}\n",
        if args.quick { " (quick mode)" } else { "" }
    );

    let mut records = Vec::new();
    let mut last_journal = Recorder::new();
    for sc in scenarios() {
        println!("[{}] {}", sc.name, sc.description);
        let (record, journal) = run_scenario(&args, &sc);
        last_journal = journal;
        if let Some(report) = &record.report {
            println!(
                "      {report}\n      fingerprints identical across {:?}: {}",
                THREAD_COUNTS, record.fingerprints_identical,
            );
        }
        for f in &record.failures {
            eprintln!("      FAIL: {f}");
        }
        records.push(record);
    }

    println!("[membership-collapse-probe] the whole fleet leaves at round 1");
    let probe = collapse_probe(&args);

    let failed = records.iter().any(|r| !r.failures.is_empty()) || !probe.pass;
    let report = ServiceGateReport {
        quick: args.quick,
        seed: args.seed,
        recall_floor: RECALL_FLOOR,
        scenarios: records,
        collapse_probe: probe,
    };
    gate::finish(
        "service_gate",
        &last_journal,
        "service_report",
        &report,
        failed,
        "resident-service contracts",
    );
}
