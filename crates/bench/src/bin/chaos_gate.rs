//! Chaos gate: runs the fault matrix over the skewed-split fleet scenario
//! and enforces that recovery — retry, quarantine, quorum, union fallback —
//! actually holds the line.
//!
//! The matrix (one committed round per scenario, each executed at
//! `KINET_THREADS` ∈ {1, 2, 4} to prove the fingerprint is bit-identical
//! under faults, and the kinet_obs journal contracts of DESIGN.md §2.10):
//!
//! | scenario | injection | must hold |
//! |---|---|---|
//! | `fault-free` | none | everyone reports, recall floor |
//! | `crash-1-of-4` | permanent acquire crash on one benign device | quorum commits at 3/4, recall floor |
//! | `corrupt-share-25pct` | NaN-poisoned share from one device | exactly one quarantine, recall floor |
//! | `straggler-retry` | transient straggle past the budget | retry heals it, zero degraded, recall floor |
//! | `vocab-drop` | attack observer's vocab message lost | round commits on the surviving union |
//!
//! The 1- and 2-thread runs of every scenario are each recorded into their
//! own journal; the 4-thread run is not. So every scenario also checks
//! that the two journals render byte-identically and non-empty, that each
//! journal's `fleet.retry` and `fleet.quarantine` counts equal the report's
//! `retries` and `quarantined.len()`, and, through the fingerprint
//! comparison, that recording never perturbs the round it watches.
//!
//! A final probe crashes a device under a full-quorum policy and asserts
//! the run fails with the dedicated quorum-lost exit code.
//!
//! The full per-scenario reports are persisted as
//! `target/experiments/chaos_report.json` **before** the pass/fail
//! verdict, so a red gate still uploads evidence; every scenario's
//! 1-thread journal is appended to one gate journal, whose tail is written
//! to `target/experiments/chaos_gate_obs_dump.json`.
//!
//! ```text
//! chaos_gate [--quick] [--seed N]
//! ```
//!
//! `--quick` shrinks training to CI-smoke scale and skips the recall
//! floors (2-epoch generators are noise); the fault mechanics and the
//! determinism checks still run. Exit code 1 on any violated assertion.

use kinet_bench::gate::{self, Args, ProbeRecord, THREAD_COUNTS};
use kinet_datasets::lab::LabSimulator;
use kinet_fleet::{
    DeviceFaultSpec, FaultKind, FleetConfig, FleetReport, FleetSim, ModelKind, ResilienceConfig,
    SharingPolicy, EXIT_QUORUM_LOST,
};
use kinet_obs::{RecordKind, Recorder};
use serde::Serialize;

/// Pooled attack recall the committed scenarios must clear (the fault-free
/// skewed-split union run measures 0.736; README "Chaos testing").
const RECALL_FLOOR: f64 = 0.6;

/// One fault-matrix entry: an injection plus the recovery contract it must
/// satisfy.
struct Scenario {
    name: &'static str,
    description: &'static str,
    fault: Vec<DeviceFaultSpec>,
    resilience: ResilienceConfig,
    /// Recall floor asserted in full mode only.
    recall_floor: Option<f64>,
    expect_reported: usize,
    expect_quarantined: usize,
    expect_degraded: usize,
    expect_min_retries: usize,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "fault-free",
            description: "no injection: the recovery layer must be invisible",
            fault: Vec::new(),
            resilience: ResilienceConfig::default(),
            recall_floor: Some(RECALL_FLOOR),
            expect_reported: 4,
            expect_quarantined: 0,
            expect_degraded: 0,
            expect_min_retries: 0,
        },
        Scenario {
            name: "crash-1-of-4",
            description: "permanent acquire crash on benign device 2; quorum 0.5 commits at 3/4",
            fault: vec![DeviceFaultSpec::permanent(2, FaultKind::CrashAcquire).with_magnitude(40)],
            resilience: ResilienceConfig::tolerant(),
            recall_floor: Some(RECALL_FLOOR),
            expect_reported: 3,
            expect_quarantined: 0,
            expect_degraded: 1,
            expect_min_retries: 2,
        },
        Scenario {
            name: "corrupt-share-25pct",
            description: "device 3 (1 of 4 shares) releases a NaN-poisoned table; quarantined",
            fault: vec![DeviceFaultSpec::permanent(3, FaultKind::PoisonShareNan)],
            resilience: ResilienceConfig::tolerant(),
            recall_floor: Some(RECALL_FLOOR),
            expect_reported: 3,
            expect_quarantined: 1,
            expect_degraded: 0,
            expect_min_retries: 0,
        },
        Scenario {
            name: "straggler-retry",
            description: "device 1 stalls past the straggler budget once, then heals on retry",
            fault: vec![DeviceFaultSpec::transient(1, FaultKind::Straggle, 1).with_magnitude(2500)],
            resilience: ResilienceConfig::default(),
            recall_floor: Some(RECALL_FLOOR),
            expect_reported: 4,
            expect_quarantined: 0,
            expect_degraded: 0,
            expect_min_retries: 1,
        },
        Scenario {
            name: "vocab-drop",
            description: "the attack observer's vocab message is lost; union falls back",
            fault: vec![DeviceFaultSpec::permanent(0, FaultKind::DropVocab)],
            resilience: ResilienceConfig::default(),
            recall_floor: None,
            expect_reported: 4,
            expect_quarantined: 0,
            expect_degraded: 0,
            expect_min_retries: 0,
        },
    ]
}

/// The skewed-split fleet the whole matrix runs on: only device 0 observes
/// attacks (the condition-union recovery scenario of
/// `crates/fleet/tests/fleet_union.rs`).
fn base_config(args: &Args) -> FleetConfig {
    let (rows, epochs) = if args.quick { (220, 2) } else { (400, 60) };
    FleetConfig {
        n_devices: 4,
        rows_per_device: rows,
        test_records: 800,
        policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
        model_epochs: epochs,
        seed: args.seed,
        device_attack_fraction: vec![(1, 0.0), (2, 0.0), (3, 0.0)],
        union: true,
        ..FleetConfig::default()
    }
}

#[derive(Serialize)]
struct ScenarioRecord {
    scenario: String,
    description: String,
    thread_counts: Vec<usize>,
    fingerprints_identical: bool,
    journals_identical: bool,
    failures: Vec<String>,
    report: Option<FleetReport>,
}

#[derive(Serialize)]
struct ChaosReport {
    quick: bool,
    seed: u64,
    recall_floor: f64,
    scenarios: Vec<ScenarioRecord>,
    quorum_probe: ProbeRecord,
}

/// Runs one scenario at every thread count, recording the 1- and 2-thread
/// runs each into its own journal; the 1-thread journal is appended to
/// `journal`.
fn run_scenario(args: &Args, sc: &Scenario, journal: &mut Recorder) -> ScenarioRecord {
    let mut cfg = base_config(args);
    cfg.fault = sc.fault.clone();
    cfg.resilience = sc.resilience.clone();
    if args.quick {
        // 2-epoch generators emit noise with KG validity well under the
        // tolerant floor; quick mode checks fault mechanics, not quality,
        // so only the non-finite quarantine path stays armed.
        cfg.resilience.min_share_validity = 0.0;
    }
    let mut failures = Vec::new();
    let mut journal_failures = Vec::new();
    let mut journals = Vec::new();

    // The determinism-under-faults contract: the same round at 1, 2, and 4
    // workers must fingerprint bit-identically, fault plan and all. The
    // 4-thread run is unrecorded, so a recorded round must fingerprint
    // like an unrecorded one.
    let (report, fingerprints_identical) = gate::across_threads(
        "fingerprint",
        &mut failures,
        |threads| {
            let sim = FleetSim::new(cfg.clone());
            if threads == 4 {
                return sim.run();
            }
            let mut journal = Recorder::new();
            let (report, _) = sim.run_recorded(&mut journal)?;
            // The journal must agree with the report it narrates.
            for (target, reported) in [
                ("fleet.retry", report.fault.retries),
                ("fleet.quarantine", report.fault.quarantined.len()),
            ] {
                let journaled = journal.events_for(target).count();
                if journaled != reported {
                    journal_failures.push(format!(
                        "journal at {threads} thread(s) has {journaled} {target} events, \
                         the report {reported}"
                    ));
                }
            }
            journals.push(journal);
            Ok(report)
        },
        FleetReport::deterministic_fingerprint,
    );
    failures.extend(journal_failures);
    // The journal-determinism contract: virtual ticks only, appended on the
    // orchestrator thread, so the rendering is thread-count-invariant.
    let renders: Vec<String> = journals.iter().map(Recorder::render).collect();
    let journals_identical = match renders.as_slice() {
        [one, two] => !one.is_empty() && one == two,
        _ => false,
    };
    if renders.len() == 2 && !journals_identical {
        failures.push(if renders[0].is_empty() {
            "recorded journal is empty".to_string()
        } else {
            "journal diverges between 1 and 2 thread(s)".to_string()
        });
    }
    if let Some(first) = journals.first() {
        append_journal(journal, first);
    }
    if let Some(report) = &report {
        let f = &report.fault;
        if !f.quorum_met {
            failures.push("committed round reports quorum_met=false".into());
        }
        if f.devices_reported != sc.expect_reported {
            failures.push(format!(
                "{} devices reported, expected {}",
                f.devices_reported, sc.expect_reported
            ));
        }
        if f.quarantined.len() != sc.expect_quarantined {
            failures.push(format!(
                "{} quarantined, expected {}: {:?}",
                f.quarantined.len(),
                sc.expect_quarantined,
                f.quarantined
            ));
        }
        if f.degraded.len() != sc.expect_degraded {
            failures.push(format!(
                "{} degraded, expected {}: {:?}",
                f.degraded.len(),
                sc.expect_degraded,
                f.degraded
            ));
        }
        if f.retries < sc.expect_min_retries {
            failures.push(format!(
                "{} retries, expected at least {}",
                f.retries, sc.expect_min_retries
            ));
        }
        if !sc.fault.is_empty() && f.observed.is_empty() {
            failures.push("injected faults were never observed".into());
        }
        if sc.fault.is_empty() && !f.observed.is_empty() {
            failures.push(format!("phantom fault observations: {:?}", f.observed));
        }
        if sc.name == "vocab-drop" {
            // The union must have fallen back to the surviving (benign)
            // vocabularies: device 0 was the only attack observer.
            let attacks = LabSimulator::attack_events();
            if report
                .union
                .classes
                .iter()
                .any(|c| attacks.contains(&c.as_str()))
            {
                failures.push(format!(
                    "dropped vocab still reached the union: {:?}",
                    report.union.classes
                ));
            }
            if report.attack_recall <= 0.0 && !args.quick {
                failures.push("round degraded to zero recall".into());
            }
        }
        if !args.quick {
            if let Some(floor) = sc.recall_floor {
                if report.attack_recall < floor {
                    failures.push(format!(
                        "pooled attack recall {:.3} under floor {floor}",
                        report.attack_recall
                    ));
                }
            }
        }
    }

    ScenarioRecord {
        scenario: sc.name.to_string(),
        description: sc.description.to_string(),
        thread_counts: THREAD_COUNTS.to_vec(),
        fingerprints_identical,
        journals_identical,
        failures,
        report,
    }
}

/// Appends `from`'s records to `into` in emission order.
fn append_journal(into: &mut Recorder, from: &Recorder) {
    for rec in from.records() {
        let fields = rec.active_fields();
        match rec.kind {
            RecordKind::SpanOpen => into.span_open(rec.target, rec.ticks, fields),
            RecordKind::SpanClose => into.span_close(rec.target, rec.ticks, fields),
            RecordKind::Event => into.event(rec.target, rec.ticks, fields),
        }
    }
}

/// Crashing a device under a full-quorum policy must fail the round with
/// the dedicated exit code — a lost quorum is an operator page, not a 1.
fn quorum_probe(args: &Args) -> ProbeRecord {
    let mut cfg = base_config(args);
    // Raw sharing: the probe is about the quorum verdict, not training.
    cfg.policy = SharingPolicy::Raw;
    cfg.union = false;
    cfg.fault = vec![DeviceFaultSpec::permanent(1, FaultKind::CrashAcquire)];
    cfg.resilience = ResilienceConfig::default(); // quorum_frac 1.0
    ProbeRecord::expect_exit(
        "permanent crash under quorum_frac=1.0 must exit with the quorum-lost code",
        EXIT_QUORUM_LOST,
        FleetSim::new(cfg).run(),
        "round committed despite a dead device",
    )
}

fn main() {
    let args = Args::from_env("chaos_gate");
    println!(
        "chaos_gate — fault-matrix recovery floors{}\n",
        if args.quick { " (quick mode)" } else { "" }
    );

    let mut journal = Recorder::new();
    let mut records = Vec::new();
    for sc in scenarios() {
        println!("[{}] {}", sc.name, sc.description);
        let record = run_scenario(&args, &sc, &mut journal);
        if let Some(report) = &record.report {
            println!(
                "      recall {:.3}, {}/{} reported, {} retries, {} quarantined, {} degraded, \
                 {} ticks, fingerprints identical across {:?}: {}, journals identical: {}",
                report.attack_recall,
                report.fault.devices_reported,
                report.n_devices,
                report.fault.retries,
                report.fault.quarantined.len(),
                report.fault.degraded.len(),
                report.fault.virtual_ticks,
                THREAD_COUNTS,
                record.fingerprints_identical,
                record.journals_identical,
            );
        }
        for f in &record.failures {
            eprintln!("      FAIL: {f}");
        }
        records.push(record);
    }

    println!("[quorum-loss-probe] dead device under full quorum");
    let probe = quorum_probe(&args);

    let failed = records.iter().any(|r| !r.failures.is_empty()) || !probe.pass;
    let chaos = ChaosReport {
        quick: args.quick,
        seed: args.seed,
        recall_floor: RECALL_FLOOR,
        scenarios: records,
        quorum_probe: probe,
    };
    gate::finish(
        "chaos_gate",
        &journal,
        "chaos_report",
        &chaos,
        failed,
        "fault-matrix floors",
    );
}
