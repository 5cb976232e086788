//! Distributed-sim quality gate: runs the Table-1 deployment scenario
//! (4 devices × 500 records, seed 42, the small-shard training schedule)
//! for all three sharing policies, asserts the utility floors, and
//! persists the full [`FleetReport`]s as
//! `target/experiments/distributed_report.json` so per-PR CI artifacts
//! make utility regressions as visible as the perf ones `bench_gate`
//! guards.
//!
//! When a previous snapshot exists at the output path it is reloaded
//! through the vendored JSON deserializer and a per-policy delta is
//! printed — quality drift is visible at a glance, not just floor breaks.
//!
//! ```text
//! sim_gate
//! ```
//!
//! Takes no arguments. Exit code 1 when any floor is violated or an
//! argument is given; a failed simulation run instead exits with the
//! typed [`kinet_fleet::FleetError`] code (2 config-invalid,
//! 3 quorum-lost, 4 internal).

use kinet_bench::write_json;
use kinet_datasets::lab::LabSimulator;
use kinet_fleet::{FleetConfig, FleetReport, FleetSim, ModelKind, SharingPolicy};

/// The asserted floors, shared with `crates/fleet/src/sim.rs` tests and
/// documented in README's Table-1 section.
const RAW_ACC_FLOOR: f64 = 0.9;
const SYNTH_ACC_FLOOR: f64 = 0.5;
const SYNTH_KG_VALIDITY_FLOOR: f64 = 0.5;

/// The Table-1 deployment.
const DEVICES: usize = 4;
const ROWS_PER_DEVICE: usize = 500;
const SEED: u64 = 42;
const OUT: &str = "distributed_report";

/// Reloads the previous snapshot at `target/experiments/<OUT>.json`, if
/// any, through the shim deserializer.
fn previous_reports() -> Option<Vec<FleetReport>> {
    let path = kinet_bench::gate::fresh_dir().join(format!("{OUT}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::from_str(&text) {
        Ok(reports) => Some(reports),
        Err(e) => {
            eprintln!("sim_gate: previous snapshot unreadable ({e}); skipping delta");
            None
        }
    }
}

fn print_delta(previous: &[FleetReport], fresh: &FleetReport) {
    let Some(prev) = previous.iter().find(|p| p.policy == fresh.policy) else {
        return;
    };
    println!(
        "  Δ vs last run        acc {:+.3}  attack-recall {:+.3}  kg-valid {:+.3}  bytes {:+}",
        fresh.global_accuracy - prev.global_accuracy,
        fresh.attack_recall - prev.attack_recall,
        fresh.pool_kg_validity - prev.pool_kg_validity,
        fresh.bytes_shared as i64 - prev.bytes_shared as i64,
    );
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: sim_gate");
        std::process::exit(1);
    }
    println!(
        "sim_gate — distributed NIDS quality floors ({DEVICES} devices x {ROWS_PER_DEVICE} \
         records, seed {SEED})\n"
    );
    let previous = previous_reports().unwrap_or_default();
    let mut reports = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut run_error_code: Option<i32> = None;
    for policy in [
        SharingPolicy::Raw,
        SharingPolicy::Synthetic(ModelKind::KinetGan),
        SharingPolicy::LocalOnly,
    ] {
        let sim = FleetSim::new(FleetConfig {
            n_devices: DEVICES,
            rows_per_device: ROWS_PER_DEVICE,
            test_records: 800,
            seed: SEED,
            policy: policy.clone(),
            ..FleetConfig::default()
        });
        match sim.run() {
            Ok(report) => {
                println!("{report}");
                print_delta(&previous, &report);
                reports.push((policy, report));
            }
            Err(e) => {
                failures.push(format!("{policy:?}: simulation failed: {e}"));
                run_error_code.get_or_insert(e.exit_code());
            }
        }
    }

    // Dispatch on the policy enum (not the report's label string) so a
    // reworded label or edited policy list cannot silently skip a floor.
    for (policy, report) in &reports {
        let check = |ok: bool, what: &str| {
            if !ok {
                Some(format!("{}: {what}: {report}", report.policy))
            } else {
                None
            }
        };
        let mut fail = |f: Option<String>| failures.extend(f);
        match policy {
            SharingPolicy::Raw => {
                fail(check(
                    report.global_accuracy >= RAW_ACC_FLOOR,
                    "raw-sharing accuracy under floor",
                ));
            }
            SharingPolicy::Synthetic(ModelKind::KinetGan) => {
                fail(check(
                    report.global_accuracy >= SYNTH_ACC_FLOOR,
                    "synthetic-sharing accuracy under floor",
                ));
                fail(check(
                    report.attack_recall > 0.0,
                    "attack recall collapsed to zero",
                ));
                fail(check(
                    report.pool_kg_validity >= SYNTH_KG_VALIDITY_FLOOR,
                    "pooled KG validity under floor",
                ));
                fail(check(
                    report.pool_attack_count(&LabSimulator::attack_events()) > 0,
                    "no attack-class rows in the shared pool (class collapse)",
                ));
                fail(check(
                    report.devices.iter().filter(|d| d.diag.is_some()).count() == report.n_devices,
                    "missing per-device training diagnostics",
                ));
            }
            SharingPolicy::Synthetic(_) | SharingPolicy::LocalOnly => {}
        }
    }

    let json_reports: Vec<_> = reports.iter().map(|(_, r)| r).collect();
    match write_json(OUT, &json_reports) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => failures.push(format!("could not write {OUT}.json: {e}")),
    }

    if failures.is_empty() {
        println!("sim_gate: all quality floors hold");
    } else {
        for f in &failures {
            eprintln!("sim_gate FAIL: {f}");
        }
        std::process::exit(run_error_code.unwrap_or(1));
    }
}
