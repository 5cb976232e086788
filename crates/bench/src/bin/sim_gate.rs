//! Distributed-sim quality gate: runs the Table-1 deployment scenario
//! (by default 4 devices × 500 records, the small-shard training schedule)
//! for all three sharing policies, asserts the utility floors, and
//! persists the full [`DistributedReport`]s as
//! `target/experiments/<out>.json` so per-PR CI artifacts make utility
//! regressions as visible as the perf ones `bench_gate` guards.
//!
//! When a previous snapshot exists at the output path it is reloaded
//! through the vendored JSON deserializer and a per-policy delta is
//! printed — quality drift is visible at a glance, not just floor breaks.
//!
//! ```text
//! sim_gate [--devices N] [--rows-per-device N] [--seed N] [--out NAME]
//! ```
//!
//! Defaults reproduce the CI floor configuration exactly. Exit code 1
//! when any floor is violated or an argument is malformed; a failed
//! simulation run instead exits with the typed
//! [`kinet_nids::FleetError`] code (2 config-invalid, 3 quorum-lost,
//! 4 internal).

use kinet_bench::write_json;
use kinet_datasets::lab::LabSimulator;
use kinet_nids::{DistributedConfig, DistributedReport, DistributedSim, ModelKind, SharingPolicy};

/// The asserted floors, shared with `crates/nids/src/sim.rs` tests and
/// documented in README's Table-1 section.
const RAW_ACC_FLOOR: f64 = 0.9;
const SYNTH_ACC_FLOOR: f64 = 0.5;
const SYNTH_KG_VALIDITY_FLOOR: f64 = 0.5;

struct Args {
    devices: usize,
    rows_per_device: usize,
    seed: u64,
    out: String,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            devices: 4,
            rows_per_device: 500,
            seed: DistributedConfig::default().seed,
            out: "distributed_report".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--devices" => args.devices = parse_num(&value("--devices")?)?,
                "--rows-per-device" => {
                    args.rows_per_device = parse_num(&value("--rows-per-device")?)?;
                }
                "--seed" => args.seed = parse_num(&value("--seed")?)?,
                "--out" => args.out = value("--out")?,
                "--help" | "-h" => {
                    println!(
                        "usage: sim_gate [--devices N] [--rows-per-device N] [--seed N] \
                         [--out NAME]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.devices == 0 || args.rows_per_device == 0 {
            return Err("--devices and --rows-per-device must be positive".into());
        }
        Ok(args)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

/// Reloads the previous snapshot at `target/experiments/<out>.json`, if
/// any, through the shim deserializer.
fn previous_reports(out: &str) -> Option<Vec<DistributedReport>> {
    let path = kinet_bench::gate::fresh_dir().join(format!("{out}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::from_str(&text) {
        Ok(reports) => Some(reports),
        Err(e) => {
            eprintln!("sim_gate: previous snapshot unreadable ({e}); skipping delta");
            None
        }
    }
}

fn print_delta(previous: &[DistributedReport], fresh: &DistributedReport) {
    // Match the previous run on policy AND device count so e.g. a
    // `--devices 8` exploration against a default 4-device snapshot is
    // not misread as quality drift (the report does not record
    // rows/seed, so runs varying those should pick a distinct `--out`).
    let Some(prev) = previous
        .iter()
        .find(|p| p.policy == fresh.policy && p.n_devices == fresh.n_devices)
    else {
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
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sim_gate: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "sim_gate — distributed NIDS quality floors ({} devices x {} records, seed {})\n",
        args.devices, args.rows_per_device, args.seed
    );
    let previous = previous_reports(&args.out).unwrap_or_default();
    let mut reports = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut run_error_code: Option<i32> = None;
    for policy in [
        SharingPolicy::Raw,
        SharingPolicy::Synthetic(ModelKind::KinetGan),
        SharingPolicy::LocalOnly,
    ] {
        let sim = DistributedSim::new(DistributedConfig {
            n_devices: args.devices,
            records_per_device: args.rows_per_device,
            test_records: 800,
            seed: args.seed,
            policy: policy.clone(),
            ..DistributedConfig::default()
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
                    report.device_diags.len() == report.n_devices,
                    "missing per-device training diagnostics",
                ));
            }
            SharingPolicy::Synthetic(_) | SharingPolicy::LocalOnly => {}
        }
    }

    let json_reports: Vec<_> = reports.iter().map(|(_, r)| r).collect();
    match write_json(&args.out, &json_reports) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => failures.push(format!("could not write {}.json: {e}", args.out)),
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
