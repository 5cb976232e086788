//! Fleet-scale demonstration of the `kinet_fleet` subsystem, in two acts:
//!
//! 1. **Scale**: a 32-device × 5,000-row raw-sharing run on the streaming
//!    path — every shard arrives chunk-by-chunk into a bounded window, and
//!    the run *asserts* that the decoded-rows peak stayed at
//!    `chunk + window`, far below the shard size.
//! 2. **Condition union**: a crafted class-skewed split (one device
//!    observes attacks, the rest are benign-only) run twice at the same
//!    seed — union off, union on — asserting the protocol strictly
//!    improves pooled attack recall.
//!
//! Both reports are persisted as `target/experiments/fleet_report.json`;
//! the file must round-trip through the vendored JSON deserializer (also
//! asserted), and when a previous snapshot exists a delta is printed.
//!
//! ```text
//! fleet_demo [--quick] [--serve] [--trace] [--devices N] [--rows N] [--chunk N] [--window N] [--seed N]
//! ```
//!
//! Every act is recorded into one journal: its per-phase summary is
//! printed and its tail written as
//! `target/experiments/fleet_demo_obs_dump.json`; `--trace` also prints
//! the whole journal.
//!
//! `--serve` appends a third act: a resident [`FleetService`] trains
//! three rounds, the middle round is killed (every device crashes under a
//! full-quorum policy), and the serving handle is shown still answering
//! flow batches from the last committed generation — one round stale,
//! loudly stamped as such — before the next round commits and goes fresh.
//!
//! `--quick` shrinks the acts to CI-smoke scale. Exit code 1 on any
//! violated assertion; a failed fleet run instead exits with the typed
//! [`kinet_fleet::FleetError`] code (2 config-invalid, 3 quorum-lost,
//! 4 internal, 5 membership-collapse).

use kinet_bench::write_json;
use kinet_fleet::{
    DeviceFaultSpec, FaultKind, FleetConfig, FleetReport, FleetService, FleetSim, MemStorage,
    ModelKind, RoundVerdict, ServiceConfig, ServingConfig, SharingPolicy, SnapshotStore,
};
use kinet_obs::Recorder;

/// Collected assertion failures plus the process exit code to use: floor
/// breaks keep 1, a typed fleet-run error escalates to its own code.
#[derive(Default)]
struct Failures {
    msgs: Vec<String>,
    run_error_code: Option<i32>,
}

impl Failures {
    fn push(&mut self, msg: String) {
        self.msgs.push(msg);
    }

    fn push_run_error(&mut self, context: &str, e: &kinet_fleet::FleetError) {
        self.msgs.push(format!("{context}: {e}"));
        self.run_error_code.get_or_insert(e.exit_code());
    }

    fn exit_code(&self) -> i32 {
        self.run_error_code.unwrap_or(1)
    }
}

struct Args {
    quick: bool,
    serve: bool,
    trace: bool,
    devices: usize,
    rows: usize,
    chunk: usize,
    window: usize,
    seed: u64,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut quick = false;
        let mut serve = false;
        let mut trace = false;
        let mut devices = None;
        let mut rows = None;
        let mut chunk = None;
        let mut window = None;
        let mut seed = 42u64;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--quick" => quick = true,
                "--serve" => serve = true,
                "--trace" => trace = true,
                "--devices" => devices = Some(parse_num(&value("--devices")?)?),
                "--rows" => rows = Some(parse_num(&value("--rows")?)?),
                "--chunk" => chunk = Some(parse_num(&value("--chunk")?)?),
                "--window" => window = Some(parse_num(&value("--window")?)?),
                "--seed" => seed = parse_num(&value("--seed")?)?,
                "--help" | "-h" => {
                    println!(
                        "usage: fleet_demo [--quick] [--serve] [--trace] [--devices N] [--rows N] \
                         [--chunk N] [--window N] [--seed N]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            quick,
            serve,
            trace,
            devices: devices.unwrap_or(if quick { 8 } else { 32 }),
            rows: rows.unwrap_or(if quick { 1_000 } else { 5_000 }),
            chunk: chunk.unwrap_or(1_024),
            window: window.unwrap_or(256),
            seed,
        })
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

/// Act 1: the streaming scale run.
fn scale_run(args: &Args, failures: &mut Failures, journal: &mut Recorder) -> Option<FleetReport> {
    println!(
        "[1/2] streaming scale run: {} devices x {} rows (chunk {}, window {})",
        args.devices, args.rows, args.chunk, args.window
    );
    let cfg = FleetConfig {
        n_devices: args.devices,
        rows_per_device: args.rows,
        test_records: 1_200,
        policy: SharingPolicy::Raw,
        seed: args.seed,
        chunk_rows: args.chunk,
        device_window: Some(args.window),
        ..FleetConfig::default()
    };
    let report = match FleetSim::new(cfg).run_recorded(journal) {
        Ok((r, _)) => r,
        Err(e) => {
            failures.push_run_error("scale run failed", &e);
            return None;
        }
    };
    println!("      {report}");
    let total_rows = args.devices * args.rows;
    let secs = report.total_wall_ms / 1e3;
    println!(
        "      streamed {total_rows} rows in {secs:.2}s ({:.0} rows/s), decoded peak {} rows",
        total_rows as f64 / secs.max(1e-9),
        report.peak_decoded_rows
    );
    // The claim the streaming layer exists for: residency is bounded by
    // chunk + window, never by the shard.
    let bound = args.chunk + args.window;
    if report.peak_decoded_rows > bound {
        failures.push(format!(
            "peak decoded rows {} exceeds chunk+window bound {bound}",
            report.peak_decoded_rows
        ));
    }
    if args.rows > bound && report.peak_decoded_rows >= args.rows {
        failures.push(format!(
            "peak decoded rows {} reaches the shard size {} — streaming is not streaming",
            report.peak_decoded_rows, args.rows
        ));
    }
    if report.global_accuracy < 0.9 {
        failures.push(format!(
            "raw pooled accuracy {:.3} under 0.9 at fleet scale",
            report.global_accuracy
        ));
    }
    Some(report)
}

/// Act 2: the condition-union A/B on a class-skewed split.
fn union_ab(args: &Args, failures: &mut Failures, journal: &mut Recorder) -> Vec<FleetReport> {
    let (devices, rows, epochs) = if args.quick {
        (3, 220, 2)
    } else {
        (4, 400, 60)
    };
    println!(
        "\n[2/2] condition-union A/B: {devices} devices x {rows} rows, skewed split \
         (only device 0 observes attacks)"
    );
    let base = FleetConfig {
        n_devices: devices,
        rows_per_device: rows,
        test_records: 800,
        policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
        model_epochs: epochs,
        seed: args.seed,
        device_attack_fraction: (1..devices).map(|d| (d, 0.0)).collect(),
        ..FleetConfig::default()
    };
    let mut with_union = base.clone();
    with_union.union = true;
    let mut out = Vec::new();
    for (label, cfg) in [("union off", base), ("union on ", with_union)] {
        match FleetSim::new(cfg).run_recorded(journal) {
            Ok((r, _)) => {
                println!("      {label}: {r}");
                out.push(r);
            }
            Err(e) => failures.push_run_error(&format!("{label} run failed"), &e),
        }
    }
    if let [off, on] = out.as_slice() {
        if on.union.seeded_pairs == 0 {
            failures.push("union run performed no seeding".into());
        }
        if on.union.coverage_after <= on.union.coverage_before {
            failures.push(format!(
                "union coverage did not grow: {:.3} -> {:.3}",
                on.union.coverage_before, on.union.coverage_after
            ));
        }
        // The quality claim — strict recall improvement at the same seed.
        // Quick mode trains 2 epochs (CI smoke): generators are noise, so
        // only the protocol mechanics are asserted there.
        if !args.quick && on.attack_recall <= off.attack_recall {
            failures.push(format!(
                "union must strictly improve pooled attack recall: on {:.3} vs off {:.3}",
                on.attack_recall, off.attack_recall
            ));
        }
        println!(
            "      attack recall {:.3} -> {:.3}, union coverage {:.2} -> {:.2}",
            off.attack_recall, on.attack_recall, on.union.coverage_before, on.union.coverage_after
        );
    }
    out
}

/// Act 3 (`--serve`): the resident service survives a killed round and
/// keeps answering from the previous generation.
fn serve_demo(args: &Args, failures: &mut Failures, journal: &mut Recorder) {
    let (devices, rows) = if args.quick { (2, 250) } else { (4, 400) };
    println!(
        "\n[serve] resident service: {devices} devices x {rows} rows, 3 rounds, \
         round 1 killed mid-flight"
    );
    let fleet = FleetConfig {
        n_devices: devices,
        rows_per_device: rows,
        test_records: 600,
        policy: SharingPolicy::Raw,
        seed: args.seed,
        ..FleetConfig::default()
    };
    // Round 1: every device crashes on acquire under the default
    // full-quorum policy — the round fails outright.
    let kill_round = (0..devices)
        .map(|d| DeviceFaultSpec::permanent(d, FaultKind::CrashAcquire))
        .collect();
    let cfg = ServiceConfig {
        fleet,
        rounds: 3,
        round_faults: vec![(1, kill_round)],
        serving: ServingConfig::enabled(4, 128),
        ..ServiceConfig::default()
    };
    let mut store = SnapshotStore::new(Box::new(MemStorage::new()));
    let report = match FleetService::new(cfg).run_recorded(&mut store, journal) {
        Ok(r) => r,
        Err(e) => {
            failures.push_run_error("service run failed", &e);
            return;
        }
    };
    println!("      {report}");
    for record in &report.rounds {
        let s = &record.serving;
        println!(
            "      round {}: {:9} | answered {} rows from gen {:?}, staleness {:?}",
            record.round,
            record.verdict.label(),
            s.rows,
            s.answered_generation,
            s.staleness,
        );
    }
    // The degraded-serving claim: the killed round still answers, one
    // generation behind and stamped as stale; the next round recovers.
    if !matches!(report.rounds[1].verdict, RoundVerdict::Failed { .. }) {
        failures.push(format!(
            "round 1 should have failed, got {}",
            report.rounds[1].verdict.label()
        ));
    }
    let degraded = &report.rounds[1].serving;
    if degraded.answered_generation != Some(1) || degraded.staleness != Some(1) {
        failures.push(format!(
            "killed round must serve from generation 1 at staleness 1, got gen {:?} \
             staleness {:?}",
            degraded.answered_generation, degraded.staleness
        ));
    }
    if degraded.rows == 0 {
        failures.push("killed round answered no rows".into());
    }
    if report.rounds[2].serving.staleness != Some(0) {
        failures.push("recovery round should serve fresh (staleness 0)".into());
    }
    if report.final_generation != Some(2) {
        failures.push(format!(
            "service should end at generation 2, got {:?}",
            report.final_generation
        ));
    }
}

/// Reloads the previous snapshot for the delta print.
fn previous_reports() -> Vec<FleetReport> {
    let path = kinet_bench::gate::fresh_dir().join("fleet_report.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    match serde_json::from_str(&text) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("fleet_demo: previous snapshot unreadable ({e}); skipping delta");
            Vec::new()
        }
    }
}

fn print_deltas(previous: &[FleetReport], fresh: &[FleetReport]) {
    for report in fresh {
        // Match on the full deterministic identity of a run line.
        let Some(prev) = previous.iter().find(|p| {
            p.policy == report.policy
                && p.n_devices == report.n_devices
                && p.union.enabled == report.union.enabled
        }) else {
            continue;
        };
        println!(
            "Δ vs last run [{} devices={} union={}]: acc {:+.3}, attack-recall {:+.3}, \
             kg-valid {:+.3}, peak-rows {:+}",
            report.policy,
            report.n_devices,
            report.union.enabled,
            report.global_accuracy - prev.global_accuracy,
            report.attack_recall - prev.attack_recall,
            report.pool_kg_validity - prev.pool_kg_validity,
            report.peak_decoded_rows as i64 - prev.peak_decoded_rows as i64,
        );
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleet_demo: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "fleet_demo — kinet_fleet subsystem demonstration{}\n",
        if args.quick { " (quick mode)" } else { "" }
    );
    let previous = previous_reports();
    // Every act is recorded into one journal (the acts are
    // training-dominated; journal appends are noise): its tail is dumped
    // for the CI artifact, and `--trace` also prints it in full.
    let mut journal = Recorder::new();
    let mut failures = Failures::default();
    let mut reports = Vec::new();
    reports.extend(scale_run(&args, &mut failures, &mut journal));
    reports.extend(union_ab(&args, &mut failures, &mut journal));
    if args.serve {
        serve_demo(&args, &mut failures, &mut journal);
    }

    println!();
    print_deltas(&previous, &reports);

    // Persist, then prove the snapshot round-trips through the shim
    // deserializer — the property the delta printing above relies on.
    match write_json("fleet_report", &reports) {
        Ok(path) => {
            println!("wrote {}", path.display());
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            match serde_json::from_str::<Vec<FleetReport>>(&text) {
                Ok(back) => {
                    let same = back.len() == reports.len()
                        && back.iter().zip(&reports).all(|(b, r)| {
                            b.deterministic_fingerprint() == r.deterministic_fingerprint()
                        });
                    if same {
                        println!("snapshot round-trips through the JSON deserializer");
                    } else {
                        failures.push("snapshot round-trip changed report contents".into());
                    }
                }
                Err(e) => failures.push(format!("snapshot does not deserialize: {e}")),
            }
        }
        Err(e) => failures.push(format!("could not write fleet_report.json: {e}")),
    }

    if args.trace {
        print!("{}", journal.render());
    }
    kinet_bench::obs_wrapup("fleet_demo", &journal);

    if failures.msgs.is_empty() {
        println!("fleet_demo: all assertions hold");
    } else {
        for f in &failures.msgs {
            eprintln!("fleet_demo FAIL: {f}");
        }
        std::process::exit(failures.exit_code());
    }
}
