//! CI bench regression gate.
//!
//! Compares fresh `target/experiments/BENCH_*.json` medians (written by any
//! `cargo bench` run through the vendored criterion shim) against the
//! committed baselines in `benches/baseline/`, and exits non-zero when any
//! benchmark's median regressed beyond the threshold (default 1.5×,
//! `KINET_GATE_THRESHOLD` overrides).
//!
//! `--update` instead refreshes the committed baselines from the fresh
//! summaries — run it after an intentional performance change and commit
//! the result.

use kinet_bench::gate;
use std::process::ExitCode;

fn main() -> ExitCode {
    let update = std::env::args().any(|a| a == "--update");
    let baseline_dir = gate::baseline_dir();
    let fresh_dir = gate::fresh_dir();

    if update {
        std::fs::create_dir_all(&baseline_dir).expect("create baseline dir");
        let mut copied = 0;
        for entry in std::fs::read_dir(&fresh_dir).expect("fresh summaries exist") {
            let path = entry.expect("readable dir entry").path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                std::fs::copy(&path, baseline_dir.join(name)).expect("copy baseline");
                println!("baseline updated: {name}");
                copied += 1;
            }
        }
        if copied == 0 {
            eprintln!(
                "no fresh BENCH_*.json in {} — run benches first",
                fresh_dir.display()
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let threshold = gate::threshold();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut compared_files = 0;
    let entries = match std::fs::read_dir(&baseline_dir) {
        Ok(e) => e,
        Err(_) => {
            eprintln!(
                "no committed baselines in {} — run `bench_gate --update` after a bench run",
                baseline_dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let bench = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let baseline_json = std::fs::read_to_string(&path).expect("readable baseline");
        let fresh_path = fresh_dir.join(name);
        let Ok(fresh_json) = std::fs::read_to_string(&fresh_path) else {
            // A baselined bench with no fresh summary at all is lost
            // coverage, not a pass.
            failures.push(format!(
                "{bench}: no fresh summary at {}",
                fresh_path.display()
            ));
            continue;
        };
        compared_files += 1;
        let (file_rows, file_failures) = gate::compare_file(&bench, &baseline_json, &fresh_json);
        rows.extend(file_rows);
        failures.extend(file_failures);
    }

    if compared_files == 0 {
        eprintln!("nothing to compare: no fresh summaries matched the committed baselines");
        return ExitCode::FAILURE;
    }

    let mut regressions = 0;
    println!("bench regression gate (threshold {threshold:.2}x on medians):");
    for row in &rows {
        let flag = if row.regressed(threshold) {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {:<9} {:<12} {:<42} {:>12} -> {:>12} ns  ({:.2}x)",
            flag, row.bench, row.name, row.baseline_ns, row.fresh_ns, row.ratio
        );
    }
    for f in &failures {
        println!("  FAILED    {f}");
    }
    if regressions > 0 || !failures.is_empty() {
        eprintln!(
            "{regressions} benchmark(s) regressed beyond {threshold:.2}x, {} unusable or missing (refresh baselines with --update after intentional bench changes)",
            failures.len()
        );
        return ExitCode::FAILURE;
    }
    println!("{} benchmark(s) within budget", rows.len());
    ExitCode::SUCCESS
}
