//! Shared plumbing for the gate binaries: the run harness of
//! `chaos_gate` and `service_gate` (scenario tables, checks and report
//! structs stay in each gate), and `bench_gate`'s diff of
//! fresh `target/experiments/BENCH_*.json` medians against the committed
//! `benches/baseline/` summaries.

use kinet_fleet::FleetError;
use kinet_obs::Recorder;
use kinet_tensor::pool::with_threads;
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The command line every run-harness gate accepts: `[--quick] [--seed N]`.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// Shrink training to CI-smoke scale.
    pub quick: bool,
    /// Master seed (default 42).
    pub seed: u64,
}

impl Args {
    /// Parses the process arguments. `--help` prints `gate`'s usage line
    /// and exits 0; a malformed argument prints `<gate>: <error>` and
    /// exits 1.
    pub fn from_env(gate: &str) -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("usage: {gate} [--quick] [--seed N]");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{gate}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Parses `args`; `Ok(None)` means `--help` was asked for.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Self>, String> {
        let mut parsed = Args {
            quick: false,
            seed: 42,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--quick" => parsed.quick = true,
                "--seed" => {
                    let v = it.next().ok_or("--seed requires a value")?;
                    parsed.seed = v.parse().map_err(|_| format!("invalid number {v:?}"))?;
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Some(parsed))
    }
}

/// Thread counts every gate run must agree across.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Runs `run` once per [`THREAD_COUNTS`] entry under [`with_threads`]
/// and compares `key` of every successful run with that of the first
/// successful one.
///
/// A failed run adds `run failed at N thread(s): <error>` to `failures`;
/// a differing key adds `<what> diverges between F and N thread(s)`, where
/// `F` is the thread count of the first run compared. Returns the first
/// successful result and whether every key agreed (`false` when no run
/// succeeded).
pub fn across_threads<R, E: fmt::Display>(
    what: &str,
    failures: &mut Vec<String>,
    mut run: impl FnMut(usize) -> Result<R, E>,
    key: impl Fn(&R) -> String,
) -> (Option<R>, bool) {
    let mut first: Option<(usize, R, String)> = None;
    let mut identical = true;
    for &threads in &THREAD_COUNTS {
        match with_threads(threads, || run(threads)) {
            Ok(result) => match &first {
                None => {
                    let k = key(&result);
                    first = Some((threads, result, k));
                }
                Some((first_threads, _, first_key)) => {
                    if key(&result) != *first_key {
                        identical = false;
                        failures.push(format!(
                            "{what} diverges between {first_threads} and {threads} thread(s)"
                        ));
                    }
                }
            },
            Err(e) => failures.push(format!("run failed at {threads} thread(s): {e}")),
        }
    }
    match first {
        Some((_, result, _)) => (Some(result), identical),
        None => (None, false),
    }
}

/// The verdict of a probe that drives a run into a failure which must end
/// the process with one dedicated exit code.
#[derive(Debug, Serialize)]
pub struct ProbeRecord {
    description: String,
    expected_exit_code: i32,
    actual_exit_code: Option<i32>,
    error: String,
    /// `true` when the run failed with the expected exit code.
    pub pass: bool,
}

impl ProbeRecord {
    /// Scores and prints a probe run: it passes only when `outcome` is an
    /// error whose exit code is `expected`. `succeeded` is the error text
    /// recorded when the run did not fail at all.
    pub fn expect_exit<T>(
        description: &str,
        expected: i32,
        outcome: Result<T, FleetError>,
        succeeded: &str,
    ) -> Self {
        let (actual_exit_code, error, pass) = match outcome {
            Ok(_) => (None, succeeded.to_string(), false),
            Err(e) if e.exit_code() == expected => (Some(expected), e.to_string(), true),
            Err(e) => (
                Some(e.exit_code()),
                format!("wrong error class: {e}"),
                false,
            ),
        };
        println!("      exit code {actual_exit_code:?} (expected {expected}): {error}");
        Self {
            description: description.to_string(),
            expected_exit_code: expected,
            actual_exit_code,
            error,
            pass,
        }
    }
}

/// The evidence-before-verdict finish: prints the journal's one-line
/// per-phase tick/row summary, writes its last [`kinet_obs::DUMP_TAIL`]
/// records to `target/experiments/<gate>_obs_dump.json` and `report` to
/// `target/experiments/<id>.json`, and only then gives the verdict on
/// `contracts`: exit 1 if `failed`, so a red gate still uploads its
/// evidence.
pub fn finish<T: Serialize>(
    gate: &str,
    journal: &Recorder,
    id: &str,
    report: &T,
    failed: bool,
    contracts: &str,
) {
    println!("{}", journal.phase_summary());
    let dump = format!("{gate}_obs_dump");
    match crate::write_json(&dump, &journal.tail_snapshot(kinet_obs::DUMP_TAIL)) {
        Ok(path) => println!("journal tail dumped to {}", path.display()),
        Err(e) => eprintln!("could not write {dump}.json: {e}"),
    }
    match crate::write_json(id, report) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("{gate} FAIL: could not write {id}.json: {e}");
            std::process::exit(1);
        }
    }
    if failed {
        eprintln!("{gate}: {contracts} violated");
        std::process::exit(1);
    }
    println!("{gate}: all {contracts} hold");
}

/// Median nanoseconds per benchmark name, parsed from one summary file.
type BenchMedians = BTreeMap<String, u128>;

/// One benchmark's fresh-vs-baseline comparison.
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Bench file stem (`kg`, `tensor`, …).
    pub bench: String,
    /// Benchmark name within the file.
    pub name: String,
    /// Committed baseline median (ns).
    pub baseline_ns: u128,
    /// Freshly measured median (ns).
    pub fresh_ns: u128,
    /// `fresh / baseline`.
    pub ratio: f64,
}

impl GateRow {
    /// `true` when the fresh median exceeds `threshold ×` the baseline.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.ratio > threshold
    }
}

/// Parses the criterion shim's summary JSON into per-benchmark medians.
/// Records without a `name` or numeric `median_ns` are skipped (never
/// produced by the shim; tolerated so a hand-edited baseline cannot crash
/// the gate), but a summary with no usable record is an error: one that
/// compares nothing must fail the gate, not pass it.
fn parse_medians(json: &str) -> Result<BenchMedians, String> {
    let root = serde_json::parse_value(json).map_err(|e| format!("not JSON: {e}"))?;
    let field = |v: &Value, key: &str| -> Option<Value> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, fv)| fv.clone()),
            _ => None,
        }
    };
    let Some(Value::Array(results)) = field(&root, "results") else {
        return Err("no `results` array".into());
    };
    let mut out = BTreeMap::new();
    for record in &results {
        let Some(Value::String(name)) = field(record, "name") else {
            continue;
        };
        let Some(Value::Number(median)) = field(record, "median_ns") else {
            continue;
        };
        if median.fract() == 0.0 && median >= 0.0 {
            out.insert(name, median as u128);
        }
    }
    if out.is_empty() {
        return Err("no benchmark records".into());
    }
    Ok(out)
}

/// Diffs one bench file's fresh summary against its committed baseline.
/// Returns the compared rows and every failure that holds whatever the
/// threshold: an unusable summary on either side (see `parse_medians`)
/// or a baselined benchmark missing from the fresh run.
pub fn compare_file(
    bench: &str,
    baseline_json: &str,
    fresh_json: &str,
) -> (Vec<GateRow>, Vec<String>) {
    let unusable =
        |side: &str, e: String| (Vec::new(), vec![format!("{bench}: {side} unusable: {e}")]);
    let baseline = match parse_medians(baseline_json) {
        Ok(m) => m,
        Err(e) => return unusable("baseline", e),
    };
    let fresh = match parse_medians(fresh_json) {
        Ok(m) => m,
        Err(e) => return unusable("fresh summary", e),
    };
    // A baselined name with no fresh counterpart is coverage that quietly
    // evaporated (bench renamed or dropped): it fails, so a regression
    // cannot hide by disappearing.
    let failures = baseline
        .keys()
        .filter(|name| !fresh.contains_key(*name))
        .map(|name| format!("{bench}: baselined benchmark {name:?} missing from fresh run"))
        .collect();
    let rows = baseline
        .iter()
        .filter_map(|(name, &base_ns)| {
            let &fresh_ns = fresh.get(name)?;
            Some(GateRow {
                bench: bench.to_string(),
                name: name.clone(),
                baseline_ns: base_ns,
                fresh_ns,
                ratio: fresh_ns as f64 / base_ns.max(1) as f64,
            })
        })
        .collect();
    (rows, failures)
}

/// The committed baseline directory: `benches/baseline/` at the workspace
/// root, resolved relative to this crate so the gate works from any CWD.
pub fn baseline_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benches/baseline")
}

/// The experiments directory that [`crate::write_json`] writes to and the
/// gates read their previous snapshots and fresh bench summaries from:
/// `KINET_EXPERIMENTS_DIR` or `target/experiments` at the workspace root.
pub fn fresh_dir() -> PathBuf {
    match std::env::var("KINET_EXPERIMENTS_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments"),
    }
}

/// The regression threshold: `KINET_GATE_THRESHOLD` or 1.5.
pub fn threshold() -> f64 {
    std::env::var("KINET_GATE_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 1.0)
        .unwrap_or(1.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "kg",
  "unix_time": 1,
  "results": [
    {"name": "validity_rate/20k_string", "min_ns": 90, "median_ns": 100, "mean_ns": 105, "samples": 10, "iters_per_sample": 1},
    {"name": "validity_rate/20k_interned", "min_ns": 8, "median_ns": 10, "mean_ns": 11, "samples": 10, "iters_per_sample": 1}
  ]
}
"#;

    #[test]
    fn parses_names_and_medians() {
        let m = parse_medians(SAMPLE).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["validity_rate/20k_string"], 100);
        assert_eq!(m["validity_rate/20k_interned"], 10);
    }

    #[test]
    fn compare_flags_regressions_only_above_threshold() {
        let fresh = SAMPLE
            .replace(r#""median_ns": 10,"#, r#""median_ns": 16,"#) // 1.6x
            .replace(r#""median_ns": 100,"#, r#""median_ns": 120,"#); // 1.2x
        let (rows, failures) = compare_file("kg", SAMPLE, &fresh);
        assert!(failures.is_empty());
        assert_eq!(rows.len(), 2);
        let regressed: Vec<&str> = rows
            .iter()
            .filter(|r| r.regressed(1.5))
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(regressed, ["validity_rate/20k_interned"]);
    }

    #[test]
    fn missing_benchmarks_are_reported_not_skipped() {
        let fresh = r#"{"results": [{"name": "validity_rate/20k_string", "median_ns": 100}]}"#;
        let (rows, failures) = compare_file("kg", SAMPLE, fresh);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            failures,
            [r#"kg: baselined benchmark "validity_rate/20k_interned" missing from fresh run"#]
        );
    }

    #[test]
    fn unusable_summaries_fail_by_name() {
        for (baseline, fresh, side) in [
            ("not json", SAMPLE, "baseline"),
            (r#"{"results": []}"#, SAMPLE, "baseline"),
            (r#"{"bench": "kg"}"#, SAMPLE, "baseline"),
            (SAMPLE, "{", "fresh summary"),
            (SAMPLE, r#"{"results": [{"name": "x"}]}"#, "fresh summary"),
        ] {
            let (rows, failures) = compare_file("kg", baseline, fresh);
            assert!(rows.is_empty());
            assert_eq!(failures.len(), 1, "{baseline} / {fresh}");
            assert!(
                failures[0].starts_with(&format!("kg: {side} unusable")),
                "{failures:?}"
            );
        }
        let (rows, failures) = compare_file("kg", SAMPLE, SAMPLE);
        assert_eq!(rows.len(), 2);
        assert!(failures.is_empty());
    }

    #[test]
    fn args_parse_quick_seed_and_help() {
        let parse = |args: &[&str]| Args::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(
            parse(&[]),
            Ok(Some(Args {
                quick: false,
                seed: 42
            }))
        );
        assert_eq!(
            parse(&["--seed", "7", "--quick"]),
            Ok(Some(Args {
                quick: true,
                seed: 7
            }))
        );
        assert_eq!(parse(&["--quick", "--help"]), Ok(None));
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--devices", "4"]).is_err());
    }

    #[test]
    fn divergent_key_names_the_thread_counts_compared() {
        let mut failures = Vec::new();
        let (first, identical) =
            across_threads("fingerprint", &mut failures, Ok::<_, String>, |&threads| {
                if threads == 4 { "b" } else { "a" }.to_string()
            });
        assert_eq!(first, Some(1));
        assert!(!identical);
        assert_eq!(failures, ["fingerprint diverges between 1 and 4 thread(s)"]);

        failures.clear();
        let (first, identical) =
            across_threads("fingerprint", &mut failures, Ok::<_, String>, |_| {
                "same".to_string()
            });
        assert_eq!(first, Some(1));
        assert!(identical);
        assert!(failures.is_empty());
    }

    #[test]
    fn failed_first_run_compares_from_the_next_thread_count() {
        let mut failures = Vec::new();
        let (first, identical) = across_threads(
            "journal",
            &mut failures,
            |threads| {
                if threads == 1 {
                    Err("boom")
                } else {
                    Ok(threads)
                }
            },
            |&threads| threads.to_string(),
        );
        assert_eq!(first, Some(2));
        assert!(!identical);
        assert_eq!(
            failures,
            [
                "run failed at 1 thread(s): boom",
                "journal diverges between 2 and 4 thread(s)"
            ]
        );

        failures.clear();
        let (first, identical) = across_threads(
            "journal",
            &mut failures,
            |_| Err::<usize, _>("down"),
            |_| String::new(),
        );
        assert_eq!(first, None);
        assert!(!identical, "no run compared is not agreement");
        assert_eq!(failures.len(), 3);
    }

    #[test]
    fn probe_passes_only_on_the_expected_exit_code() {
        let collapse = || FleetError::MembershipCollapse {
            round: 1,
            members: 0,
            min_members: 2,
        };
        let expected = collapse().exit_code();
        let pass = ProbeRecord::expect_exit("p", expected, Err::<(), _>(collapse()), "committed");
        assert!(pass.pass);
        assert_eq!(pass.actual_exit_code, Some(expected));
        assert_eq!(pass.error, collapse().to_string());

        let committed = ProbeRecord::expect_exit("p", expected, Ok(()), "committed");
        assert!(!committed.pass);
        assert_eq!(committed.actual_exit_code, None);
        assert_eq!(committed.error, "committed");

        let wrong = ProbeRecord::expect_exit(
            "p",
            expected,
            Err::<(), _>(FleetError::Config("bad".into())),
            "committed",
        );
        assert!(!wrong.pass);
        assert!(wrong.error.starts_with("wrong error class: "));
    }

    #[test]
    fn default_threshold_is_one_point_five() {
        assert!((threshold() - 1.5).abs() < 1e-9 || std::env::var("KINET_GATE_THRESHOLD").is_ok());
    }
}
