//! # kinet_lint — workspace invariant linting
//!
//! A comment- and string-aware source scanner (hand-rolled [`lexer`], no
//! rustc plugin) that walks every workspace and `vendor/` `.rs` file and
//! enforces the contracts the earlier PRs established in prose:
//!
//! * [`rules::RULE_NONDET_ITER`] — no hash-container iteration in the
//!   deterministic crates (the bit-for-bit fingerprint holders),
//! * [`rules::RULE_WALL_CLOCK`] — wall-clock reads only in timing modules,
//! * [`rules::RULE_NO_UNSAFE`] — every `unsafe` needs a `SAFETY:` comment
//!   and a committed allowlist entry,
//! * [`rules::RULE_HOT_ALLOC`] — the `hotlist.toml` functions stay
//!   allocation-free,
//! * [`rules::RULE_THREAD_KNOB`] — `KINET_THREADS` stays contained in the
//!   pool/schedule modules.
//!
//! A second, *interprocedural* stage (new in PR 9) parses every file's
//! items into a lightweight model ([`symbols`]), resolves a conservative
//! name-based call graph with an explicit unresolved-edge ledger
//! ([`callgraph`]), and runs three reachability analyses ([`reach`]):
//!
//! * [`rules::RULE_TRANS_ALLOC`] — allocation anywhere *reachable from* a
//!   hotlist root, with the full call chain in the finding,
//! * [`rules::RULE_DETERMINISM_TAINT`] — wall-clock / hash-iteration /
//!   thread-knob effects reachable from the deterministic roots in
//!   `crates/lint/reach.toml`,
//! * [`rules::RULE_PANIC_PATH`] — panic-capable functions reachable from
//!   the resident serving path, answered only by a reasoned
//!   `crates/lint/panic_allowlist.txt` entry.
//!
//! Findings can be excused inline with
//! `// kinet-lint: allow(<rule>) — <reason>` ([`suppress`]); the reason is
//! mandatory and stale or malformed directives are violations themselves.
//! The `lint_gate` bin (in `kinet_bench`) renders a [`LintReport`] to
//! `lint_report.json` plus a [`CallGraphSummary`] to `callgraph.json` and
//! fails CI on any unsuppressed finding.
//!
//! The per-file scan runs on `KINET_THREADS` workers over contiguous
//! slabs of the sorted file list; results are merged in file order and
//! every downstream stage is order-invariant, so the report and graph
//! bytes are identical for any thread count (pinned by proptests).

pub mod callgraph;
pub mod hotlist;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod symbols;

pub use callgraph::{CallGraph, CallGraphSummary};
pub use hotlist::{parse_hotlist, parse_unsafe_allowlist, HotFile};
pub use reach::ReachPolicy;
pub use report::{Finding, LintReport, SCHEMA_VERSION};
pub use rules::{scan_source, LintConfig};

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file the lint patrols, as sorted
/// `(workspace-relative path, absolute path)` pairs. Skips `target/`,
/// `.git/`, and the lint fixture corpus (deliberate violations used by
/// the engine's own tests).
pub fn workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = relpath(&path, root);
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" || rel.ends_with("tests/fixtures") {
                continue;
            }
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((rel, path));
        }
    }
    Ok(())
}

fn relpath(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Loads the repository's standing policy: `crates/lint/hotlist.toml` and
/// `crates/lint/unsafe_allowlist.txt` under `root`, wrapped in
/// [`LintConfig::repo_policy`].
pub fn load_workspace_config(root: &Path) -> Result<LintConfig, String> {
    let hot_path = root.join("crates/lint/hotlist.toml");
    let hot_text =
        fs::read_to_string(&hot_path).map_err(|e| format!("read {}: {e}", hot_path.display()))?;
    let hotlist = parse_hotlist(&hot_text).map_err(|e| format!("{}: {e}", hot_path.display()))?;
    let allow_path = root.join("crates/lint/unsafe_allowlist.txt");
    let allow_text = fs::read_to_string(&allow_path)
        .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
    Ok(LintConfig::repo_policy(
        hotlist,
        parse_unsafe_allowlist(&allow_text),
    ))
}

/// Loads the reachability policy: `crates/lint/reach.toml` plus
/// `crates/lint/panic_allowlist.txt` under `root`. Both files are
/// required — a missing policy file would silently drop whole analyses.
/// Reason-less allowlist entries come back as findings, not errors, so
/// the gate can report them like any other violation.
pub fn load_reach_policy(root: &Path) -> Result<(ReachPolicy, Vec<Finding>), String> {
    let reach_path = root.join(reach::REACH_POLICY_PATH);
    let text = fs::read_to_string(&reach_path)
        .map_err(|e| format!("read {}: {e}", reach_path.display()))?;
    let mut policy =
        reach::parse_reach(&text).map_err(|e| format!("{}: {e}", reach_path.display()))?;
    let allow_path = root.join(reach::PANIC_ALLOWLIST_PATH);
    let allow_text = fs::read_to_string(&allow_path)
        .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
    let (allow, errs) = reach::parse_panic_allowlist(&allow_text);
    policy.panic_allow = allow;
    Ok((policy, errs))
}

/// Full two-stage lint outcome: the findings report plus the call-graph
/// summary for `callgraph.json`.
pub struct WorkspaceLint {
    /// All findings (local + interprocedural), gate counters, catalog.
    pub report: LintReport,
    /// Node/edge/ledger counts and per-root reachable-set sizes.
    pub graph: CallGraphSummary,
}

/// Lints the whole workspace under `root` with explicit configs and an
/// explicit worker count — the deterministic core [`run_workspace`] wraps.
pub fn run_full(
    root: &Path,
    cfg: &LintConfig,
    policy: &ReachPolicy,
    policy_findings: Vec<Finding>,
    threads: usize,
) -> Result<WorkspaceLint, String> {
    let files = workspace_files(root)?;
    let mut scans = scan_files_parallel(&files, cfg, threads)?;

    // Stage 2: graph + reachability over every file's nodes.
    let graph_nodes: Vec<(String, Vec<callgraph::Node>)> = scans
        .iter_mut()
        .map(|s| (s.relpath.clone(), std::mem::take(&mut s.nodes)))
        .collect();
    let graph = callgraph::CallGraph::build(graph_nodes);
    let outcome = reach::run_analyses(&graph, &cfg.hotlist, policy);

    // Global suppression resolution: each file's inline allows see both
    // its local hits and the interprocedural findings that landed in it.
    let mut per_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in outcome.findings {
        per_file.entry(f.file.clone()).or_default().push(f);
    }
    let mut findings = Vec::new();
    for scan in scans {
        let inter = per_file.remove(&scan.relpath).unwrap_or_default();
        findings.extend(rules::finalize(scan, inter));
    }
    // Findings against policy files themselves (root drift, stale
    // allowlist entries) have no scanned source to resolve against.
    for (_, rest) in per_file {
        findings.extend(rest);
    }
    findings.extend(policy_findings);

    let summary = callgraph::CallGraphSummary::new(files.len(), &graph, outcome.roots);
    Ok(WorkspaceLint {
        report: LintReport::from_findings(files.len(), findings),
        graph: summary,
    })
}

/// Stage-1 scans, fanned out over `threads` workers on contiguous slabs
/// of the sorted file list and merged back in file order — the output is
/// identical for any worker count.
fn scan_files_parallel(
    files: &[(String, PathBuf)],
    cfg: &LintConfig,
    threads: usize,
) -> Result<Vec<rules::FileScan>, String> {
    let scan_one = |rel: &String, path: &PathBuf| -> Result<rules::FileScan, String> {
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok(rules::scan_file(rel, &src, cfg))
    };
    if threads <= 1 || files.len() <= 1 {
        return files
            .iter()
            .map(|(rel, path)| scan_one(rel, path))
            .collect();
    }
    let chunk = files.len().div_ceil(threads.min(files.len()));
    let mut results: Vec<Result<Vec<rules::FileScan>, String>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = files
            .chunks(chunk)
            .map(|slab| {
                s.spawn(move || {
                    slab.iter()
                        .map(|(rel, path)| scan_one(rel, path))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        results = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "lint scan worker panicked".to_string())
                    .and_then(|r| r)
            })
            .collect();
    });
    let mut out = Vec::with_capacity(files.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Worker count: `KINET_THREADS` when set and ≥ 1, else the machine's
/// available parallelism (the same convention as the tensor pool).
fn env_threads() -> usize {
    parse_threads(std::env::var("KINET_THREADS").ok().as_deref())
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// A `KINET_THREADS` value as a worker count, parsed as the tensor pool
/// parses it: surrounding whitespace is ignored, and anything but a
/// positive integer is `None`.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Lints the whole workspace under `root` with the committed policy and
/// the ambient worker count — what `lint_gate` and the smoke test run.
pub fn run_workspace(root: &Path) -> Result<WorkspaceLint, String> {
    run_workspace_with_threads(root, env_threads())
}

/// [`run_workspace`] with an explicit worker count, so tests can pin
/// output equality across `KINET_THREADS ∈ {1, 2, 4}` without racing on
/// the process environment.
pub fn run_workspace_with_threads(root: &Path, threads: usize) -> Result<WorkspaceLint, String> {
    let cfg = load_workspace_config(root)?;
    let (policy, policy_findings) = load_reach_policy(root)?;
    run_full(root, &cfg, &policy, policy_findings, threads)
}

#[cfg(test)]
mod tests {
    use super::parse_threads;

    #[test]
    fn thread_knob_parses_like_the_tensor_pool() {
        assert_eq!(parse_threads(Some("2")), Some(2));
        assert_eq!(parse_threads(Some(" 2")), Some(2));
        assert_eq!(parse_threads(Some("4\n")), Some(4));
        for bad in ["0", "", " ", "-1", "two", "2.5"] {
            assert_eq!(parse_threads(Some(bad)), None, "{bad:?}");
        }
        assert_eq!(parse_threads(None), None);
    }
}
