//! The three interprocedural reachability analyses.
//!
//! Built on the [`crate::callgraph`] stage, each analysis pairs a **root
//! set** (from committed policy) with a **sink effect** (a primitive
//! token pattern found in function bodies) and reports every sink
//! reachable from a root, with the full call chain in the message:
//!
//! 1. **transitive-allocation** — roots are the `hotlist.toml`
//!    functions; sinks are allocation tokens. The per-function
//!    `hot-path-allocation` rule patrols the roots themselves; this
//!    analysis patrols everything they can call
//!    (`gemm → helper → Vec::new`). Suppressible inline at the sink.
//! 2. **determinism-taint** — roots are the fingerprint renderers,
//!    report constructors, and seeded RNG domains named in
//!    `reach.toml [taint] roots`; sinks are wall-clock reads,
//!    hash-container iteration, and thread-knob references outside the
//!    `[taint] sanctioned` modules. Suppressible inline at the sink.
//! 3. **panic-path** — roots are the resident serving path named in
//!    `reach.toml [panic] roots`; sinks are `unwrap`/`expect`,
//!    panicking macros, and indexing expressions. *Never* inline
//!    suppressible: only a committed `panic_allowlist.txt` entry with a
//!    written reason clears a site, mirroring the no-new-unsafe rule.
//!
//! Every analysis is deterministic: roots are processed in policy order,
//! BFS uses sorted adjacency, and duplicate sinks reachable from several
//! roots collapse onto the first (shortest) chain.

use crate::callgraph::{CallGraph, RootReach};
use crate::hotlist::HotFile;
use crate::lexer::{TokKind, Token};
use crate::report::Finding;
use crate::rules::{
    alloc_sites, hash_iter_sites, thread_knob_sites, wall_clock_sites, RULE_DETERMINISM_TAINT,
    RULE_PANIC_PATH, RULE_SUPPRESSION, RULE_TRANS_ALLOC,
};
use crate::symbols::is_expr_keyword;
use std::collections::BTreeMap;

/// What a primitive effect site does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EffectKind {
    /// Heap allocation (`Vec::new`, `vec!`, `clone`, `collect`, …).
    Alloc,
    /// Wall-clock read (`Instant::now`, `SystemTime`).
    WallClock,
    /// Iteration over a hash container binding.
    HashIter,
    /// Thread-knob reference (`num_threads`, `"KINET_THREADS"`).
    ThreadKnob,
    /// Potential panic (`unwrap`, `expect`, `panic!`, indexing).
    Panic,
}

/// One effect site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EffectSite {
    /// Effect class.
    pub kind: EffectKind,
    /// 1-based line.
    pub line: usize,
    /// The offending token or pattern, for messages.
    pub what: String,
}

/// Scans one body's code tokens for every effect class. `hash_names` are
/// the file-level hash-container binding names (see
/// [`crate::rules::hash_bindings`]).
pub fn scan_effects(body: &[&Token], hash_names: &[String]) -> Vec<EffectSite> {
    let mut out = Vec::new();
    for (line, what) in alloc_sites(body) {
        out.push(EffectSite {
            kind: EffectKind::Alloc,
            line,
            what,
        });
    }
    for (line, what) in wall_clock_sites(body) {
        out.push(EffectSite {
            kind: EffectKind::WallClock,
            line,
            what: what.to_string(),
        });
    }
    for s in hash_iter_sites(body, hash_names) {
        let what = match &s.method {
            Some(m) => format!("{}.{m}()", s.name),
            None => format!("for … in {}", s.name),
        };
        out.push(EffectSite {
            kind: EffectKind::HashIter,
            line: s.line,
            what,
        });
    }
    for (line, what) in thread_knob_sites(body) {
        out.push(EffectSite {
            kind: EffectKind::ThreadKnob,
            line,
            what: what.to_string(),
        });
    }
    for (line, what) in panic_sites(body) {
        out.push(EffectSite {
            kind: EffectKind::Panic,
            line,
            what,
        });
    }
    out.sort_by(|a, b| (a.line, a.what.as_str()).cmp(&(b.line, b.what.as_str())));
    out
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const PANIC_CALLS: [&str; 2] = ["unwrap", "expect"];

/// Potential panic sites: `unwrap`/`expect` calls, panicking macros, and
/// indexing expressions (`buf[i]`, `&rows[a..b]` — slicing panics too).
/// `assert!` family macros are deliberate guards, not accidents, and are
/// not flagged. Array *types* and slice *patterns* are excluded by
/// requiring an indexable expression tail before the `[`.
pub fn panic_sites(body: &[&Token]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind == TokKind::Ident {
            if PANIC_CALLS.contains(&t.text.as_str())
                && body.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                out.push((t.line, format!("{}()", t.text)));
            }
            if PANIC_MACROS.contains(&t.text.as_str())
                && body.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push((t.line, format!("{}!", t.text)));
            }
        }
        if t.is_punct('[') {
            let Some(prev) = i.checked_sub(1).map(|p| body[p]) else {
                continue;
            };
            let indexable = (prev.kind == TokKind::Ident && !is_expr_keyword(&prev.text))
                || prev.is_punct(']')
                || prev.is_punct(')');
            if indexable {
                out.push((t.line, format!("{}[..]", prev.text)));
            }
        }
    }
    out
}

/// One `panic_allowlist.txt` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicAllow {
    /// `path/prefix/`, `exact/file.rs`, `exact/file.rs::fn_name` (any
    /// function of that name in the file), or `exact/file.rs::Owner::fn_name`
    /// (one method).
    pub pattern: String,
    /// Mandatory written justification.
    pub reason: String,
    /// 1-based line in the allowlist file.
    pub line: usize,
}

impl PanicAllow {
    /// `true` when this entry covers a panic finding in `file` inside
    /// function `fn_name`, given bare or `Owner::`-qualified.
    pub fn covers(&self, file: &str, fn_name: &str) -> bool {
        if let Some((pat_file, pat_fn)) = self.pattern.split_once("::") {
            let bare = fn_name.rsplit("::").next().unwrap_or(fn_name);
            return pat_file == file && (pat_fn == fn_name || pat_fn == bare);
        }
        if self.pattern.ends_with('/') {
            return file.starts_with(&self.pattern);
        }
        self.pattern == file
    }
}

/// Parses `panic_allowlist.txt`: one `<pattern> — <reason>` entry per
/// line (`#` comments and blanks ignored; `--` and `:` also accepted as
/// separators, after the pattern's first whitespace). Entries without a
/// reason are returned in the error list — an unexplained panic waiver
/// is itself a finding.
pub fn parse_panic_allowlist(text: &str) -> (Vec<PanicAllow>, Vec<Finding>) {
    let mut ok = Vec::new();
    let mut errs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (pattern, tail) = match line.split_once(char::is_whitespace) {
            Some((p, t)) => (p.to_string(), t.trim_start()),
            None => (line.to_string(), ""),
        };
        let reason = ["—", "--", ":"]
            .iter()
            .find_map(|sep| tail.strip_prefix(sep))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            errs.push(Finding {
                rule: RULE_SUPPRESSION.to_string(),
                file: PANIC_ALLOWLIST_PATH.to_string(),
                line: lineno,
                message: format!(
                    "panic allowlist entry `{pattern}` has no written reason — \
                     every panic waiver must say why"
                ),
                suppressed: false,
                reason: String::new(),
            });
            continue;
        }
        ok.push(PanicAllow {
            pattern,
            reason: reason.to_string(),
            line: lineno,
        });
    }
    (ok, errs)
}

/// Workspace-relative location of the committed panic allowlist.
pub const PANIC_ALLOWLIST_PATH: &str = "crates/lint/panic_allowlist.txt";
/// Workspace-relative location of the committed reachability policy.
pub const REACH_POLICY_PATH: &str = "crates/lint/reach.toml";

/// Reachability policy from `reach.toml` + `panic_allowlist.txt`.
#[derive(Clone, Debug, Default)]
pub struct ReachPolicy {
    /// Determinism-taint roots (`Owner::name` or bare `name` specs).
    pub taint_roots: Vec<String>,
    /// Path prefixes whose effects are sanctioned for taint (the modules
    /// that *own* a knob or clock and keep the determinism contract).
    pub taint_sanctioned: Vec<String>,
    /// Panic-path roots (the resident serving path).
    pub panic_roots: Vec<String>,
    /// Committed panic waivers.
    pub panic_allow: Vec<PanicAllow>,
}

/// Parses `reach.toml` (the same hand-rolled TOML subset as
/// `hotlist.toml`): `[taint]` with `roots`/`sanctioned` string arrays and
/// `[panic]` with `roots`.
///
/// # Errors
///
/// `line: message` on any unrecognized line, unknown section, or
/// non-array value — a silently dropped policy line would silently drop
/// analysis coverage.
pub fn parse_reach(text: &str) -> Result<ReachPolicy, String> {
    let mut policy = ReachPolicy::default();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if !matches!(name, "taint" | "panic") {
                return Err(format!("{lineno}: unknown section [{name}]"));
            }
            section = name.to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("{lineno}: unrecognized policy line {line:?}"));
        };
        let key = key.trim();
        let values = crate::hotlist::parse_string_array(value.trim())
            .ok_or_else(|| format!("{lineno}: {key} wants [\"…\"]"))?;
        match (section.as_str(), key) {
            ("taint", "roots") => policy.taint_roots = values,
            ("taint", "sanctioned") => policy.taint_sanctioned = values,
            ("panic", "roots") => policy.panic_roots = values,
            _ => return Err(format!("{lineno}: unrecognized key {key:?} in [{section}]")),
        }
    }
    Ok(policy)
}

/// Output of the interprocedural stage: findings (panic ones already
/// resolved against the allowlist; the rest raw, pending inline
/// suppression resolution) plus the per-root reachability rows for
/// `callgraph.json`.
pub struct ReachOutcome {
    /// All interprocedural findings.
    pub findings: Vec<Finding>,
    /// Per-root reachable-set sizes, in policy order.
    pub roots: Vec<RootReach>,
}

/// Runs all three analyses over a built graph.
pub fn run_analyses(graph: &CallGraph, hotlist: &[HotFile], policy: &ReachPolicy) -> ReachOutcome {
    let mut findings = Vec::new();
    let mut roots = Vec::new();
    transitive_allocation(graph, hotlist, &mut findings, &mut roots);
    determinism_taint(graph, policy, &mut findings, &mut roots);
    panic_path(graph, policy, &mut findings, &mut roots);
    ReachOutcome { findings, roots }
}

/// Hotlisted functions, resolved to node ids per manifest entry. A hot
/// function missing from its file is already a per-file finding
/// (manifest drift) — not repeated here.
fn hot_roots(graph: &CallGraph, hotlist: &[HotFile]) -> Vec<(String, Vec<usize>)> {
    let mut out = Vec::new();
    for hot in hotlist {
        for fname in &hot.functions {
            let ids: Vec<usize> = graph
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.file == hot.file && n.item.name == *fname)
                .map(|(id, _)| id)
                .collect();
            out.push((format!("{}::{fname}", hot.file), ids));
        }
    }
    out
}

fn transitive_allocation(
    graph: &CallGraph,
    hotlist: &[HotFile],
    findings: &mut Vec<Finding>,
    roots_out: &mut Vec<RootReach>,
) {
    // Nodes that are themselves hotlisted: patrolled per-function by the
    // local rule, so their own allocation sites are not re-reported.
    let mut is_hot = vec![false; graph.nodes.len()];
    let specs = hot_roots(graph, hotlist);
    for (_, ids) in &specs {
        for &id in ids {
            is_hot[id] = true;
        }
    }
    let mut seen_sites: BTreeMap<(String, usize, String), ()> = BTreeMap::new();
    for (spec, ids) in &specs {
        let parent = graph.bfs(ids);
        let reached = reached_set(graph, ids, &parent);
        roots_out.push(RootReach {
            analysis: "alloc".to_string(),
            root: spec.clone(),
            reachable: reached.len(),
        });
        for &node in &reached {
            if is_hot[node] {
                continue;
            }
            let n = &graph.nodes[node];
            for e in n.effects.iter().filter(|e| e.kind == EffectKind::Alloc) {
                let key = (n.file.clone(), e.line, e.what.clone());
                if seen_sites.contains_key(&key) {
                    continue;
                }
                seen_sites.insert(key, ());
                findings.push(Finding {
                    rule: RULE_TRANS_ALLOC.to_string(),
                    file: n.file.clone(),
                    line: e.line,
                    message: format!(
                        "`{}` allocates in `{}`, reachable from hot `{spec}`: {} → `{}`",
                        e.what,
                        n.display(),
                        graph.chain(&parent, node),
                        e.what
                    ),
                    suppressed: false,
                    reason: String::new(),
                });
            }
        }
    }
}

fn determinism_taint(
    graph: &CallGraph,
    policy: &ReachPolicy,
    findings: &mut Vec<Finding>,
    roots_out: &mut Vec<RootReach>,
) {
    let mut seen_sites: BTreeMap<(String, usize, String), ()> = BTreeMap::new();
    for spec in &policy.taint_roots {
        let ids = graph.resolve_root(spec);
        if ids.is_empty() {
            findings.push(root_drift(RULE_DETERMINISM_TAINT, spec, "taint"));
        }
        let parent = graph.bfs(&ids);
        let reached = reached_set(graph, &ids, &parent);
        roots_out.push(RootReach {
            analysis: "taint".to_string(),
            root: spec.clone(),
            reachable: reached.len(),
        });
        for &node in &reached {
            let n = &graph.nodes[node];
            if policy
                .taint_sanctioned
                .iter()
                .any(|p| n.file.starts_with(p.as_str()))
            {
                continue;
            }
            for e in n.effects.iter().filter(|e| {
                matches!(
                    e.kind,
                    EffectKind::WallClock | EffectKind::HashIter | EffectKind::ThreadKnob
                )
            }) {
                let key = (n.file.clone(), e.line, e.what.clone());
                if seen_sites.contains_key(&key) {
                    continue;
                }
                seen_sites.insert(key, ());
                let kind = match e.kind {
                    EffectKind::WallClock => "wall-clock read",
                    EffectKind::HashIter => "hash-container iteration",
                    _ => "thread-knob reference",
                };
                findings.push(Finding {
                    rule: RULE_DETERMINISM_TAINT.to_string(),
                    file: n.file.clone(),
                    line: e.line,
                    message: format!(
                        "{kind} `{}` reachable from deterministic root `{spec}`: {} → `{}`",
                        e.what,
                        graph.chain(&parent, node),
                        e.what
                    ),
                    suppressed: false,
                    reason: String::new(),
                });
            }
        }
    }
}

fn panic_path(
    graph: &CallGraph,
    policy: &ReachPolicy,
    findings: &mut Vec<Finding>,
    roots_out: &mut Vec<RootReach>,
) {
    let mut seen_sites: BTreeMap<(String, usize, String), ()> = BTreeMap::new();
    let mut used = vec![false; policy.panic_allow.len()];
    for spec in &policy.panic_roots {
        let ids = graph.resolve_root(spec);
        if ids.is_empty() {
            findings.push(root_drift(RULE_PANIC_PATH, spec, "panic"));
        }
        let parent = graph.bfs(&ids);
        let reached = reached_set(graph, &ids, &parent);
        roots_out.push(RootReach {
            analysis: "panic".to_string(),
            root: spec.clone(),
            reachable: reached.len(),
        });
        for &node in &reached {
            let n = &graph.nodes[node];
            let sites: Vec<&EffectSite> = n
                .effects
                .iter()
                .filter(|e| e.kind == EffectKind::Panic)
                .collect();
            if sites.is_empty() {
                continue;
            }
            // One finding per reached function, not per site: a kernel
            // with 40 indexing expressions is one triage decision (and one
            // allowlist line), not 40.
            let key = (n.file.clone(), n.item.line, n.item.name.clone());
            if seen_sites.contains_key(&key) {
                continue;
            }
            seen_sites.insert(key, ());
            let allow = policy
                .panic_allow
                .iter()
                .position(|a| a.covers(&n.file, &n.item.qualified()));
            if let Some(idx) = allow {
                used[idx] = true;
            }
            let reason = allow
                .map(|i| policy.panic_allow[i].reason.clone())
                .unwrap_or_default();
            let whats: std::collections::BTreeSet<String> =
                sites.iter().map(|e| format!("`{}`", e.what)).collect();
            let whats: Vec<String> = whats.into_iter().collect();
            findings.push(Finding {
                rule: RULE_PANIC_PATH.to_string(),
                file: n.file.clone(),
                line: sites[0].line,
                message: format!(
                    "{} panic-capable site(s) in `{}` ({}), reachable from serving \
                     root `{spec}`: {}",
                    sites.len(),
                    n.display(),
                    whats.join(", "),
                    graph.chain(&parent, node)
                ),
                suppressed: allow.is_some(),
                reason,
            });
        }
    }
    for (idx, entry) in policy.panic_allow.iter().enumerate() {
        if !used[idx] {
            findings.push(Finding {
                rule: RULE_SUPPRESSION.to_string(),
                file: PANIC_ALLOWLIST_PATH.to_string(),
                line: entry.line,
                message: format!(
                    "panic allowlist entry `{}` waives nothing reachable — \
                     remove the stale entry",
                    entry.pattern
                ),
                suppressed: false,
                reason: String::new(),
            });
        }
    }
}

fn root_drift(rule: &str, spec: &str, section: &str) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: REACH_POLICY_PATH.to_string(),
        line: 1,
        message: format!(
            "[{section}] root `{spec}` matches no workspace function — \
             update {REACH_POLICY_PATH} so coverage does not rot"
        ),
        suppressed: false,
        reason: String::new(),
    }
}

/// The reached node ids (roots included), ascending — deterministic for
/// a deterministic parent table.
fn reached_set(graph: &CallGraph, roots: &[usize], parent: &[usize]) -> Vec<usize> {
    let mut reached: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| parent[i] != usize::MAX || roots.contains(&i))
        .collect();
    reached.sort_unstable();
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sites(src: &str) -> Vec<(usize, String)> {
        let toks = lex(src);
        let code: Vec<&Token> = toks.iter().filter(|t| t.is_code()).collect();
        panic_sites(&code)
    }

    #[test]
    fn panic_sites_cover_calls_macros_and_indexing() {
        let src = "fn f(v: &[u8], m: &M) {\n\
                   v.get(0).unwrap();\n\
                   m.load().expect(\"x\");\n\
                   panic!(\"boom\");\n\
                   let x = v[0];\n\
                   let s = &v[1..3];\n\
                   }\n";
        let got = sites(src);
        let whats: Vec<&str> = got.iter().map(|(_, w)| w.as_str()).collect();
        assert_eq!(
            whats,
            ["unwrap()", "expect()", "panic!", "v[..]", "v[..]"],
            "{got:?}"
        );
    }

    #[test]
    fn array_types_patterns_and_attributes_are_not_indexing() {
        for src in [
            "fn f() -> [f32; 4] { [0.0; 4] }",
            "fn f(x: [u8; 2]) { let [a, b] = x; drop((a, b)); }",
            "#[derive(Debug)]\nstruct S;",
            "fn f() { let v = vec![1, 2]; drop(v); }",
        ] {
            assert!(sites(src).is_empty(), "{src}: {:?}", sites(src));
        }
    }

    #[test]
    fn assert_macros_are_not_panic_sites() {
        assert!(sites("fn f() { assert!(true); assert_eq!(1, 1); debug_assert!(x); }").is_empty());
    }

    #[test]
    fn allowlist_parses_patterns_and_requires_reasons() {
        let text = "# waivers\n\
                    vendor/ — vendored shims reviewed at import\n\
                    crates/a/src/x.rs::helper -- index guarded above\n\
                    crates/a/src/y.rs\n";
        let (ok, errs) = parse_panic_allowlist(text);
        assert_eq!(ok.len(), 2);
        assert!(ok[0].covers("vendor/rand/src/lib.rs", "anything"));
        assert!(ok[1].covers("crates/a/src/x.rs", "helper"));
        assert!(!ok[1].covers("crates/a/src/x.rs", "other"));
        assert!(ok[1].covers("crates/a/src/x.rs", "Owner::helper"));
        let (owned, _) = parse_panic_allowlist("crates/a/src/x.rs::Tree::fit — one method\n");
        assert!(owned[0].covers("crates/a/src/x.rs", "Tree::fit"));
        assert!(!owned[0].covers("crates/a/src/x.rs", "Forest::fit"));
        assert!(!owned[0].covers("crates/a/src/x.rs", "fit"));
        assert_eq!(errs.len(), 1, "reason-less entry is a finding");
        assert!(errs[0].message.contains("no written reason"));
    }

    #[test]
    fn reach_policy_parses_and_rejects_unknowns() {
        let text = "# policy\n\
                    [taint]\n\
                    roots = [\"FleetReport::deterministic_fingerprint\"]\n\
                    sanctioned = [\"crates/tensor/src/pool.rs\"]\n\
                    [panic]\n\
                    roots = [\"FleetService::run\", \"score_rows\"]\n";
        let p = parse_reach(text).unwrap();
        assert_eq!(p.taint_roots.len(), 1);
        assert_eq!(p.taint_sanctioned.len(), 1);
        assert_eq!(p.panic_roots.len(), 2);
        assert!(parse_reach("[bogus]\n").is_err());
        assert!(parse_reach("[taint]\nroots = nope\n").is_err());
        assert!(parse_reach("[taint]\nwhat = [\"x\"]\n").is_err());
    }
}
