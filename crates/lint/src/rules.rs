//! The rule catalog and per-file scanner.
//!
//! Every rule is a token-level pattern over the [`crate::lexer`] stream —
//! comments and string literals can never trip a code rule, and the
//! thread-knob rule is the only one that looks *inside* string literals
//! (the env-var name travels as a string). Scope policy lives in
//! [`LintConfig`]; see DESIGN.md §2.6 for the catalog rationale.

use crate::hotlist::HotFile;
use crate::lexer::{TokKind, Token};
use crate::report::Finding;
use crate::suppress::{covering, parse_suppressions, SuppressError, Suppression};

/// `HashMap`/`HashSet` iteration (or any hash-container declaration) in a
/// deterministic crate. Keyed lookups are fine; iteration order is not.
pub const RULE_NONDET_ITER: &str = "nondeterministic-iteration";
/// `Instant::now` / `SystemTime` outside allowlisted timing modules.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Any `unsafe` token without a `// SAFETY:` comment *and* an allowlist
/// entry. Never inline-suppressible.
pub const RULE_NO_UNSAFE: &str = "no-new-unsafe";
/// Allocation inside a `hotlist.toml` function body.
pub const RULE_HOT_ALLOC: &str = "hot-path-allocation";
/// `KINET_THREADS` / `num_threads` referenced outside the pool/schedule
/// modules that own the knob.
pub const RULE_THREAD_KNOB: &str = "thread-knob";
/// Malformed / reason-less / unknown-rule suppression comments.
pub const RULE_SUPPRESSION: &str = "suppression";
/// Allocation in a function *reachable from* a `hotlist.toml` root — the
/// interprocedural extension of [`RULE_HOT_ALLOC`] (see [`crate::reach`]).
/// Suppressible inline at the sink line.
pub const RULE_TRANS_ALLOC: &str = "transitive-allocation";
/// Wall-clock, hash-iteration, or thread-knob effects reachable from a
/// deterministic root (`reach.toml [taint]`). Suppressible inline at the
/// sink line.
pub const RULE_DETERMINISM_TAINT: &str = "determinism-taint";
/// Panic-capable sites (`unwrap`/`expect`/`panic!`/indexing) in functions
/// reachable from the resident serving path (`reach.toml [panic]`). Never
/// inline-suppressible — only a reasoned `panic_allowlist.txt` entry
/// clears a function, mirroring the no-new-unsafe discipline.
pub const RULE_PANIC_PATH: &str = "panic-path";

/// `true` for a rule name `allow(...)` may legally reference. `panic-path`
/// is included so the directive parses, but [`finalize`] never consults
/// inline allows for it — such a directive is always reported stale.
pub fn known_rule(name: &str) -> bool {
    matches!(
        name,
        RULE_NONDET_ITER
            | RULE_WALL_CLOCK
            | RULE_NO_UNSAFE
            | RULE_HOT_ALLOC
            | RULE_THREAD_KNOB
            | RULE_TRANS_ALLOC
            | RULE_DETERMINISM_TAINT
            | RULE_PANIC_PATH
    )
}

/// The enforced rule identifiers, in catalog order.
pub fn rule_catalog() -> Vec<String> {
    [
        RULE_NONDET_ITER,
        RULE_WALL_CLOCK,
        RULE_NO_UNSAFE,
        RULE_HOT_ALLOC,
        RULE_THREAD_KNOB,
        RULE_TRANS_ALLOC,
        RULE_DETERMINISM_TAINT,
        RULE_PANIC_PATH,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Scope policy + manifests for one lint run.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Crate directory names under `crates/` whose `src/` trees promise
    /// deterministic iteration (the bit-for-bit contract holders).
    pub deterministic_crates: Vec<String>,
    /// Path prefixes where wall-clock reads are legitimate (timing/report
    /// harnesses).
    pub wallclock_allow: Vec<String>,
    /// Path prefixes that may reference the thread knob (the modules that
    /// own it, plus this linter's own rule tables).
    pub thread_allow: Vec<String>,
    /// Allocation-free function manifest (`hotlist.toml`).
    pub hotlist: Vec<HotFile>,
    /// Committed `unsafe` allowlist: one path entry per permitted site.
    pub unsafe_allow: Vec<String>,
}

impl LintConfig {
    /// The repository's standing policy (manifests supplied by the caller;
    /// [`crate::load_workspace_config`] reads them from `crates/lint/`).
    pub fn repo_policy(hotlist: Vec<HotFile>, unsafe_allow: Vec<String>) -> Self {
        LintConfig {
            deterministic_crates: ["tensor", "nn", "kg", "data", "core", "fleet", "obs"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            wallclock_allow: vec![
                // The vendored bench harness is a timing shim by definition.
                "vendor/criterion/".into(),
                // Experiment/report drivers time their own phases.
                "crates/bench/".into(),
            ],
            thread_allow: vec![
                // The two modules that own the knob (ISSUE 6 contract).
                "crates/tensor/src/pool.rs".into(),
                "crates/fleet/src/schedule.rs".into(),
                // The linter's own rule tables spell the tokens they hunt.
                "crates/lint/src/".into(),
            ],
            hotlist,
            unsafe_allow,
        }
    }
}

/// One file's first-stage scan: local rule hits (suppressions not yet
/// applied), findings that are already final (`no-new-unsafe`, malformed
/// directives), the parsed suppressions, and the call-graph nodes
/// extracted from the file's items. Suppression resolution is deferred to
/// [`finalize`] so interprocedural findings landing in this file can use
/// (and thereby justify) the same inline allows.
pub struct FileScan {
    /// Workspace-relative path with forward slashes.
    pub relpath: String,
    raw: Vec<(String, usize, String)>,
    early: Vec<Finding>,
    suppressions: Vec<Suppression>,
    /// Call-graph nodes for [`crate::callgraph::CallGraph::build`].
    pub nodes: Vec<crate::callgraph::Node>,
}

/// Stage 1: lexes one file, runs every local rule, and extracts its call
/// graph nodes. `relpath` is workspace-relative with forward slashes —
/// scope decisions key off it.
pub fn scan_file(relpath: &str, src: &str, cfg: &LintConfig) -> FileScan {
    let tokens = crate::lexer::lex(src);
    let (suppressions, sup_errs) = parse_suppressions(&tokens);
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();

    let mut raw: Vec<(String, usize, String)> = Vec::new();
    if let Some(krate) = deterministic_crate(relpath, cfg) {
        nondet_iteration(&code, krate, &mut raw);
    }
    if !cfg.wallclock_allow.iter().any(|p| relpath.starts_with(p)) {
        wall_clock(&code, &mut raw);
    }
    if relpath.starts_with("crates/")
        && relpath.contains("/src/")
        && !cfg.thread_allow.iter().any(|p| relpath.starts_with(p))
    {
        thread_knob(&code, &mut raw);
    }
    for hot in cfg.hotlist.iter().filter(|h| h.file == relpath) {
        hot_path_alloc(&code, hot, &mut raw);
    }

    // no-new-unsafe is stricter: inline `allow` does not apply; only a
    // SAFETY comment plus a committed allowlist entry clears a site.
    let mut early = Vec::new();
    no_new_unsafe(relpath, &tokens, cfg, &mut early);
    suppression_diagnostics(relpath, &sup_errs, &mut early);

    let names = hash_bindings(&code);
    let test_scope = crate::callgraph::test_scoped_path(relpath);
    let nodes = crate::symbols::parse_items(&code)
        .into_iter()
        .map(|item| {
            let scan = item
                .body
                .map(|(s, e)| crate::callgraph::scan_body(&code[s..e], &names))
                .unwrap_or_default();
            crate::callgraph::Node {
                file: relpath.to_string(),
                item,
                test_scope,
                effects: scan.effects,
                calls: scan.calls,
            }
        })
        .collect();

    FileScan {
        relpath: relpath.to_string(),
        raw,
        early,
        suppressions,
        nodes,
    }
}

/// Stage 2: resolves a file's local hits plus its share of the
/// interprocedural findings (`inter`) against the file's inline
/// suppressions, then audits the suppressions themselves. `panic-path`
/// findings and findings arriving pre-suppressed pass through untouched —
/// the panic allowlist already decided them.
pub fn finalize(scan: FileScan, inter: Vec<Finding>) -> Vec<Finding> {
    let FileScan {
        relpath,
        raw,
        early,
        suppressions,
        nodes: _,
    } = scan;
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|(rule, line, message)| {
            let sup = covering(&suppressions, &rule, line);
            Finding {
                rule,
                file: relpath.clone(),
                line,
                message,
                suppressed: sup.is_some(),
                reason: sup.map(|s| s.reason.clone()).unwrap_or_default(),
            }
        })
        .collect();
    for mut f in inter {
        if !f.suppressed && f.rule != RULE_PANIC_PATH {
            if let Some(sup) = covering(&suppressions, &f.rule, f.line) {
                f.suppressed = true;
                f.reason = sup.reason.clone();
            }
        }
        findings.push(f);
    }
    findings.extend(early);
    let resolved = findings.clone();
    unused_suppressions(&relpath, &suppressions, &resolved, &mut findings);
    findings
}

/// Lints one file's source with local rules only — [`scan_file`] +
/// [`finalize`] with no interprocedural findings. Unit-test surface and
/// the semantics PR 6 shipped; the workspace runner goes through the
/// two-stage API instead.
pub fn scan_source(relpath: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    finalize(scan_file(relpath, src, cfg), Vec::new())
}

/// The deterministic-crate name owning `relpath`, if any.
fn deterministic_crate<'a>(relpath: &str, cfg: &'a LintConfig) -> Option<&'a str> {
    cfg.deterministic_crates
        .iter()
        .map(String::as_str)
        .find(|c| relpath.starts_with(&format!("crates/{c}/src/")))
}

const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Rule 1: hash-container declarations and iteration in deterministic
/// crates.
///
/// Two findings classes: (a) every `HashMap`/`HashSet` type mention or
/// constructor (`Foo<…>` / `Foo::…`) — annotate the lookup-only contract
/// or switch to a BTree container; (b) iteration over a binding whose
/// declaration named a hash container — `name.iter()` & friends within the
/// same statement, and `for … in name`.
fn nondet_iteration(code: &[&Token], krate: &str, out: &mut Vec<(String, usize, String)>) {
    let is_hash = |t: &Token| t.is_ident("HashMap") || t.is_ident("HashSet");
    // (a) declarations / constructors.
    for (i, t) in code.iter().enumerate() {
        if is_hash(t) {
            let next_lt = code.get(i + 1).is_some_and(|n| n.is_punct('<'));
            let next_path = code.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && code.get(i + 2).is_some_and(|n| n.is_punct(':'));
            if next_lt || next_path {
                out.push((
                    RULE_NONDET_ITER.to_string(),
                    t.line,
                    format!(
                        "{} in deterministic crate `{krate}`: iteration order is \
                         nondeterministic — use a BTree container or annotate the \
                         lookup-only contract",
                        t.text
                    ),
                ));
            }
        }
    }
    // Bindings whose type region or initializer names a hash container.
    let names = hash_bindings(code);
    // (b) iteration over those bindings.
    for site in hash_iter_sites(code, &names) {
        let message = match &site.method {
            None => format!("for-loop over hash container `{}`", site.name),
            Some(m) => format!("`{}.{m}()` iterates a hash container", site.name),
        };
        out.push((RULE_NONDET_ITER.to_string(), site.line, message));
    }
}

/// One iteration site over a known hash-container binding.
pub(crate) struct HashIterSite {
    /// 1-based line of the binding mention.
    pub line: usize,
    /// The binding name.
    pub name: String,
    /// The iterating method (`keys`, `iter`, …); `None` for a `for` loop
    /// directly over the binding.
    pub method: Option<String>,
}

/// Iteration sites over the given hash-container binding names:
/// `for … in name` loops and same-statement `name.<iter-method>()` calls.
/// Shared by the per-file rule (a) above and the determinism-taint effect
/// scan in [`crate::reach`].
pub(crate) fn hash_iter_sites(code: &[&Token], names: &[String]) -> Vec<HashIterSite> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || !names.iter().any(|n| n == &t.text) {
            continue;
        }
        // `for … in name` / `for … in &mut name`.
        if preceded_by_for_in(code, i) {
            out.push(HashIterSite {
                line: t.line,
                name: t.text.clone(),
                method: None,
            });
            continue;
        }
        // Same-statement iteration-method call after the binding.
        for w in code[i + 1..].iter().take_while(|w| !stmt_end(w)) {
            if w.kind == TokKind::Ident && ITER_METHODS.contains(&w.text.as_str()) {
                out.push(HashIterSite {
                    line: t.line,
                    name: t.text.clone(),
                    method: Some(w.text.clone()),
                });
                break;
            }
        }
    }
    out
}

fn stmt_end(t: &Token) -> bool {
    t.is_punct(';') || t.is_punct('{')
}

/// `true` when `code[i]` sits in the head of `for … in [&][mut] code[i]`.
fn preceded_by_for_in(code: &[&Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let p = code[j - 1];
        if p.is_punct('&') || p.is_ident("mut") {
            j -= 1;
        } else {
            break;
        }
    }
    j > 0 && code[j - 1].is_ident("in")
}

/// Binding names whose declared type (or `let` initializer) names a hash
/// container: `name: …HashMap<…>…` fields/params/lets, and
/// `let [mut] name = …HashMap…;`.
pub(crate) fn hash_bindings(code: &[&Token]) -> Vec<String> {
    let mut names = Vec::new();
    let is_hash = |t: &Token| t.is_ident("HashMap") || t.is_ident("HashSet");
    for (i, t) in code.iter().enumerate() {
        // `name :` followed by a type region mentioning a hash container.
        if t.kind == TokKind::Ident
            && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !code.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            let mut depth = 0i32;
            for w in &code[i + 2..] {
                if depth == 0
                    && (stmt_end(w) || w.is_punct(',') || w.is_punct(')') || w.is_punct('='))
                {
                    break;
                }
                match () {
                    _ if w.is_punct('<') || w.is_punct('(') || w.is_punct('[') => depth += 1,
                    _ if w.is_punct('>') || w.is_punct(')') || w.is_punct(']') => depth -= 1,
                    _ => {}
                }
                if is_hash(w) {
                    names.push(t.text.clone());
                    break;
                }
            }
        }
        // `let [mut] name = … HashMap …` up to the statement end.
        if t.is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = code.get(j).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            if !code.get(j + 1).is_some_and(|n| n.is_punct('=')) {
                continue;
            }
            if code[j + 2..]
                .iter()
                .take_while(|w| !w.is_punct(';'))
                .any(|w| is_hash(w))
            {
                names.push(name.text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Wall-clock read sites: `Instant::now` (the call, not the type —
/// passing an already-taken `Instant` around is fine) and any
/// `SystemTime` mention. Shared by rule 2 and the taint effect scan.
pub(crate) fn wall_clock_sites(code: &[&Token]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.is_ident("Instant")
            && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            out.push((t.line, "Instant::now()"));
        }
        if t.is_ident("SystemTime") {
            out.push((t.line, "SystemTime"));
        }
    }
    out
}

/// Rule 2: wall-clock reads.
fn wall_clock(code: &[&Token], out: &mut Vec<(String, usize, String)>) {
    for (line, what) in wall_clock_sites(code) {
        out.push((
            RULE_WALL_CLOCK.to_string(),
            line,
            format!("`{what}` outside an allowlisted timing module"),
        ));
    }
}

/// Thread-knob reference sites: the `num_threads` identifier and any
/// string literal carrying `KINET_THREADS`. Shared by rule 5 and the
/// taint effect scan.
pub(crate) fn thread_knob_sites(code: &[&Token]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for t in code {
        if t.is_ident("num_threads") {
            out.push((t.line, "num_threads"));
        }
        if t.kind == TokKind::Str && t.text.contains("KINET_THREADS") {
            out.push((t.line, "KINET_THREADS"));
        }
    }
    out
}

/// Rule 5: thread-knob containment — the knob may only be read where the
/// pool owns it, so every other module inherits one consistent worker
/// count.
fn thread_knob(code: &[&Token], out: &mut Vec<(String, usize, String)>) {
    for (line, what) in thread_knob_sites(code) {
        let message = if what == "num_threads" {
            "`num_threads` referenced outside the pool/schedule modules".to_string()
        } else {
            "`KINET_THREADS` string referenced outside the pool/schedule modules".to_string()
        };
        out.push((RULE_THREAD_KNOB.to_string(), line, message));
    }
}

const ALLOC_IDENTS: [&str; 4] = ["clone", "to_vec", "collect", "to_string"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
const ALLOC_PATHS: [(&str, &str); 3] = [("Vec", "new"), ("String", "new"), ("Box", "new")];

/// Rule 4: allocation tokens inside a hotlisted function body. Body
/// ranges come from the same hardened extractor that feeds the call
/// graph ([`crate::symbols::fn_body`]).
fn hot_path_alloc(code: &[&Token], hot: &HotFile, out: &mut Vec<(String, usize, String)>) {
    for fname in &hot.functions {
        let mut found = false;
        let mut i = 0usize;
        while i + 1 < code.len() {
            if code[i].is_ident("fn") && code[i + 1].is_ident(fname) {
                if let Some((body_start, body_end)) = crate::symbols::fn_body(code, i + 2) {
                    found = true;
                    for (line, what) in alloc_sites(&code[body_start..body_end]) {
                        out.push((
                            RULE_HOT_ALLOC.to_string(),
                            line,
                            format!(
                                "`{what}` allocates inside hot function `{fname}` \
                                 (allocation-free contract)"
                            ),
                        ));
                    }
                    i = body_end;
                    continue;
                }
            }
            i += 1;
        }
        if !found {
            out.push((
                RULE_HOT_ALLOC.to_string(),
                1,
                format!(
                    "hotlist names `fn {fname}` but {} does not define it — \
                     update crates/lint/hotlist.toml so coverage does not rot",
                    hot.file
                ),
            ));
        }
    }
}

/// Allocation sites in a body: allocating method names, `vec!`/`format!`
/// macros, and `Vec::new`-style constructor paths. Shared by rule 4 and
/// the transitive-allocation effect scan in [`crate::reach`].
pub(crate) fn alloc_sites(body: &[&Token]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = if ALLOC_IDENTS.contains(&t.text.as_str()) {
            Some(t.text.clone())
        } else if ALLOC_MACROS.contains(&t.text.as_str())
            && body.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            Some(format!("{}!", t.text))
        } else if let Some((head, tail)) = ALLOC_PATHS.iter().find(|(head, _)| t.is_ident(head)) {
            (body.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && body.get(i + 3).is_some_and(|n| n.is_ident(tail)))
            .then(|| format!("{head}::{tail}"))
        } else {
            None
        };
        if let Some(what) = what {
            out.push((t.line, what));
        }
    }
    out
}

/// Rule 3: `unsafe` tokens. A site is only clean with BOTH a `SAFETY:`
/// comment (same line or the two lines above) and a committed allowlist
/// entry for the file; inline `allow` never applies.
fn no_new_unsafe(relpath: &str, tokens: &[Token], cfg: &LintConfig, out: &mut Vec<Finding>) {
    let safety_lines: Vec<usize> = tokens
        .iter()
        .filter(|t| t.is_comment() && t.text.contains("SAFETY:"))
        .map(|t| t.line)
        .collect();
    let budget = cfg
        .unsafe_allow
        .iter()
        .filter(|p| p.as_str() == relpath)
        .count();
    let mut seen = 0usize;
    for t in tokens.iter().filter(|t| t.is_code()) {
        if !t.is_ident("unsafe") {
            continue;
        }
        seen += 1;
        let has_safety = safety_lines.iter().any(|&l| l <= t.line && l + 2 >= t.line);
        let in_allowlist = seen <= budget;
        if has_safety && in_allowlist {
            continue;
        }
        let mut missing = Vec::new();
        if !has_safety {
            missing.push("a `// SAFETY:` comment");
        }
        if !in_allowlist {
            missing.push("an entry in crates/lint/unsafe_allowlist.txt");
        }
        out.push(Finding {
            rule: RULE_NO_UNSAFE.to_string(),
            file: relpath.to_string(),
            line: t.line,
            message: format!("`unsafe` without {}", missing.join(" and ")),
            suppressed: false,
            reason: String::new(),
        });
    }
}

/// Malformed suppression comments are findings themselves.
fn suppression_diagnostics(relpath: &str, errs: &[SuppressError], out: &mut Vec<Finding>) {
    for e in errs {
        let (line, message) = match e {
            SuppressError::MissingReason { rule, line } => (
                *line,
                format!("allow({rule}) without a written reason — every suppression must say why"),
            ),
            SuppressError::UnknownRule { rule, line } => {
                (*line, format!("allow({rule}) names an unknown rule"))
            }
            SuppressError::Malformed { line } => (
                *line,
                "kinet-lint directive is not `allow(<rule>) — <reason>`".to_string(),
            ),
        };
        out.push(Finding {
            rule: RULE_SUPPRESSION.to_string(),
            file: relpath.to_string(),
            line,
            message,
            suppressed: false,
            reason: String::new(),
        });
    }
}

/// A reasoned `allow` that matched no finding is dead weight (the code it
/// excused was fixed or moved) — flag it so annotations cannot rot.
fn unused_suppressions(
    relpath: &str,
    suppressions: &[Suppression],
    resolved: &[Finding],
    out: &mut Vec<Finding>,
) {
    for s in suppressions {
        let used = resolved
            .iter()
            .any(|f| f.suppressed && f.rule == s.rule && s.covers(f.line));
        if !used {
            out.push(Finding {
                rule: RULE_SUPPRESSION.to_string(),
                file: relpath.to_string(),
                line: s.line,
                message: format!(
                    "allow({}) suppresses nothing — remove the stale annotation",
                    s.rule
                ),
                suppressed: false,
                reason: String::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig::repo_policy(Vec::new(), Vec::new())
    }

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        scan_source(path, src, &cfg())
    }

    #[test]
    fn hash_iteration_flagged_lookups_allowed() {
        let src = "struct S { m: HashMap<String, bool> }\n\
                   fn f(s: &S) { for k in s.m.keys() { drop(k); } }\n";
        let hits = scan("crates/kg/src/x.rs", src);
        assert!(hits
            .iter()
            .any(|f| f.rule == RULE_NONDET_ITER && f.line == 1));
        assert!(hits
            .iter()
            .any(|f| f.rule == RULE_NONDET_ITER && f.line == 2));
        // Keyed lookups: only the declaration fires.
        let src = "struct S { m: HashMap<String, bool> }\n\
                   fn f(s: &S) -> bool { *s.m.get(\"k\").unwrap() }\n";
        let hits = scan("crates/kg/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn hash_rules_scoped_to_deterministic_crates() {
        let src = "fn f() { let m = HashMap::new(); for v in m.values() { drop(v); } }\n";
        assert!(!scan("crates/kg/src/x.rs", src).is_empty());
        assert!(
            scan("crates/eval/src/x.rs", src).is_empty(),
            "eval is not deterministic-scoped"
        );
        assert!(scan("crates/kg/tests/x.rs", src).is_empty(), "tests exempt");
    }

    #[test]
    fn btree_containers_never_fire() {
        let src = "fn f(m: &BTreeMap<String, u32>) { for v in m.values() { drop(v); } }\n";
        assert!(scan("crates/kg/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_and_allowlist() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); drop((t, s)); }\n";
        let hits = scan("crates/fleet/src/x.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == RULE_WALL_CLOCK).count(), 2);
        assert!(scan("vendor/criterion/src/lib.rs", src).is_empty());
        assert!(scan("crates/bench/src/bin/gate.rs", src).is_empty());
        // The type alone (e.g. storing a start token) is not a read.
        assert!(scan("crates/fleet/src/x.rs", "fn f(start: Instant) {}\n").is_empty());
    }

    #[test]
    fn thread_knob_containment() {
        let src = "fn f() -> usize { std::env::var(\"KINET_THREADS\"); num_threads() }\n";
        assert_eq!(scan("crates/eval/src/lib.rs", src).len(), 2);
        assert!(
            scan("crates/tensor/src/pool.rs", src).is_empty(),
            "owner module"
        );
        assert!(
            scan("crates/fleet/src/schedule.rs", src).is_empty(),
            "owner module"
        );
        assert!(
            scan("crates/eval/tests/t.rs", src).is_empty(),
            "tests exempt"
        );
        // Comments never fire.
        assert!(scan("crates/eval/src/lib.rs", "// KINET_THREADS num_threads\n").is_empty());
    }

    #[test]
    fn unsafe_requires_comment_and_allowlist() {
        let src = "fn f() { unsafe { core() } }\n";
        let hits = scan("crates/tensor/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("SAFETY") && hits[0].message.contains("allowlist"));

        let commented = "// SAFETY: checked above\nfn f() { unsafe { core() } }\n";
        let mut c = cfg();
        c.unsafe_allow.push("crates/tensor/src/x.rs".to_string());
        assert!(scan_source("crates/tensor/src/x.rs", commented, &c).is_empty());
        // Allowlist without the comment still fails, and vice versa.
        assert_eq!(scan_source("crates/tensor/src/x.rs", src, &c).len(), 1);
        assert_eq!(scan("crates/tensor/src/x.rs", commented).len(), 1);
        // Inline allow() cannot clear it.
        let allowed =
            "// SAFETY: x\n// kinet-lint: allow(no-new-unsafe) — nope\nfn f() { unsafe {} }\n";
        assert!(scan("crates/tensor/src/x.rs", allowed)
            .iter()
            .any(|f| f.rule == RULE_NO_UNSAFE && !f.suppressed));
    }

    #[test]
    fn hotlist_scans_bodies_and_reports_drift() {
        let mut c = cfg();
        c.hotlist.push(HotFile {
            file: "crates/nn/src/x.rs".into(),
            functions: vec!["hot".into(), "gone".into()],
        });
        let src = "fn cold() { let v = vec![1]; drop(v.clone()); }\n\
                   fn hot() { let v = vec![1]; let w = v.to_vec(); drop(w); }\n";
        let hits = scan_source("crates/nn/src/x.rs", src, &c);
        let hot: Vec<&Finding> = hits.iter().filter(|f| f.rule == RULE_HOT_ALLOC).collect();
        assert!(hot.iter().any(|f| f.line == 2 && f.message.contains("vec")));
        assert!(hot
            .iter()
            .any(|f| f.line == 2 && f.message.contains("to_vec")));
        assert!(
            hot.iter().any(|f| f.message.contains("gone")),
            "missing hot fn is manifest drift: {hits:?}"
        );
        assert!(
            !hot.iter().any(|f| f.message.contains("clone")),
            "cold fn not scanned"
        );
    }

    #[test]
    fn suppressions_cover_same_and_next_line_with_reason() {
        let src = "fn f() {\n\
                   // kinet-lint: allow(wall-clock) — report-only timing\n\
                   let t = Instant::now();\n\
                   let u = Instant::now(); // kinet-lint: allow(wall-clock) — ditto\n\
                   let v = Instant::now();\n\
                   drop((t, u, v)); }\n";
        let hits = scan("crates/fleet/src/x.rs", src);
        let wall: Vec<&Finding> = hits.iter().filter(|f| f.rule == RULE_WALL_CLOCK).collect();
        assert_eq!(wall.len(), 3);
        assert!(wall.iter().find(|f| f.line == 3).unwrap().suppressed);
        assert_eq!(
            wall.iter().find(|f| f.line == 3).unwrap().reason,
            "report-only timing"
        );
        assert!(wall.iter().find(|f| f.line == 4).unwrap().suppressed);
        assert!(!wall.iter().find(|f| f.line == 5).unwrap().suppressed);
    }

    #[test]
    fn bad_suppressions_are_their_own_findings() {
        let src = "// kinet-lint: allow(wall-clock)\n\
                   // kinet-lint: allow(imaginary-rule) — because\n\
                   // kinet-lint: allow(wall-clock) — excuses nothing here\n\
                   fn f() {}\n";
        let hits = scan("crates/fleet/src/x.rs", src);
        assert_eq!(
            hits.iter().filter(|f| f.rule == RULE_SUPPRESSION).count(),
            3
        );
        assert!(hits
            .iter()
            .any(|f| f.message.contains("without a written reason")));
        assert!(hits.iter().any(|f| f.message.contains("unknown rule")));
        assert!(hits
            .iter()
            .any(|f| f.message.contains("suppresses nothing")));
    }
}
