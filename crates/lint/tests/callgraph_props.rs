//! Determinism contracts of the interprocedural stage, pinned by
//! property tests: the call graph is invariant to the order files are
//! handed to the builder, and the whole workspace report (findings and graph summary alike) is
//! byte-identical for any `KINET_THREADS`.

use kinet_lint::callgraph::CallGraph;
use kinet_lint::rules::{scan_file, LintConfig};
use proptest::prelude::*;
use std::path::PathBuf;

/// A small synthetic workspace exercising every resolution path: free
/// calls, qualified and `Self::` calls, method ambiguity, std calls
/// that must land in the unresolved ledger, and a test-scoped file.
fn synthetic_files() -> Vec<(String, String)> {
    vec![
        (
            "crates/a/src/one.rs".into(),
            "pub fn alpha() {\n    beta();\n    helper(1.0);\n    let v = Vec::new();\n}\n\
             fn beta() {\n    let t = T;\n    t.gamma();\n}\n"
                .into(),
        ),
        (
            "crates/a/src/two.rs".into(),
            "pub struct T;\nimpl T {\n    pub fn gamma(&self) {\n        Self::delta();\n    }\n\
             \n    fn delta() {\n        std::time::Instant::now();\n    }\n}\n"
                .into(),
        ),
        (
            "crates/b/src/three.rs".into(),
            "pub fn helper(x: f64) -> f64 {\n    x.sqrt()\n}\n\
             pub struct U;\nimpl U {\n    pub fn gamma(&self) {}\n}\n"
                .into(),
        ),
        (
            "crates/b/tests/probe.rs".into(),
            "#[test]\nfn probe() {\n    helper(2.0);\n}\n".into(),
        ),
    ]
}

fn graph_of(files: Vec<(String, String)>) -> CallGraph {
    let cfg = LintConfig::repo_policy(Vec::new(), Vec::new());
    CallGraph::build(
        files
            .into_iter()
            .map(|(rel, src)| {
                let mut scan = scan_file(&rel, &src, &cfg);
                (rel, std::mem::take(&mut scan.nodes))
            })
            .collect(),
    )
}

/// Canonical, order-independent rendering of a graph: node displays,
/// display-level edges, the ledger, and the ambiguity count.
type GraphSignature = (
    Vec<String>,
    Vec<(String, String)>,
    Vec<(String, usize)>,
    usize,
);

fn signature(g: &CallGraph) -> GraphSignature {
    let nodes: Vec<String> = g
        .nodes
        .iter()
        .map(|n| format!("{}::{}", n.file, n.display()))
        .collect();
    let mut edges: Vec<(String, String)> = Vec::new();
    for (i, outs) in g.adj.iter().enumerate() {
        for &j in outs {
            edges.push((nodes[i].clone(), nodes[j].clone()));
        }
    }
    edges.sort();
    (
        nodes,
        edges,
        g.unresolved.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        g.ambiguous_call_sites,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_is_invariant_to_file_order(keys in prop::collection::vec(any::<u64>(), 4)) {
        let reference = signature(&graph_of(synthetic_files()));
        // Reorder the file list by the drawn sort keys — every
        // permutation of the 4 files is reachable.
        let mut order: Vec<(u64, (String, String))> =
            keys.iter().copied().zip(synthetic_files()).collect();
        order.sort_by_key(|a| a.0);
        let shuffled = signature(&graph_of(order.into_iter().map(|(_, f)| f).collect()));
        prop_assert_eq!(reference, shuffled);
    }
}

#[test]
fn workspace_lint_is_byte_identical_across_thread_counts() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree");
    let render = |threads: usize| {
        let lint =
            kinet_lint::run_workspace_with_threads(&root, threads).expect("fixture tree lints");
        (
            serde_json::to_string_pretty(&lint.report).expect("report serializes"),
            serde_json::to_string_pretty(&lint.graph).expect("graph serializes"),
        )
    };
    let serial = render(1);
    for threads in [2, 4, 7] {
        assert_eq!(
            serial,
            render(threads),
            "report or graph bytes changed at {threads} scan threads"
        );
    }
}
