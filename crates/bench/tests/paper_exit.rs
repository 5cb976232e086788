//! Exit-code contract of the `paper` binary on a scale too small to
//! evaluate: a one-row dataset leaves the utility evaluation an empty test
//! split, which must end the run with exit code 1 and a message, not a
//! panic.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn one_row_scale_exits_one_with_the_empty_split_message() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments/paper_exit");
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("figure3")
        .env("KINET_EXP_ROWS", "1")
        .env("KINET_EXP_EPOCHS", "1")
        .env("KINET_EXP_PROBES", "1")
        .env("KINET_EXPERIMENTS_DIR", &dir)
        .output()
        .expect("paper runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("paper: empty table: the test split"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
