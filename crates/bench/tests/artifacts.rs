//! Golden snapshots of every paper artifact's printed output at reduced
//! size (`HETARCH_SHOTS=64`, `HETARCH_DURATION_MS=0.2`).
//!
//! Regenerate after an intentional model change with
//! `GOLDEN_UPDATE=1 cargo test -q -p hetarch-bench --test artifacts` and
//! review the diff of `tests/golden/artifact_*.txt`.

use std::path::Path;
use std::process::Command;

use hetarch::testkit::prelude::*;

/// Runs `figs <name>` at reduced size and pins its stdout.
fn check(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .arg(name)
        .env("HETARCH_SHOTS", "64")
        .env("HETARCH_DURATION_MS", "0.2")
        .output()
        .expect("run figs");
    assert!(out.status.success(), "figs {name} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let mut s = Snapshot::new(&format!(
        "{name} stdout, HETARCH_SHOTS=64 HETARCH_DURATION_MS=0.2"
    ));
    s.text(&stdout);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    assert_golden(&dir, &format!("artifact_{name}"), &s);
}

#[test]
fn table1() {
    check("table1");
}

#[test]
fn table2() {
    check("table2");
}

#[test]
fn fig3() {
    check("fig3");
}

#[test]
fn fig4() {
    check("fig4");
}

#[test]
fn fig6() {
    check("fig6");
}

#[test]
fn fig7() {
    check("fig7");
}

#[test]
fn fig9() {
    check("fig9");
}

#[test]
fn table3() {
    check("table3");
}

#[test]
fn fig12() {
    check("fig12");
}

#[test]
fn table4() {
    check("table4");
}

#[test]
fn dse_cost() {
    check("dse_cost");
}

#[test]
fn ablations() {
    check("ablations");
}

#[test]
fn unknown_name_fails_and_lists_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(["fig4", "fig5"])
        .output()
        .expect("run figs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing runs before the names check");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown artifact `fig5`"), "{stderr}");
    assert!(stderr.contains("table1 table2 fig3 fig4"), "{stderr}");
}
