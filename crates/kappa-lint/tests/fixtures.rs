//! The fixture corpus: every rule has a `violation` fixture that must fire
//! and a `clean` fixture that must stay silent.
//!
//! Each fixture under `tests/lint_fixtures/<rule>/{violation,clean}/` is a
//! miniature workspace tree (the walker skips `lint_fixtures` when linting
//! the real repo, so the deliberate violations never pollute CI). Running
//! the engine over a fixture root exercises the walker, the classifier, the
//! lexer and the rule end to end — the same path the binary takes.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use kappa_lint::{run_lint, Finding, Workspace};

fn fixture_root(rule: &str, case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(rule)
        .join(case)
}

/// Lints one fixture tree with the full rule set and returns the findings
/// of `rule` only (fixtures are single-purpose, but meta rules need the
/// full set to run, so filtering happens here rather than via `--rules`).
fn lint_fixture(rule: &str, case: &str) -> Vec<Finding> {
    let root = fixture_root(rule, case);
    let ws = Workspace::load(&root)
        .unwrap_or_else(|e| panic!("fixture {rule}/{case} failed to load: {e}"));
    assert!(
        ws.files.len() + ws.manifests.len() > 0,
        "fixture {rule}/{case} is empty — wrong layout?"
    );
    run_lint(&ws, None)
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

fn assert_fires(rule: &str) {
    let violation = lint_fixture(rule, "violation");
    assert!(
        !violation.is_empty(),
        "{rule}: violation fixture produced no {rule} findings"
    );
    let clean = lint_fixture(rule, "clean");
    assert!(
        clean.is_empty(),
        "{rule}: clean fixture produced findings: {:?}",
        clean
            .iter()
            .map(|f| format!("{}:{}: {}", f.rel_path, f.line, f.message))
            .collect::<Vec<_>>()
    );
}

#[test]
fn hash_iter_fixture() {
    assert_fires("hash-iter");
}

#[test]
fn wall_clock_fixture() {
    assert_fires("wall-clock");
}

#[test]
fn dist_no_panic_fixture() {
    assert_fires("dist-no-panic");
}

#[test]
fn tag_pairing_fixture() {
    assert_fires("tag-pairing");
    // Both halves of the orphaned exchange are reported.
    let findings = lint_fixture("tag-pairing", "violation");
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn tag_reserved_fixture() {
    assert_fires("tag-reserved");
}

#[test]
fn rank_branch_collective_fixture() {
    assert_fires("rank-branch-collective");
}

#[test]
fn full_materialize_fixture() {
    assert_fires("full-materialize");
    // Both the direct collect and the adapter-chained collect are caught.
    let findings = lint_fixture("full-materialize", "violation");
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn unsafe_forbid_fixture() {
    assert_fires("unsafe-forbid");
}

#[test]
fn shim_drift_fixture() {
    assert_fires("shim-drift");
    // A foreign name and a registry version are distinct drifts.
    let findings = lint_fixture("shim-drift", "violation");
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn oracle_in_production_fixture() {
    assert_fires("oracle-in-production");
    // The re-export and the production call are both caught; the twin's
    // `#[cfg(test)]` definition and its test caller are not.
    let findings = lint_fixture("oracle-in-production", "violation");
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn unused_allow_fixture() {
    assert_fires("unused-allow");
}

#[test]
fn malformed_allow_fixture() {
    assert_fires("malformed-allow");
}

/// Every clean fixture is *fully* clean — no findings of any rule — so a
/// fixture cannot quietly rot into exercising the wrong rule.
#[test]
fn clean_fixtures_are_clean_under_every_rule() {
    for rule in kappa_lint::ALL_RULES {
        let root = fixture_root(rule.id, "clean");
        let ws = Workspace::load(&root).expect("fixture tree");
        let report = run_lint(&ws, None);
        assert!(
            report.findings.is_empty(),
            "{}/clean has findings: {:?}",
            rule.id,
            report
                .findings
                .iter()
                .map(|f| format!("{}:{}: [{}] {}", f.rel_path, f.line, f.rule, f.message))
                .collect::<Vec<_>>()
        );
    }
}

/// The dogfood gate: the real workspace lints clean. This is the same check
/// CI runs via `kappa-lint --deny`, kept in the test suite so a plain
/// `cargo test` catches a regression before any workflow does.
#[test]
fn real_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let ws = Workspace::load(&root).expect("workspace");
    let report = run_lint(&ws, None);
    assert!(
        report.findings.is_empty(),
        "the workspace no longer lints clean:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.rel_path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
