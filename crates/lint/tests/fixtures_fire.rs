//! The seeded fixtures are the linter's own regression net: every rule
//! must fire exactly where `expected.lint` says, nothing more — and the
//! default workspace walk must never see the fixtures at all.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn fixtures_match_expected_manifest() {
    let root = workspace_root();
    let sub = PathBuf::from("crates/lint/tests/fixtures");
    let findings = fairem_lint::lint(&root, &[sub]).expect("fixture walk succeeds");
    assert!(!findings.is_empty(), "fixtures must produce findings");
    let manifest = std::fs::read_to_string(root.join("crates/lint/tests/fixtures/expected.lint"))
        .expect("expected.lint readable");
    let problems = fairem_lint::diff_expected(&findings, &manifest);
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn every_rule_is_exercised_by_a_fixture() {
    let root = workspace_root();
    let sub = PathBuf::from("crates/lint/tests/fixtures");
    let findings = fairem_lint::lint(&root, &[sub]).expect("fixture walk succeeds");
    let fired: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    for rule in [
        "clock",
        "fs",
        "thread",
        "rng",
        "hash_iter",
        "panic",
        "unsafe_comment",
        "float_order",
        "pragma",
        "hermetic_deps",
        "stale_pragma",
        "metrics_registry",
        "lock_order",
        "exit_code",
    ] {
        assert!(
            fired.contains(&rule),
            "no fixture finding for rule `{rule}`"
        );
    }
}

#[test]
fn default_walk_skips_fixtures() {
    let root = workspace_root();
    let findings = fairem_lint::lint(&root, &[]).expect("workspace walk succeeds");
    let leaked: Vec<_> = findings
        .iter()
        .filter(|f| f.rel.contains("fixtures"))
        .collect();
    assert!(leaked.is_empty(), "{leaked:#?}");
}

#[test]
fn justified_pragma_suppresses_but_unjustified_does_not() {
    let root = workspace_root();
    let sub = PathBuf::from("crates/lint/tests/fixtures/hash_iter.rs");
    let findings = fairem_lint::lint(&root, &[sub]).expect("fixture file lints");
    // Line 8 iterates under a justified pragma on line 7 — no finding.
    assert!(
        !findings.iter().any(|f| f.line == 8),
        "justified pragma must suppress the covered line: {findings:#?}"
    );
    // Line 10's pragma has no justification — it is itself a finding.
    assert!(findings.iter().any(|f| f.line == 10 && f.rule == "pragma"));
}
