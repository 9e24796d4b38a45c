//! Engine guarantees: findings are bit-identical across parallelism
//! policies, and the `fairem-lint/2` JSON emitter round-trips through
//! the validator.

use std::path::{Path, PathBuf};

use fairem_lint::{lint_with, render_json, validate_report_json};
use fairem_par::Parallelism;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn findings_are_identical_across_parallelism_policies() {
    let root = workspace_root();
    let sub = [PathBuf::from("crates/lint/tests/fixtures")];
    let one = lint_with(&root, &sub, Parallelism::Fixed(1)).expect("jobs=1 run");
    let four = lint_with(&root, &sub, Parallelism::Fixed(4)).expect("jobs=4 run");
    assert!(!one.findings.is_empty());
    assert_eq!(one.findings, four.findings, "jobs=1 vs jobs=4 diverged");
}

#[test]
fn json_report_round_trips_through_the_validator() {
    let root = workspace_root();
    let sub = PathBuf::from("crates/lint/tests/fixtures");
    let report = lint_with(&root, &[sub], Parallelism::Auto).expect("fixture run");
    let body = render_json(&report);
    let n = validate_report_json(&body).expect("emitted JSON validates");
    assert_eq!(n, report.findings.len());
    assert!(body.starts_with("{\"format\":\"fairem-lint/2\""), "{body}");

    // Corrupt the format tag — the validator must reject it.
    let bad = body.replace("fairem-lint/2", "fairem-lint/1");
    assert!(validate_report_json(&bad).is_err());
}
