//! Golden outputs: the byte-identity gate for the calibration reports,
//! the calibrated-workload resolution and the lint JSON emitter.
//!
//! Each test renders one output and compares its FNV-1a digest and byte
//! length with the committed fixture `golden_outputs.txt` (the format of
//! `crates/serve/tests/golden_replies.rs`). A digest computed by the
//! binary under test cannot catch a drift between versions of the code;
//! this fixture can.
//!
//! On a mismatch the test prints the output and the fixture line the
//! current code produces, so an intended change of output is re-recorded
//! by pasting that line into the fixture.

use std::path::{Path, PathBuf};

use fairem360::cli;
use fairem360::core::fnv1a64;
use fairem360::core::matcher::MatcherKind;
use fairem360::core::pipeline::{FairEm360, SuiteConfig};
use fairem360::core::prep::PrepConfig;
use fairem360::core::sensitive::{GroupId, SensitiveAttr};
use fairem360::core::Parallelism;
use fairem360::datasets::{faculty_match, FacultyConfig};
use fairem_lint::{lint_with, render_json};

const FIXTURE: &str = include_str!("golden_outputs.txt");

/// One fixture line: `<name>\t<fnv1a64 hex>\t<bytes>`.
fn line(name: &str, body: &str) -> String {
    format!("{name}\t{:016x}\t{}", fnv1a64(body.as_bytes()), body.len())
}

/// Compare one rendered output with its fixture line.
fn check(name: &str, body: &str) {
    let actual = line(name, body);
    let expected = FIXTURE
        .lines()
        .find(|l| l.split('\t').next() == Some(name));
    assert!(
        expected == Some(actual.as_str()),
        "{name} differs from the fixture\n  expected: {}\n  output:\n{body}\n\
         current fixture line:\n{actual}",
        expected.unwrap_or("<missing>")
    );
}

fn run(argv: &[&str]) -> String {
    let argv: Vec<String> = argv.iter().map(|a| (*a).to_owned()).collect();
    match cli::run(&argv) {
        Ok(out) => out.text,
        Err(e) => panic!("`fairem {}` failed: {}", argv.join(" "), e.message),
    }
}

/// Generate `dataset` into a fresh directory unique to this process.
fn generate(dataset: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fairem_golden_{}_{dataset}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    run(&["generate", "--dataset", dataset, "--out", path(&dir)]);
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// `fairem audit` on a generated dataset with `extra` flags appended.
fn audit(dataset: &str, extra: &[&str]) -> String {
    let dir = generate(dataset);
    let (a, b, m) = (
        dir.join("tableA.csv"),
        dir.join("tableB.csv"),
        dir.join("matches.csv"),
    );
    let mut argv = vec![
        "audit",
        "--table-a",
        path(&a),
        "--table-b",
        path(&b),
        "--matches",
        path(&m),
    ];
    argv.extend_from_slice(extra);
    let text = run(&argv);
    let _ = std::fs::remove_dir_all(&dir);
    text
}

#[test]
fn citations_isotonic_all_thresholds_report_is_golden() {
    let text = audit(
        "citations",
        &[
            "--sensitive",
            "venue",
            "--blocking",
            "title",
            "--calibrate",
            "isotonic",
            "--all-thresholds",
        ],
    );
    check("audit citations venue isotonic text", &text);
}

#[test]
fn faculty_platt_all_thresholds_json_is_golden() {
    let text = audit(
        "faculty",
        &[
            "--sensitive",
            "country",
            "--calibrate",
            "platt",
            "--all-thresholds",
            "--json",
        ],
    );
    check("audit faculty country platt json", &text);
}

#[test]
fn noflycompas_platt_all_thresholds_json_is_golden() {
    let text = audit(
        "noflycompas",
        &[
            "--sensitive",
            "race",
            "--calibrate",
            "platt",
            "--all-thresholds",
            "--json",
        ],
    );
    check("audit noflycompas race platt json", &text);
}

/// The per-group Platt resolution `exp_threshold` prints: the default
/// FacultyMatch under the figures' suite configuration (`import` in
/// crates/bench/src/lib.rs), one line of score bits per calibrated test
/// correspondence.
#[test]
fn faculty_calibrated_workload_score_bits_are_golden() {
    let d = faculty_match(&FacultyConfig::default());
    let sensitive: Vec<SensitiveAttr> = d
        .sensitive
        .iter()
        .map(|c| SensitiveAttr::categorical(c.clone()))
        .collect();
    let config = SuiteConfig {
        prep: PrepConfig {
            blocking_columns: vec!["name".into()],
            negative_ratio: 6.0,
            train_frac: 0.55,
            valid_frac: 0.05,
            ..PrepConfig::default()
        },
        matching_threshold: 0.5,
        ..SuiteConfig::default()
    };
    let session = FairEm360::builder()
        .tables(d.table_a.clone(), d.table_b.clone())
        .ground_truth(d.matches.clone())
        .sensitive(sensitive)
        .config(config)
        .build()
        .expect("generated dataset is schema-valid")
        .try_run(&[MatcherKind::LinRegMatcher])
        .expect("LinRegMatcher trains");
    let groups: Vec<GroupId> = session.space.level1_of_attr(0);
    let calibrated = session
        .calibrated_workload("LinRegMatcher", &groups)
        .expect("LinRegMatcher is in the session");
    let bits: String = calibrated
        .items
        .iter()
        .map(|c| format!("{:016x}\n", c.score.to_bits()))
        .collect();
    check("calibrated_workload faculty LinRegMatcher score bits", &bits);
}

/// The four Lite neural matchers' test-split scores on the small
/// FacultyMatch: each matcher's name, then one line of score bits per
/// test correspondence.
#[test]
fn faculty_neural_score_bits_are_golden() {
    let d = faculty_match(&FacultyConfig::small());
    let session = FairEm360::builder()
        .tables(d.table_a, d.table_b)
        .ground_truth(d.matches)
        .sensitive([SensitiveAttr::categorical("country")])
        .config(SuiteConfig::fast())
        .build()
        .expect("generated dataset is schema-valid")
        .try_run(&MatcherKind::NEURAL)
        .expect("neural matchers train");
    let mut bits = String::new();
    for name in session.matcher_names() {
        bits.push_str(name);
        bits.push('\n');
        let workload = session.workload(name).expect("matcher is in the session");
        for c in &workload.items {
            bits.push_str(&format!("{:016x}\n", c.score.to_bits()));
        }
    }
    check("workload faculty small neural score bits", &bits);
}

#[test]
fn lint_json_over_the_fixtures_is_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_with(
        root,
        &[PathBuf::from("crates/lint/tests/fixtures")],
        Parallelism::Auto,
    )
    .expect("fixture run");
    check("lint render_json crates/lint/tests/fixtures", &render_json(&report));
}
