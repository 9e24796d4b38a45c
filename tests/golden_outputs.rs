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
use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::fnv1a64;
use fairem360::core::matcher::MatcherKind;
use fairem360::core::pipeline::{FairEm360, SuiteConfig};
use fairem360::core::prep::PrepConfig;
use fairem360::core::sensitive::{GroupId, SensitiveAttr};
use fairem360::core::Parallelism;
use fairem360::csvio::CsvTable;
use fairem360::datasets::{faculty_match, FacultyConfig};
use fairem_lint::{lint_with, render_json};
use fairem_rng::rngs::StdRng;
use fairem_rng::{Rng, SeedableRng};

const FIXTURE: &str = include_str!("golden_outputs.txt");

/// One fixture line: `<name>\t<fnv1a64 hex>\t<bytes>`.
fn line(name: &str, body: &str) -> String {
    format!("{name}\t{:016x}\t{}", fnv1a64(body.as_bytes()), body.len())
}

/// Compare one rendered output with its fixture line.
fn check(name: &str, body: &str) {
    let actual = line(name, body);
    let expected = FIXTURE.lines().find(|l| l.split('\t').next() == Some(name));
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
    let dir = std::env::temp_dir().join(format!("fairem_golden_{}_{dataset}", std::process::id()));
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
    check(
        "calibrated_workload faculty LinRegMatcher score bits",
        &bits,
    );
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

/// Respell a seeded third of the text cells of `table` (every column
/// but `id` and `country`): one `o` becomes `ö`, one `u` becomes `ü`,
/// one `ss` becomes `ß`, or the cell gets a leading `İ` in place of a
/// leading `i`. A respelled cell keeps most of its 3-grams ASCII, so
/// ASCII and non-ASCII cells and grams mix within every column.
fn respell_non_ascii(table: &mut CsvTable, rng: &mut StdRng) {
    let skip = [table.column_index("id"), table.column_index("country")];
    for row in &mut table.rows {
        for (col, cell) in row.iter_mut().enumerate() {
            if skip.contains(&Some(col)) || !rng.gen_bool(0.3) {
                continue;
            }
            *cell = match rng.gen_range(0..4) {
                0 => cell.replacen('o', "ö", 1),
                1 => cell.replacen('u', "ü", 1),
                2 => cell.replacen("ss", "ß", 1),
                _ => format!("İ{}", cell.strip_prefix('i').unwrap_or(cell)),
            };
        }
    }
}

/// An audit of the six classic matchers on the small FacultyMatch with
/// non-ASCII respellings mixed into its text columns: each matcher's
/// name, one line of score bits per test correspondence, then one line
/// per audit entry with its values' bits. The generators write ASCII
/// only, so this is the one end-to-end run through the non-ASCII paths
/// of the prepare pass and the edit kernels.
#[test]
fn faculty_small_non_ascii_audit_is_golden() {
    let mut d = faculty_match(&FacultyConfig::small());
    let mut rng = StdRng::seed_from_u64(0x5eed_0a5c);
    respell_non_ascii(&mut d.table_a, &mut rng);
    respell_non_ascii(&mut d.table_b, &mut rng);
    let session = FairEm360::builder()
        .tables(d.table_a, d.table_b)
        .ground_truth(d.matches)
        .sensitive([SensitiveAttr::categorical("country")])
        .config(SuiteConfig::fast())
        .build()
        .expect("respelled dataset is schema-valid")
        .try_run(&MatcherKind::NON_NEURAL)
        .expect("classic matchers train");
    let reports = session.audit_all(&Auditor::new(AuditConfig::default()));
    let mut bits = String::new();
    for report in &reports {
        bits.push_str(&report.matcher);
        bits.push('\n');
        let workload = session
            .workload(&report.matcher)
            .expect("matcher is in the session");
        for c in &workload.items {
            bits.push_str(&format!("{:016x}\n", c.score.to_bits()));
        }
        for e in &report.entries {
            bits.push_str(&format!(
                "{} {} {:016x} {:016x} {:016x} {} {}\n",
                e.measure,
                e.group,
                e.group_value.to_bits(),
                e.overall_value.to_bits(),
                e.disparity.to_bits(),
                e.support,
                e.unfair
            ));
        }
    }
    check("audit faculty small non-ascii score bits", &bits);
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
    check(
        "lint render_json crates/lint/tests/fixtures",
        &render_json(&report),
    );
}
