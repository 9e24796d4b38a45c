//! Fault-injection harness: proves the degraded-mode invariants the
//! robustness layer promises.
//!
//! - Killing any single matcher (train or score) still completes the
//!   run; the failure is attributed to the right matcher and stage, the
//!   survivors are audited, and the audit report flags the degraded
//!   coverage.
//! - Killing every matcher yields a clean [`SuiteError::AllMatchersFailed`]
//!   — an `Err`, never a panic.
//! - Poisoned scores (NaN/±inf/out-of-range) are clamped at the matcher
//!   boundary and counted, and downstream auditing stays finite.
//! - Import-time row corruption flows through the quarantine machinery:
//!   the run completes and the damage is itemized per row.
//!
//! All faults are armed through a seeded [`FaultPlan`], so every
//! scenario here is deterministic.

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::error::{Stage, SuiteError};
use fairem360::core::fault::{FaultPlan, FaultSite};
use fairem360::core::matcher::MatcherKind;
use fairem360::core::pipeline::{FairEm360, SuiteConfig};
use fairem360::core::prep::PrepConfig;
use fairem360::core::sensitive::SensitiveAttr;
use fairem360::datasets::{faculty_match, FacultyConfig};

/// Small faculty workload: big enough to train every classic matcher,
/// small enough that each scenario runs in debug mode.
fn dataset_config() -> FacultyConfig {
    FacultyConfig {
        entities_per_group: 60,
        ..FacultyConfig::default()
    }
}

fn suite_config(fault: FaultPlan) -> SuiteConfig {
    SuiteConfig {
        prep: PrepConfig {
            blocking_columns: vec!["name".into()],
            negative_ratio: 4.0,
            ..PrepConfig::default()
        },
        fault,
        ..SuiteConfig::default()
    }
}

fn auditor() -> Auditor {
    Auditor::new(AuditConfig {
        min_support: 5,
        ..AuditConfig::default()
    })
}

/// Import the small faculty dataset with the given fault plan armed.
fn import(fault: FaultPlan) -> FairEm360 {
    let data = faculty_match(&dataset_config());
    let (suite, _) = FairEm360::import_with(
        data.table_a,
        data.table_b,
        data.matches,
        vec![SensitiveAttr::categorical("country")],
        suite_config(fault),
    )
    .expect("clean import");
    suite
}

const KINDS: [MatcherKind; 2] = [MatcherKind::LinRegMatcher, MatcherKind::DtMatcher];

#[test]
fn killing_one_matcher_degrades_but_completes() {
    for site in [FaultSite::Train, FaultSite::Score] {
        let plan = FaultPlan::seeded(7).kill(MatcherKind::DtMatcher, site);
        let session = import(plan).try_run(&KINDS).expect("run must complete");

        assert!(session.is_degraded());
        assert_eq!(session.coverage(), (1, 2));
        assert_eq!(session.matcher_names(), vec!["LinRegMatcher"]);

        let failures = session.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].matcher, "DTMatcher");
        let expected_stage = match site {
            FaultSite::Train => Stage::Train,
            _ => Stage::Score,
        };
        assert_eq!(failures[0].stage, expected_stage);
        assert!(
            failures[0].reason.contains("injected fault"),
            "reason should carry the panic payload: {}",
            failures[0].reason
        );

        // Surviving matchers are still auditable, and the report carries
        // the degraded-coverage flag.
        let auditor = auditor();
        let report = session
            .audit("LinRegMatcher", &auditor)
            .expect("survivor audits");
        assert!(report.is_degraded());
        assert_eq!(report.degraded.len(), 1);
        assert!(!report.entries.is_empty(), "survivor audit must be real");

        // audit_all only covers survivors — no phantom reports.
        let all = session.audit_all(&auditor);
        assert_eq!(all.len(), 1);
    }
}

#[test]
fn killing_every_matcher_is_an_error_not_a_panic() {
    let plan = FaultPlan::seeded(7)
        .kill(MatcherKind::LinRegMatcher, FaultSite::Train)
        .kill(MatcherKind::DtMatcher, FaultSite::Score);
    let err = import(plan).try_run(&KINDS).expect_err("nothing survives");
    match err {
        SuiteError::AllMatchersFailed { failures } => {
            assert_eq!(failures.len(), 2);
            let mut names: Vec<&str> = failures.iter().map(|f| f.matcher.as_str()).collect();
            names.sort_unstable();
            assert_eq!(names, ["DTMatcher", "LinRegMatcher"]);
        }
        other => panic!("expected AllMatchersFailed, got {other}"),
    }
}

#[test]
fn feature_stage_panic_is_contained_as_stage_error() {
    let plan = FaultPlan::seeded(7).panic_at(FaultSite::FeatureGen);
    let err = import(plan).try_run(&KINDS).expect_err("stage fault");
    match err {
        SuiteError::Stage { stage, detail } => {
            assert_eq!(stage, Stage::FeatureGen);
            assert!(detail.contains("injected fault"), "{detail}");
        }
        other => panic!("expected Stage error, got {other}"),
    }
}

#[test]
fn poisoned_scores_are_clamped_before_thresholding() {
    let plan = FaultPlan::seeded(11).poison_scores(MatcherKind::LinRegMatcher);
    let session = import(plan).try_run(&KINDS).expect("run must complete");

    // The poison was repaired at the matcher boundary and counted.
    assert!(
        session.clamped_scores() > 0,
        "clamp counter must record repairs"
    );
    // No matcher was lost to the poison — both still audit.
    assert_eq!(session.coverage(), (2, 2));

    // Everything downstream of the clamp stays finite and in-range.
    let w = session.workload("LinRegMatcher").expect("matcher trained");
    assert!(w
        .items
        .iter()
        .all(|c| c.score.is_finite() && (0.0..=1.0).contains(&c.score)));
    let report = session
        .audit("LinRegMatcher", &auditor())
        .expect("matcher trained");
    assert!(
        !report.entries.is_empty(),
        "clamped scores must still be auditable"
    );
    assert!(
        !report.is_degraded(),
        "clamping repairs scores without dropping the matcher"
    );
}

#[test]
fn corrupted_import_rows_are_quarantined_and_run_completes() {
    let plan = FaultPlan::seeded(5).corrupt_import();
    let data = faculty_match(&dataset_config());
    let rows_in = data.table_a.rows.len() + data.table_b.rows.len();
    let (suite, quarantine) = FairEm360::import_with(
        data.table_a,
        data.table_b,
        data.matches,
        vec![SensitiveAttr::categorical("country")],
        suite_config(plan),
    )
    .expect("corrupted import must still succeed");

    // The injected duplicate + blanked ids landed in quarantine with
    // row-level attribution.
    assert!(!quarantine.is_empty(), "corruption must be quarantined");
    for q in &quarantine.rows {
        assert!(q.row >= 1, "rows are 1-based");
        assert!(q.table == "tableA" || q.table == "tableB");
    }
    assert!(
        quarantine.len() < rows_in,
        "quarantine must not swallow the dataset"
    );

    // The degraded dataset still runs end to end; dangling ground-truth
    // matches referencing quarantined rows join the quarantine instead
    // of failing prep.
    let session = suite.try_run(&KINDS).expect("run over kept rows");
    assert_eq!(session.coverage(), (2, 2));
    assert!(
        !session.quarantine().is_empty(),
        "the session carries the quarantine forward for reporting"
    );
    let report = session
        .audit("LinRegMatcher", &auditor())
        .expect("matcher trained");
    assert!(!report.entries.is_empty());
}

#[test]
fn quarantine_accounting_holds_under_a_parallel_import() {
    // The partition invariant (kept + quarantined == input) was only
    // pinned on the sequential path; here the lenient imports themselves
    // run concurrently on a 4-worker pool (the shape check.sh's
    // FAIREM_JOBS=4 leg drives through Parallelism::Auto), and the
    // downstream suite runs under Fixed(4) — accounting must not care.
    use fairem360::core::schema::Table;
    use fairem360::core::Parallelism;
    use fairem360::par::WorkerPool;

    let plan = FaultPlan::seeded(5).corrupt_import();
    let data = faculty_match(&dataset_config());
    let mut corrupted = [data.table_a.clone(), data.table_b.clone()];
    for t in &mut corrupted {
        let id_col = t.column_index("id").expect("generated tables have ids");
        plan.corrupt_rows(&mut t.rows, id_col);
    }

    let pool = WorkerPool::with_parallelism(Parallelism::Fixed(4));
    let outcomes = pool.par_map_isolated(corrupted.len(), |i| {
        let name = ["tableA", "tableB"][i];
        Table::from_csv_lenient(corrupted[i].clone(), name).expect("id column present")
    });
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (table, q) = outcome.expect("lenient import survives corruption");
        assert_eq!(
            table.len() + q.len(),
            corrupted[i].rows.len(),
            "table {i}: every input row must be kept or quarantined"
        );
        assert!(!q.is_empty(), "table {i}: corruption must be quarantined");
    }

    // End to end: the quarantine the session reports is identical under
    // a sequential and a 4-worker suite.
    let session_with = |parallelism: Parallelism| {
        let data = faculty_match(&dataset_config());
        let mut config = suite_config(FaultPlan::seeded(5).corrupt_import());
        config.parallelism = parallelism;
        let (suite, quarantine) = FairEm360::import_with(
            data.table_a,
            data.table_b,
            data.matches,
            vec![SensitiveAttr::categorical("country")],
            config,
        )
        .expect("corrupted import must still succeed");
        (
            quarantine,
            suite.try_run(&KINDS).expect("run over kept rows"),
        )
    };
    let (q_seq, s_seq) = session_with(Parallelism::Off);
    let (q_par, s_par) = session_with(Parallelism::Fixed(4));
    assert!(!q_seq.is_empty());
    assert_eq!(q_seq.rows.len(), q_par.rows.len());
    for (a, b) in q_seq.rows.iter().zip(&q_par.rows) {
        assert_eq!((a.table.as_str(), a.row), (b.table.as_str(), b.row));
    }
    assert_eq!(s_seq.quarantine().render(), s_par.quarantine().render());
}

#[test]
fn parallel_chunk_panic_degrades_identically_to_sequential() {
    use fairem360::core::Parallelism;
    let session_with = |parallelism: Parallelism| {
        let plan = FaultPlan::seeded(7).kill(MatcherKind::DtMatcher, FaultSite::Score);
        let data = faculty_match(&dataset_config());
        let mut config = suite_config(plan);
        config.parallelism = parallelism;
        let (suite, _) = FairEm360::import_with(
            data.table_a,
            data.table_b,
            data.matches,
            vec![SensitiveAttr::categorical("country")],
            config,
        )
        .expect("clean import");
        suite.try_run(&KINDS).expect("run must complete")
    };
    let seq = session_with(Parallelism::Off);
    let par = session_with(Parallelism::Fixed(4));

    // The fault is contained inside a pool worker, yet degrades exactly
    // like the sequential run: same survivors, same attribution.
    assert_eq!(seq.coverage(), par.coverage());
    assert_eq!(seq.matcher_names(), par.matcher_names());
    let (sf, pf) = (seq.failures(), par.failures());
    assert_eq!(sf.len(), 1);
    assert_eq!(pf.len(), 1);
    assert_eq!(sf[0].matcher, pf[0].matcher);
    assert_eq!(sf[0].stage, pf[0].stage);

    // And the survivor's audit is bit-for-bit the same report.
    let a = auditor();
    let rs = seq.audit("LinRegMatcher", &a).expect("survivor audits");
    let rp = par.audit("LinRegMatcher", &a).expect("survivor audits");
    assert_eq!(rs.degraded.len(), rp.degraded.len());
    assert_eq!(rs.entries.len(), rp.entries.len());
    for (es, ep) in rs.entries.iter().zip(&rp.entries) {
        assert_eq!(es.group, ep.group);
        assert_eq!(es.disparity.to_bits(), ep.disparity.to_bits());
    }
}

#[test]
fn clean_plan_is_not_degraded() {
    let session = import(FaultPlan::default())
        .try_run(&KINDS)
        .expect("clean run");
    assert!(!session.is_degraded());
    assert_eq!(session.coverage(), (2, 2));
    assert!(session.failures().is_empty());
    assert!(session.quarantine().is_empty());
    assert_eq!(session.clamped_scores(), 0);
}
