//! Deadline-aware execution: proves the budget / cancellation contract.
//!
//! - A stalled matcher under a per-matcher wall budget is cut
//!   cooperatively: the run completes degraded over the survivors, the
//!   failure names the matcher with its elapsed time and progress, and
//!   the attribution is identical under `Fixed(1)` and `Fixed(4)` (the
//!   whole file also runs under `FAIREM_JOBS=1` and `=4` via check.sh).
//! - A whole-suite budget expiry aborts the run with
//!   [`SuiteError::TimedOut`] naming the stage it landed in.
//! - External cancellation (the Ctrl-C path) winds the run down at the
//!   next checkpoint and maps to exit code 130; budget expiries map to
//!   exit code 4.
//! - With no budget configured the run is bit-for-bit the default run.
//!
//! All stalls are armed through the seeded [`FaultPlan`], so every
//! scenario is deterministic (elapsed times aside, which only need to
//! clear the configured budget).

use std::time::Duration;

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::error::{Stage, SuiteError};
use fairem360::core::fault::{FaultPlan, FaultSite};
use fairem360::core::matcher::MatcherKind;
use fairem360::core::pipeline::{FairEm360, SuiteConfig};
use fairem360::core::prep::PrepConfig;
use fairem360::core::sensitive::SensitiveAttr;
use fairem360::core::{Budget, CancelToken, Parallelism};
use fairem360::datasets::{faculty_match, FacultyConfig};
use fairem360::par::CancelCause;

/// A stall far longer than any test budget: if a budget fails to cut
/// it, the check.sh wall-clock gate (not this process) kills the run.
const STALL_MS: u64 = 120_000;

const KINDS: [MatcherKind; 2] = [MatcherKind::LinRegMatcher, MatcherKind::DtMatcher];

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

fn import(config: SuiteConfig) -> FairEm360 {
    let data = faculty_match(&dataset_config());
    let (suite, _) = FairEm360::import_with(
        data.table_a,
        data.table_b,
        data.matches,
        vec![SensitiveAttr::categorical("country")],
        config,
    )
    .expect("clean import");
    suite
}

fn auditor() -> Auditor {
    Auditor::new(AuditConfig {
        min_support: 5,
        ..AuditConfig::default()
    })
}

#[test]
fn stalled_matcher_under_budget_degrades_over_survivors_for_every_policy() {
    // The acceptance scenario: a Stall matcher under a 1s matcher
    // budget yields a degraded audit over the survivors and a failure
    // record naming who was cut and at what point — identically under
    // a sequential and a 4-worker pool.
    for site in [FaultSite::Train, FaultSite::Score] {
        let run = |parallelism: Parallelism| {
            let plan = FaultPlan::seeded(7).stall(MatcherKind::DtMatcher, site, STALL_MS);
            let mut config = suite_config(plan);
            config.parallelism = parallelism;
            config.matcher_budget = Budget::wall_ms(1000);
            import(config).try_run(&KINDS).expect("run must complete")
        };
        for (policy, session) in [
            (Parallelism::Fixed(1), run(Parallelism::Fixed(1))),
            (Parallelism::Fixed(4), run(Parallelism::Fixed(4))),
        ] {
            let tag = format!("{policy:?}/{site:?}");

            // Degraded, not dead: the survivor is still audited.
            assert!(session.is_degraded(), "{tag}");
            assert_eq!(session.coverage(), (1, 2), "{tag}");
            assert_eq!(session.matcher_names(), vec!["LinRegMatcher"], "{tag}");

            // The casualty is named, with stage, cause, and progress.
            let failures = session.failures();
            assert_eq!(failures.len(), 1, "{tag}");
            let f = &failures[0];
            assert_eq!(f.matcher, "DTMatcher", "{tag}");
            let expected_stage = match site {
                FaultSite::Train => Stage::Train,
                _ => Stage::Score,
            };
            assert_eq!(f.stage, expected_stage, "{tag}");
            let interrupt = f
                .interrupt()
                .unwrap_or_else(|| panic!("{tag}: budget cut must carry the interrupt record"));
            assert_eq!(interrupt.cause, CancelCause::Deadline, "{tag}");
            assert!(
                interrupt.elapsed >= Duration::from_millis(1000),
                "{tag}: cut before the budget expired: {:?}",
                interrupt.elapsed
            );
            assert!(
                interrupt.elapsed < Duration::from_millis(STALL_MS),
                "{tag}: the stall must not run to completion"
            );
            // The rendered failure names the matcher, the cut, and the
            // elapsed/progress — what the CLI report prints.
            let line = f.to_string();
            assert!(line.contains("DTMatcher"), "{tag}: {line}");
            assert!(line.contains("cut at"), "{tag}: {line}");
            assert!(line.contains("timed out after"), "{tag}: {line}");
            assert!(line.contains("steps done"), "{tag}: {line}");

            // The survivor's audit flags the degraded coverage.
            let report = session
                .audit("LinRegMatcher", &auditor())
                .expect("survivor audits");
            assert!(report.is_degraded(), "{tag}");
            assert!(!report.entries.is_empty(), "{tag}");
        }
    }
}

#[test]
fn whole_suite_budget_expiry_is_a_timed_out_error_naming_the_stage() {
    let plan = FaultPlan::seeded(7).stall_stage(FaultSite::FeatureGen, STALL_MS);
    let mut config = suite_config(plan);
    config.budget = Budget::wall_ms(200);
    let t0 = std::time::Instant::now();
    let err = import(config).try_run(&KINDS).expect_err("budget expires");
    match err {
        SuiteError::TimedOut { stage, elapsed, .. } => {
            assert_eq!(stage, Stage::FeatureGen);
            assert!(elapsed >= Duration::from_millis(200), "{elapsed:?}");
        }
        other => panic!("expected TimedOut, got {other}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "the 200ms budget must cut the {STALL_MS}ms stall promptly"
    );
}

#[test]
fn suite_budget_expiring_mid_train_stops_at_the_next_stage_checkpoint() {
    // The whole-suite deadline lands while one matcher is stalled in
    // training: that matcher is cut like a per-matcher expiry, and the
    // run then refuses to continue at the next checkpoint — the
    // validation feature matrix, so the stage is FeatureGen.
    let plan = FaultPlan::seeded(7).stall(MatcherKind::DtMatcher, FaultSite::Train, STALL_MS);
    let mut config = suite_config(plan);
    config.budget = Budget::wall_ms(300);
    let err = import(config).try_run(&KINDS).expect_err("budget expires");
    match err {
        SuiteError::TimedOut { stage, elapsed, .. } => {
            assert_eq!(
                stage,
                Stage::FeatureGen,
                "cut lands at the post-train checkpoint"
            );
            assert!(elapsed >= Duration::from_millis(300));
        }
        other => panic!("expected TimedOut, got {other}"),
    }
}

#[test]
fn external_cancellation_stops_the_run_at_the_first_checkpoint() {
    let token = CancelToken::inert();
    token.cancel();
    let mut config = suite_config(FaultPlan::default());
    config.cancel = token;
    let err = import(config).try_run(&KINDS).expect_err("cancelled");
    match err {
        SuiteError::TimedOut { stage, .. } => assert_eq!(stage, Stage::Prep),
        other => panic!("expected TimedOut, got {other}"),
    }
}

#[test]
fn cancel_from_another_thread_cuts_a_stalled_run() {
    // The Ctrl-C shape: a run stalls, another thread trips the shared
    // token, the run winds down cooperatively instead of hanging.
    let token = CancelToken::inert();
    let plan = FaultPlan::seeded(7).stall(MatcherKind::DtMatcher, FaultSite::Train, STALL_MS);
    let mut config = suite_config(plan);
    config.cancel = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        token.cancel();
    });
    let t0 = std::time::Instant::now();
    let err = import(config).try_run(&KINDS).expect_err("cancelled");
    canceller.join().expect("canceller thread");
    assert!(matches!(err, SuiteError::TimedOut { .. }), "{err}");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "cancel must cut the {STALL_MS}ms stall promptly, took {:?}",
        t0.elapsed()
    );
}

#[test]
fn unbudgeted_run_is_bit_for_bit_the_default_run() {
    // Arming the machinery with unlimited budgets and an inert token
    // must not perturb a single bit of the output.
    let default_run = import(suite_config(FaultPlan::default()))
        .try_run(&KINDS)
        .expect("clean run");
    let mut config = suite_config(FaultPlan::default());
    config.budget = Budget::UNLIMITED;
    config.matcher_budget = Budget::UNLIMITED;
    config.cancel = CancelToken::inert();
    let armed_run = import(config).try_run(&KINDS).expect("clean run");

    assert_eq!(default_run.coverage(), armed_run.coverage());
    assert!(!armed_run.is_degraded());
    for name in default_run.matcher_names() {
        let wd = default_run.workload(name).expect("known matcher");
        let wa = armed_run.workload(name).expect("known matcher");
        assert_eq!(wd.items.len(), wa.items.len(), "{name}");
        for (a, b) in wd.items.iter().zip(&wa.items) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name}");
        }
    }
    let a = auditor();
    let rd = default_run.audit_all(&a);
    let (ra, interrupt) = armed_run.try_audit_all(&a);
    assert!(interrupt.is_none(), "inert token must not interrupt audits");
    assert_eq!(rd.len(), ra.len());
    for (x, y) in rd.iter().zip(&ra) {
        assert_eq!(x.entries.len(), y.entries.len());
        for (ex, ey) in x.entries.iter().zip(&y.entries) {
            assert_eq!(ex.group, ey.group);
            assert_eq!(ex.disparity.to_bits(), ey.disparity.to_bits());
        }
    }
}

// --- CLI: flags, report text, and exit codes ----------------------------

mod cli {
    use std::path::PathBuf;

    use fairem360::cli::{run, run_with_token, EXIT_INTERRUPTED, EXIT_TIMEOUT, EXIT_USAGE};
    use fairem360::core::CancelToken;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    /// Generate the small faculty dataset into a scratch dir and return
    /// the base audit argv (no deadline flags).
    fn generated(name: &str) -> (PathBuf, Vec<String>) {
        let dir = std::env::temp_dir().join(format!("fairem_deadline_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().expect("utf8 path"),
        ]))
        .expect("generate");
        let argv = args(&[
            "audit",
            "--table-a",
            dir.join("tableA.csv").to_str().expect("utf8 path"),
            "--table-b",
            dir.join("tableB.csv").to_str().expect("utf8 path"),
            "--matches",
            dir.join("matches.csv").to_str().expect("utf8 path"),
            "--sensitive",
            "country",
            "--matchers",
            "LinRegMatcher,DTMatcher",
            "--min-support",
            "20",
        ]);
        (dir, argv)
    }

    #[test]
    fn matcher_timeout_cuts_the_stalled_matcher_and_exits_4() {
        let (_dir, base) = generated("matcher_timeout");
        for jobs in ["1", "4"] {
            let mut argv = base.clone();
            argv.extend(args(&[
                "--inject-stall",
                &format!("DTMatcher:train:{}", super::STALL_MS),
                "--matcher-timeout",
                "1",
                "--jobs",
                jobs,
            ]));
            let out = run(&argv).expect("degraded run still completes");
            assert!(out.timed_out, "--jobs {jobs}");
            assert_eq!(out.exit_code(), EXIT_TIMEOUT, "--jobs {jobs}");
            // The report names the casualty, the cut, and the survivors.
            assert!(out.text.contains("DEGRADED RUN: 1/2"), "{}", out.text);
            assert!(
                out.text.contains("DTMatcher cut at train: timed out after"),
                "{}",
                out.text
            );
            assert!(out.text.contains("LinRegMatcher"), "{}", out.text);
        }
    }

    #[test]
    fn whole_run_timeout_is_an_error_with_exit_4() {
        let (_dir, base) = generated("suite_timeout");
        let mut argv = base;
        argv.extend(args(&[
            "--inject-stall",
            &format!("DTMatcher:train:{}", super::STALL_MS),
            "--timeout",
            "0.3",
        ]));
        let e = run(&argv).expect_err("whole-suite budget aborts the run");
        assert_eq!(e.exit, EXIT_TIMEOUT);
        assert!(e.message.contains("timed out at"), "{}", e.message);
    }

    #[test]
    fn cancelled_token_maps_to_exit_130() {
        let (_dir, base) = generated("interrupt");
        let token = CancelToken::inert();
        token.cancel();
        let e = run_with_token(&base, &token).expect_err("cancelled before the run");
        assert_eq!(e.exit, EXIT_INTERRUPTED);
    }

    #[test]
    fn deadline_flags_are_validated() {
        let (_dir, base) = generated("validation");
        let bad = |extra: &[&str], needle: &str| {
            let mut argv = base.clone();
            argv.extend(args(extra));
            let e = run(&argv).expect_err("must be a usage error");
            assert_eq!(e.exit, EXIT_USAGE, "{extra:?}");
            assert!(e.message.contains(needle), "{extra:?}: {}", e.message);
        };
        bad(&["--timeout", "0"], "--timeout expects a positive");
        bad(&["--timeout", "banana"], "--timeout expects seconds");
        bad(&["--timeout"], "no value was given");
        bad(&["--matcher-timeout", "-1"], "positive");
        bad(&["--matcher-timeout"], "no value was given");
        bad(
            &["--inject-stall", "DTMatcher:train"],
            "--inject-stall expects",
        );
        bad(
            &["--inject-stall", "DTMatcher:prep:100"],
            "train` or `score",
        );
        bad(&["--inject-stall", "NoSuchMatcher:train:100"], "matcher");
    }
}
