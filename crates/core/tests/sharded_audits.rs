//! Sharded-vs-unsharded equivalence suite: the out-of-core path
//! (`try_run_sharded`) must produce audits **bit for bit** identical to
//! the fully materialized session, for every shard count and
//! parallelism policy; checkpoints must resume without recomputing
//! committed shards; damaged or foreign checkpoint files must be
//! recomputed silently; and the memory budget must be a real fence —
//! the materialized path exceeds it while the sharded path completes
//! under it.

use std::fs;
use std::path::PathBuf;

use fairem_core::audit::{AuditConfig, AuditReport, Auditor};
use fairem_core::matcher::MatcherKind;
use fairem_core::pipeline::{FairEm360, SuiteBuilder};
use fairem_core::{
    Budget, FaultPlan, FaultSite, MemBudget, Parallelism, Recorder, SortedNeighborhood, SuiteError,
};
use fairem_datasets::{
    faculty_match, wdc_products, FacultyConfig, GeneratedDataset, ProductsConfig,
};

const POLICIES: [Parallelism; 3] = [
    Parallelism::Off,
    Parallelism::Fixed(1),
    Parallelism::Fixed(4),
];

const FLEET: [MatcherKind; 3] = [
    MatcherKind::DtMatcher,
    MatcherKind::LogRegMatcher,
    MatcherKind::NbMatcher,
];

fn dataset() -> GeneratedDataset {
    wdc_products(&ProductsConfig::small())
}

fn config() -> fairem_core::SuiteConfig {
    let mut c = fairem_core::SuiteConfig::fast();
    c.prep.blocking_columns = vec!["title".to_owned()];
    c
}

fn builder(d: &GeneratedDataset) -> SuiteBuilder {
    let sensitive = d
        .sensitive
        .iter()
        .map(fairem_core::sensitive::SensitiveAttr::categorical);
    FairEm360::builder()
        .tables(d.table_a.clone(), d.table_b.clone())
        .ground_truth(d.matches.clone())
        .sensitive(sensitive)
        .config(config())
}

fn auditor() -> Auditor {
    Auditor::new(AuditConfig::default())
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fairem-sharded-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn counter(rec: &Recorder, name: &str) -> u64 {
    rec.snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn gauge(rec: &Recorder, name: &str) -> Option<f64> {
    rec.snapshot()
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
}

/// Bitwise comparison of two audit reports: every cell, every float,
/// compared on its bit pattern (`NaN` included).
fn assert_reports_identical(a: &AuditReport, b: &AuditReport, ctx: &str) {
    assert_eq!(a.matcher, b.matcher, "{ctx}: matcher");
    assert_eq!(
        a.matching_threshold.to_bits(),
        b.matching_threshold.to_bits(),
        "{ctx}: threshold"
    );
    assert_eq!(a.entries.len(), b.entries.len(), "{ctx}: cell count");
    for (i, (x, y)) in a.entries.iter().zip(&b.entries).enumerate() {
        let c = format!(
            "{ctx}: {} cell {i} ({:?} {})",
            a.matcher, x.measure, x.group
        );
        assert_eq!(x.measure, y.measure, "{c}: measure");
        assert_eq!(x.group, y.group, "{c}: group");
        assert_eq!(x.support, y.support, "{c}: support");
        assert_eq!(x.unfair, y.unfair, "{c}: verdict");
        assert_eq!(
            x.group_value.to_bits(),
            y.group_value.to_bits(),
            "{c}: group value"
        );
        assert_eq!(
            x.overall_value.to_bits(),
            y.overall_value.to_bits(),
            "{c}: overall value"
        );
        assert_eq!(
            x.disparity.to_bits(),
            y.disparity.to_bits(),
            "{c}: disparity"
        );
    }
}

#[test]
fn sharded_audits_are_bit_for_bit_identical_to_unsharded() {
    let d = dataset();
    let aud = auditor();
    let baseline: Vec<AuditReport> = builder(&d)
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap()
        .audit_all(&aud);
    assert!(!baseline.is_empty());

    for shards in [2, 5] {
        for policy in POLICIES {
            let run = builder(&d)
                .parallelism(policy)
                .shards(shards)
                .build()
                .unwrap()
                .try_run_sharded(&FLEET)
                .unwrap();
            assert_eq!(run.shards(), shards);
            assert!(!run.is_degraded());
            let reports = run.audit_all(&aud);
            assert_eq!(reports.len(), baseline.len());
            for (a, b) in baseline.iter().zip(&reports) {
                assert_reports_identical(a, b, &format!("shards={shards} {policy:?}"));
            }
        }
    }
}

#[test]
fn a_fleet_with_a_neural_matcher_audits_identically_when_sharded() {
    // Shard windows tokenize their pairs only for a fleet with a live
    // neural matcher; the neural matcher must then score exactly the
    // tokens the materialized run gives it.
    let d = faculty_match(&FacultyConfig::small());
    let fleet = [MatcherKind::DtMatcher, MatcherKind::DeepMatcher];
    let build = || {
        FairEm360::builder()
            .tables(d.table_a.clone(), d.table_b.clone())
            .ground_truth(d.matches.clone())
            .sensitive(
                d.sensitive
                    .iter()
                    .map(fairem_core::sensitive::SensitiveAttr::categorical),
            )
            .config(fairem_core::SuiteConfig::fast())
    };
    let aud = auditor();
    let baseline = build().build().unwrap().try_run(&fleet).unwrap();
    assert!(!baseline.is_degraded());
    let run = build()
        .shards(3)
        .build()
        .unwrap()
        .try_run_sharded(&fleet)
        .unwrap();
    assert_eq!(run.shards(), 3);
    assert!(!run.is_degraded());
    let (want, got) = (baseline.audit_all(&aud), run.audit_all(&aud));
    assert_eq!(got.len(), fleet.len());
    assert_eq!(want.len(), got.len());
    for (a, b) in want.iter().zip(&got) {
        assert_reports_identical(a, b, "faculty shards=3");
    }
}

#[test]
fn single_shard_out_of_core_path_also_matches() {
    // shards=1 exercises the histogram/window machinery without
    // partitioning — a useful degenerate case.
    let d = dataset();
    let aud = auditor();
    let baseline = builder(&d).build().unwrap().try_run(&FLEET).unwrap();
    let run = builder(&d)
        .shards(1)
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    assert_eq!(run.test_size(), baseline.test_size());
    for (a, b) in baseline.audit_all(&aud).iter().zip(run.audit_all(&aud)) {
        assert_reports_identical(a, &b, "shards=1");
    }
}

#[test]
fn resume_skips_every_committed_shard_and_reproduces_the_report() {
    let d = dataset();
    let aud = auditor();
    let dir = tmpdir("resume");
    let shards = 4;

    let first = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .observe(Recorder::enabled())
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    assert_eq!(
        counter(first.recorder(), "ckpt.shards_written"),
        shards as u64
    );
    assert_eq!(counter(first.recorder(), "ckpt.shards_skipped"), 0);
    let first_reports = first.audit_all(&aud);

    let second = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .resume(true)
        .observe(Recorder::enabled())
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    assert_eq!(
        counter(second.recorder(), "ckpt.shards_skipped"),
        shards as u64
    );
    assert_eq!(counter(second.recorder(), "ckpt.shards_written"), 0);
    assert_eq!(counter(second.recorder(), "ckpt.shards_recomputed"), 0);
    for (a, b) in first_reports.iter().zip(second.audit_all(&aud)) {
        assert_reports_identical(a, &b, "resume");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_torn_shard_files_are_recomputed_on_resume() {
    let d = dataset();
    let aud = auditor();
    let dir = tmpdir("corrupt");
    let shards = 4;

    let first = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    let first_reports = first.audit_all(&aud);

    // Tear one shard file in half, scribble garbage over another, and
    // nest a third deeper than any parser stack.
    let torn = dir.join("shard-1.json");
    let text = fs::read_to_string(&torn).unwrap();
    fs::write(&torn, &text[..text.len() / 2]).unwrap();
    fs::write(dir.join("shard-2.json"), "{not json").unwrap();
    let deep = format!("{}{}", "[".repeat(300_000), "]".repeat(300_000));
    fs::write(dir.join("shard-3.json"), deep).unwrap();

    let second = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .resume(true)
        .observe(Recorder::enabled())
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    assert_eq!(counter(second.recorder(), "ckpt.shards_skipped"), 1);
    assert_eq!(counter(second.recorder(), "ckpt.shards_recomputed"), 3);
    for (a, b) in first_reports.iter().zip(second.audit_all(&aud)) {
        assert_reports_identical(a, &b, "corrupt-resume");
    }
    // The recomputed shards were re-committed and are loadable again.
    assert_eq!(counter(second.recorder(), "ckpt.shards_written"), 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changed_configuration_invalidates_the_run_key() {
    let d = dataset();
    let dir = tmpdir("runkey");
    let shards = 2;

    let _ = builder(&d)
        .shards(shards)
        .checkpoint_dir(&dir)
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();

    // Same data, different matching threshold: nothing is reusable.
    let mut config = config();
    config.matching_threshold = 0.61;
    let second = builder(&d)
        .config(config)
        .shards(shards)
        .checkpoint_dir(&dir)
        .resume(true)
        .observe(Recorder::enabled())
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    assert_eq!(counter(second.recorder(), "ckpt.shards_skipped"), 0);
    assert_eq!(
        counter(second.recorder(), "ckpt.shards_recomputed"),
        shards as u64
    );
    let _ = fs::remove_dir_all(&dir);

    // Same data, same blocker name, different sorted-neighborhood
    // window: the candidate set changed, so nothing is reusable either.
    let sorted = |window| SortedNeighborhood {
        key_column: "title".into(),
        window,
    };
    let _ = builder(&d)
        .blocker(sorted(3))
        .shards(shards)
        .checkpoint_dir(&dir)
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    let resumed = builder(&d)
        .blocker(sorted(6))
        .shards(shards)
        .checkpoint_dir(&dir)
        .resume(true)
        .observe(Recorder::enabled())
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    assert_eq!(counter(resumed.recorder(), "ckpt.shards_skipped"), 0);
    let aud = auditor();
    let unsharded = builder(&d)
        .blocker(sorted(6))
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap()
        .audit_all(&aud);
    let reports = resumed.audit_all(&aud);
    assert_eq!(reports.len(), unsharded.len());
    for (a, b) in unsharded.iter().zip(&reports) {
        assert_reports_identical(a, b, "window 3 -> 6 resume");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_matcher_degrades_both_back_halves_the_same_way() {
    // A matcher killed at score time, and one stalled past its budget,
    // must leave the materialized and the sharded run with the same
    // casualties, the same survivors and bit-identical audits; a
    // degraded shard is never committed.
    let d = dataset();
    let aud = auditor();
    let kill = FaultPlan::default().kill(MatcherKind::DtMatcher, FaultSite::Score);
    let stall = FaultPlan::default().stall(MatcherKind::DtMatcher, FaultSite::Score, 60_000);
    for (tag, plan, budget) in [
        ("kill", kill, Budget::UNLIMITED),
        ("stall", stall, Budget::wall_ms(200)),
    ] {
        let mut config = config();
        config.fault = plan;
        config.matcher_budget = budget;
        let session = builder(&d)
            .config(config.clone())
            .build()
            .unwrap()
            .try_run(&FLEET)
            .unwrap();
        let dir = tmpdir(&format!("degraded-{tag}"));
        let run = builder(&d)
            .config(config)
            .shards(3)
            .checkpoint_dir(&dir)
            .observe(Recorder::enabled())
            .build()
            .unwrap()
            .try_run_sharded(&FLEET)
            .unwrap();

        // Matcher, stage, and panic vs cut (with its cause); the
        // interrupt's elapsed time and steps differ run to run.
        let casualties = |failures: &[fairem_core::MatcherFailure]| {
            failures
                .iter()
                .map(|f| (f.matcher.clone(), f.stage, f.interrupt().map(|i| i.cause)))
                .collect::<Vec<_>>()
        };
        assert_eq!(casualties(session.failures()).len(), 1, "{tag}");
        assert_eq!(
            casualties(session.failures()),
            casualties(run.failures()),
            "{tag}"
        );
        assert_eq!(session.matcher_names(), run.matcher_names(), "{tag}");
        assert_eq!(session.coverage(), run.coverage(), "{tag}");
        assert_eq!(session.clamped_scores(), run.clamped_scores(), "{tag}");
        let reports = run.audit_all(&aud);
        let baseline = session.audit_all(&aud);
        assert_eq!(reports.len(), baseline.len(), "{tag}");
        for (a, b) in baseline.iter().zip(&reports) {
            assert_reports_identical(a, b, tag);
        }
        assert_eq!(counter(run.recorder(), "ckpt.shards_written"), 0, "{tag}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn memory_budget_fences_the_materialized_path_but_not_the_sharded_one() {
    let d = dataset();

    // Measure the materialized path's tracked peak.
    let unlimited = builder(&d)
        .observe(Recorder::enabled())
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap();
    let peak = gauge(unlimited.recorder(), "mem.peak_bytes").unwrap() as u64;
    assert!(peak > 0, "cost model must account something");

    // One byte under that peak: the materialized path must refuse...
    let budget = MemBudget::bytes(peak - 1);
    let err = builder(&d)
        .mem_budget(budget)
        .build()
        .unwrap()
        .try_run(&FLEET)
        .unwrap_err();
    assert!(
        matches!(err, SuiteError::MemExceeded { .. }),
        "expected MemExceeded, got {err:?}"
    );

    // ...while the sharded path narrows its windows and completes,
    // staying under the budget, with an identical report.
    let aud = auditor();
    let sharded = builder(&d)
        .shards(3)
        .mem_budget(budget)
        .observe(Recorder::enabled())
        .build()
        .unwrap()
        .try_run_sharded(&FLEET)
        .unwrap();
    let sharded_peak = gauge(sharded.recorder(), "mem.peak_bytes").unwrap() as u64;
    assert!(
        sharded_peak < peak,
        "sharded peak {sharded_peak} must stay under the {peak}-byte fence"
    );
    for (a, b) in unlimited
        .audit_all(&aud)
        .iter()
        .zip(sharded.audit_all(&aud))
    {
        assert_reports_identical(a, &b, "budgeted-sharded");
    }
}

#[test]
fn shard_boundary_accounting_balances_per_shard_and_after_merge() {
    // Satellite: kept + quarantined rows equal the input on both
    // tables, per-shard histogram totals equal the shard widths, and
    // the merged totals equal the test size — under every policy.
    let d = dataset();
    let dir = tmpdir("accounting");
    let shards = 4;
    for policy in POLICIES {
        let run = builder(&d)
            .parallelism(policy)
            .shards(shards)
            .checkpoint_dir(&dir)
            .build()
            .unwrap()
            .try_run_sharded(&FLEET)
            .unwrap();

        let kept_a = run.quarantine().from_table("tableA");
        let kept_b = run.quarantine().from_table("tableB");
        assert_eq!(
            run.quarantine().len(),
            kept_a + kept_b,
            "quarantine is exactly the two tables' rejects"
        );

        // Per-shard totals from the committed checkpoint files.
        let plan = fairem_core::ShardPlan::partition(run.test_size(), shards);
        let store =
            fairem_core::CheckpointStore::open(&dir, read_run_key(&dir), shards, true).unwrap();
        let mut summed = 0u64;
        for shard in plan.shards() {
            let rec = store.load_shard(shard.index).unwrap();
            for (name, counts) in &rec.matchers {
                assert_eq!(
                    counts.total(),
                    shard.len() as u64,
                    "{policy:?}: shard {} histogram for {name} must cover its window exactly",
                    shard.index
                );
            }
            summed += rec.matchers[0].1.total();
        }
        assert_eq!(summed, run.test_size() as u64, "{policy:?}: merge balance");
        for name in run.matcher_names() {
            let merged = run.counts(name).unwrap();
            assert_eq!(merged.total(), run.test_size() as u64, "{policy:?}: {name}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Pull the committed run key back out of the manifest, so the test can
/// reopen the store the way a resuming process would.
fn read_run_key(dir: &std::path::Path) -> u64 {
    let text = fs::read_to_string(dir.join("manifest.json")).unwrap();
    let v = fairem_csvio::Json::parse(&text).unwrap();
    v.get("run_key").unwrap().as_str().unwrap().parse().unwrap()
}
