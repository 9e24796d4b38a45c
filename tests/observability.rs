//! End-to-end observability coverage: one instrumented session must
//! leave a snapshot that names every pipeline stage, stitches fan-out
//! children under their stage spans, and serializes to JSON the
//! workspace's own parser accepts — the same contract `fairem audit
//! --metrics/--trace` exposes on the command line.

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::fairness::{Disparity, FairnessMeasure};
use fairem360::core::matcher::MatcherKind;
use fairem360::core::pipeline::{FairEm360, Session, SuiteConfig};
use fairem360::core::sensitive::SensitiveAttr;
use fairem360::csvio::Json;
use fairem360::datasets::{faculty_match, FacultyConfig};
use fairem360::obs::SpanStatus;
use fairem360::prelude::{Parallelism, Recorder, Snapshot};

const KINDS: [MatcherKind; 3] = [
    MatcherKind::DtMatcher,
    MatcherKind::LinRegMatcher,
    MatcherKind::NbMatcher,
];

/// All root-stage span names the pipeline is expected to emit, in
/// pipeline order.
const STAGES: [&str; 8] = [
    "import", "prep", "blocking", "features", "train", "score", "audit", "ensemble",
];

fn observed_session(parallelism: Parallelism, observe: Recorder) -> Session {
    let data = faculty_match(&FacultyConfig::small());
    FairEm360::builder()
        .tables(data.table_a, data.table_b)
        .ground_truth(data.matches)
        .sensitive([SensitiveAttr::categorical("country")])
        .config(SuiteConfig::fast())
        .parallelism(parallelism)
        .observe(observe)
        .build()
        .expect("generated dataset is schema-valid")
        .try_run(&KINDS)
        .expect("matchers train")
}

/// Run the full pipeline (import → train → score → audit → ensemble)
/// under a live recorder and return the frozen snapshot.
fn full_snapshot(parallelism: Parallelism) -> Snapshot {
    let observe = Recorder::enabled();
    let session = observed_session(parallelism, observe.clone());
    let auditor = Auditor::new(AuditConfig {
        min_support: 5,
        ..AuditConfig::default()
    });
    session.audit_all(&auditor);
    session
        .ensemble(0, FairnessMeasure::AccuracyParity, Disparity::Subtraction)
        .pareto_frontier();
    observe.snapshot()
}

#[test]
fn snapshot_covers_every_stage_and_every_matcher() {
    let snapshot = full_snapshot(Parallelism::Fixed(2));
    for stage in STAGES {
        let total = snapshot.span_total(stage);
        assert!(
            snapshot
                .spans
                .iter()
                .any(|s| s.name == stage && s.parent.is_none()),
            "no root {stage} span"
        );
        assert!(total >= 0.0, "{stage} total must be a real duration");
    }
    // Per-matcher children exist for train, score, and audit.
    for kind in KINDS {
        for prefix in ["train", "score", "audit"] {
            let child = format!("{prefix}.{}", kind.name());
            assert!(
                snapshot.spans.iter().any(|s| s.name == child),
                "missing {child} span"
            );
        }
    }
    // stage_totals lists stages in first-seen order, starting at import.
    let totals = snapshot.stage_totals();
    let names: Vec<&str> = totals.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names.first(), Some(&"import"));
    for stage in STAGES {
        assert!(names.contains(&stage), "stage_totals missing {stage}");
    }
}

#[test]
fn children_stitch_under_their_stage_and_end_ok() {
    let snapshot = full_snapshot(Parallelism::Fixed(4));
    for prefix in ["train", "score", "audit"] {
        let roots: Vec<_> = snapshot
            .spans
            .iter()
            .filter(|s| s.name == prefix && s.parent.is_none())
            .collect();
        assert_eq!(roots.len(), 1, "exactly one {prefix} stage span");
        let root = roots[0];
        let children: Vec<_> = snapshot
            .spans
            .iter()
            .filter(|s| s.name.starts_with(&format!("{prefix}.")))
            .collect();
        assert_eq!(children.len(), KINDS.len(), "{prefix} fan-out width");
        for c in children {
            assert_eq!(c.parent, Some(root.id), "{} not under {prefix}", c.name);
            assert_eq!(c.status, SpanStatus::Ok, "{} did not finish clean", c.name);
        }
    }
    // Train spans carry the checkpoint-granularity note.
    let note = snapshot
        .spans
        .iter()
        .find(|s| s.name == "train.DTMatcher")
        .and_then(|s| s.note.as_deref())
        .expect("train child keeps its note");
    assert!(note.contains("checkpoints"), "unexpected note {note:?}");
}

#[test]
fn counters_and_gauges_record_pipeline_volume() {
    let snapshot = full_snapshot(Parallelism::Fixed(4));
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let gauge = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert!(counter("import.rows").is_some_and(|v| v > 0));
    assert_eq!(counter("import.quarantined"), Some(0));
    for split in ["pairs.train", "pairs.valid", "pairs.test"] {
        assert!(gauge(split).is_some_and(|v| v >= 0.0), "missing {split}");
    }
    assert!(gauge("ensemble.assignments").is_some_and(|v| v >= 1.0));
    // The pool reported its fan-out work.
    assert!(counter("par.regions").is_some_and(|v| v > 0));
    assert!(counter("par.chunks").is_some_and(|v| v > 0));
    assert!(
        snapshot
            .histograms
            .iter()
            .any(|(n, h)| n == "par.chunk_secs" && h.count > 0),
        "chunk timing histogram missing"
    );
}

#[test]
fn snapshot_json_parses_with_the_workspace_parser() {
    let snapshot = full_snapshot(Parallelism::Off);
    let doc = Json::parse(&snapshot.to_json()).expect("snapshot JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("fairem-obs/1")
    );
    let Some(Json::Arr(spans)) = doc.get("spans") else {
        panic!("spans array missing from snapshot JSON");
    };
    assert_eq!(spans.len(), snapshot.spans.len());
    for stage in STAGES {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(stage)),
            "serialized snapshot missing {stage}"
        );
    }
    // The rendered trace tree mentions every stage too.
    let tree = snapshot.render_spans();
    for stage in STAGES {
        assert!(tree.contains(stage), "trace tree missing {stage}");
    }
}

#[test]
fn sequential_and_parallel_snapshots_cover_identical_stages() {
    let a = full_snapshot(Parallelism::Off);
    let b = full_snapshot(Parallelism::Fixed(4));
    let names = |s: &Snapshot| {
        let mut v: Vec<String> = s.spans.iter().map(|r| r.name.clone()).collect();
        v.sort();
        v.dedup();
        v
    };
    assert_eq!(
        names(&a),
        names(&b),
        "stage coverage must not depend on the pool"
    );
}
