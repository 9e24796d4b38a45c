//! Determinism across parallelism policies: the worker pool must be an
//! invisible optimization. Every session artifact — workload scores,
//! audit reports, Pareto frontiers — must be bit-for-bit identical
//! whether the suite runs sequentially (`Off`), on one worker
//! (`Fixed(1)`), or fanned out (`Fixed(4)`).

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::fairness::{Disparity, FairnessMeasure};
use fairem360::core::matcher::MatcherKind;
use fairem360::core::pipeline::{FairEm360, Session, SuiteConfig};
use fairem360::core::sensitive::SensitiveAttr;
use fairem360::datasets::{faculty_match, FacultyConfig};
use fairem360::prelude::{Parallelism, Recorder};

const KINDS: [MatcherKind; 3] = [
    MatcherKind::DtMatcher,
    MatcherKind::LinRegMatcher,
    MatcherKind::NbMatcher,
];

fn session_observed(parallelism: Parallelism, observe: Recorder) -> Session {
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

fn session(parallelism: Parallelism) -> Session {
    session_observed(parallelism, Recorder::disabled())
}

fn auditor() -> Auditor {
    Auditor::new(AuditConfig {
        min_support: 5,
        ..AuditConfig::default()
    })
}

#[test]
fn workloads_are_bitwise_identical_across_policies() {
    let baseline = session(Parallelism::Off);
    for policy in [Parallelism::Fixed(1), Parallelism::Fixed(4)] {
        let other = session(policy);
        assert_eq!(baseline.matcher_names(), other.matcher_names());
        for name in baseline.matcher_names() {
            let wb = baseline.workload(name).expect("matcher trained");
            let wo = other.workload(name).expect("matcher trained");
            assert_eq!(wb.len(), wo.len());
            for (x, y) in wb.items.iter().zip(&wo.items) {
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "{name} diverged under {policy}"
                );
                assert_eq!(x.truth, y.truth);
                assert_eq!((x.a_row, x.b_row), (y.a_row, y.b_row));
            }
        }
    }
}

#[test]
fn audit_reports_are_identical_across_policies() {
    let auditor = auditor();
    let baseline = session(Parallelism::Off);
    let parallel = session(Parallelism::Fixed(4));
    let ra = baseline.audit_all(&auditor);
    let rb = parallel.audit_all(&auditor);
    assert_eq!(ra.len(), rb.len());
    for (a, b) in ra.iter().zip(&rb) {
        assert_eq!(a.matcher, b.matcher, "audit_all order must be stable");
        assert_eq!(a.entries.len(), b.entries.len());
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.group, eb.group);
            assert_eq!(ea.measure, eb.measure);
            assert_eq!(ea.disparity.to_bits(), eb.disparity.to_bits());
            assert_eq!(ea.unfair, eb.unfair);
        }
    }
}

/// A live recorder is a pure observer: under every parallelism policy,
/// an instrumented session's workloads and audits are bit-for-bit what
/// the uninstrumented (default, disabled-recorder) session produces.
#[test]
fn observability_does_not_change_results_under_any_policy() {
    let auditor = auditor();
    for policy in [
        Parallelism::Off,
        Parallelism::Fixed(1),
        Parallelism::Fixed(4),
    ] {
        let plain = session(policy);
        let observe = Recorder::enabled();
        let observed = session_observed(policy, observe.clone());
        assert_eq!(plain.matcher_names(), observed.matcher_names());
        for name in plain.matcher_names() {
            let wp = plain.workload(name).expect("matcher trained");
            let wo = observed.workload(name).expect("matcher trained");
            assert_eq!(wp.len(), wo.len());
            for (x, y) in wp.items.iter().zip(&wo.items) {
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "{name} diverged under observation ({policy})"
                );
            }
        }
        let ra = plain.audit_all(&auditor);
        let rb = observed.audit_all(&auditor);
        assert_eq!(ra.len(), rb.len());
        for (a, b) in ra.iter().zip(&rb) {
            assert_eq!(a.matcher, b.matcher);
            for (ea, eb) in a.entries.iter().zip(&b.entries) {
                assert_eq!(ea.disparity.to_bits(), eb.disparity.to_bits());
                assert_eq!(ea.unfair, eb.unfair);
            }
        }
        // The observer really observed: spans for every pipeline stage,
        // while the plain session's inert recorder kept nothing.
        let snapshot = observe.snapshot();
        for stage in [
            "import", "prep", "blocking", "features", "train", "score", "audit",
        ] {
            assert!(
                snapshot.spans.iter().any(|s| s.name == stage),
                "missing {stage} span under {policy}"
            );
        }
        assert!(plain.recorder().snapshot().spans.is_empty());
    }
}

/// Per-group calibration fans its fits out over the worker pool, so the
/// calibrated scores (and the downstream distribution audit) must be as
/// policy-invariant as the raw ones — for both calibrator families.
#[test]
fn calibrated_workloads_are_bitwise_identical_across_policies() {
    use fairem360::prelude::CalibrationSpec;

    let baseline = session(Parallelism::Off);
    let groups = baseline.space.level1_of_attr(0);
    for policy in [Parallelism::Fixed(1), Parallelism::Fixed(4)] {
        let other = session(policy);
        for spec in [
            CalibrationSpec::platt(),
            CalibrationSpec::isotonic(),
            CalibrationSpec::isotonic().with_min_support(3),
        ] {
            for name in baseline.matcher_names() {
                let wb = baseline
                    .calibrated_workload_with(name, spec, &groups)
                    .expect("calibrator fits");
                let wo = other
                    .calibrated_workload_with(name, spec, &groups)
                    .expect("calibrator fits");
                assert_eq!(wb.len(), wo.len());
                for (x, y) in wb.items.iter().zip(&wo.items) {
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "{name} calibrated under {spec:?} diverged under {policy}"
                    );
                }
            }
        }
    }
}

#[test]
fn pareto_frontiers_are_identical_across_policies() {
    let baseline = session(Parallelism::Off);
    let parallel = session(Parallelism::Fixed(4));
    for s in [&baseline, &parallel] {
        assert_eq!(s.coverage(), (3, 3));
    }
    let fa = baseline
        .ensemble(
            0,
            FairnessMeasure::TruePositiveRateParity,
            Disparity::Subtraction,
        )
        .pareto_frontier();
    let fb = parallel
        .ensemble(
            0,
            FairnessMeasure::TruePositiveRateParity,
            Disparity::Subtraction,
        )
        .pareto_frontier();
    assert_eq!(fa.len(), fb.len());
    for (a, b) in fa.iter().zip(&fb) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.unfairness.to_bits(), b.unfairness.to_bits());
        assert_eq!(a.performance.to_bits(), b.performance.to_bits());
    }
}
