//! Acceptance: the paper's Fig. 4 story, end to end through the public
//! facade.
//!
//! A miscalibrated fleet can look fair at one matching threshold and
//! unfair at another — the single-threshold verdict *flips* as the
//! operating point moves. The threshold-independent distribution audit
//! (KS / 1-Wasserstein per group vs the overall score distribution)
//! does not move with the threshold at all, and per-group calibration
//! strictly shrinks it — under every parallelism policy, bit for bit.

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::calibrate::{apply_calibrator, distribution_audit};
use fairem360::core::fairness::{Disparity, FairnessMeasure, Paradigm};
use fairem360::core::schema::Table;
use fairem360::core::sensitive::{GroupId, GroupSpace, GroupVector, SensitiveAttr};
use fairem360::core::threshold::default_grid;
use fairem360::core::workload::{Correspondence, Workload};
use fairem360::csvio::parse_csv_str;
use fairem360::par::{CancelToken, Parallelism, WorkerPool};
use fairem360::prelude::{CalibrationSpec, GroupCalibrator};

fn space() -> GroupSpace {
    let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").expect("valid csv"))
        .expect("schema-valid table");
    GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")])
}

fn c(score: f64, truth: bool, bits: u64) -> Correspondence {
    Correspondence {
        a_row: 0,
        b_row: 0,
        score,
        truth,
        left: GroupVector(bits),
        right: GroupVector(bits),
    }
}

/// The Fig. 4 fixture: both groups rank their pairs perfectly, but the
/// cn scores are compressed into [0.25, 0.45] while the us scores are
/// spread over [0.1, 0.9]. Where the threshold lands relative to the cn
/// band decides the verdict.
fn miscalibrated(threshold: f64) -> Workload {
    let mut items = Vec::new();
    for i in 0..40 {
        let frac = i as f64 / 40.0;
        items.push(c(0.25 + 0.20 * frac, frac > 0.5, 0b01));
        items.push(c(0.1 + 0.8 * frac, frac > 0.5, 0b10));
    }
    Workload::new(items, threshold)
}

fn tpr_auditor() -> Auditor {
    Auditor::new(AuditConfig {
        paradigm: Paradigm::Single,
        measures: vec![FairnessMeasure::TruePositiveRateParity],
        disparity: Disparity::Subtraction,
        fairness_threshold: 0.2,
        min_support: 10,
        only_unfair: false,
        pairwise_attr: 0,
    })
}

fn any_unfair(auditor: &Auditor, w: &Workload, sp: &GroupSpace) -> bool {
    auditor
        .audit("fixture", w, sp)
        .entries
        .iter()
        .any(|e| e.unfair)
}

#[test]
fn single_threshold_verdict_flips_but_the_distribution_audit_does_not() {
    let sp = space();
    let groups: Vec<GroupId> = sp.ids().collect();
    let auditor = tpr_auditor();

    // The flip: at 0.3 every positive clears the bar in both groups
    // (fair); at 0.5 the compressed cn band strands its positives below
    // the threshold while us sails over (unfair).
    assert!(
        !any_unfair(&auditor, &miscalibrated(0.3), &sp),
        "at threshold 0.3 both groups have TPR 1 — the verdict must be fair"
    );
    assert!(
        any_unfair(&auditor, &miscalibrated(0.5), &sp),
        "at threshold 0.5 the cn positives are stranded — the verdict must flip"
    );

    // The distribution audit reads score CDFs, not the operating point:
    // the same workload audited at both thresholds is bit-for-bit equal.
    let measures = [FairnessMeasure::TruePositiveRateParity];
    let grid = default_grid();
    let at = |t: f64| {
        distribution_audit(
            &miscalibrated(t),
            &sp,
            &groups,
            &measures,
            Disparity::Subtraction,
            &grid,
        )
    };
    let (a, b) = (at(0.3), at(0.5));
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        assert_eq!(ea.ks.to_bits(), eb.ks.to_bits());
        assert_eq!(ea.wasserstein.to_bits(), eb.wasserstein.to_bits());
    }
    for (fa, fb) in a.areas.iter().zip(&b.areas) {
        assert_eq!(fa.area.to_bits(), fb.area.to_bits());
    }
    // And it flags the miscalibration regardless of where either
    // single-threshold audit happened to land.
    assert!(a.max_ks() > 0.25, "{}", a.max_ks());
}

#[test]
fn per_group_calibration_strictly_improves_and_is_policy_invariant() {
    let sp = space();
    let groups: Vec<GroupId> = sp.ids().collect();
    let w = miscalibrated(0.5);
    let measures = [FairnessMeasure::TruePositiveRateParity];
    let grid = default_grid();
    let before = distribution_audit(&w, &sp, &groups, &measures, Disparity::Subtraction, &grid);

    // One calibrated-score vector (and audit) per parallelism policy.
    let mut calibrated_bits: Vec<Vec<u64>> = Vec::new();
    let mut audits = Vec::new();
    for policy in [
        Parallelism::Off,
        Parallelism::Fixed(1),
        Parallelism::Fixed(4),
    ] {
        let pool = WorkerPool::with_parallelism(policy);
        let cal = GroupCalibrator::try_fit(
            CalibrationSpec::isotonic(),
            &w,
            &groups,
            &pool,
            &CancelToken::inert(),
        )
        .expect("inert token cannot interrupt");
        let cw = apply_calibrator(&cal, &w, &groups);
        calibrated_bits.push(cw.items.iter().map(|x| x.score.to_bits()).collect());
        audits.push(distribution_audit(
            &cw,
            &sp,
            &groups,
            &measures,
            Disparity::Subtraction,
            &grid,
        ));
    }

    // Bit-for-bit identical under every policy.
    for other in &calibrated_bits[1..] {
        assert_eq!(
            &calibrated_bits[0], other,
            "calibration diverged across policies"
        );
    }
    for other in &audits[1..] {
        assert_eq!(audits[0].max_ks().to_bits(), other.max_ks().to_bits());
        assert_eq!(
            audits[0].max_wasserstein().to_bits(),
            other.max_wasserstein().to_bits()
        );
        assert_eq!(audits[0].max_area().to_bits(), other.max_area().to_bits());
    }

    // Strict improvement on every threshold-free summary.
    let after = &audits[0];
    assert!(
        after.max_ks() < before.max_ks(),
        "{} vs {}",
        after.max_ks(),
        before.max_ks()
    );
    assert!(after.max_wasserstein() < before.max_wasserstein());
    assert!(after.max_area() < before.max_area());

    // The calibrated workload no longer flips: the 0.5 verdict that was
    // unfair on raw scores is fair after per-group calibration.
    let auditor = tpr_auditor();
    assert!(
        any_unfair(&auditor, &w, &sp),
        "raw fixture is unfair at 0.5"
    );
    let pool = WorkerPool::with_parallelism(Parallelism::Off);
    let cal = GroupCalibrator::try_fit(
        CalibrationSpec::isotonic(),
        &w,
        &groups,
        &pool,
        &CancelToken::inert(),
    )
    .expect("inert token cannot interrupt");
    let cw = apply_calibrator(&cal, &w, &groups);
    assert!(
        !any_unfair(&auditor, &cw, &sp),
        "calibrated scores must be fair at the same threshold"
    );
}
