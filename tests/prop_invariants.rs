//! Property-based invariants spanning the logic layer: confusion-matrix
//! identities, disparity bounds, counting-rule consistency, threshold
//! monotonicity. Runs on the in-workspace `fairem_rng::check` harness.

use fairem360::core::audit::{AuditConfig, Auditor};
use fairem360::core::confusion::ConfusionMatrix;
use fairem360::core::fairness::{Disparity, FairnessMeasure, Paradigm};
use fairem360::core::schema::Table;
use fairem360::core::sensitive::{GroupId, GroupSpace, GroupVector, SensitiveAttr};
use fairem360::core::workload::{Correspondence, Workload};
use fairem360::csvio::parse_csv_str;
use fairem_rng::check::{cases, Gen};

const N_GROUPS: u32 = 4;

fn gen_correspondence(g: &mut Gen) -> Correspondence {
    Correspondence {
        a_row: 0,
        b_row: 0,
        score: g.unit_f64(),
        truth: g.bool(0.5),
        left: GroupVector(g.usize_in(1, 1 << N_GROUPS) as u64),
        right: GroupVector(g.usize_in(1, 1 << N_GROUPS) as u64),
    }
}

fn gen_workload(g: &mut Gen) -> Workload {
    let items = g.vec_len(1, 120, gen_correspondence);
    Workload::new(items, g.unit_f64())
}

#[test]
fn overall_confusion_totals_match_workload() {
    cases(64, 0xA11CE, |g| {
        let w = gen_workload(g);
        let cm = w.overall_confusion();
        assert!((cm.total() - w.len() as f64).abs() < 1e-9);
        // Complementary rate identities hold whenever defined.
        if cm.tpr().is_finite() {
            assert!((cm.tpr() + cm.fnr() - 1.0).abs() < 1e-9);
        }
        if cm.fpr().is_finite() {
            assert!((cm.fpr() + cm.tnr() - 1.0).abs() < 1e-9);
        }
        if cm.ppv().is_finite() {
            assert!((cm.ppv() + cm.fdr() - 1.0).abs() < 1e-9);
        }
    });
}

#[test]
fn both_sides_counting_totals_are_membership_sums() {
    cases(64, 0xB0B, |g| {
        let w = gen_workload(g);
        // Sum of group-confusion totals over all groups equals the sum of
        // per-correspondence membership counts (left + right).
        let group_total: f64 = (0..N_GROUPS)
            .map(|grp| w.group_confusion(GroupId(grp)).total())
            .sum();
        let membership: usize = w
            .items
            .iter()
            .map(|c| c.left.count() + c.right.count())
            .sum();
        assert!((group_total - membership as f64).abs() < 1e-9);
    });
}

#[test]
fn pairwise_symmetry() {
    cases(64, 0xC0FFEE, |g| {
        let w = gen_workload(g);
        let g1 = g.usize_in(0, N_GROUPS as usize) as u32;
        let g2 = g.usize_in(0, N_GROUPS as usize) as u32;
        let a = w.pairwise_confusion(GroupId(g1), GroupId(g2));
        let b = w.pairwise_confusion(GroupId(g2), GroupId(g1));
        assert_eq!(a, b);
    });
}

#[test]
fn measure_values_are_rates() {
    cases(64, 0xD00D, |g| {
        let w = gen_workload(g);
        let cm = w.overall_confusion();
        for m in FairnessMeasure::ALL {
            let v = m.value(&cm);
            if v.is_finite() {
                assert!((0.0..=1.0).contains(&v), "{m} = {v}");
            }
        }
    });
}

#[test]
fn disparity_bounded_for_rate_measures() {
    cases(128, 0xE1F, |g| {
        let overall = g.unit_f64();
        let group = g.unit_f64();
        let higher = g.bool(0.5);
        for d in [Disparity::Subtraction, Disparity::Division] {
            let v = d.compute(overall, group, higher);
            assert!(v.is_nan() || (0.0..=1.0).contains(&v), "{v}");
        }
        // Equal values are always fair.
        assert_eq!(Disparity::Subtraction.compute(group, group, higher), 0.0);
        assert_eq!(Disparity::Division.compute(group, group, higher), 0.0);
    });
}

#[test]
fn disparity_never_finite_poisoned_by_nonfinite_inputs() {
    // NaN or ±inf on either side must collapse to NaN ("insufficient
    // support"), never to a spurious finite disparity or ±inf.
    cases(64, 0xFAB, |g| {
        let bad = *g.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let good = g.unit_f64();
        let higher = g.bool(0.5);
        for d in [Disparity::Subtraction, Disparity::Division] {
            assert!(d.compute(bad, good, higher).is_nan());
            assert!(d.compute(good, bad, higher).is_nan());
            assert!(d.compute(bad, bad, higher).is_nan());
        }
    });
}

#[test]
fn threshold_monotonicity() {
    cases(64, 0x7E57, |g| {
        let w = gen_workload(g);
        let (t1, t2) = (g.unit_f64(), g.unit_f64());
        // Raising the threshold can only move predictions from positive
        // to negative: predicted positives are monotone non-increasing.
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let pos_lo = w.with_threshold(lo).overall_confusion().positive_rate();
        let pos_hi = w.with_threshold(hi).overall_confusion().positive_rate();
        assert!(pos_hi <= pos_lo + 1e-9);
    });
}

#[test]
fn resample_preserves_length_and_threshold() {
    cases(64, 0x5EED, |g| {
        let w = gen_workload(g);
        let r = w.resample(g.u64());
        assert_eq!(r.len(), w.len());
        assert_eq!(r.threshold, w.threshold);
    });
}

#[test]
fn group_support_bounds_group_confusion() {
    cases(64, 0x9A9A, |g| {
        let w = gen_workload(g);
        let grp = GroupId(g.usize_in(0, N_GROUPS as usize) as u32);
        let support = w.group_support(grp) as f64;
        let total = w.group_confusion(grp).total();
        // Both-sides counting: between support and 2×support.
        assert!(total >= support - 1e-9);
        assert!(total <= 2.0 * support + 1e-9);
    });
}

#[test]
fn confusion_matrix_accumulation_is_linear() {
    cases(32, 0x11EA, |g| {
        let entries = g.vec(50, |g| (g.bool(0.5), g.bool(0.5), g.f64_in(1.0, 3.0)));
        let mut cm = ConfusionMatrix::default();
        let mut expected_total = 0.0;
        for (p, t, wgt) in &entries {
            cm.record(*p, *t, *wgt);
            expected_total += wgt;
        }
        assert!((cm.total() - expected_total).abs() < 1e-9);
    });
}

/// The space `gen_correspondence` draws from: one attribute whose four
/// level-1 groups `g0`..`g3` are ids 0..3, the bits of its group vectors.
fn four_groups() -> GroupSpace {
    let csv = parse_csv_str("id,g\na0,g0\na1,g1\na2,g2\na3,g3\n").expect("valid CSV");
    let table = Table::from_csv(csv).expect("valid table");
    GroupSpace::extract(&[&table], vec![SensitiveAttr::categorical("g")])
}

#[test]
fn duplicating_every_correspondence_doubles_support_and_keeps_every_verdict() {
    let space = four_groups();
    cases(64, 0xD0B1E, |g| {
        let w = gen_workload(g);
        let k = g.usize_in(0, 40);
        let fairness_threshold = g.unit_f64();
        let doubled = Workload::new(
            w.items.iter().chain(&w.items).cloned().collect(),
            w.threshold,
        );
        for paradigm in [Paradigm::Single, Paradigm::Pairwise] {
            for disparity in [Disparity::Subtraction, Disparity::Division] {
                let audit = |w: &Workload, min_support| {
                    Auditor::new(AuditConfig {
                        paradigm,
                        measures: FairnessMeasure::ALL.to_vec(),
                        disparity,
                        fairness_threshold,
                        min_support,
                        only_unfair: false,
                        pairwise_attr: 0,
                    })
                    .audit("M", w, &space)
                    .entries
                };
                let once = audit(&w, k);
                let twice = audit(&doubled, 2 * k);
                assert_eq!(once.len(), twice.len());
                for (a, b) in once.iter().zip(&twice) {
                    let cell = format!("{paradigm} {disparity:?} {} {}", a.measure, a.group);
                    assert_eq!((a.measure, &a.group), (b.measure, &b.group), "{cell}");
                    assert_eq!(a.group_value.to_bits(), b.group_value.to_bits(), "{cell}");
                    assert_eq!(
                        a.overall_value.to_bits(),
                        b.overall_value.to_bits(),
                        "{cell}"
                    );
                    assert_eq!(a.disparity.to_bits(), b.disparity.to_bits(), "{cell}");
                    assert_eq!(a.unfair, b.unfair, "{cell}");
                    assert_eq!(b.support, 2 * a.support, "{cell}");
                }
            }
        }
    });
}

// --- Quarantine invariants (lenient import hygiene) ---------------------

/// Random CSV table with an `id` column whose values collide and blank
/// out often enough to exercise every quarantine path.
fn gen_csv_table(g: &mut fairem_rng::check::Gen) -> fairem360::csvio::CsvTable {
    let n = g.usize_in(0, 40);
    let rows = (0..n)
        .map(|_| {
            let id = if g.bool(0.15) {
                String::new()
            } else {
                // Tiny id space => frequent duplicates.
                g.string_len("ab", 1, 3)
            };
            vec![id, g.string_len("xyz", 0, 4)]
        })
        .collect();
    fairem360::csvio::CsvTable {
        header: vec!["id".into(), "v".into()],
        rows,
    }
}

#[test]
fn quarantine_partitions_the_input_exactly() {
    use fairem360::core::quarantine::RowIssue;
    use fairem360::core::schema::Table;
    cases(64, 0x05EED, |g| {
        let csv = gen_csv_table(g);
        let input = csv.rows.clone();
        let (table, q) = Table::from_csv_lenient(csv, "t").expect("id column present");
        // Partition: every input row is either kept or quarantined.
        assert_eq!(table.len() + q.len(), input.len());
        // Attribution: quarantined row numbers are distinct, 1-based, in range.
        let mut seen = std::collections::HashSet::new();
        for qr in &q.rows {
            assert!(qr.row >= 1 && qr.row <= input.len());
            assert!(seen.insert(qr.row), "row {} quarantined twice", qr.row);
            // The reason matches the data.
            let id = &input[qr.row - 1][0];
            match &qr.issue {
                RowIssue::EmptyId => assert!(id.is_empty()),
                RowIssue::DuplicateId { id: dup } => {
                    assert_eq!(dup, id);
                    let first = input.iter().position(|r| &r[0] == id).expect("dup source");
                    assert!(first < qr.row - 1, "first occurrence must be kept");
                }
                other => panic!("unexpected issue {other:?}"),
            }
        }
    });
}

#[test]
fn valid_rows_are_never_quarantined() {
    use fairem360::core::schema::Table;
    cases(64, 0xC1EAA, |g| {
        // Force unique, non-empty ids.
        let n = g.usize_in(0, 40);
        let rows: Vec<Vec<String>> = (0..n)
            .map(|i| vec![format!("id{i}"), g.string_len("xyz", 0, 4)])
            .collect();
        let csv = fairem360::csvio::CsvTable {
            header: vec!["id".into(), "v".into()],
            rows,
        };
        let (table, q) = Table::from_csv_lenient(csv, "t").expect("id column present");
        assert!(
            q.is_empty(),
            "clean input must pass untouched: {}",
            q.render()
        );
        assert_eq!(table.len(), n);
    });
}
