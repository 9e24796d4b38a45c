//! A brute-force oracle for the audit's fairness verdicts.
//!
//! The audit reads every fairness measure from a confusion matrix that
//! one counting pass builds (`Workload::group_confusions`) and turns it
//! into a disparity and a verdict. This oracle recounts every audited
//! cell from the per-pair rows instead, with each measure written out
//! as the conditional probability `Pr(α | β)` that "Through the
//! Fairness Lens" defines it by, and checks the audit's `group_value`,
//! `overall_value`, `disparity` (NaN included), `support` and `unfair`
//! bit for bit, for all ten measures, single and pairwise, under
//! subtraction and division.
//!
//! The rows are weighted as the paper counts them. Single paradigm: a
//! pair counts once for each side that belongs to the group (an
//! intra-group pair twice), and it is support for the group when
//! either side belongs. Pairwise: a pair counts once for `(g1, g2)`
//! when one side is in `g1` and the other in `g2`, in either order.
//! Every sum is of small integer weights, so it is exact in any order.

use fairem_core::audit::{AuditConfig, AuditEntry, Auditor};
use fairem_core::fairness::{Disparity, FairnessMeasure, Paradigm};
use fairem_core::schema::Table;
use fairem_core::sensitive::{GroupId, GroupSpace, GroupVector, SensitiveAttr};
use fairem_core::workload::{Correspondence, Workload};
use fairem_csvio::parse_csv_str;
use fairem_rng::check::{cases, Gen};

/// One pair as the oracle sees it: the prediction `h`, the truth `y`
/// and the pair's weight for the group (or pair of groups) at hand.
struct Row {
    h: bool,
    y: bool,
    weight: f64,
}

/// The event a measure conditions on or counts: a predicate on `(h, y)`.
type Event = fn(bool, bool) -> bool;

/// Each measure as `Pr(α | β)` over the prediction `h` and the truth
/// `y`, with whether a higher value is better for the group.
fn definition(m: FairnessMeasure) -> (Event, Event, bool) {
    match m {
        // Pr(h = y)
        FairnessMeasure::AccuracyParity => (|h, y| h == y, |_, _| true, true),
        // Pr(h = 1)
        FairnessMeasure::StatisticalParity => (|h, _| h, |_, _| true, true),
        // Pr(h = 1 | y = 1)
        FairnessMeasure::TruePositiveRateParity => (|h, _| h, |_, y| y, true),
        // Pr(h = 1 | y = 0)
        FairnessMeasure::FalsePositiveRateParity => (|h, _| h, |_, y| !y, false),
        // Pr(h = 0 | y = 0)
        FairnessMeasure::TrueNegativeRateParity => (|h, _| !h, |_, y| !y, true),
        // Pr(h = 0 | y = 1)
        FairnessMeasure::FalseNegativeRateParity => (|h, _| !h, |_, y| y, false),
        // Pr(y = 1 | h = 1)
        FairnessMeasure::PositivePredictiveValueParity => (|_, y| y, |h, _| h, true),
        // Pr(y = 0 | h = 0)
        FairnessMeasure::NegativePredictiveValueParity => (|_, y| !y, |h, _| !h, true),
        // Pr(y = 0 | h = 1)
        FairnessMeasure::FalseDiscoveryRateParity => (|_, y| !y, |h, _| h, false),
        // Pr(y = 1 | h = 0)
        FairnessMeasure::FalseOmissionRateParity => (|_, y| y, |h, _| !h, false),
    }
}

/// `Pr(α | β)` over weighted rows; NaN when no row satisfies `β`.
/// Counts start from `+0.0`, as a count of nothing is.
fn conditional(rows: &[Row], alpha: Event, beta: Event) -> f64 {
    let count = |event: &dyn Fn(&Row) -> bool| {
        rows.iter()
            .filter(|r| event(r))
            .fold(0.0, |n, r| n + r.weight)
    };
    let given = count(&|r| beta(r.h, r.y));
    let both = count(&|r| beta(r.h, r.y) && alpha(r.h, r.y));
    if given == 0.0 {
        f64::NAN
    } else {
        both / given
    }
}

/// The harmful-direction disparity of Eq. 2 (subtraction) or Eq. 3
/// (division); NaN when either value is undefined or the support is
/// below `min_support`.
fn disparity(
    d: Disparity,
    overall: f64,
    group: f64,
    higher_is_better: bool,
    enough_support: bool,
) -> f64 {
    if !enough_support || !overall.is_finite() || !group.is_finite() {
        return f64::NAN;
    }
    // Harm is the group below the overall value for a rate where higher
    // is better, and above it where lower is better.
    let (reference, observed) = if higher_is_better {
        (overall, group)
    } else {
        (group, overall)
    };
    let harm = match d {
        Disparity::Subtraction => reference - observed,
        Disparity::Division if reference == 0.0 => 0.0,
        Disparity::Division => 1.0 - observed / reference,
    };
    if harm > 0.0 {
        harm
    } else {
        0.0
    }
}

/// The audited values of one cell, recounted.
#[derive(Debug)]
struct Expected {
    group_value: f64,
    overall_value: f64,
    disparity: f64,
    support: usize,
    unfair: bool,
}

fn expected(
    config: &AuditConfig,
    measure: FairnessMeasure,
    overall_rows: &[Row],
    group_rows: &[Row],
    support: usize,
) -> Expected {
    let (alpha, beta, higher_is_better) = definition(measure);
    let group_value = conditional(group_rows, alpha, beta);
    let overall_value = conditional(overall_rows, alpha, beta);
    let disparity = disparity(
        config.disparity,
        overall_value,
        group_value,
        higher_is_better,
        support >= config.min_support,
    );
    Expected {
        group_value,
        overall_value,
        disparity,
        support,
        unfair: disparity > config.fairness_threshold,
    }
}

fn assert_entry(e: &AuditEntry, want: &Expected, ctx: &str) {
    assert_eq!(
        e.group_value.to_bits(),
        want.group_value.to_bits(),
        "{ctx}: group value {} vs {want:?}",
        e.group_value
    );
    assert_eq!(
        e.overall_value.to_bits(),
        want.overall_value.to_bits(),
        "{ctx}: overall value {} vs {want:?}",
        e.overall_value
    );
    assert_eq!(
        e.disparity.to_bits(),
        want.disparity.to_bits(),
        "{ctx}: disparity {} vs {want:?}",
        e.disparity
    );
    assert_eq!(e.support, want.support, "{ctx}: support");
    assert_eq!(e.unfair, want.unfair, "{ctx}: verdict");
}

/// A space of `k` groups `g0..g{k-1}` of one attribute (ids in name
/// order).
fn space(k: usize) -> GroupSpace {
    let mut csv = "id,g\n".to_owned();
    for i in 0..k {
        csv.push_str(&format!("r{i},g{i}\n"));
    }
    let t = Table::from_csv(parse_csv_str(&csv).expect("csv")).expect("table");
    GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")])
}

/// Group bits over the first `live` groups: none, one, or several.
fn gen_bits(g: &mut Gen, live: usize) -> GroupVector {
    match g.usize_in(0, 6) {
        0 => GroupVector(0),
        1 => GroupVector(g.u64() & ((1u64 << live) - 1)),
        _ => GroupVector(1 << g.usize_in(0, live)),
    }
}

/// A workload over `k` groups whose last group never appears, with
/// intra-group pairs, NaN scores and scores on the threshold.
fn gen_workload(g: &mut Gen, k: usize) -> Workload {
    let threshold = *g.pick(&[0.0, 0.5, 1.0, 0.3]);
    let live = k - 1;
    let items = g.vec_len(0, 50, |g| {
        let left = gen_bits(g, live);
        let right = if g.bool(0.3) { left } else { gen_bits(g, live) };
        let score = match g.usize_in(0, 8) {
            0 => f64::NAN,
            1 => threshold,
            _ => g.unit_f64(),
        };
        Correspondence {
            a_row: 0,
            b_row: 0,
            score,
            truth: g.bool(0.4),
            left,
            right,
        }
    });
    Workload::new(items, threshold)
}

/// Every pair of `w` as a row with the weight `weight(pair)` gives it,
/// left out when that weight is 0.
fn rows(w: &Workload, weight: impl Fn(&Correspondence) -> f64) -> Vec<Row> {
    w.items
        .iter()
        .map(|c| Row {
            h: c.score >= w.threshold,
            y: c.truth,
            weight: weight(c),
        })
        .filter(|r| r.weight > 0.0)
        .collect()
}

const DISPARITIES: [Disparity; 2] = [Disparity::Subtraction, Disparity::Division];

#[test]
fn single_paradigm_audits_match_a_recount_from_pair_rows() {
    cases(150, 0xfa1e, |g| {
        let k = g.usize_in(2, 6);
        let sp = space(k);
        let w = gen_workload(g, k);
        let overall = rows(&w, |_| 1.0);
        for disparity in DISPARITIES {
            let config = AuditConfig {
                paradigm: Paradigm::Single,
                measures: FairnessMeasure::ALL.to_vec(),
                disparity,
                fairness_threshold: g.f64_in(0.0, 0.5),
                min_support: g.usize_in(0, 5),
                only_unfair: false,
                pairwise_attr: 0,
            };
            let report = Auditor::new(config.clone()).audit("M", &w, &sp);
            assert_eq!(report.entries.len(), k * FairnessMeasure::ALL.len());
            for gid in sp.ids() {
                let side = |v: GroupVector| f64::from(u8::from(v.contains(gid)));
                let group = rows(&w, |c| side(c.left) + side(c.right));
                let support = group.len();
                for measure in FairnessMeasure::ALL {
                    let e = report
                        .entries
                        .iter()
                        .find(|e| e.measure == measure && e.group_id == gid)
                        .expect("every group is audited under every measure");
                    assert_eq!(e.group, sp.name(gid));
                    assert_eq!(e.group_id2, None);
                    let ctx = format!("{disparity:?} {measure} {}", e.group);
                    let want = expected(&config, measure, &overall, &group, support);
                    assert_entry(e, &want, &ctx);
                }
            }
        }
    });
}

#[test]
fn pairwise_audits_match_a_recount_from_pair_rows() {
    cases(150, 0xfa1f, |g| {
        let k = g.usize_in(2, 6);
        let sp = space(k);
        let w = gen_workload(g, k);
        let overall = rows(&w, |_| 1.0);
        let ids: Vec<GroupId> = sp.ids().collect();
        for disparity in DISPARITIES {
            let config = AuditConfig {
                paradigm: Paradigm::Pairwise,
                measures: FairnessMeasure::ALL.to_vec(),
                disparity,
                fairness_threshold: g.f64_in(0.0, 0.5),
                min_support: g.usize_in(0, 5),
                only_unfair: false,
                pairwise_attr: 0,
            };
            let report = Auditor::new(config.clone()).audit("M", &w, &sp);
            let n_pairs = k * (k + 1) / 2;
            assert_eq!(report.entries.len(), n_pairs * FairnessMeasure::ALL.len());
            for (i, &g1) in ids.iter().enumerate() {
                for &g2 in &ids[i..] {
                    let pair = rows(&w, |c| {
                        let forward = c.left.contains(g1) && c.right.contains(g2);
                        let backward = c.left.contains(g2) && c.right.contains(g1);
                        f64::from(u8::from(forward || backward))
                    });
                    let support = pair.len();
                    for measure in FairnessMeasure::ALL {
                        let e = report
                            .entries
                            .iter()
                            .find(|e| {
                                e.measure == measure && e.group_id == g1 && e.group_id2 == Some(g2)
                            })
                            .expect("every pair is audited under every measure");
                        assert_eq!(e.group, format!("{}×{}", sp.name(g1), sp.name(g2)));
                        let ctx = format!("{disparity:?} {measure} {}", e.group);
                        let want = expected(&config, measure, &overall, &pair, support);
                        assert_entry(e, &want, &ctx);
                    }
                }
            }
        }
    });
}
