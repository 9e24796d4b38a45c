//! Threshold-sensitivity analysis and threshold-independent fairness —
//! the extension directions the paper cites: tuning matching thresholds
//! for fairness (Moslemi & Milani, ref \[10\]) and AUC-based fairness
//! (Nilforoushan et al., ref \[12\]). Per-group score calibration, the
//! third, lives in [`crate::calibrate`].

use fairem_ml::auc_roc;

use crate::confusion::ConfusionMatrix;
use crate::fairness::{Disparity, FairnessMeasure};
use crate::sensitive::{GroupId, GroupSpace};
use crate::workload::{Correspondence, GroupConfusions, Workload};

/// Measure values per group across a threshold grid.
#[derive(Debug, Clone)]
pub struct ThresholdSweep {
    /// The measure swept.
    pub measure: FairnessMeasure,
    /// The threshold grid (ascending).
    pub thresholds: Vec<f64>,
    /// Workload-wide value at each threshold.
    pub overall: Vec<f64>,
    /// Per-group `(name, values)` curves, index-aligned with
    /// `thresholds`.
    pub per_group: Vec<(String, Vec<f64>)>,
}

impl ThresholdSweep {
    /// Max disparity across groups at each threshold.
    ///
    /// Non-finite disparities (a group with no evidence at some
    /// threshold yields `NaN` from [`Disparity::compute`]) are excluded
    /// from the fold, so an evidence-free group can never poison the
    /// sweep or the fair-window computation built on it.
    pub fn max_disparity(&self, disparity: Disparity) -> Vec<f64> {
        let higher = self.measure.higher_is_better();
        self.thresholds
            .iter()
            .enumerate()
            .map(|(i, _)| {
                self.per_group
                    .iter()
                    .map(|(_, vs)| disparity.compute(self.overall[i], vs[i], higher))
                    .filter(|d| d.is_finite())
                    .fold(0.0, f64::max)
            })
            .collect()
    }
}

/// Count the overall and per-group confusion matrices of `items` at
/// every point of `grid` in one pass; entry `k` is the count at
/// `grid[k]`, which may be unsorted and hold duplicates.
///
/// Each correspondence lands in bucket `b`, the number of grid points
/// it clears (`score >= t`; a NaN score clears none), and adds its
/// weight to its truth class's bucket: 1 overall and, for each listed
/// group among the set bits of `left | right`, 1 per member side (the
/// both-sides rule). A correspondence is predicted a match at the
/// `j`-th smallest grid point iff `b > j`, so suffix sums over the
/// buckets give every cell at every grid point. Cells are integer sums
/// converted once to `f64`, which is exact, so each matrix is
/// bit-identical to recounting the workload at that threshold.
///
/// # Panics
/// If the grid is empty, a grid point is outside `[0, 1]`, or a group
/// id is 64 or more.
pub fn grid_confusions(
    items: &[Correspondence],
    groups: &[GroupId],
    grid: &[f64],
) -> Vec<GroupConfusions> {
    assert!(!grid.is_empty(), "threshold grid must be non-empty");
    for &t in grid {
        assert!((0.0..=1.0).contains(&t), "threshold must be in [0,1]");
    }
    let mut sorted = grid.to_vec();
    sorted.sort_by(f64::total_cmp);
    let buckets = sorted.len() + 1;

    // Slot 0 tallies the overall matrix; each distinct listed group bit
    // gets the next slot.
    let mut slot_of_bit = [0usize; 64];
    let mut slots = 1;
    let mut mask = 0u64;
    let group_slots: Vec<usize> = groups
        .iter()
        .map(|g| {
            let bit = g.0 as usize;
            if slot_of_bit[bit] == 0 {
                slot_of_bit[bit] = slots;
                slots += 1;
                mask |= 1 << bit;
            }
            slot_of_bit[bit]
        })
        .collect();

    // cells[(slot * 2 + truth) * buckets + bucket]: summed weights.
    let mut cells = vec![0u64; slots * 2 * buckets];
    let mut support = vec![0usize; slots];
    for c in items {
        let bucket = sorted.partition_point(|&t| t <= c.score);
        let truth = usize::from(c.truth);
        cells[truth * buckets + bucket] += 1;
        let mut bits = (c.left.0 | c.right.0) & mask;
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let slot = slot_of_bit[bit as usize];
            let weight = (c.left.0 >> bit & 1) + (c.right.0 >> bit & 1);
            cells[(slot * 2 + truth) * buckets + bucket] += weight;
            support[slot] += 1;
        }
    }

    // matrices[slot][j]: the slot's matrix at the j-th smallest grid point.
    let matrices: Vec<Vec<ConfusionMatrix>> = cells
        .chunks_exact(2 * buckets)
        .map(|slot| {
            let (neg, pos) = slot.split_at(buckets);
            let (negatives, positives) = (neg.iter().sum::<u64>(), pos.iter().sum::<u64>());
            let (mut fp, mut tp) = (0u64, 0u64);
            let mut at = vec![ConfusionMatrix::default(); sorted.len()];
            for j in (0..sorted.len()).rev() {
                fp += neg[j + 1];
                tp += pos[j + 1];
                at[j] = ConfusionMatrix {
                    tp: tp as f64,
                    fp: fp as f64,
                    fn_: (positives - tp) as f64,
                    tn: (negatives - fp) as f64,
                };
            }
            at
        })
        .collect();
    grid.iter()
        .map(|&t| {
            // Copies of `t` read alike: no score clears one but not the next.
            let j = sorted.partition_point(|&u| u < t);
            GroupConfusions {
                overall: matrices[0][j],
                groups: group_slots.iter().map(|&s| matrices[s][j]).collect(),
                support: group_slots.iter().map(|&s| support[s]).collect(),
            }
        })
        .collect()
}

/// Sweep a measure across a threshold grid for the given groups.
///
/// # Panics
/// If the grid is empty or a grid point is outside `[0, 1]`.
pub fn sweep(
    workload: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    measure: FairnessMeasure,
    grid: &[f64],
) -> ThresholdSweep {
    let counts = grid_confusions(&workload.items, groups, grid);
    sweep_counts(&counts, space, groups, measure, grid)
}

/// The sweep of one measure read off counts from [`grid_confusions`],
/// so several measures share one counting pass.
pub(crate) fn sweep_counts(
    counts: &[GroupConfusions],
    space: &GroupSpace,
    groups: &[GroupId],
    measure: FairnessMeasure,
    grid: &[f64],
) -> ThresholdSweep {
    ThresholdSweep {
        measure,
        thresholds: grid.to_vec(),
        overall: counts.iter().map(|c| measure.value(&c.overall)).collect(),
        per_group: groups
            .iter()
            .enumerate()
            .map(|(gi, &g)| {
                let values = counts
                    .iter()
                    .map(|c| measure.value(&c.groups[gi]))
                    .collect();
                (space.name(g).to_owned(), values)
            })
            .collect(),
    }
}

/// The default 99-point threshold grid `0.01..=0.99`.
pub fn default_grid() -> Vec<f64> {
    (1..100).map(|i| i as f64 / 100.0).collect()
}

/// Pick the threshold maximizing overall F1 subject to the fairness
/// constraint (max disparity of `measure` across `groups` within
/// `fairness_threshold`). Returns `None` when no grid point is fair.
pub fn suggest_threshold(
    workload: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    measure: FairnessMeasure,
    disparity: Disparity,
    fairness_threshold: f64,
    grid: &[f64],
) -> Option<f64> {
    let counts = grid_confusions(&workload.items, groups, grid);
    let disparities = sweep_counts(&counts, space, groups, measure, grid).max_disparity(disparity);
    let mut best: Option<(f64, f64)> = None; // (f1, threshold)
    for (i, &t) in grid.iter().enumerate() {
        if disparities[i] > fairness_threshold {
            continue;
        }
        let f1 = counts[i].overall.f1();
        if f1.is_finite() && best.is_none_or(|(bf, _)| f1 > bf) {
            best = Some((f1, t));
        }
    }
    best.map(|(_, t)| t)
}

/// Per-group ROC AUC of the workload's scores — the threshold-
/// independent view of matcher quality (ref \[12\]). `NaN` when a group
/// lacks both classes.
pub fn group_auc(workload: &Workload, g: GroupId) -> f64 {
    let mut scores = Vec::new();
    let mut truths = Vec::new();
    for c in &workload.items {
        if c.left.contains(g) || c.right.contains(g) {
            scores.push(c.score);
            truths.push(c.truth);
        }
    }
    auc_roc(&scores, &truths)
}

/// One row of an AUC-parity audit.
#[derive(Debug, Clone)]
pub struct AucEntry {
    /// Group name.
    pub group: String,
    /// The group's ROC AUC.
    pub auc: f64,
    /// Disparity of the group AUC against the overall AUC.
    pub disparity: f64,
}

/// AUC-based fairness audit: per-group AUC vs the workload-wide AUC
/// (higher is better), under the chosen disparity notation.
pub fn auc_parity(
    workload: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    disparity: Disparity,
) -> Vec<AucEntry> {
    let overall_scores: Vec<f64> = workload.items.iter().map(|c| c.score).collect();
    let overall_truths: Vec<bool> = workload.items.iter().map(|c| c.truth).collect();
    let overall = auc_roc(&overall_scores, &overall_truths);
    groups
        .iter()
        .map(|&g| {
            let auc = group_auc(workload, g);
            AucEntry {
                group: space.name(g).to_owned(),
                auc,
                disparity: disparity.compute(overall, auc, true),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Table;
    use crate::sensitive::{GroupVector, SensitiveAttr};
    use crate::workload::Correspondence;
    use fairem_csvio::parse_csv_str;

    fn space() -> GroupSpace {
        let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
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

    /// cn scores are compressed into [0.25, 0.45]: all under a 0.5
    /// threshold, although the ranking is perfect. us scores are spread
    /// normally around 0.5.
    fn miscalibrated() -> Workload {
        let mut items = Vec::new();
        for i in 0..40 {
            let frac = i as f64 / 40.0;
            // cn: matches at the top of a compressed band.
            items.push(c(0.25 + 0.20 * frac, frac > 0.5, 0b01));
            // us: well spread.
            items.push(c(0.1 + 0.8 * frac, frac > 0.5, 0b10));
        }
        Workload::new(items, 0.5)
    }

    #[test]
    fn sweep_shows_threshold_dependence() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let sw = sweep(
            &w,
            &sp,
            &groups,
            FairnessMeasure::TruePositiveRateParity,
            &default_grid(),
        );
        let disp = sw.max_disparity(Disparity::Subtraction);
        // At 0.5 the cn TPR is zero → huge disparity; at 0.35 it's fine.
        let at = |t: f64| {
            let i = sw
                .thresholds
                .iter()
                .position(|&x| (x - t).abs() < 1e-9)
                .unwrap();
            disp[i]
        };
        assert!(at(0.50) >= 0.45, "{}", at(0.50));
        assert!(at(0.35) < 0.2, "{}", at(0.35));
        let fair: Vec<f64> = sw
            .thresholds
            .iter()
            .zip(&disp)
            .filter(|(_, d)| **d <= 0.2)
            .map(|(t, _)| *t)
            .collect();
        assert!(!fair.is_empty());
        // A genuinely fair window exists below the cn score band's top...
        assert!(fair.iter().any(|&t| t < 0.45));
        // ...and the clearly unfair band (cn recall dead, us healthy) is
        // excluded. Very high thresholds become degenerately "fair"
        // again as every group's recall collapses together.
        assert!(fair.iter().all(|&t| !(0.46..0.74).contains(&t)), "{fair:?}");
    }

    #[test]
    fn suggest_threshold_respects_constraint() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let t = suggest_threshold(
            &w,
            &sp,
            &groups,
            FairnessMeasure::TruePositiveRateParity,
            Disparity::Subtraction,
            0.2,
            &default_grid(),
        )
        .expect("a fair threshold exists");
        let sw = sweep(
            &w,
            &sp,
            &groups,
            FairnessMeasure::TruePositiveRateParity,
            &[t],
        );
        assert!(sw.max_disparity(Disparity::Subtraction)[0] <= 0.2);
    }

    #[test]
    fn auc_is_threshold_independent_and_perfect_here() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let entries = auc_parity(&w, &sp, &groups, Disparity::Subtraction);
        // Both groups rank perfectly → AUC 1.0, zero disparity: the
        // unfairness at threshold 0.5 is purely a calibration artifact.
        for e in &entries {
            assert!((e.auc - 1.0).abs() < 1e-9, "{}: {}", e.group, e.auc);
            assert_eq!(e.disparity, 0.0);
        }
    }

    #[test]
    fn group_auc_nan_without_both_classes() {
        let w = Workload::new(vec![c(0.5, true, 0b01)], 0.5);
        assert!(group_auc(&w, GroupId(0)).is_nan());
    }

    #[test]
    fn sweep_ignores_evidence_free_groups() {
        // Only cn appears in the workload; every us measure value is NaN
        // (0/0 rates). Disparities and suggestions must stay finite.
        let w = Workload::new(vec![c(0.9, true, 0b01), c(0.1, false, 0b01)], 0.5);
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let sw = sweep(
            &w,
            &sp,
            &groups,
            FairnessMeasure::TruePositiveRateParity,
            &default_grid(),
        );
        assert!(sw.per_group[1].1.iter().all(|v| v.is_nan()), "us is NaN");
        for d in sw.max_disparity(Disparity::Subtraction) {
            assert!(d.is_finite(), "{d}");
        }
        let t = suggest_threshold(
            &w,
            &sp,
            &groups,
            FairnessMeasure::TruePositiveRateParity,
            Disparity::Subtraction,
            0.2,
            &default_grid(),
        );
        assert!(t.is_some());
    }

    #[test]
    fn auc_parity_marks_evidence_free_groups_nan() {
        let w = Workload::new(vec![c(0.9, true, 0b01), c(0.1, false, 0b01)], 0.5);
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let entries = auc_parity(&w, &sp, &groups, Disparity::Subtraction);
        assert!(entries[0].disparity.is_finite());
        assert!(entries[1].auc.is_nan());
        assert!(
            entries[1].disparity.is_nan(),
            "no-evidence disparity must be NaN, not a finite verdict"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn sweep_rejects_empty_grid() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let _ = sweep(&w, &sp, &groups, FairnessMeasure::AccuracyParity, &[]);
    }
}
