//! Workloads: the logic layer's input (paper §2.2).
//!
//! A workload is a test set of correspondences `(eᵢ, eⱼ, h, y)`: a scored
//! record pair with its prediction and ground truth, carrying both
//! entities' group encodings. Summarizing a workload into per-group
//! confusion matrices uses the paper's *both-sides counting rule*: a
//! correspondence counts for the groups of `eᵢ` **and** the groups of
//! `eⱼ` (unlike regular classification where each row counts once).

use fairem_rng::rngs::StdRng;
use fairem_rng::{Rng, SeedableRng};

use crate::confusion::ConfusionMatrix;
use crate::sensitive::{GroupId, GroupVector};
use crate::threshold::grid_confusions;

/// One scored record pair with ground truth and group encodings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correspondence {
    /// Row of the left entity in table A.
    pub a_row: usize,
    /// Row of the right entity in table B.
    pub b_row: usize,
    /// Matcher score in `[0, 1]`.
    pub score: f64,
    /// Ground-truth match label `y`.
    pub truth: bool,
    /// Group encoding of the left entity.
    pub left: GroupVector,
    /// Group encoding of the right entity.
    pub right: GroupVector,
}

/// The confusion matrices one counting pass yields: the workload-wide
/// matrix plus, for each requested group, its single-paradigm matrix
/// (both-sides rule) and its support. See [`Workload::group_confusions`]
/// and [`crate::threshold::grid_confusions`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupConfusions {
    /// Every correspondence counted once.
    pub overall: ConfusionMatrix,
    /// One matrix per requested group, index-aligned with the request.
    pub groups: Vec<ConfusionMatrix>,
    /// Correspondences legitimate for each requested group.
    pub support: Vec<usize>,
}

/// A workload: correspondences plus the matching threshold that turns
/// scores into predictions `h`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The evaluated correspondences.
    pub items: Vec<Correspondence>,
    /// Score cut-off above which a pair is predicted a match.
    pub threshold: f64,
}

impl Workload {
    /// Create a workload.
    ///
    /// # Panics
    /// If the threshold is outside `[0, 1]`.
    pub fn new(items: Vec<Correspondence>, threshold: f64) -> Workload {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        Workload { items, threshold }
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the workload holds no correspondences.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The prediction `h` for one correspondence under this workload's
    /// threshold.
    pub fn prediction(&self, c: &Correspondence) -> bool {
        c.score >= self.threshold
    }

    /// A copy with a different matching threshold (scores are reused).
    pub fn with_threshold(&self, threshold: f64) -> Workload {
        Workload::new(self.items.clone(), threshold)
    }

    /// Confusion matrix over the whole workload (each correspondence
    /// counted once) — the reference `Pr(α | β)` side of the parity.
    pub fn overall_confusion(&self) -> ConfusionMatrix {
        self.group_confusions(&[]).overall
    }

    /// The overall matrix plus every listed group's single-paradigm
    /// matrix and support, from one scan: each correspondence visits
    /// only the set bits of `left | right`. A correspondence is
    /// legitimate for `g` if either side belongs to `g`, and it counts
    /// once per member side (the both-sides rule).
    ///
    /// # Panics
    /// If a group id is 64 or more.
    pub fn group_confusions(&self, groups: &[GroupId]) -> GroupConfusions {
        // One grid point, the workload's own threshold: the grid count
        // at `t` is exactly the prediction `score >= t`.
        grid_confusions(&self.items, groups, &[self.threshold]).swap_remove(0)
    }

    /// Single-paradigm group confusion matrix of one group; see
    /// [`Workload::group_confusions`].
    pub fn group_confusion(&self, g: GroupId) -> ConfusionMatrix {
        self.group_confusions(&[g]).groups[0]
    }

    /// Ablation variant of [`Workload::group_confusion`]: count each
    /// legitimate correspondence **once**, the way naive classification
    /// auditing would. The paper's both-sides rule weighs intra-group
    /// pairs double; comparing the two isolates how much that convention
    /// moves the audited rates (see `bench_audit`'s `counting_rule`
    /// group and DESIGN.md §4).
    pub fn group_confusion_once(&self, g: GroupId) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        for c in &self.items {
            if c.left.contains(g) || c.right.contains(g) {
                cm.record(self.prediction(c), c.truth, 1.0);
            }
        }
        cm
    }

    /// Pairwise-paradigm confusion matrix for a subgroup pair: legitimate
    /// if one side is in `g1` and the other in `g2` (in either order),
    /// counted once.
    pub fn pairwise_confusion(&self, g1: GroupId, g2: GroupId) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        for c in &self.items {
            let forward = c.left.contains(g1) && c.right.contains(g2);
            let backward = c.left.contains(g2) && c.right.contains(g1);
            if forward || backward {
                cm.record(self.prediction(c), c.truth, 1.0);
            }
        }
        cm
    }

    /// Number of correspondences legitimate for `g` under the single
    /// paradigm (support; used to flag insufficient data).
    pub fn group_support(&self, g: GroupId) -> usize {
        self.group_confusions(&[g]).support[0]
    }

    /// Bootstrap-resample a workload of the same size (sampling
    /// correspondences with replacement) — the multiple-workload
    /// analysis' workload generator.
    pub fn resample(&self, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.items.len();
        let items = (0..n).map(|_| self.items[rng.gen_range(0..n)]).collect();
        Workload {
            items,
            threshold: self.threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(score: f64, truth: bool, left: u64, right: u64) -> Correspondence {
        Correspondence {
            a_row: 0,
            b_row: 0,
            score,
            truth,
            left: GroupVector(left),
            right: GroupVector(right),
        }
    }

    fn workload() -> Workload {
        // Group 0 = cn, group 1 = us.
        Workload::new(
            vec![
                c(0.9, true, 0b01, 0b01),  // cn-cn TP
                c(0.8, false, 0b01, 0b10), // cn-us FP
                c(0.2, true, 0b10, 0b10),  // us-us FN
                c(0.1, false, 0b10, 0b01), // us-cn TN
            ],
            0.5,
        )
    }

    #[test]
    fn overall_counts_once() {
        let w = workload();
        let cm = w.overall_confusion();
        assert_eq!((cm.tp, cm.fp, cm.fn_, cm.tn), (1.0, 1.0, 1.0, 1.0));
    }

    #[test]
    fn group_counting_uses_both_sides() {
        let w = workload();
        let cn = w.group_confusion(GroupId(0));
        // cn-cn TP counts twice; cn-us FP counts once; us-cn TN once.
        assert_eq!((cn.tp, cn.fp, cn.fn_, cn.tn), (2.0, 1.0, 0.0, 1.0));
        let us = w.group_confusion(GroupId(1));
        assert_eq!((us.tp, us.fp, us.fn_, us.tn), (0.0, 1.0, 2.0, 1.0));
    }

    #[test]
    fn counting_rule_ablation_differs_on_intra_group_pairs() {
        let w = workload();
        let both = w.group_confusion(GroupId(0));
        let once = w.group_confusion_once(GroupId(0));
        // cn-cn TP counts twice under both-sides, once under naive.
        assert_eq!(both.tp, 2.0);
        assert_eq!(once.tp, 1.0);
        // Cross-group cells agree.
        assert_eq!(both.fp, once.fp);
        assert_eq!(once.total(), w.group_support(GroupId(0)) as f64);
    }

    #[test]
    fn pairwise_is_order_insensitive_and_counts_once() {
        let w = workload();
        let cn_us = w.pairwise_confusion(GroupId(0), GroupId(1));
        // cn-us FP and us-cn TN both legitimate.
        assert_eq!(
            (cn_us.tp, cn_us.fp, cn_us.fn_, cn_us.tn),
            (0.0, 1.0, 0.0, 1.0)
        );
        let us_cn = w.pairwise_confusion(GroupId(1), GroupId(0));
        assert_eq!(cn_us, us_cn);
        let cn_cn = w.pairwise_confusion(GroupId(0), GroupId(0));
        assert_eq!(
            (cn_cn.tp, cn_cn.fp, cn_cn.fn_, cn_cn.tn),
            (1.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn threshold_controls_predictions() {
        let w = workload();
        assert_eq!(w.overall_confusion().tp, 1.0);
        let strict = w.with_threshold(0.95);
        let cm = strict.overall_confusion();
        assert_eq!(cm.tp, 0.0);
        assert_eq!(cm.fn_, 2.0);
    }

    #[test]
    fn support_counts_legitimate_pairs() {
        let w = workload();
        assert_eq!(w.group_support(GroupId(0)), 3);
        assert_eq!(w.group_support(GroupId(1)), 3);
        assert_eq!(w.group_support(GroupId(5)), 0);
    }

    #[test]
    fn resample_is_deterministic_and_same_size() {
        let w = workload();
        let a = w.resample(9);
        let b = w.resample(9);
        assert_eq!(a.items, b.items);
        assert_eq!(a.len(), w.len());
        let c = w.resample(10);
        assert!(c.items != a.items || w.len() <= 1);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        let _ = Workload::new(vec![], 1.5);
    }
}
