//! Confusion matrices and the rates the fairness measures are built on.

/// A binary confusion matrix with `f64` counts (group-side counting can
/// increment a cell twice for one correspondence, see
//  [`crate::workload`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfusionMatrix {
    /// True positives: predicted match, truly a match.
    pub tp: f64,
    /// False positives: predicted match, truly a non-match.
    pub fp: f64,
    /// False negatives: predicted non-match, truly a match.
    pub fn_: f64,
    /// True negatives: predicted non-match, truly a non-match.
    pub tn: f64,
}

impl ConfusionMatrix {
    /// Record one outcome with a given weight (1.0 for the overall
    /// workload; 1.0 per member side for group counting).
    pub fn record(&mut self, predicted: bool, truth: bool, weight: f64) {
        match (predicted, truth) {
            (true, true) => self.tp += weight,
            (true, false) => self.fp += weight,
            (false, true) => self.fn_ += weight,
            (false, false) => self.tn += weight,
        }
    }

    /// Total weight observed.
    pub fn total(&self) -> f64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Accuracy `(TP+TN)/total`; `NaN` when empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// Predicted-positive rate `(TP+FP)/total` (statistical parity's
    /// quantity); `NaN` when empty.
    pub fn positive_rate(&self) -> f64 {
        ratio(self.tp + self.fp, self.total())
    }

    /// True positive rate / recall `TP/(TP+FN)`; `NaN` when no positives.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False positive rate `FP/(FP+TN)`; `NaN` when no negatives.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// True negative rate `TN/(FP+TN)`; `NaN` when no negatives.
    pub fn tnr(&self) -> f64 {
        ratio(self.tn, self.fp + self.tn)
    }

    /// False negative rate `FN/(TP+FN)`; `NaN` when no positives.
    pub fn fnr(&self) -> f64 {
        ratio(self.fn_, self.tp + self.fn_)
    }

    /// Positive predictive value / precision `TP/(TP+FP)`; `NaN` when
    /// nothing was predicted positive.
    pub fn ppv(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Negative predictive value `TN/(TN+FN)`; `NaN` when nothing was
    /// predicted negative.
    pub fn npv(&self) -> f64 {
        ratio(self.tn, self.tn + self.fn_)
    }

    /// False discovery rate `FP/(TP+FP)`; `NaN` when nothing was
    /// predicted positive.
    pub fn fdr(&self) -> f64 {
        ratio(self.fp, self.tp + self.fp)
    }

    /// False omission rate `FN/(TN+FN)`; `NaN` when nothing was
    /// predicted negative.
    pub fn for_rate(&self) -> f64 {
        ratio(self.fn_, self.tn + self.fn_)
    }

    /// F1 score; `NaN` when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.ppv();
        let r = self.tpr();
        if p.is_nan() || r.is_nan() || p + r == 0.0 {
            f64::NAN
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> ConfusionMatrix {
        ConfusionMatrix {
            tp: 40.0,
            fp: 10.0,
            fn_: 20.0,
            tn: 130.0,
        }
    }

    #[test]
    fn rates_are_consistent() {
        let c = cm();
        assert_eq!(c.total(), 200.0);
        assert!((c.accuracy() - 0.85).abs() < 1e-12);
        assert!((c.tpr() - 40.0 / 60.0).abs() < 1e-12);
        assert!((c.fnr() - 20.0 / 60.0).abs() < 1e-12);
        assert!((c.fpr() - 10.0 / 140.0).abs() < 1e-12);
        assert!((c.tnr() - 130.0 / 140.0).abs() < 1e-12);
        assert!((c.ppv() - 0.8).abs() < 1e-12);
        assert!((c.npv() - 130.0 / 150.0).abs() < 1e-12);
        assert!((c.positive_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn complementary_pairs_sum_to_one() {
        let c = cm();
        assert!((c.tpr() + c.fnr() - 1.0).abs() < 1e-12);
        assert!((c.fpr() + c.tnr() - 1.0).abs() < 1e-12);
        assert!((c.ppv() + c.fdr() - 1.0).abs() < 1e-12);
        assert!((c.npv() + c.for_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_accumulates_weighted() {
        let mut c = ConfusionMatrix::default();
        c.record(true, true, 2.0);
        c.record(false, true, 1.0);
        c.record(true, false, 1.0);
        c.record(false, false, 1.0);
        assert_eq!(c.tp, 2.0);
        assert_eq!(c.total(), 5.0);
    }

    #[test]
    fn empty_denominators_are_nan() {
        let c = ConfusionMatrix::default();
        assert!(c.accuracy().is_nan());
        assert!(c.tpr().is_nan());
        assert!(c.ppv().is_nan());
        assert!(c.f1().is_nan());
        let pos_only = ConfusionMatrix {
            tp: 1.0,
            fn_: 1.0,
            ..Default::default()
        };
        assert!(pos_only.fpr().is_nan());
    }

    #[test]
    fn f1_matches_formula() {
        let c = cm();
        let p = c.ppv();
        let r = c.tpr();
        assert!((c.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }
}
