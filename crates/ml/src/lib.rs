//! # fairem-ml
//!
//! Classic machine-learning substrate for FairEM360's six non-neural
//! matchers (paper §2.2: DTMatcher, SVMMatcher, RFMatcher, LogRegMatcher,
//! LinRegMatcher, NBMatcher — the Magellan family), implemented from
//! scratch: CART decision trees, random forests, Pegasos linear SVM,
//! logistic/linear regression, Gaussian naive Bayes, and k-NN, plus the
//! dense linear algebra, feature scaling, evaluation metrics and k-fold
//! utilities they need.
//!
//! All models implement [`Classifier`]: `fit` on a feature matrix with
//! binary labels, then produce match scores in `[0, 1]` (the matcher
//! threshold is applied downstream by the suite).

pub mod boosting;
pub mod crossval;
pub mod forest;
pub mod knn;
pub mod linalg;
pub mod linreg;
pub mod logreg;
pub mod matrix;
pub mod metrics;
pub mod naive_bayes;
pub mod scaler;
pub mod svm;
pub mod tree;

pub use boosting::GradientBoostedTrees;
pub use crossval::{cross_val_f1, kfold_indices};
pub use forest::RandomForest;
pub use knn::KnnClassifier;
pub use linreg::LinearRegression;
pub use logreg::LogisticRegression;
pub use matrix::Matrix;
pub use metrics::{accuracy, auc_roc, f1_score, precision, recall};
pub use naive_bayes::GaussianNb;
pub use scaler::StandardScaler;
pub use svm::LinearSvm;
pub use tree::DecisionTree;

/// A binary classifier producing match scores in `[0, 1]`.
///
/// Labels passed to [`Classifier::fit`] must be `0.0` or `1.0`. Scores
/// are *not* required to be calibrated probabilities — e.g. the linear
/// regression matcher clamps a raw regression output, mirroring how
/// Magellan's LinRegMatcher behaves (and why it is threshold-sensitive).
pub trait Classifier {
    /// Train on a feature matrix (one row per example) and binary labels.
    ///
    /// # Panics
    /// Implementations panic if `x.rows() != y.len()` or `x` is empty.
    fn fit(&mut self, x: &Matrix, y: &[f64]);

    /// Cancellable [`Classifier::fit`]: polls `token` at the model's
    /// natural checkpoints (per epoch / per tree / per round) and bails
    /// with the [`Interrupt`] record when it trips, leaving the model
    /// unfitted. With an untripped token this is bit-for-bit `fit`.
    ///
    /// The default implementation checkpoints once and then trains
    /// atomically — right for non-iterative models (trees, k-NN, naive
    /// Bayes, closed-form regression); iterative trainers override it.
    fn fit_within(
        &mut self,
        x: &Matrix,
        y: &[f64],
        token: &fairem_par::CancelToken,
    ) -> Result<(), fairem_par::Interrupt> {
        token.checkpoint()?;
        self.fit(x, y);
        Ok(())
    }

    /// The checkpoint granularity of [`Classifier::fit_within`] as a
    /// human-readable unit (e.g. `"per-epoch"`, `"per-tree"`), surfaced
    /// in observability span annotations. The default matches the
    /// default `fit_within`: one checkpoint, then an atomic fit.
    fn step_unit(&self) -> &'static str {
        "per-fit"
    }

    /// Score one feature row; higher means more likely a match.
    fn score_one(&self, row: &[f64]) -> f64;

    /// Score every row of a matrix.
    fn score_all(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.score_one(x.row(r))).collect()
    }

    /// Hard prediction at a decision threshold.
    fn predict(&self, row: &[f64], threshold: f64) -> bool {
        self.score_one(row) >= threshold
    }
}

pub(crate) fn validate_fit_inputs(x: &Matrix, y: &[f64]) {
    assert!(x.rows() > 0, "cannot fit on an empty matrix");
    assert_eq!(x.rows(), y.len(), "feature rows and labels must align");
    assert!(
        y.iter().all(|&v| v == 0.0 || v == 1.0),
        "labels must be 0.0 or 1.0"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny linearly separable dataset: class 1 iff x0 + x1 > 1.
    fn toy() -> (Matrix, Vec<f64>) {
        let rows = vec![
            vec![0.1, 0.2],
            vec![0.2, 0.1],
            vec![0.3, 0.3],
            vec![0.4, 0.2],
            vec![0.9, 0.8],
            vec![0.8, 0.9],
            vec![0.7, 0.7],
            vec![0.6, 0.9],
        ];
        let y = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn every_model_learns_the_toy_problem() {
        let (x, y) = toy();
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(DecisionTree::new(4, 2)),
            Box::new(RandomForest::new(15, 4, 7)),
            Box::new(LinearSvm::new(0.01, 200, 11)),
            Box::new(LogisticRegression::new(0.5, 500, 0.001)),
            Box::new(LinearRegression::new(1e-6)),
            Box::new(GaussianNb::new()),
            Box::new(KnnClassifier::new(3)),
        ];
        for mut m in models {
            m.fit(&x, &y);
            let scores = m.score_all(&x);
            for (s, &t) in scores.iter().zip(&y) {
                assert!((0.0..=1.0).contains(s), "score out of range: {s}");
                let pred = *s >= 0.5;
                assert_eq!(pred, t == 1.0, "misclassified with score {s} target {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn fit_rejects_soft_labels() {
        let (x, _) = toy();
        let mut m = GaussianNb::new();
        m.fit(&x, &vec![0.5; x.rows()]);
    }
}
