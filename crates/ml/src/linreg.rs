//! Linear regression used as a classifier — LinRegMatcher.
//!
//! Magellan's LinRegMatcher fits ordinary least squares against the 0/1
//! label and thresholds the raw prediction. The output is *not* a
//! calibrated probability: it routinely leaves `[0, 1]` and its decision
//! boundary is sensitive to class imbalance and group-level feature
//! distributions. We preserve that behaviour (clamping only for the score
//! interface), because it is exactly what makes LinRegMatcher the unfair
//! matcher in the paper's Figure 4 story.

use crate::linalg::ridge_normal_equations;
use crate::matrix::Matrix;
use crate::{validate_fit_inputs, Classifier};

/// Ordinary least squares on binary labels, with a tiny ridge for
/// numerical robustness. Scores are raw predictions clamped to `[0, 1]`.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    lambda: f64,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LinearRegression {
    /// Create an untrained model with ridge `lambda` (use a small value
    /// like `1e-6` for plain OLS behaviour).
    pub fn new(lambda: f64) -> LinearRegression {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        LinearRegression {
            lambda,
            weights: Vec::new(),
            bias: 0.0,
            fitted: false,
        }
    }

    /// Raw (unclamped) regression output for a feature row.
    fn raw_prediction(&self, row: &[f64]) -> f64 {
        assert!(self.fitted, "LinearRegression used before fit");
        self.bias
            + row
                .iter()
                .zip(&self.weights)
                .map(|(a, w)| a * w)
                .sum::<f64>()
    }

    /// Trained weight vector (empty before fit).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Classifier for LinearRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        validate_fit_inputs(x, y);
        // Append a bias column.
        let n = x.rows();
        let d = x.cols();
        let mut aug = Matrix::zeros(n, d + 1);
        for r in 0..n {
            let dst = aug.row_mut(r);
            dst[..d].copy_from_slice(x.row(r));
            dst[d] = 1.0;
        }
        // A singular system can only arise from pathological all-constant
        // features; grow the ridge until it solves.
        let mut lambda = self.lambda.max(1e-12);
        let w = loop {
            match ridge_normal_equations(&aug, y, lambda) {
                Ok(w) => break w,
                Err(_) if lambda < 1.0 => lambda *= 100.0,
                // fairem: allow(panic) — documented # Panics contract: singular even after ridge escalation
                Err(e) => panic!("linear regression could not be solved: {e}"),
            }
        };
        self.bias = w[d];
        self.weights = w[..d].to_vec();
        self.fitted = true;
    }

    fn score_one(&self, row: &[f64]) -> f64 {
        self.raw_prediction(row).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_separable_data() {
        let rows = vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![0.3],
            vec![0.7],
            vec![0.8],
            vec![0.9],
            vec![1.0],
        ];
        let y = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let x = Matrix::from_rows(&rows);
        let mut m = LinearRegression::new(1e-9);
        m.fit(&x, &y);
        assert!(m.score_one(&[0.05]) < 0.5);
        assert!(m.score_one(&[0.95]) > 0.5);
    }

    #[test]
    fn raw_predictions_can_leave_unit_interval() {
        let rows = vec![vec![0.0], vec![1.0]];
        let y = vec![0.0, 1.0];
        let x = Matrix::from_rows(&rows);
        let mut m = LinearRegression::new(1e-9);
        m.fit(&x, &y);
        // Extrapolation overshoots — the uncalibrated behaviour we keep.
        assert!(m.raw_prediction(&[2.0]) > 1.5);
        assert_eq!(m.score_one(&[2.0]), 1.0); // but the score clamps
        assert!(m.raw_prediction(&[-1.0]) < -0.5);
        assert_eq!(m.score_one(&[-1.0]), 0.0);
    }

    #[test]
    fn survives_constant_feature() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![1.0, 0.5],
            vec![1.0, 1.0],
            vec![1.0, 0.9],
        ];
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let x = Matrix::from_rows(&rows);
        let mut m = LinearRegression::new(1e-9);
        m.fit(&x, &y); // constant col + bias col are collinear → ridge rescue
        assert!(m.score_one(&[1.0, 1.0]) > m.score_one(&[1.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn raw_before_fit_panics() {
        let m = LinearRegression::new(0.0);
        let _ = m.raw_prediction(&[1.0]);
    }
}
