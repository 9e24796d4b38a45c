//! Linear SVM trained with Pegasos (primal stochastic sub-gradient
//! descent) — SVMMatcher.

use fairem_par::{CancelToken, Interrupt};
use fairem_rng::rngs::StdRng;
use fairem_rng::{Rng, SeedableRng};

use crate::matrix::Matrix;
use crate::{validate_fit_inputs, Classifier};

/// Linear soft-margin SVM (hinge loss, L2 regularization) trained with
/// the Pegasos algorithm. Match scores squash the signed margin through
/// a logistic link (a fixed Platt-style calibration).
#[derive(Debug, Clone)]
pub struct LinearSvm {
    lambda: f64,
    epochs: usize,
    seed: u64,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LinearSvm {
    /// Create an untrained SVM. `lambda` is the regularization strength,
    /// `epochs` the number of passes, `seed` drives example sampling.
    pub fn new(lambda: f64, epochs: usize, seed: u64) -> LinearSvm {
        assert!(lambda > 0.0, "lambda must be positive");
        assert!(epochs >= 1, "need at least one epoch");
        LinearSvm {
            lambda,
            epochs,
            seed,
            weights: Vec::new(),
            bias: 0.0,
            fitted: false,
        }
    }

    /// Signed margin `wᵀx + b` for a feature row.
    fn margin(&self, row: &[f64]) -> f64 {
        assert!(self.fitted, "LinearSvm used before fit");
        self.bias
            + row
                .iter()
                .zip(&self.weights)
                .map(|(a, w)| a * w)
                .sum::<f64>()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        // An inert token never trips, so this cannot fail.
        let _ = self.fit_within(x, y, &CancelToken::inert());
    }

    /// One checkpoint per Pegasos pass (every `n` sub-gradient steps).
    fn step_unit(&self) -> &'static str {
        "per-pass"
    }

    fn fit_within(&mut self, x: &Matrix, y: &[f64], token: &CancelToken) -> Result<(), Interrupt> {
        validate_fit_inputs(x, y);
        let n = x.rows();
        let d = x.cols();
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        self.fitted = false;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_steps = self.epochs * n;
        for t in 1..=total_steps {
            if (t - 1) % n == 0 {
                token.checkpoint()?;
            }
            let i = rng.gen_range(0..n);
            let row = x.row(i);
            let target = if y[i] == 1.0 { 1.0 } else { -1.0 };
            let eta = 1.0 / (self.lambda * t as f64);
            let margin = self.bias
                + row
                    .iter()
                    .zip(&self.weights)
                    .map(|(a, w)| a * w)
                    .sum::<f64>();
            // Regularization shrink (weights only; bias unregularized).
            let shrink = 1.0 - eta * self.lambda;
            for w in self.weights.iter_mut() {
                *w *= shrink;
            }
            if target * margin < 1.0 {
                for (w, &xi) in self.weights.iter_mut().zip(row) {
                    *w += eta * target * xi;
                }
                self.bias += eta * target;
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn score_one(&self, row: &[f64]) -> f64 {
        let m = self.margin(row);
        // Fixed logistic link: margin 0 → 0.5, margin ±2 → ~0.88/0.12.
        1.0 / (1.0 + (-2.0 * m).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band_data() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let v = i as f64 / 60.0;
            let noise = ((i * 13) % 7) as f64 * 0.01;
            rows.push(vec![v + noise, 0.5 - v]);
            y.push(if v > 0.5 { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_linear_separator() {
        let (x, y) = band_data();
        let mut m = LinearSvm::new(0.01, 100, 5);
        m.fit(&x, &y);
        let acc = (0..x.rows())
            .filter(|&r| (m.score_one(x.row(r)) >= 0.5) == (y[r] == 1.0))
            .count() as f64
            / x.rows() as f64;
        assert!(acc >= 0.9, "accuracy {acc}");
    }

    #[test]
    fn margins_have_correct_sign() {
        let (x, y) = band_data();
        let mut m = LinearSvm::new(0.01, 200, 5);
        m.fit(&x, &y);
        assert!(m.margin(&[1.0, -0.5]) > 0.0);
        assert!(m.margin(&[0.0, 0.5]) < 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = band_data();
        let mut a = LinearSvm::new(0.01, 50, 42);
        let mut b = LinearSvm::new(0.01, 50, 42);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn scores_bounded() {
        let (x, y) = band_data();
        let mut m = LinearSvm::new(0.1, 20, 1);
        m.fit(&x, &y);
        for r in 0..x.rows() {
            let s = m.score_one(x.row(r));
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn margin_before_fit_panics() {
        let m = LinearSvm::new(0.1, 10, 0);
        let _ = m.margin(&[0.0]);
    }

    #[test]
    fn step_budget_cuts_training_per_pass() {
        use fairem_par::{Budget, CancelCause};
        let (x, y) = band_data();
        let mut m = LinearSvm::new(0.01, 100, 5);
        let token = CancelToken::with_budget(Budget::steps(2));
        let i = m.fit_within(&x, &y, &token).expect_err("2 < 100 passes");
        assert_eq!(i.cause, CancelCause::StepLimit);
        assert_eq!(i.steps, 2, "exactly two passes completed");
        assert!(!m.fitted);
    }
}
