//! Random forest (bagged CART trees with feature subsampling) — RFMatcher.

use fairem_par::{CancelToken, Interrupt};
use fairem_rng::rngs::StdRng;
use fairem_rng::seq::SliceRandom;
use fairem_rng::{Rng, SeedableRng};

use crate::matrix::Matrix;
use crate::tree::{DecisionTree, RankCodes};
use crate::{validate_fit_inputs, Classifier};

/// A random forest: bootstrap-sampled trees over random feature subsets,
/// scoring by averaging leaf positive-rates.
#[derive(Debug, Clone)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Create an untrained forest of `n_trees` trees of height
    /// `max_depth`, seeded deterministically.
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> RandomForest {
        assert!(n_trees >= 1, "forest needs at least one tree");
        RandomForest {
            n_trees,
            max_depth,
            seed,
            trees: Vec::new(),
        }
    }

    /// Number of trained trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        // An inert token never trips, so this cannot fail.
        let _ = self.fit_within(x, y, &CancelToken::inert());
    }

    /// One checkpoint per bagged tree. On interrupt the partial forest
    /// is discarded — a half-grown forest would score differently from
    /// the configured one.
    fn step_unit(&self) -> &'static str {
        "per-tree"
    }

    fn fit_within(&mut self, x: &Matrix, y: &[f64], token: &CancelToken) -> Result<(), Interrupt> {
        validate_fit_inputs(x, y);
        let ranks = RankCodes::new(x);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = x.rows();
        let d = x.cols();
        // sqrt(d) features per tree, the standard classification default.
        let m = ((d as f64).sqrt().round() as usize).clamp(1, d);
        self.trees = Vec::with_capacity(self.n_trees);
        let all_features: Vec<usize> = (0..d).collect();
        for _ in 0..self.n_trees {
            if let Err(i) = token.checkpoint() {
                self.trees.clear();
                return Err(i);
            }
            let boot: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let mut feats = all_features.clone();
            feats.shuffle(&mut rng);
            feats.truncate(m);
            let mut tree = DecisionTree::new(self.max_depth, 2).with_feature_subset(feats);
            tree.grow(&ranks, y, boot);
            self.trees.push(tree);
        }
        Ok(())
    }

    fn score_one(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "RandomForest used before fit");
        let total: f64 = self.trees.iter().map(|t| t.score_one(row)).sum();
        total / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> (Matrix, Vec<f64>) {
        // Two Gaussian-ish blobs on a deterministic lattice.
        let mut rows = Vec::with_capacity(2 * n);
        let mut y = Vec::with_capacity(2 * n);
        for i in 0..n {
            let jitter = (i % 7) as f64 * 0.02;
            rows.push(vec![0.2 + jitter, 0.25 - jitter, 0.3]);
            y.push(0.0);
            rows.push(vec![0.8 - jitter, 0.75 + jitter, 0.7]);
            y.push(1.0);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn separates_blobs() {
        let (x, y) = blobs(40);
        let mut f = RandomForest::new(20, 4, 3);
        f.fit(&x, &y);
        assert_eq!(f.n_trees(), 20);
        let acc = (0..x.rows())
            .filter(|&r| (f.score_one(x.row(r)) >= 0.5) == (y[r] == 1.0))
            .count() as f64
            / x.rows() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(20);
        let mut a = RandomForest::new(10, 3, 99);
        let mut b = RandomForest::new(10, 3, 99);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for r in 0..x.rows() {
            assert_eq!(a.score_one(x.row(r)), b.score_one(x.row(r)));
        }
    }

    #[test]
    fn scores_average_trees_into_unit_interval() {
        let (x, y) = blobs(10);
        let mut f = RandomForest::new(7, 2, 1);
        f.fit(&x, &y);
        for r in 0..x.rows() {
            let s = f.score_one(x.row(r));
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let f = RandomForest::new(3, 2, 0);
        let _ = f.score_one(&[0.0]);
    }

    #[test]
    fn step_budget_cuts_growth_per_tree_and_discards_the_partial_forest() {
        use fairem_par::{Budget, CancelCause};
        let (x, y) = blobs(20);
        let mut f = RandomForest::new(20, 3, 7);
        let token = CancelToken::with_budget(Budget::steps(5));
        let i = f.fit_within(&x, &y, &token).expect_err("5 < 20 trees");
        assert_eq!(i.cause, CancelCause::StepLimit);
        assert_eq!(i.steps, 5, "exactly five trees were grown before the cut");
        assert_eq!(f.n_trees(), 0, "partial forest must be discarded");
    }
}
