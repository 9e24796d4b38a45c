//! Property tests on the ML substrate: score ranges, scaler algebra,
//! metric bounds, k-fold partitioning. Runs on the in-workspace
//! `fairem_rng::check` harness.

use fairem_ml::{
    accuracy, auc_roc, f1_score, kfold_indices, precision, recall, Classifier, DecisionTree,
    GaussianNb, KnnClassifier, LinearRegression, LinearSvm, LogisticRegression, Matrix,
    RandomForest, StandardScaler,
};
use fairem_rng::check::{cases, Gen};

fn gen_dataset(g: &mut Gen) -> (Matrix, Vec<f64>) {
    let n = g.usize_in(2, 30);
    let d = g.usize_in(1, 4);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| g.f64_in(-3.0, 3.0)).collect())
        .collect();
    let labels: Vec<f64> = (0..n).map(|_| f64::from(g.bool(0.5))).collect();
    (Matrix::from_rows(&rows), labels)
}

#[test]
fn every_model_scores_in_unit_interval() {
    cases(48, 0x3101, |g| {
        let (x, y) = gen_dataset(g);
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(DecisionTree::new(4, 2)),
            Box::new(RandomForest::new(5, 3, 1)),
            Box::new(LinearSvm::new(0.05, 5, 1)),
            Box::new(LogisticRegression::new(0.3, 20, 0.01)),
            Box::new(LinearRegression::new(1e-6)),
            Box::new(GaussianNb::new()),
            Box::new(KnnClassifier::new(3)),
        ];
        for mut m in models {
            m.fit(&x, &y);
            for r in 0..x.rows() {
                let s = m.score_one(x.row(r));
                assert!((0.0..=1.0).contains(&s), "score {s}");
            }
        }
    });
}

#[test]
fn scaler_transform_is_affine_invertible() {
    cases(48, 0x3102, |g| {
        let (x, _) = gen_dataset(g);
        let sc = StandardScaler::fit(&x);
        let t = sc.transform(&x);
        assert_eq!(t.rows(), x.rows());
        // Column means ~ 0 after transform (or exactly 0 for constants).
        for c in 0..t.cols() {
            let mean: f64 = (0..t.rows()).map(|r| t.get(r, c)).sum::<f64>() / t.rows() as f64;
            assert!(mean.abs() < 1e-6, "col {c} mean {mean}");
        }
    });
}

#[test]
fn metrics_are_bounded() {
    cases(48, 0x3103, |g| {
        let preds = g.vec_len(1, 40, |g| g.bool(0.5));
        let truths: Vec<bool> = preds.iter().map(|&p| p ^ g.bool(0.5)).collect();
        for v in [
            accuracy(&preds, &truths),
            precision(&preds, &truths),
            recall(&preds, &truths),
            f1_score(&preds, &truths),
        ] {
            assert!(v.is_nan() || (0.0..=1.0).contains(&v), "{v}");
        }
    });
}

#[test]
fn auc_is_invariant_to_monotone_score_transforms() {
    cases(48, 0x3104, |g| {
        let scores = g.vec_len(4, 30, Gen::unit_f64);
        let truths: Vec<bool> = scores.iter().map(|_| g.bool(0.5)).collect();
        let a = auc_roc(&scores, &truths);
        let squashed: Vec<f64> = scores.iter().map(|&s| s * s * 0.5).collect();
        let b = auc_roc(&squashed, &truths);
        if a.is_nan() {
            assert!(b.is_nan());
        } else {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    });
}

#[test]
fn kfold_is_a_partition() {
    cases(48, 0x3107, |g| {
        let n = g.usize_in(4, 60);
        let k = g.usize_in(2, 5).min(n);
        let folds = kfold_indices(n, k, g.u64());
        let mut all: Vec<usize> = folds.iter().flat_map(|(_, t)| t.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    });
}
