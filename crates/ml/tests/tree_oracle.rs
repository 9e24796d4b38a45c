//! Oracle for the tree learner: `DecisionTree` and `RandomForest` must
//! score bit for bit like the straightforward CART they replace, which
//! sorts `(value, label)` tuples at every node and copies a bootstrap
//! matrix for every tree. That reference is kept here verbatim.
//!
//! Columns mix uniform reals with a pool of ±0.0, ±NaN, ±∞, 1e-300 and
//! repeated values, so the cases cover ties, `-0.0 == 0.0` boundaries
//! and NaN runs that share one bit pattern.

use fairem_ml::{Classifier, DecisionTree, Matrix, RandomForest};
use fairem_rng::check::{cases, Gen};
use fairem_rng::rngs::StdRng;
use fairem_rng::seq::SliceRandom;
use fairem_rng::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        positive_rate: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// The reference CART: a stable `total_cmp` sort at every node.
struct RefTree {
    max_depth: usize,
    min_samples_split: usize,
    root: Option<Node>,
    feature_subset: Option<Vec<usize>>,
}

impl RefTree {
    fn new(max_depth: usize, min_samples_split: usize) -> RefTree {
        RefTree {
            max_depth,
            min_samples_split,
            root: None,
            feature_subset: None,
        }
    }

    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        let mut idx: Vec<usize> = (0..x.rows()).collect();
        self.root = Some(self.build(x, y, &mut idx, 0));
    }

    fn build(&self, x: &Matrix, y: &[f64], idx: &mut [usize], depth: usize) -> Node {
        let n = idx.len();
        let positives: f64 = idx.iter().map(|&i| y[i]).sum();
        let positive_rate = positives / n as f64;
        let pure = positive_rate == 0.0 || positive_rate == 1.0;
        if depth >= self.max_depth || n < self.min_samples_split || pure {
            return Node::Leaf { positive_rate };
        }
        let Some((feature, threshold)) = self.best_split(x, y, idx) else {
            return Node::Leaf { positive_rate };
        };
        // Partition indices in place around the threshold.
        let mut mid = 0;
        for i in 0..n {
            if x.get(idx[i], feature) <= threshold {
                idx.swap(i, mid);
                mid += 1;
            }
        }
        if mid == 0 || mid == n {
            return Node::Leaf { positive_rate };
        }
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        let left = self.build(x, y, left_idx, depth + 1);
        let right = self.build(x, y, right_idx, depth + 1);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Exhaustive best split by Gini gain over candidate features.
    fn best_split(&self, x: &Matrix, y: &[f64], idx: &[usize]) -> Option<(usize, f64)> {
        let n = idx.len() as f64;
        let total_pos: f64 = idx.iter().map(|&i| y[i]).sum();
        let features: Vec<usize> = match &self.feature_subset {
            Some(s) => s.clone(),
            None => (0..x.cols()).collect(),
        };
        let mut best: Option<(usize, f64, f64, f64)> = None;
        let mut vals: Vec<(f64, f64)> = Vec::with_capacity(idx.len());
        for f in features {
            vals.clear();
            vals.extend(idx.iter().map(|&i| (x.get(i, f), y[i])));
            vals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut left_n = 0.0;
            let mut left_pos = 0.0;
            for w in 0..vals.len() - 1 {
                left_n += 1.0;
                left_pos += vals[w].1;
                // Only split between distinct values.
                if vals[w].0 == vals[w + 1].0 {
                    continue;
                }
                let right_n = n - left_n;
                let right_pos = total_pos - left_pos;
                let gini = |cnt: f64, pos: f64| {
                    if cnt == 0.0 {
                        0.0
                    } else {
                        let p = pos / cnt;
                        2.0 * p * (1.0 - p)
                    }
                };
                let weighted =
                    left_n / n * gini(left_n, left_pos) + right_n / n * gini(right_n, right_pos);
                let threshold = 0.5 * (vals[w].0 + vals[w + 1].0);
                let balance = left_n.min(right_n);
                let better = match best {
                    None => true,
                    Some((_, _, g, bal)) => {
                        weighted < g - 1e-12 || ((weighted - g).abs() <= 1e-12 && balance > bal)
                    }
                };
                if better {
                    best = Some((f, threshold, weighted, balance));
                }
            }
        }
        best.map(|(f, t, _, _)| (f, t))
    }

    fn score_one(&self, row: &[f64]) -> f64 {
        let mut node = self.root.as_ref().expect("fitted");
        loop {
            match node {
                Node::Leaf { positive_rate } => return *positive_rate,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// The reference forest: one `select_rows` copy per bootstrap tree.
fn ref_forest(x: &Matrix, y: &[f64], n_trees: usize, max_depth: usize, seed: u64) -> Vec<RefTree> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = x.rows();
    let d = x.cols();
    let m = ((d as f64).sqrt().round() as usize).clamp(1, d);
    let all_features: Vec<usize> = (0..d).collect();
    let mut trees = Vec::with_capacity(n_trees);
    for _ in 0..n_trees {
        let boot: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let mut feats = all_features.clone();
        feats.shuffle(&mut rng);
        feats.truncate(m);
        let xb = x.select_rows(&boot);
        let yb: Vec<f64> = boot.iter().map(|&i| y[i]).collect();
        let mut tree = RefTree::new(max_depth, 2);
        tree.feature_subset = Some(feats);
        tree.fit(&xb, &yb);
        trees.push(tree);
    }
    trees
}

fn ref_forest_score(trees: &[RefTree], row: &[f64]) -> f64 {
    let total: f64 = trees.iter().map(|t| t.score_one(row)).sum();
    total / trees.len() as f64
}

const POOL: [f64; 12] = [
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e-300,
    0.25,
    0.25,
    0.5,
    0.75,
    1.0,
];

/// One column value. A column draws uniform reals with probability
/// `pooled = 0`, the special pool with 1, or either half the time: a
/// mixed column has many distinct values and still repeats NaN bits,
/// so small nodes of it order NaN runs among many sparse codes.
fn cell(g: &mut Gen, pooled: f64) -> f64 {
    if g.bool(pooled) {
        *g.pick(&POOL)
    } else {
        g.f64_in(-1.0, 1.0)
    }
}

/// A training matrix (n in 1..=150, d in 1..=6), its labels, and 20
/// probe rows drawn the same way.
fn data(g: &mut Gen) -> (Matrix, Vec<f64>, Vec<Vec<f64>>) {
    let n = g.usize_in(1, 151);
    let d = g.usize_in(1, 7);
    let pooled: Vec<f64> = (0..d).map(|_| *g.pick(&[0.0, 0.5, 1.0])).collect();
    let row = |g: &mut Gen| -> Vec<f64> { pooled.iter().map(|&p| cell(g, p)).collect() };
    let rows: Vec<Vec<f64>> = (0..n).map(|_| row(g)).collect();
    let probes: Vec<Vec<f64>> = (0..20).map(|_| row(g)).collect();
    let p = g.unit_f64();
    let y: Vec<f64> = (0..n).map(|_| f64::from(u8::from(g.bool(p)))).collect();
    (Matrix::from_rows(&rows), y, probes)
}

/// Score bits over every training row and every probe.
fn bits(x: &Matrix, probes: &[Vec<f64>], score: impl Fn(&[f64]) -> f64) -> Vec<u64> {
    (0..x.rows())
        .map(|r| x.row(r))
        .chain(probes.iter().map(Vec::as_slice))
        .map(|row| score(row).to_bits())
        .collect()
}

#[test]
fn decision_tree_matches_the_per_node_sort() {
    cases(400, 0x7ee0a, |g| {
        let (x, y, probes) = data(g);
        let max_depth = g.usize_in(1, 10);
        let min_split = g.usize_in(2, 7);
        let subset = g.bool(0.3).then(|| {
            let mut f: Vec<usize> = (0..x.cols()).filter(|_| g.bool(0.6)).collect();
            if f.is_empty() {
                f.push(0);
            }
            f
        });
        let mut reference = RefTree::new(max_depth, min_split);
        reference.feature_subset = subset.clone();
        reference.fit(&x, &y);
        let mut tree = DecisionTree::new(max_depth, min_split);
        if let Some(s) = subset {
            tree = tree.with_feature_subset(s);
        }
        tree.fit(&x, &y);
        assert_eq!(
            bits(&x, &probes, |r| tree.score_one(r)),
            bits(&x, &probes, |r| reference.score_one(r)),
        );
    });
}

#[test]
fn random_forest_matches_the_bootstrap_copies() {
    cases(400, 0xf07e57, |g| {
        let (x, y, probes) = data(g);
        let n_trees = g.usize_in(1, 7);
        let max_depth = g.usize_in(1, 10);
        let seed = g.u64();
        let reference = ref_forest(&x, &y, n_trees, max_depth, seed);
        let mut forest = RandomForest::new(n_trees, max_depth, seed);
        forest.fit(&x, &y);
        assert_eq!(
            bits(&x, &probes, |r| forest.score_one(r)),
            bits(&x, &probes, |r| ref_forest_score(&reference, r)),
        );
    });
}
