//! CART decision tree with Gini impurity — the DTMatcher model.

use crate::matrix::Matrix;
use crate::{validate_fit_inputs, Classifier};

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Fraction of positive examples in this leaf (the match score).
        positive_rate: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A binary CART decision tree trained with Gini impurity.
///
/// Leaves output the positive-class fraction of their training examples,
/// so scores are piecewise-constant probabilities.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    max_depth: usize,
    min_samples_split: usize,
    root: Option<Node>,
    /// Restrict candidate split features to this set (used by the forest).
    feature_subset: Option<Vec<usize>>,
}

impl DecisionTree {
    /// Create an untrained tree.
    ///
    /// `max_depth` bounds tree height (1 = a stump); `min_samples_split`
    /// is the minimum node size eligible for splitting.
    pub fn new(max_depth: usize, min_samples_split: usize) -> DecisionTree {
        assert!(max_depth >= 1, "max_depth must be at least 1");
        assert!(
            min_samples_split >= 2,
            "min_samples_split must be at least 2"
        );
        DecisionTree {
            max_depth,
            min_samples_split,
            root: None,
            feature_subset: None,
        }
    }

    /// Restrict split search to a feature subset (random-forest use).
    pub fn with_feature_subset(mut self, subset: Vec<usize>) -> DecisionTree {
        self.feature_subset = Some(subset);
        self
    }

    /// Number of leaves (0 before training).
    #[cfg(test)]
    fn n_leaves(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        self.root.as_ref().map_or(0, count)
    }

    /// Grow the tree over `rows` (row ids into `ranks`' matrix, repeats
    /// allowed: the forest passes a bootstrap draw). The tree equals one
    /// fitted on the matrix of those rows in that order.
    pub(crate) fn grow(&mut self, ranks: &RankCodes, y: &[f64], mut rows: Vec<usize>) {
        let mut scratch = Scratch::default();
        self.root = Some(self.build(ranks, y, &mut rows, 0, &mut scratch));
    }

    fn build(
        &self,
        ranks: &RankCodes,
        y: &[f64],
        idx: &mut [usize],
        depth: usize,
        scratch: &mut Scratch,
    ) -> Node {
        let x = ranks.x;
        let n = idx.len();
        let positives: f64 = idx.iter().map(|&i| y[i]).sum();
        let positive_rate = positives / n as f64;
        let pure = positive_rate == 0.0 || positive_rate == 1.0;
        if depth >= self.max_depth || n < self.min_samples_split || pure {
            return Node::Leaf { positive_rate };
        }
        let Some((feature, threshold)) = self.best_split(ranks, y, idx, scratch) else {
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
        let left = self.build(ranks, y, left_idx, depth + 1, scratch);
        let right = self.build(ranks, y, right_idx, depth + 1, scratch);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Exhaustive best split by Gini gain over candidate features.
    fn best_split(
        &self,
        ranks: &RankCodes,
        y: &[f64],
        idx: &[usize],
        scratch: &mut Scratch,
    ) -> Option<(usize, f64)> {
        let n = idx.len() as f64;
        let total_pos: f64 = idx.iter().map(|&i| y[i]).sum();
        let features: Vec<usize> = match &self.feature_subset {
            Some(s) => s.clone(),
            None => (0..ranks.x.cols()).collect(),
        };
        // (feature, threshold, weighted gini, balance). Ties on gini are
        // broken toward the more balanced split — without this, plateaus
        // like XOR pick degenerate one-off splits and stall.
        let mut best: Option<(usize, f64, f64, f64)> = None;
        for f in features {
            let vals = scratch.ordered(ranks, y, idx, f);
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
}

/// A training matrix with each column's values replaced by rank codes,
/// computed once per fit: a row's code is the index of its value among
/// the column's distinct bit patterns, in `total_cmp` order. Rows that
/// share a code share their bits, so values are read back from the
/// matrix and no per-code value table is kept.
pub(crate) struct RankCodes<'a> {
    x: &'a Matrix,
    /// Column-major: `codes[f * x.rows() + r]`.
    codes: Vec<u32>,
    /// Number of distinct bit patterns per column.
    distinct: Vec<usize>,
}

impl<'a> RankCodes<'a> {
    /// Rank every column of a non-empty matrix.
    pub(crate) fn new(x: &'a Matrix) -> RankCodes<'a> {
        let (n, d) = (x.rows(), x.cols());
        assert!(
            n > 0 && u32::try_from(n).is_ok(),
            "rank codes need 1..=u32::MAX rows"
        );
        let mut codes = vec![0u32; n * d];
        let mut distinct = Vec::with_capacity(d);
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n);
        for f in 0..d {
            keyed.clear();
            keyed.extend((0..n).map(|r| (total_order_key(x.get(r, f)), r as u32)));
            // Rows that share a key share a code, so their order is free.
            keyed.sort_unstable_by_key(|&(key, _)| key);
            let col = &mut codes[f * n..(f + 1) * n];
            let mut code = 0;
            for (k, &(key, r)) in keyed.iter().enumerate() {
                if k > 0 && key != keyed[k - 1].0 {
                    code += 1;
                }
                col[r as usize] = code;
            }
            distinct.push(code as usize + 1);
        }
        RankCodes { x, codes, distinct }
    }

    fn code(&self, f: usize, r: usize) -> u32 {
        self.codes[f * self.x.rows() + r]
    }
}

/// `u64` whose unsigned order is `f64::total_cmp` order, one key per bit
/// pattern: negatives have every bit flipped, the rest the sign bit set.
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Buffers reused across the nodes of one tree.
#[derive(Default)]
struct Scratch {
    /// The node's `(value, label)` sequence in scan order.
    vals: Vec<(f64, f64)>,
    /// Counting-sort offsets, one per code.
    counts: Vec<u32>,
}

impl Scratch {
    /// The node's `(value, label)` pairs on feature `f`, ordered by
    /// (code, position in the node) with a stable counting sort over
    /// codes: the sequence a stable sort by `total_cmp` yields. Position
    /// order inside a code matters only for NaN, whose `!=` puts a
    /// boundary between identical bits.
    fn ordered(&mut self, ranks: &RankCodes, y: &[f64], idx: &[usize], f: usize) -> &[(f64, f64)] {
        let x = ranks.x;
        let distinct = ranks.distinct[f];
        self.counts.clear();
        self.counts.resize(distinct + 1, 0);
        for &r in idx {
            self.counts[ranks.code(f, r) as usize + 1] += 1;
        }
        for c in 1..distinct {
            self.counts[c] += self.counts[c - 1];
        }
        self.vals.clear();
        self.vals.resize(idx.len(), (0.0, 0.0));
        for &r in idx {
            let slot = &mut self.counts[ranks.code(f, r) as usize];
            self.vals[*slot as usize] = (x.get(r, f), y[r]);
            *slot += 1;
        }
        &self.vals
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        validate_fit_inputs(x, y);
        self.grow(&RankCodes::new(x), y, (0..x.rows()).collect());
    }

    fn score_one(&self, row: &[f64]) -> f64 {
        let Some(mut node) = self.root.as_ref() else {
            // fairem: allow(panic) — documented fit-before-score contract on Classifier
            panic!("DecisionTree used before fit")
        };
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

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<f64>) {
        // XOR is not linearly separable; a depth-2 tree nails it.
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.1],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.9, 0.9],
        ];
        let y = vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(3, 2);
        t.fit(&x, &y);
        #[allow(clippy::needless_range_loop)]
        for r in 0..x.rows() {
            let s = t.score_one(x.row(r));
            assert_eq!(s >= 0.5, y[r] == 1.0, "row {r} score {s}");
        }
        assert!(t.n_leaves() >= 3);
    }

    #[test]
    fn depth_one_is_a_stump() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(1, 2);
        t.fit(&x, &y);
        assert!(t.n_leaves() <= 2);
    }

    #[test]
    fn pure_node_stops_early() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1.0, 1.0, 1.0];
        let mut t = DecisionTree::new(5, 2);
        t.fit(&x, &y);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.score_one(&[9.0]), 1.0);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let mut t = DecisionTree::new(5, 2);
        t.fit(&x, &y);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.score_one(&[1.0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let t = DecisionTree::new(2, 2);
        let _ = t.score_one(&[0.0]);
    }

    #[test]
    fn feature_subset_restricts_splits() {
        let (x, y) = xor_data();
        // Only feature 0 allowed: cannot learn XOR.
        let mut t = DecisionTree::new(3, 2).with_feature_subset(vec![0]);
        t.fit(&x, &y);
        let wrong = (0..x.rows())
            .filter(|&r| (t.score_one(x.row(r)) >= 0.5) != (y[r] == 1.0))
            .count();
        assert!(wrong > 0, "single-feature tree should fail XOR");
    }
}
