//! The four neural matcher architectures (Lite reproductions of
//! DeepMatcher, Ditto, HierMatcher and MCAN) behind one trainer and
//! scorer, [`Lite`].
//!
//! Each model consumes [`TokenPair`]s — a record pair tokenized per
//! attribute into hashing-vocabulary ids — and is trained end-to-end with
//! binary cross-entropy through the tape autograd in [`crate::graph`].
//! A model file holds only its [`Arch`]: the parameters it registers and
//! its forward pass.

mod deepmatcher;
mod ditto;
mod hiermatcher;
mod mcan;

pub use deepmatcher::DeepMatcherLite;
pub use ditto::DittoLite;
pub use hiermatcher::HierMatcherLite;
pub use mcan::McanLite;

use fairem_par::{CancelToken, Interrupt};
use fairem_rng::rngs::StdRng;
use fairem_rng::seq::SliceRandom;
use fairem_rng::SeedableRng;

use crate::graph::{Graph, NodeId};
use crate::params::{Adam, ParamStore};

/// A tokenized record pair: `left[k]` / `right[k]` hold the token ids of
/// attribute `k`. Both sides must have the same number of attributes, and
/// every attribute has at least one token (the vocabulary's empty marker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenPair {
    /// Token ids per attribute of the left record.
    pub left: Vec<Vec<u32>>,
    /// Token ids per attribute of the right record.
    pub right: Vec<Vec<u32>>,
}

impl TokenPair {
    /// Number of attributes (validated equal on both sides).
    ///
    /// # Panics
    /// If the two sides have different attribute counts.
    pub fn n_attrs(&self) -> usize {
        assert_eq!(
            self.left.len(),
            self.right.len(),
            "attribute count mismatch"
        );
        self.left.len()
    }
}

/// Hyperparameters shared by all Lite models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Embedding-table height (hashing vocabulary size).
    pub vocab_size: u32,
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Hidden width of the classification MLP.
    pub hidden: usize,
    /// Training passes over the data.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            vocab_size: 512,
            embed_dim: 12,
            hidden: 16,
            epochs: 8,
            lr: 0.02,
            seed: 7,
        }
    }
}

impl TrainConfig {
    /// A smaller, faster configuration for unit tests.
    pub fn fast() -> TrainConfig {
        TrainConfig {
            vocab_size: 128,
            embed_dim: 8,
            hidden: 8,
            epochs: 5,
            lr: 0.05,
            seed: 7,
        }
    }
}

/// A trainable neural entity matcher over tokenized pairs.
pub trait NeuralMatcher {
    /// Train on pairs with 0/1 labels.
    ///
    /// # Panics
    /// If inputs are empty, lengths disagree, labels are not 0/1, or the
    /// pairs have inconsistent attribute counts.
    fn fit(&mut self, pairs: &[TokenPair], labels: &[f64]) {
        // An inert token never trips, so this cannot fail.
        let _ = self.fit_within(pairs, labels, &CancelToken::inert());
    }

    /// Cancellable [`NeuralMatcher::fit`]: polls `token` at the
    /// trainer's checkpoint granularity and bails with the
    /// [`Interrupt`] record when it trips, leaving the model unfitted.
    /// With an untripped token this is bit-for-bit `fit`.
    ///
    /// # Panics
    /// As [`NeuralMatcher::fit`].
    fn fit_within(
        &mut self,
        pairs: &[TokenPair],
        labels: &[f64],
        token: &CancelToken,
    ) -> Result<(), Interrupt>;

    /// The checkpoint granularity of [`NeuralMatcher::fit_within`] as a
    /// human-readable unit, surfaced in observability span annotations.
    fn step_unit(&self) -> &'static str;

    /// Match score in `[0, 1]` for one pair.
    fn score(&self, pair: &TokenPair) -> f64;

    /// Scores for a batch of pairs.
    fn score_all(&self, pairs: &[TokenPair]) -> Vec<f64> {
        pairs.iter().map(|p| self.score(p)).collect()
    }
}

/// One Lite architecture: the parameters it registers and its forward
/// pass. [`Lite`] owns the rest — validation, seeding, training and
/// scoring.
pub trait Arch {
    /// The model's name, used in the fit-before-score panic.
    const NAME: &'static str;
    /// Added to [`TrainConfig::seed`] to seed initialization, so the
    /// models draw different weights from one configuration.
    const SEED_OFFSET: u64;

    /// Reject a configuration the architecture cannot use.
    ///
    /// # Panics
    /// If the configuration is unusable.
    fn check(_config: &TrainConfig) {}

    /// Register the parameters in `store`, drawing weights from `rng`,
    /// for pairs of `n_attrs` attributes.
    fn init(store: &mut ParamStore, config: &TrainConfig, n_attrs: usize, rng: &mut StdRng)
        -> Self;

    /// The `1×1` match logit of `pair`.
    fn forward_logit(&self, g: &mut Graph, store: &ParamStore, pair: &TokenPair) -> NodeId;
}

/// A Lite matcher of architecture `A`; see the aliases
/// [`DeepMatcherLite`], [`DittoLite`], [`HierMatcherLite`] and
/// [`McanLite`].
#[derive(Debug)]
pub struct Lite<A: Arch> {
    config: TrainConfig,
    store: ParamStore,
    /// The fitted architecture and the attribute count it was fitted on.
    fitted: Option<(A, usize)>,
}

impl<A: Arch> Lite<A> {
    /// Create an untrained model.
    ///
    /// # Panics
    /// If `config` fails the architecture's [`Arch::check`].
    pub fn new(config: TrainConfig) -> Lite<A> {
        A::check(&config);
        Lite {
            config,
            store: ParamStore::new(),
            fitted: None,
        }
    }
}

impl<A: Arch> NeuralMatcher for Lite<A> {
    /// Per-example SGD: one forward/backward pass and one Adam step per
    /// example, shuffled each epoch. Polls `token` before every step —
    /// the finest checkpoint granularity in the suite, so even a
    /// single-epoch fit on a large workload is cut within one example of
    /// the deadline. An interrupted fit discards the partly-updated
    /// parameters.
    fn fit_within(
        &mut self,
        pairs: &[TokenPair],
        labels: &[f64],
        token: &CancelToken,
    ) -> Result<(), Interrupt> {
        let n_attrs = validate_training_inputs(pairs, labels);
        let config = &self.config;
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(A::SEED_OFFSET));
        let mut store = ParamStore::new();
        let arch = A::init(&mut store, config, n_attrs, &mut rng);
        let pos_w = positive_weight(labels);
        let mut opt = Adam::new(&store, config.lr);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                token.checkpoint()?;
                let mut g = Graph::new();
                let target = labels[i] as f32;
                let logit = arch.forward_logit(&mut g, &store, &pairs[i]);
                let loss = g.bce_with_logit(logit, target);
                let loss = if target == 1.0 && pos_w > 1.0 {
                    g.scale(loss, pos_w)
                } else {
                    loss
                };
                let grads = g.backward(loss, store.len());
                opt.step(&mut store, &grads);
            }
        }
        self.store = store;
        self.fitted = Some((arch, n_attrs));
        Ok(())
    }

    fn step_unit(&self) -> &'static str {
        "per-example"
    }

    fn score(&self, pair: &TokenPair) -> f64 {
        let Some((arch, n_attrs)) = self.fitted.as_ref() else {
            // fairem: allow(panic) — documented fit-before-score contract on the model API
            panic!("{} used before fit", A::NAME)
        };
        assert_eq!(
            pair.n_attrs(),
            *n_attrs,
            "attribute count changed since fit"
        );
        let mut g = Graph::new();
        let logit = arch.forward_logit(&mut g, &self.store, pair);
        let prob = g.sigmoid(logit);
        g.value(prob).item() as f64
    }
}

fn validate_training_inputs(pairs: &[TokenPair], labels: &[f64]) -> usize {
    assert!(!pairs.is_empty(), "cannot fit on an empty pair set");
    assert_eq!(pairs.len(), labels.len(), "pairs and labels must align");
    assert!(
        labels.iter().all(|&v| v == 0.0 || v == 1.0),
        "labels must be 0.0 or 1.0"
    );
    let n_attrs = pairs[0].n_attrs();
    assert!(n_attrs > 0, "pairs must have at least one attribute");
    for p in pairs {
        assert_eq!(p.n_attrs(), n_attrs, "inconsistent attribute counts");
    }
    n_attrs
}

/// Positive-class loss weight `min(n_neg / n_pos, 8)` to counter the
/// class imbalance inherent to EM workloads; 1.0 when a class is absent.
fn positive_weight(labels: &[f64]) -> f32 {
    let pos = labels.iter().filter(|&&v| v == 1.0).count();
    let neg = labels.len() - pos;
    if pos == 0 || neg == 0 {
        1.0
    } else {
        (neg as f32 / pos as f32).clamp(1.0, 8.0)
    }
}

/// Two-layer MLP head: `logit = W₂·relu(x·W₁ + b₁) + b₂` for a `1×D` input.
#[derive(Debug, Clone)]
pub(crate) struct MlpHead {
    pub w1: usize,
    pub b1: usize,
    pub w2: usize,
    pub b2: usize,
}

impl MlpHead {
    pub(crate) fn init(
        store: &mut ParamStore,
        prefix: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut StdRng,
    ) -> MlpHead {
        MlpHead {
            w1: store.add_xavier(format!("{prefix}.w1"), input_dim, hidden, rng),
            b1: store.add_zeros(format!("{prefix}.b1"), 1, hidden),
            w2: store.add_xavier(format!("{prefix}.w2"), hidden, 1, rng),
            b2: store.add_zeros(format!("{prefix}.b2"), 1, 1),
        }
    }

    /// Apply the head to a `1×D` node, returning the `1×1` logit node.
    pub(crate) fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w1 = g.param(store, self.w1);
        let b1 = g.param(store, self.b1);
        let w2 = g.param(store, self.w2);
        let b2 = g.param(store, self.b2);
        let h = g.matmul(x, w1);
        let h = g.add_row(h, b1);
        let h = g.relu(h);
        let out = g.matmul(h, w2);
        g.add_row(out, b2)
    }
}

/// Attention pooling of a `T×D` embedding block with a learned `D×1`
/// query: `softmax(E·q)ᵀ · E`, returning `1×D`.
pub(crate) fn attention_pool(g: &mut Graph, emb: NodeId, query: NodeId) -> NodeId {
    let scores = g.matmul(emb, query); // T×1
    let row = g.transpose(scores); // 1×T
    let alpha = g.softmax_rows(row); // 1×T
    g.matmul(alpha, emb) // 1×D
}

/// Cross-attention: every row of `a` (T×D) attends over `b` (S×D),
/// returning the attended `T×D` representation `softmax(a·bᵀ)·b`.
pub(crate) fn cross_attend(g: &mut Graph, a: NodeId, b: NodeId) -> NodeId {
    let scores = g.matmul_t(a, b); // T×S
    let alpha = g.softmax_rows(scores);
    g.matmul(alpha, b)
}

/// Elementwise comparison vector `[|a−b| ; a⊙b]` of two `1×D` nodes → `1×2D`.
pub(crate) fn compare(g: &mut Graph, a: NodeId, b: NodeId) -> NodeId {
    let diff = g.sub(a, b);
    let adiff = g.abs(diff);
    let prod = g.mul(a, b);
    g.concat_cols(&[adiff, prod])
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::token::HashVocab;

    /// Synthetic pair dataset: matching pairs share most name tokens,
    /// non-matching pairs don't. Two attributes (name, affiliation).
    pub fn synthetic_pairs(n: usize, vocab: &HashVocab) -> (Vec<TokenPair>, Vec<f64>) {
        let names = [
            "wei li",
            "li wei",
            "john smith",
            "jane doe",
            "hans muller",
            "maria garcia",
            "raj patel",
            "chen wang",
            "anna schmidt",
            "luo yang",
        ];
        let affils = ["uic", "rochester", "att labs", "tsinghua", "munich"];
        let mut pairs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let name = names[i % names.len()];
            let affil = affils[i % affils.len()];
            if i % 2 == 0 {
                // Match: same name (token order possibly flipped), same affil.
                pairs.push(TokenPair {
                    left: vec![vocab.encode_words(name), vocab.encode_words(affil)],
                    right: vec![vocab.encode_words(name), vocab.encode_words(affil)],
                });
                labels.push(1.0);
            } else {
                let other = names[(i + 3) % names.len()];
                let other_affil = affils[(i + 2) % affils.len()];
                pairs.push(TokenPair {
                    left: vec![vocab.encode_words(name), vocab.encode_words(affil)],
                    right: vec![vocab.encode_words(other), vocab.encode_words(other_affil)],
                });
                labels.push(0.0);
            }
        }
        (pairs, labels)
    }

    /// Train `m` on the synthetic set and assert train accuracy ≥ `min_acc`.
    pub fn assert_learns(m: &mut dyn NeuralMatcher, min_acc: f64) {
        let vocab = HashVocab::new(128);
        let (pairs, labels) = synthetic_pairs(80, &vocab);
        m.fit(&pairs, &labels);
        let correct = pairs
            .iter()
            .zip(&labels)
            .filter(|(p, &y)| (m.score(p) >= 0.5) == (y == 1.0))
            .count();
        let acc = correct as f64 / pairs.len() as f64;
        assert!(acc >= min_acc, "train accuracy {acc} < {min_acc}");
        for p in &pairs {
            let s = m.score(p);
            assert!((0.0..=1.0).contains(&s), "score out of range: {s}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_weight_balances() {
        assert_eq!(positive_weight(&[1.0, 0.0, 0.0, 0.0]), 3.0);
        assert_eq!(positive_weight(&[1.0, 1.0]), 1.0);
        assert_eq!(positive_weight(&[0.0, 0.0]), 1.0);
        // Clamped at 8.
        let mut labels = vec![0.0; 100];
        labels.push(1.0);
        assert_eq!(positive_weight(&labels), 8.0);
    }

    #[test]
    fn step_budget_cuts_training_per_example_and_leaves_model_unfitted() {
        use crate::token::HashVocab;
        use fairem_par::{Budget, CancelCause, CancelToken};
        let vocab = HashVocab::new(128);
        let (pairs, labels) = testutil::synthetic_pairs(40, &vocab);
        let mut m = DeepMatcherLite::new(TrainConfig::fast());
        let token = CancelToken::with_budget(Budget::steps(10));
        let i = m
            .fit_within(&pairs, &labels, &token)
            .expect_err("10 steps < 5 epochs x 40 examples");
        assert_eq!(i.cause, CancelCause::StepLimit);
        assert_eq!(i.steps, 10, "exactly ten examples were stepped");
        // The interrupted model never becomes scoreable.
        let r = std::panic::catch_unwind(|| m.score(&pairs[0]));
        assert!(r.is_err(), "interrupted model must not score");
    }

    #[test]
    fn fit_within_on_an_inert_token_matches_fit_bit_for_bit() {
        use crate::token::HashVocab;
        use fairem_par::CancelToken;
        let vocab = HashVocab::new(128);
        let (pairs, labels) = testutil::synthetic_pairs(30, &vocab);
        let mut plain = DittoLite::new(TrainConfig::fast());
        plain.fit(&pairs, &labels);
        let mut within = DittoLite::new(TrainConfig::fast());
        within
            .fit_within(&pairs, &labels, &CancelToken::inert())
            .expect("inert token");
        for p in &pairs {
            assert_eq!(plain.score(p).to_bits(), within.score(p).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "attribute count mismatch")]
    fn token_pair_validates_sides() {
        let p = TokenPair {
            left: vec![vec![1]],
            right: vec![vec![1], vec![2]],
        };
        let _ = p.n_attrs();
    }
}
