//! HierMatcher-Lite: hierarchical token→attribute→record matching.
//!
//! Mirrors Fu et al.'s HierMatcher (IJCAI'21): tokens of each attribute
//! on one side attend over the tokens of the *other* side (cross-record
//! token alignment), the aligned comparisons are pooled per attribute,
//! and attribute-level vectors are aggregated into a record-level
//! representation for classification. Unlike DeepMatcher-Lite's blind
//! per-side summarization, token-level alignment lets the model tolerate
//! token-order and surface-form variation inside attributes.

use fairem_rng::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::params::ParamStore;

use super::{cross_attend, Lite, MlpHead, TokenPair, TrainConfig};

/// HierMatcher-Lite model (see module docs).
pub type HierMatcherLite = Lite<Arch>;

/// HierMatcher-Lite's parameter ids (into the model's `ParamStore`).
#[derive(Debug, Clone)]
pub struct Arch {
    embedding: usize,
    head: MlpHead,
    n_attrs: usize,
}

impl Arch {
    /// Align-and-compare one direction: each token of `a` attends over
    /// `b`; pooled mean of `|eₐ − attended|` → `1×D`.
    fn aligned_comparison(&self, g: &mut Graph, ea: NodeId, eb: NodeId) -> NodeId {
        let attended = cross_attend(g, ea, eb); // T×D
        let diff = g.sub(ea, attended);
        let diff = g.abs(diff);
        g.mean_rows(diff) // 1×D
    }
}

impl super::Arch for Arch {
    const NAME: &'static str = "HierMatcherLite";
    const SEED_OFFSET: u64 = 2;

    fn init(
        store: &mut ParamStore,
        config: &TrainConfig,
        n_attrs: usize,
        rng: &mut StdRng,
    ) -> Arch {
        let embedding = store.add_xavier(
            "embedding",
            config.vocab_size as usize,
            config.embed_dim,
            rng,
        );
        let head = MlpHead::init(
            store,
            "head",
            config.embed_dim * n_attrs,
            config.hidden,
            rng,
        );
        Arch {
            embedding,
            head,
            n_attrs,
        }
    }

    fn forward_logit(&self, g: &mut Graph, store: &ParamStore, pair: &TokenPair) -> NodeId {
        let table = g.param(store, self.embedding);
        let mut attr_vecs = Vec::with_capacity(self.n_attrs);
        for k in 0..self.n_attrs {
            let el = g.embed(table, &pair.left[k]);
            let er = g.embed(table, &pair.right[k]);
            let lr = self.aligned_comparison(g, el, er);
            let rl = self.aligned_comparison(g, er, el);
            // Symmetric attribute vector: average of both directions.
            let sum = g.add(lr, rl);
            attr_vecs.push(g.scale(sum, 0.5));
        }
        let record = g.concat_cols(&attr_vecs); // 1×(D·K)
        self.head.forward(g, store, record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{assert_learns, synthetic_pairs};
    use crate::models::NeuralMatcher;
    use crate::token::HashVocab;

    #[test]
    fn learns_synthetic_matching() {
        let mut m = HierMatcherLite::new(TrainConfig::fast());
        assert_learns(&mut m, 0.85);
    }

    #[test]
    fn token_order_invariance_from_alignment() {
        // Train, then check that flipping token order within an attribute
        // barely changes the score (alignment should absorb it).
        let vocab = HashVocab::new(128);
        let (pairs, labels) = synthetic_pairs(60, &vocab);
        let mut m = HierMatcherLite::new(TrainConfig::fast());
        m.fit(&pairs, &labels);
        let a = vocab.encode_words("wei li");
        let b = vocab.encode_words("li wei");
        let affil = vocab.encode_words("uic");
        let straight = TokenPair {
            left: vec![a.clone(), affil.clone()],
            right: vec![a.clone(), affil.clone()],
        };
        let flipped = TokenPair {
            left: vec![a, affil.clone()],
            right: vec![b, affil],
        };
        let ds = m.score(&straight);
        let df = m.score(&flipped);
        assert!(
            (ds - df).abs() < 0.2,
            "alignment should tolerate order: {ds} vs {df}"
        );
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let m = HierMatcherLite::new(TrainConfig::fast());
        let _ = m.score(&TokenPair {
            left: vec![vec![0]],
            right: vec![vec![0]],
        });
    }
}
