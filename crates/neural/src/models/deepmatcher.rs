//! DeepMatcher-Lite: attribute summarize-and-compare.
//!
//! Mirrors the *attribute-summarization* design of Mudgal et al.'s
//! DeepMatcher (SIGMOD'18): each attribute's token embeddings are
//! summarized into a fixed vector per side, the two sides are compared
//! elementwise, and a classifier consumes the concatenated per-attribute
//! comparison vectors.

use fairem_rng::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::params::ParamStore;

use super::{compare, Lite, MlpHead, TokenPair, TrainConfig};

/// DeepMatcher-Lite model (see module docs).
pub type DeepMatcherLite = Lite<Arch>;

/// DeepMatcher-Lite's parameter ids (into the model's `ParamStore`).
#[derive(Debug, Clone)]
pub struct Arch {
    embedding: usize,
    head: MlpHead,
    n_attrs: usize,
}

impl super::Arch for Arch {
    const NAME: &'static str = "DeepMatcherLite";
    const SEED_OFFSET: u64 = 0;

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
        let input_dim = 2 * config.embed_dim * n_attrs;
        let head = MlpHead::init(store, "head", input_dim, config.hidden, rng);
        Arch {
            embedding,
            head,
            n_attrs,
        }
    }

    fn forward_logit(&self, g: &mut Graph, store: &ParamStore, pair: &TokenPair) -> NodeId {
        let table = g.param(store, self.embedding);
        let mut comps = Vec::with_capacity(self.n_attrs);
        for k in 0..self.n_attrs {
            let el = g.embed(table, &pair.left[k]);
            let el = g.mean_rows(el);
            let er = g.embed(table, &pair.right[k]);
            let er = g.mean_rows(er);
            comps.push(compare(g, el, er));
        }
        let features = g.concat_cols(&comps);
        self.head.forward(g, store, features)
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
        let mut m = DeepMatcherLite::new(TrainConfig::fast());
        assert_learns(&mut m, 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let vocab = HashVocab::new(128);
        let (pairs, labels) = synthetic_pairs(40, &vocab);
        let mut a = DeepMatcherLite::new(TrainConfig::fast());
        let mut b = DeepMatcherLite::new(TrainConfig::fast());
        a.fit(&pairs, &labels);
        b.fit(&pairs, &labels);
        for p in &pairs {
            assert_eq!(a.score(p), b.score(p));
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let m = DeepMatcherLite::new(TrainConfig::fast());
        let _ = m.score(&TokenPair {
            left: vec![vec![0]],
            right: vec![vec![0]],
        });
    }

    #[test]
    #[should_panic(expected = "attribute count changed")]
    fn score_checks_attr_count() {
        let vocab = HashVocab::new(128);
        let (pairs, labels) = synthetic_pairs(10, &vocab);
        let mut m = DeepMatcherLite::new(TrainConfig::fast());
        m.fit(&pairs, &labels);
        let _ = m.score(&TokenPair {
            left: vec![vec![0]],
            right: vec![vec![0]],
        });
    }
}
