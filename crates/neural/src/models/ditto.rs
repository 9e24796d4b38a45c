//! Ditto-Lite: serialized-sequence matching.
//!
//! Mirrors the *serialize-then-encode* design of Li et al.'s Ditto
//! (PVLDB'20): the record pair is flattened into one token sequence with
//! special separator tokens (`[COL]`-style attribute markers and a
//! `[SEP]` between the two records), encoded as embeddings, pooled with
//! learned attention (standing in for the pretrained transformer), and
//! classified from the pooled representation.

use fairem_rng::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::params::ParamStore;
use crate::token::RESERVED_TOKENS;

use super::{attention_pool, Lite, MlpHead, TokenPair, TrainConfig};

/// Ditto-Lite model (see module docs). `DittoLite::new` panics if the
/// configured vocabulary cannot hold the reserved specials.
pub type DittoLite = Lite<Arch>;

/// Special id used as the `[COL]` attribute marker.
const COL: u32 = 1;
/// Special id used as the `[SEP]` record separator.
const SEP: u32 = 2;

/// Ditto-Lite's parameter ids (into the model's `ParamStore`).
#[derive(Debug, Clone)]
pub struct Arch {
    embedding: usize,
    query: usize,
    head: MlpHead,
}

impl Arch {
    fn serialize(&self, pair: &TokenPair) -> Vec<u32> {
        let total: usize = pair
            .left
            .iter()
            .chain(pair.right.iter())
            .map(|a| a.len() + 1)
            .sum::<usize>()
            + 1;
        let mut seq = Vec::with_capacity(total);
        for attr in &pair.left {
            seq.push(COL);
            seq.extend_from_slice(attr);
        }
        seq.push(SEP);
        for attr in &pair.right {
            seq.push(COL);
            seq.extend_from_slice(attr);
        }
        seq
    }
}

impl super::Arch for Arch {
    const NAME: &'static str = "DittoLite";
    const SEED_OFFSET: u64 = 1;

    fn check(config: &TrainConfig) {
        assert!(
            config.vocab_size > RESERVED_TOKENS,
            "vocab too small for specials"
        );
    }

    fn init(
        store: &mut ParamStore,
        config: &TrainConfig,
        _n_attrs: usize,
        rng: &mut StdRng,
    ) -> Arch {
        let embedding = store.add_xavier(
            "embedding",
            config.vocab_size as usize,
            config.embed_dim,
            rng,
        );
        let query = store.add_xavier("attn_query", config.embed_dim, 1, rng);
        let head = MlpHead::init(store, "head", 3 * config.embed_dim, config.hidden, rng);
        Arch {
            embedding,
            query,
            head,
        }
    }

    fn forward_logit(&self, g: &mut Graph, store: &ParamStore, pair: &TokenPair) -> NodeId {
        let seq = self.serialize(pair);
        let table = g.param(store, self.embedding);
        let emb = g.embed(table, &seq); // T×D
                                        // One self-attention interaction layer over the joint sequence —
                                        // the stand-in for Ditto's transformer encoder. The diagonal is
                                        // masked so a token must find support among the *other* tokens,
                                        // which is what lets the model notice cross-record agreement.
        let t = seq.len();
        let scores = g.matmul_t(emb, emb); // T×T
                                           // Sharpen: Xavier-scale embeddings give near-zero dot products at
                                           // init, which makes the masked softmax uniform and starves the
                                           // alignment signal of gradient; a fixed temperature fixes that.
        let scores = g.scale(scores, 8.0);
        let mut mask = crate::tensor::Tensor::zeros(t, t);
        for i in 0..t {
            mask.row_mut(i)[i] = -1e9;
        }
        let mask = g.input(mask);
        let masked = g.add(scores, mask);
        let alpha = g.softmax_rows(masked);
        let ctx = g.matmul(alpha, emb); // T×D: best non-self support per token
        let residual = g.sub(emb, ctx);
        let residual = g.abs(residual);
        let residual = g.mean_rows(residual); // 1×D alignment residual
        let q = g.param(store, self.query);
        let attended = attention_pool(g, emb, q); // 1×D
        let mean = g.mean_rows(emb); // 1×D
        let features = g.concat_cols(&[attended, mean, residual]); // 1×3D
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
        // Ditto-Lite has no hand-built comparison features (the real
        // Ditto leans on its transformer for token interaction), so it
        // needs more epochs than the compare-style architectures.
        let mut m = DittoLite::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::fast()
        });
        assert_learns(&mut m, 0.85);
    }

    #[test]
    fn serialization_interleaves_specials() {
        let arch = Arch {
            embedding: 0,
            query: 0,
            head: MlpHead {
                w1: 0,
                b1: 0,
                w2: 0,
                b2: 0,
            },
        };
        let pair = TokenPair {
            left: vec![vec![10, 11], vec![12]],
            right: vec![vec![13], vec![14, 15]],
        };
        let seq = arch.serialize(&pair);
        assert_eq!(seq, vec![COL, 10, 11, COL, 12, SEP, COL, 13, COL, 14, 15]);
    }

    #[test]
    fn deterministic_given_seed() {
        let vocab = HashVocab::new(128);
        let (pairs, labels) = synthetic_pairs(30, &vocab);
        let mut a = DittoLite::new(TrainConfig::fast());
        let mut b = DittoLite::new(TrainConfig::fast());
        a.fit(&pairs, &labels);
        b.fit(&pairs, &labels);
        for p in &pairs {
            assert_eq!(a.score(p), b.score(p));
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let m = DittoLite::new(TrainConfig::fast());
        let _ = m.score(&TokenPair {
            left: vec![vec![0]],
            right: vec![vec![0]],
        });
    }
}
