//! MCAN-Lite: multi-context attention with gated fusion.
//!
//! Mirrors Zhang et al.'s MCAN (WWW'20): each record side is encoded
//! under multiple attention contexts — a *self* context (learned-query
//! attention over the record's own tokens), a *cross* context (attention
//! over the other record's tokens) and a *global* context (mean pool) —
//! and a learned sigmoid gate fuses the self and cross views before the
//! two sides are compared and classified.

use fairem_rng::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::params::ParamStore;

use super::{attention_pool, compare, cross_attend, Lite, MlpHead, TokenPair, TrainConfig};

/// MCAN-Lite model (see module docs).
pub type McanLite = Lite<Arch>;

/// MCAN-Lite's parameter ids (into the model's `ParamStore`).
#[derive(Debug, Clone)]
pub struct Arch {
    embedding: usize,
    self_query: usize,
    gate_w: usize,
    gate_b: usize,
    head: MlpHead,
}

impl Arch {
    fn flatten(pair_side: &[Vec<u32>]) -> Vec<u32> {
        let total: usize = pair_side.iter().map(Vec::len).sum();
        let mut seq = Vec::with_capacity(total);
        for attr in pair_side {
            seq.extend_from_slice(attr);
        }
        seq
    }

    /// Encode one side against the other: returns the fused `1×2D`
    /// representation `[gate ⊙ self + (1−gate) ⊙ cross ; global]`.
    fn encode_side(&self, g: &mut Graph, store: &ParamStore, own: NodeId, other: NodeId) -> NodeId {
        let q = g.param(store, self.self_query);
        let self_ctx = attention_pool(g, own, q); // 1×D
        let crossed = cross_attend(g, own, other); // T×D
        let cross_ctx = g.mean_rows(crossed); // 1×D
        let global_ctx = g.mean_rows(own); // 1×D
                                           // Gate from all three contexts.
        let gate_in = g.concat_cols(&[self_ctx, cross_ctx, global_ctx]); // 1×3D
        let gw = g.param(store, self.gate_w);
        let gb = g.param(store, self.gate_b);
        let gate = g.matmul(gate_in, gw); // 1×D
        let gate = g.add_row(gate, gb);
        let gate = g.sigmoid(gate);
        let gated_self = g.mul(gate, self_ctx);
        let one = g.input(crate::tensor::Tensor::from_flat(
            1,
            g.value(gate).cols,
            vec![1.0; g.value(gate).cols],
        ));
        let inv_gate = g.sub(one, gate);
        let gated_cross = g.mul(inv_gate, cross_ctx);
        let fused = g.add(gated_self, gated_cross); // 1×D
        g.concat_cols(&[fused, global_ctx]) // 1×2D
    }
}

impl super::Arch for Arch {
    const NAME: &'static str = "McanLite";
    const SEED_OFFSET: u64 = 3;

    fn init(
        store: &mut ParamStore,
        config: &TrainConfig,
        _n_attrs: usize,
        rng: &mut StdRng,
    ) -> Arch {
        let d = config.embed_dim;
        let embedding = store.add_xavier("embedding", config.vocab_size as usize, d, rng);
        let self_query = store.add_xavier("self_query", d, 1, rng);
        let gate_w = store.add_xavier("gate_w", 3 * d, d, rng);
        let gate_b = store.add_zeros("gate_b", 1, d);
        let head = MlpHead::init(store, "head", 4 * d, config.hidden, rng);
        Arch {
            embedding,
            self_query,
            gate_w,
            gate_b,
            head,
        }
    }

    fn forward_logit(&self, g: &mut Graph, store: &ParamStore, pair: &TokenPair) -> NodeId {
        let table = g.param(store, self.embedding);
        let left_seq = Arch::flatten(&pair.left);
        let right_seq = Arch::flatten(&pair.right);
        let el = g.embed(table, &left_seq);
        let er = g.embed(table, &right_seq);
        let repr_l = self.encode_side(g, store, el, er);
        let repr_r = self.encode_side(g, store, er, el);
        let features = compare(g, repr_l, repr_r); // 1×4D
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
        let mut m = McanLite::new(TrainConfig::fast());
        assert_learns(&mut m, 0.85);
    }

    #[test]
    fn flatten_concatenates_attributes() {
        assert_eq!(Arch::flatten(&[vec![1, 2], vec![3]]), vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let vocab = HashVocab::new(128);
        let (pairs, labels) = synthetic_pairs(30, &vocab);
        let mut a = McanLite::new(TrainConfig::fast());
        let mut b = McanLite::new(TrainConfig::fast());
        a.fit(&pairs, &labels);
        b.fit(&pairs, &labels);
        for p in &pairs {
            assert_eq!(a.score(p), b.score(p));
        }
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn score_before_fit_panics() {
        let m = McanLite::new(TrainConfig::fast());
        let _ = m.score(&TokenPair {
            left: vec![vec![0]],
            right: vec![vec![0]],
        });
    }
}
