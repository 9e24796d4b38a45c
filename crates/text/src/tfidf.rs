//! Corpus-weighted similarity: TF-IDF cosine.
//!
//! Record-linkage feature generators weight rare tokens more heavily; a
//! [`TfIdfCorpus`] is built once over all attribute values of both tables
//! and then queried per candidate pair.

use std::collections::HashMap;

use crate::tokenize::word_tokens;

/// Incremental builder for a [`TfIdfCorpus`]. Feed it every document
/// (attribute value) in the corpus, then call [`TfIdfCorpusBuilder::build`].
#[derive(Debug, Default, Clone)]
pub struct TfIdfCorpusBuilder {
    doc_freq: HashMap<String, usize>,
    n_docs: usize,
}

impl TfIdfCorpusBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document; its distinct word tokens increment document
    /// frequencies.
    pub fn add_document(&mut self, text: &str) {
        self.n_docs += 1;
        let mut tokens = word_tokens(text);
        tokens.sort_unstable();
        tokens.dedup();
        for t in tokens {
            *self.doc_freq.entry(t).or_insert(0) += 1;
        }
    }

    /// Finish building; consumes the builder.
    pub fn build(self) -> TfIdfCorpus {
        TfIdfCorpus {
            doc_freq: self.doc_freq,
            n_docs: self.n_docs,
        }
    }
}

/// An immutable TF-IDF weighting model over a token corpus.
#[derive(Debug, Clone)]
pub struct TfIdfCorpus {
    doc_freq: HashMap<String, usize>,
    n_docs: usize,
}

impl TfIdfCorpus {
    /// Assemble a corpus from already-counted statistics: `doc_freq`
    /// maps each token to the number of documents containing it, and
    /// `n_docs` is the total document count. The columnar feature path
    /// counts frequencies over interned token ids and uses this to
    /// materialize the exact corpus the incremental builder would have
    /// produced (document frequency is a pure count, so the result is
    /// value-identical regardless of which path counted it).
    pub fn from_parts(doc_freq: HashMap<String, usize>, n_docs: usize) -> TfIdfCorpus {
        TfIdfCorpus { doc_freq, n_docs }
    }

    /// Number of documents the corpus was built from.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Smoothed inverse document frequency of a token:
    /// `ln((1 + N) / (1 + df)) + 1`, which is strictly positive and defined
    /// for out-of-vocabulary tokens.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        ((1.0 + self.n_docs as f64) / (1.0 + df as f64)).ln() + 1.0
    }

    /// Token-sorted TF-IDF vector. Sorted output keeps every downstream
    /// float accumulation in a fixed order, so cosine values are
    /// bit-identical across corpus instances (HashMap iteration order is
    /// per-instance and would otherwise leak into the low bits of sums).
    fn weighted_vector<'a>(&self, tokens: &'a [String]) -> Vec<(&'a str, f64)> {
        let mut tf: HashMap<&str, f64> = HashMap::with_capacity(tokens.len());
        for t in tokens {
            *tf.entry(t.as_str()).or_insert(0.0) += 1.0;
        }
        let mut v: Vec<(&str, f64)> = tf
            .into_iter()
            .map(|(tok, count)| {
                let w = count * self.idf(tok);
                (tok, w)
            })
            .collect();
        v.sort_unstable_by(|x, y| x.0.cmp(y.0));
        v
    }

    /// TF-IDF weighted cosine similarity between two strings.
    pub fn cosine(&self, a: &str, b: &str) -> f64 {
        let ta = word_tokens(a);
        let tb = word_tokens(b);
        if ta.is_empty() && tb.is_empty() {
            return 1.0;
        }
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let va = self.weighted_vector(&ta);
        let vb = self.weighted_vector(&tb);
        // Merge-join over the token-sorted vectors.
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < va.len() && j < vb.len() {
            match va[i].0.cmp(vb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += va[i].1 * vb[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let na: f64 = va.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        let nb: f64 = vb.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> TfIdfCorpus {
        let mut b = TfIdfCorpusBuilder::new();
        for doc in [
            "john smith university of rochester",
            "jane doe university of chicago",
            "wei li tsinghua university",
            "li wei peking university",
            "hans muller tu munich",
        ] {
            b.add_document(doc);
        }
        b.build()
    }

    #[test]
    fn idf_rare_beats_common() {
        let c = small_corpus();
        assert!(c.idf("tsinghua") > c.idf("university"));
        assert_eq!(c.n_docs(), 5);
    }

    #[test]
    fn oov_token_has_max_idf() {
        let c = small_corpus();
        assert!(c.idf("zzz") >= c.idf("tsinghua"));
    }

    #[test]
    fn cosine_downweights_common_tokens() {
        let c = small_corpus();
        // Sharing only "university" should score lower than sharing "smith".
        let common = c.cosine("john smith university", "jane doe university");
        let rare = c.cosine("john smith university", "j smith college");
        assert!(rare > common, "rare={rare} common={common}");
    }

    #[test]
    fn cosine_bounds() {
        let c = small_corpus();
        assert_eq!(c.cosine("", ""), 1.0);
        assert_eq!(c.cosine("a", ""), 0.0);
        let s = c.cosine("wei li tsinghua", "wei li tsinghua");
        assert!((s - 1.0).abs() < 1e-12);
    }
}
