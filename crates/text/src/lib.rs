//! # fairem-text
//!
//! String-similarity substrate for FairEM360.
//!
//! Entity matching reduces record pairs to similarity feature vectors; this
//! crate provides the text kernels that Magellan-style feature generation
//! needs: tokenization, q-grams, Levenshtein and Jaro-Winkler, token-set
//! measures, Monge-Elkan, corpus-weighted (TF-IDF) cosine and a numeric
//! relative difference. All measures return a similarity in `[0.0, 1.0]`
//! where `1.0` means identical.
//!
//! Everything is pure and allocation-conscious: hot paths operate on
//! `&str`/slices without copying inputs and pre-size their DP tables.

pub mod edit;
pub mod intern;
pub mod normalize;
pub mod numeric;
pub mod prepared;
pub mod setsim;
pub mod tfidf;
pub mod tokenize;

pub use edit::{jaro, jaro_winkler, levenshtein, normalized_levenshtein, SimScratch};
pub use intern::TokenInterner;
pub use normalize::{normalize, normalize_into};
pub use numeric::rel_diff_sim;
pub use prepared::{measure_cells, tfidf_cosine_cells, PreparedColumn};
pub use setsim::{cosine_tokens, jaccard, monge_elkan};
pub use tfidf::{TfIdfCorpus, TfIdfCorpusBuilder};
pub use tokenize::{for_each_qgram, for_each_word, qgrams, word_tokens};

/// The string-similarity measures of the feature battery, usable as a
/// dynamically-selected kernel by the feature generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StringMeasure {
    /// Normalized Levenshtein similarity.
    Levenshtein,
    /// Jaro-Winkler similarity with the standard 0.1 prefix scale.
    JaroWinkler,
    /// Jaccard similarity over lowercase word tokens.
    JaccardWords,
    /// Jaccard similarity over padded 3-grams.
    JaccardQgrams,
    /// Monge-Elkan with Jaro-Winkler as the inner measure.
    MongeElkan,
    /// Cosine similarity over word-token multisets.
    CosineWords,
}

impl StringMeasure {
    /// All measures, in feature order: a text attribute's feature columns
    /// follow this order, so reordering it changes every feature matrix.
    pub const ALL: [StringMeasure; 6] = [
        StringMeasure::Levenshtein,
        StringMeasure::JaroWinkler,
        StringMeasure::JaccardWords,
        StringMeasure::JaccardQgrams,
        StringMeasure::MongeElkan,
        StringMeasure::CosineWords,
    ];

    /// A short stable identifier, used in feature names and reports.
    pub fn name(self) -> &'static str {
        match self {
            StringMeasure::Levenshtein => "lev",
            StringMeasure::JaroWinkler => "jw",
            StringMeasure::JaccardWords => "jac_w",
            StringMeasure::JaccardQgrams => "jac_3g",
            StringMeasure::MongeElkan => "me_jw",
            StringMeasure::CosineWords => "cos_w",
        }
    }

    /// Evaluate the measure on a pair of raw strings.
    ///
    /// Inputs are normalized (lowercased, whitespace-collapsed) first, so
    /// callers can pass attribute values straight from records.
    pub fn eval(self, a: &str, b: &str) -> f64 {
        let a = normalize(a);
        let b = normalize(b);
        match self {
            StringMeasure::Levenshtein => normalized_levenshtein(&a, &b),
            StringMeasure::JaroWinkler => jaro_winkler(&a, &b),
            StringMeasure::JaccardWords => jaccard(&word_tokens(&a), &word_tokens(&b)),
            StringMeasure::JaccardQgrams => jaccard(&qgrams(&a, 3), &qgrams(&b, 3)),
            StringMeasure::MongeElkan => {
                monge_elkan(&word_tokens(&a), &word_tokens(&b), jaro_winkler)
            }
            StringMeasure::CosineWords => cosine_tokens(&word_tokens(&a), &word_tokens(&b)),
        }
    }
}

impl std::fmt::Display for StringMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_measure_is_bounded_symmetric_reflexive() {
        let pairs = [
            ("li wei", "wei li"),
            ("john smith", "jon smyth"),
            ("", "abc"),
            ("", ""),
            ("database systems", "data base system"),
        ];
        for m in StringMeasure::ALL {
            for (a, b) in pairs {
                let s = m.eval(a, b);
                assert!(
                    (0.0..=1.0).contains(&s),
                    "{m} out of range on {a:?},{b:?}: {s}"
                );
                let sym = m.eval(b, a);
                assert!((s - sym).abs() < 1e-12, "{m} not symmetric on {a:?},{b:?}");
            }
            assert!(
                (m.eval("li wei", "li wei") - 1.0).abs() < 1e-12,
                "{m} not reflexive"
            );
        }
    }

    #[test]
    fn eval_normalizes_case_and_space() {
        let m = StringMeasure::Levenshtein;
        assert!((m.eval("  Li   WEI ", "li wei") - 1.0).abs() < 1e-12);
    }
}
