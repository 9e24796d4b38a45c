//! # fairem-text
//!
//! String-similarity substrate for FairEM360.
//!
//! Entity matching reduces record pairs to similarity feature vectors; this
//! crate provides the text kernels that Magellan-style feature generation
//! needs: tokenization, q-grams, edit-distance families, token-set measures,
//! corpus-weighted (TF-IDF) cosine, hybrid measures (Monge-Elkan, soft
//! TF-IDF) and a phonetic code. All measures return a similarity in
//! `[0.0, 1.0]` where `1.0` means identical.
//!
//! Everything is pure and allocation-conscious: hot paths operate on
//! `&str`/slices without copying inputs and pre-size their DP tables.

pub mod edit;
pub mod intern;
pub mod normalize;
pub mod numeric;
pub mod phonetic;
pub mod prepared;
pub mod setsim;
pub mod tfidf;
pub mod tokenize;

pub use edit::{
    damerau_levenshtein, jaro, jaro_winkler, levenshtein, needleman_wunsch_sim,
    normalized_damerau_levenshtein, normalized_levenshtein, smith_waterman_sim, SimScratch,
};
pub use intern::TokenInterner;
pub use normalize::{normalize, normalize_into};
pub use numeric::{abs_diff_sim, exact_sim, rel_diff_sim};
pub use phonetic::{nysiis, nysiis_sim, soundex, soundex_sim};
pub use prepared::{measure_cells, tfidf_cosine_cells, PreparedColumn};
pub use setsim::{cosine_tokens, dice, jaccard, monge_elkan, overlap_coefficient};
pub use tfidf::{TfIdfCorpus, TfIdfCorpusBuilder};
pub use tokenize::{for_each_qgram, for_each_word, qgrams, word_tokens};

/// Enumeration of every string-similarity measure this crate exposes,
/// usable as a dynamically-selected kernel (e.g. by the feature generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StringMeasure {
    /// Normalized Levenshtein similarity.
    Levenshtein,
    /// Normalized Damerau-Levenshtein (optimal string alignment) similarity.
    DamerauLevenshtein,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity with the standard 0.1 prefix scale.
    JaroWinkler,
    /// Jaccard similarity over lowercase word tokens.
    JaccardWords,
    /// Jaccard similarity over padded 3-grams.
    JaccardQgrams,
    /// Dice coefficient over lowercase word tokens.
    DiceWords,
    /// Overlap coefficient over lowercase word tokens.
    OverlapWords,
    /// Cosine similarity over word-token multisets.
    CosineWords,
    /// Monge-Elkan with Jaro-Winkler as the inner measure.
    MongeElkan,
    /// Smith-Waterman local-alignment similarity.
    SmithWaterman,
    /// Needleman-Wunsch global-alignment similarity.
    NeedlemanWunsch,
    /// Soundex phonetic-code agreement (1.0 or 0.0).
    Soundex,
}

impl StringMeasure {
    /// All measures, in a stable order (feature generation relies on it).
    pub const ALL: [StringMeasure; 13] = [
        StringMeasure::Levenshtein,
        StringMeasure::DamerauLevenshtein,
        StringMeasure::Jaro,
        StringMeasure::JaroWinkler,
        StringMeasure::JaccardWords,
        StringMeasure::JaccardQgrams,
        StringMeasure::DiceWords,
        StringMeasure::OverlapWords,
        StringMeasure::CosineWords,
        StringMeasure::MongeElkan,
        StringMeasure::SmithWaterman,
        StringMeasure::NeedlemanWunsch,
        StringMeasure::Soundex,
    ];

    /// A short stable identifier, used in feature names and reports.
    pub fn name(self) -> &'static str {
        match self {
            StringMeasure::Levenshtein => "lev",
            StringMeasure::DamerauLevenshtein => "dlev",
            StringMeasure::Jaro => "jaro",
            StringMeasure::JaroWinkler => "jw",
            StringMeasure::JaccardWords => "jac_w",
            StringMeasure::JaccardQgrams => "jac_3g",
            StringMeasure::DiceWords => "dice_w",
            StringMeasure::OverlapWords => "ovl_w",
            StringMeasure::CosineWords => "cos_w",
            StringMeasure::MongeElkan => "me_jw",
            StringMeasure::SmithWaterman => "sw",
            StringMeasure::NeedlemanWunsch => "nw",
            StringMeasure::Soundex => "sndx",
        }
    }

    /// Evaluate the measure on a pair of raw strings.
    ///
    /// Inputs are normalized (lowercased, whitespace-collapsed) first, so
    /// callers can pass attribute values straight from records.
    pub fn eval(self, a: &str, b: &str) -> f64 {
        let na = normalize(a);
        let nb = normalize(b);
        self.eval_normalized(&na, &nb)
    }

    /// Evaluate the measure on strings that are already normalized.
    pub fn eval_normalized(self, a: &str, b: &str) -> f64 {
        match self {
            StringMeasure::Levenshtein => normalized_levenshtein(a, b),
            StringMeasure::DamerauLevenshtein => normalized_damerau_levenshtein(a, b),
            StringMeasure::Jaro => jaro(a, b),
            StringMeasure::JaroWinkler => jaro_winkler(a, b),
            StringMeasure::JaccardWords => jaccard(&word_tokens(a), &word_tokens(b)),
            StringMeasure::JaccardQgrams => jaccard(&qgrams(a, 3), &qgrams(b, 3)),
            StringMeasure::DiceWords => dice(&word_tokens(a), &word_tokens(b)),
            StringMeasure::OverlapWords => overlap_coefficient(&word_tokens(a), &word_tokens(b)),
            StringMeasure::CosineWords => cosine_tokens(&word_tokens(a), &word_tokens(b)),
            StringMeasure::MongeElkan => {
                monge_elkan(&word_tokens(a), &word_tokens(b), jaro_winkler)
            }
            StringMeasure::SmithWaterman => smith_waterman_sim(a, b),
            StringMeasure::NeedlemanWunsch => needleman_wunsch_sim(a, b),
            StringMeasure::Soundex => soundex_sim(a, b),
        }
    }
}

impl std::fmt::Display for StringMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StringMeasure {
    type Err = UnknownMeasure;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StringMeasure::ALL
            .iter()
            .copied()
            .find(|m| m.name() == s)
            .ok_or_else(|| UnknownMeasure(s.to_owned()))
    }
}

/// Error returned when parsing an unknown [`StringMeasure`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMeasure(pub String);

impl std::fmt::Display for UnknownMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown string measure: {:?}", self.0)
    }
}

impl std::error::Error for UnknownMeasure {}

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
    fn measure_names_round_trip() {
        for m in StringMeasure::ALL {
            let parsed: StringMeasure = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("nope".parse::<StringMeasure>().is_err());
    }

    #[test]
    fn eval_normalizes_case_and_space() {
        let m = StringMeasure::Levenshtein;
        assert!((m.eval("  Li   WEI ", "li wei") - 1.0).abs() < 1e-12);
    }
}
