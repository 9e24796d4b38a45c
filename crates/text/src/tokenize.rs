//! Tokenizers: word tokens and padded q-grams.
//!
//! Each rule has one implementation, a visitor that hands every token to
//! a callback as a `&str` borrowed from a buffer the caller reuses
//! ([`for_each_word`], [`for_each_qgram`]), so the columnar path
//! tokenizes and interns without a `String` per token. [`word_tokens`]
//! and [`qgrams`] collect the same tokens into owned strings for the
//! scalar path.

/// Call `visit` with each lowercase alphanumeric word token of `s`, in
/// order; `buf` is scratch space the caller reuses across calls.
///
/// Any run of non-alphanumeric characters is a separator, so
/// `"O'Brien-Smith"` visits `"o"`, `"brien"`, `"smith"`. A character's
/// whole lowercase expansion joins its token, even where the expansion
/// is not itself alphanumeric (`İ` lowercases to `i` + U+0307).
pub fn for_each_word(s: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    buf.clear();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            push_lowercase(buf, ch);
        } else if !buf.is_empty() {
            visit(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        visit(buf);
        buf.clear();
    }
}

/// Call `visit` with each character q-gram of `s` with `#`-padding on
/// both ends, as used by q-gram Jaccard in record linkage (padding
/// makes prefixes/suffixes count); `padded` is scratch space the caller
/// reuses across calls.
///
/// An empty input has no q-grams; any other input has
/// `chars + q - 1`. `q` must be at least 1.
pub fn for_each_qgram(s: &str, q: usize, padded: &mut String, mut visit: impl FnMut(&str)) {
    assert!(q >= 1, "q-gram size must be >= 1");
    if s.is_empty() {
        return;
    }
    padded.clear();
    padded.extend(std::iter::repeat_n('#', q - 1));
    padded.push_str(s);
    padded.extend(std::iter::repeat_n('#', q - 1));
    // Gram k spans chars k..k + q: it starts where char k starts and
    // ends where char k + q - 1 ends. A non-empty input pads to at
    // least 2q - 1 chars, so there is always a first gram.
    let starts = padded.char_indices().map(|(at, _)| at);
    let ends = padded
        .char_indices()
        .map(|(at, ch)| at + ch.len_utf8())
        .skip(q - 1);
    for (lo, hi) in starts.zip(ends) {
        visit(&padded[lo..hi]);
    }
}

/// Push `ch`'s lowercase expansion.
#[inline]
pub(crate) fn push_lowercase(out: &mut String, ch: char) {
    if ch.is_ascii() {
        out.push(ch.to_ascii_lowercase());
    } else {
        out.extend(ch.to_lowercase());
    }
}

/// Split a string into lowercase alphanumeric word tokens
/// ([`for_each_word`], collected).
///
/// Any run of non-alphanumeric characters is a separator, so
/// `"O'Brien-Smith"` yields `["o", "brien", "smith"]`.
pub fn word_tokens(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_word(s, &mut String::new(), |tok| tokens.push(tok.to_owned()));
    tokens
}

/// Character q-grams with `#`-padding on both ends
/// ([`for_each_qgram`], collected).
///
/// Returns an empty vector for an empty input. `q` must be at least 1.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let mut grams = Vec::new();
    for_each_qgram(s, q, &mut String::new(), |gram| grams.push(gram.to_owned()));
    grams
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokens_split_on_punctuation() {
        assert_eq!(
            word_tokens("O'Brien-Smith, J."),
            vec!["o", "brien", "smith", "j"]
        );
    }

    #[test]
    fn word_tokens_empty() {
        assert!(word_tokens("").is_empty());
        assert!(word_tokens("--- ---").is_empty());
    }

    #[test]
    fn qgrams_padded() {
        let g = qgrams("ab", 3);
        assert_eq!(g, vec!["##a", "#ab", "ab#", "b##"]);
    }

    #[test]
    fn qgrams_unigrams_have_no_padding() {
        assert_eq!(qgrams("ab", 1), vec!["a", "b"]);
    }

    #[test]
    fn qgrams_empty_input() {
        assert!(qgrams("", 3).is_empty());
    }

    #[test]
    fn qgram_count_formula() {
        // With padding q-1 on each side: |s| + q - 1 grams.
        for q in 1..=4 {
            let g = qgrams("hello", q);
            assert_eq!(g.len(), 5 + q - 1);
        }
    }

    #[test]
    #[should_panic(expected = "q-gram size")]
    fn qgrams_rejects_zero() {
        let _ = qgrams("x", 0);
    }

    #[test]
    #[should_panic(expected = "q-gram size")]
    fn qgrams_rejects_zero_on_empty_input() {
        let _ = qgrams("", 0);
    }

    #[test]
    fn visitors_reuse_a_dirty_buffer() {
        // Leftovers from an earlier call must not leak into tokens.
        let mut buf = String::from("stale");
        let mut words = Vec::new();
        for_each_word("Ab c", &mut buf, |t| words.push(t.to_owned()));
        assert_eq!(words, ["ab", "c"]);
        let mut grams = Vec::new();
        for_each_qgram("ab", 2, &mut buf, |g| grams.push(g.to_owned()));
        assert_eq!(grams, ["#a", "ab", "b#"]);
    }
}
