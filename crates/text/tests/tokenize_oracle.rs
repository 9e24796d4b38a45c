//! Reference oracles for the tokenization rules.
//!
//! `normalize_into`, `for_each_word` and `for_each_qgram` are the one
//! implementation of each rule: the collecting `normalize`,
//! `word_tokens` and `qgrams` and the columnar `PreparedColumn` all run
//! through them, so neither path checks the other. These tests pin the
//! visitors to the allocating implementations they replaced, kept here
//! verbatim, on generated strings mixing ASCII letters and digits,
//! whitespace runs (tab and newline included), punctuation, `İ` (which
//! lowercases to two chars), `ẞ`, a bare U+0307 and CJK characters. A
//! prepared column must also intern exactly the ids that interning the
//! reference tokens, in the same order, assigns, except that a 3-gram
//! of three ASCII chars takes its packed code instead.

use fairem_rng::check::{cases, Gen};
use fairem_text::{
    for_each_qgram, for_each_word, normalize, normalize_into, qgrams, word_tokens, PreparedColumn,
    TokenInterner,
};

/// Lowercase, trim, and collapse whitespace runs: the allocating
/// original.
fn ref_normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true; // leading whitespace is dropped
    for ch in s.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Lowercase alphanumeric word tokens: the allocating original.
fn ref_word_tokens(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// `#`-padded character q-grams: the allocating original.
fn ref_qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q >= 1, "q-gram size must be >= 1");
    if s.is_empty() {
        return Vec::new();
    }
    let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
        .chain(s.chars())
        .chain(std::iter::repeat_n('#', q - 1))
        .collect();
    let n = padded.len();
    if n < q {
        return vec![padded.into_iter().collect()];
    }
    let mut grams = Vec::with_capacity(n - q + 1);
    for i in 0..=(n - q) {
        grams.push(padded[i..i + q].iter().collect());
    }
    grams
}

/// Pieces a generated string is glued from.
const PIECES: [&str; 22] = [
    "a", "Z", "q", "M", "7", "0", " ", "  ", "\t", "\n", " \t\n ", ".", ",", "'", "-", "#", "İ",
    "ẞ", "\u{307}", "漢", "字", "ß",
];

fn any_string(g: &mut Gen) -> String {
    let pieces: Vec<&str> = g.vec(14, |g| *g.pick(&PIECES));
    pieces.concat()
}

#[test]
fn visitors_match_the_allocating_references() {
    // One set of buffers for every case, so each call starts from the
    // previous call's leftovers.
    let (mut norm, mut tok, mut padded) = (String::new(), String::new(), String::new());
    cases(512, 0x70c3, |g| {
        let s = any_string(g);
        normalize_into(&s, &mut norm);
        assert_eq!(norm, ref_normalize(&s), "normalize_into({s:?})");
        assert_eq!(normalize(&s), ref_normalize(&s), "normalize({s:?})");

        for input in [s.as_str(), norm.as_str()] {
            let mut words = Vec::new();
            for_each_word(input, &mut tok, |w| words.push(w.to_owned()));
            assert_eq!(words, ref_word_tokens(input), "for_each_word({input:?})");
            assert_eq!(word_tokens(input), words, "word_tokens({input:?})");
            for q in 1..=4 {
                let mut grams = Vec::new();
                for_each_qgram(input, q, &mut padded, |gram| grams.push(gram.to_owned()));
                assert_eq!(
                    grams,
                    ref_qgrams(input, q),
                    "for_each_qgram({input:?}, {q})"
                );
                assert_eq!(qgrams(input, q), grams, "qgrams({input:?}, {q})");
            }
        }
    });
}

/// The distinct ids of `ids`, ascending, with their multiplicities.
fn counts(ids: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let (mut distinct, mut n): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for id in sorted {
        if distinct.last() == Some(&id) {
            *n.last_mut().expect("a count per distinct id") += 1;
        } else {
            distinct.push(id);
            n.push(1);
        }
    }
    (distinct, n)
}

fn owned((ids, n): (&[u32], &[u32])) -> (Vec<u32>, Vec<u32>) {
    (ids.to_vec(), n.to_vec())
}

#[test]
fn prepared_ids_are_the_reference_tokens_interned_in_order() {
    cases(96, 0x70c4, |g| {
        let cells: Vec<String> = g.vec(9, any_string);
        let mut interner = TokenInterner::new();
        let col = PreparedColumn::prepare(cells.iter().map(String::as_str), &mut interner);
        // `prepare` interns each cell's normalized words, then its
        // normalized 3-grams, then its raw words. A 3-gram of three
        // ASCII chars is not interned: its id is the packed code
        // `2^31 | b0 << 14 | b1 << 7 | b2`.
        let mut reference = TokenInterner::new();
        for (cell, raw) in cells.iter().enumerate() {
            let norm = ref_normalize(raw);
            let words: Vec<u32> = ref_word_tokens(&norm)
                .iter()
                .map(|w| reference.intern(w))
                .collect();
            let mut grams: Vec<u32> = ref_qgrams(&norm, 3)
                .iter()
                .map(|q| match *q.as_bytes() {
                    [b0, b1, b2] => {
                        (1 << 31) | (u32::from(b0) << 14) | (u32::from(b1) << 7) | u32::from(b2)
                    }
                    _ => reference.intern(q),
                })
                .collect();
            let raw_words: Vec<u32> = ref_word_tokens(raw)
                .iter()
                .map(|w| reference.intern(w))
                .collect();
            grams.sort_unstable();
            grams.dedup();
            let want_chars: Vec<char> = norm.chars().collect();
            assert_eq!(col.norm_chars(cell), want_chars.as_slice(), "{raw:?}");
            assert_eq!(col.words(cell), words.as_slice(), "words of {raw:?}");
            assert_eq!(col.qgram_set(cell), grams.as_slice(), "3-grams of {raw:?}");
            assert_eq!(
                col.raw_words(cell),
                raw_words.as_slice(),
                "raw words of {raw:?}"
            );
            assert_eq!(
                owned(col.word_counts(cell)),
                counts(&words),
                "word counts of {raw:?}"
            );
            assert_eq!(
                owned(col.raw_counts(cell)),
                counts(&raw_words),
                "raw counts of {raw:?}"
            );
        }
        assert_eq!(interner.len(), reference.len());
        for id in 0..interner.len() as u32 {
            assert_eq!(interner.resolve(id), reference.resolve(id), "id {id}");
            assert_eq!(interner.chars_of(id), reference.chars_of(id), "id {id}");
        }
    });
}
