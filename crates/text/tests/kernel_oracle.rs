//! Reference oracles for the similarity kernels.
//!
//! Levenshtein and Jaro are bit-vector kernels shared by the scalar API
//! (`levenshtein`, `jaro`, `StringMeasure::eval`) and the columnar
//! `measure_cells` path, so neither path checks the other. These tests
//! pin both to textbook references kept here: the two-row dynamic
//! program for Levenshtein and the flag-scan greedy matcher for Jaro.
//! Every comparison is on `to_bits`, over generated strings that cover
//! empty and one-char inputs, non-ASCII chars, repeated chars and
//! tokens, and lengths on both sides of the 64-, 128- and 192-char
//! block boundaries.
//!
//! The set and TF-IDF kernels (`measure_cells` for word Jaccard, 3-gram
//! Jaccard and word cosine, and `tfidf_cosine_cells`) run on interned
//! id slices, sorted multisets and precomputed weight vectors. They
//! are pinned here to naive versions over `BTreeSet`/`BTreeMap`s of
//! token strings, recounted from the raw cells on every call, bit for
//! bit except for the sign of a zero result.

use std::collections::{BTreeMap, BTreeSet};

use fairem_rng::check::{cases, Gen};
use fairem_text::{
    jaro, jaro_winkler, levenshtein, measure_cells, monge_elkan, normalize, normalized_levenshtein,
    tfidf_cosine_cells, word_tokens, PreparedColumn, SimScratch, StringMeasure, TokenInterner,
};

/// Levenshtein distance by the two-row dynamic program.
fn dp_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `1 - dist / max_len`, `1.0` when both are empty.
fn dp_normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - dp_levenshtein(a, b) as f64 / max as f64
}

/// Jaro similarity by the flag scan: each char of `a` takes the first
/// unflagged equal char of `b` inside the match window.
fn flag_scan_jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a == b {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut a_matched = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                a_matched.push(ca);
                break;
            }
        }
    }
    let matches = a_matched.len();
    if matches == 0 {
        return 0.0;
    }
    let b_matched: Vec<char> = b
        .iter()
        .zip(&b_used)
        .filter_map(|(&c, &u)| u.then_some(c))
        .collect();
    let transpositions = a_matched
        .iter()
        .zip(&b_matched)
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler over the flag-scan Jaro: prefix scale 0.1, prefix
/// capped at 4, boost only above 0.7.
fn flag_scan_jaro_winkler(a: &str, b: &str) -> f64 {
    let j = flag_scan_jaro(a, b);
    if j <= 0.7 {
        return j;
    }
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

/// Alphabets from two-letter (long repeated runs) to mixed scripts;
/// `İ` lowercases to two chars, so normalization changes lengths.
const ALPHABETS: [&str; 5] = [
    "ab",
    "abcdefgh",
    "aİÜ漢Ω b",
    "abc xyz İÜ漢Ω",
    "the of data base",
];

/// Lengths at and around the 64-position block boundaries, plus the
/// degenerate ones.
const LENGTHS: [usize; 14] = [0, 1, 2, 7, 63, 64, 65, 127, 128, 129, 191, 192, 193, 250];

fn string_of(g: &mut Gen, len: usize) -> String {
    let alphabet = *g.pick(&ALPHABETS);
    g.string_len(alphabet, len, len)
}

fn any_string(g: &mut Gen) -> String {
    let len = if g.bool(0.6) {
        *g.pick(&LENGTHS)
    } else {
        g.usize_in(0, 260)
    };
    if g.bool(0.1) {
        // One char repeated, maybe with a different char somewhere.
        let mut s: Vec<char> = vec![*g.pick(&['a', 'Ω']); len];
        if len > 0 && g.bool(0.5) {
            s[g.usize_in(0, len)] = 'b';
        }
        return s.into_iter().collect();
    }
    string_of(g, len)
}

/// A few random edits (substitute, insert, delete, swap) of `s`.
fn mutate(g: &mut Gen, s: &str) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..g.usize_in(0, 6) {
        let c = *g.pick(&['a', 'b', 'x', 'Ü', '漢', ' ']);
        match g.usize_in(0, 4) {
            0 if !chars.is_empty() => {
                let k = g.usize_in(0, chars.len());
                chars[k] = c;
            }
            1 => {
                let k = g.usize_in(0, chars.len() + 1);
                chars.insert(k, c);
            }
            2 if !chars.is_empty() => {
                chars.remove(g.usize_in(0, chars.len()));
            }
            3 if chars.len() >= 2 => {
                let k = g.usize_in(0, chars.len() - 1);
                chars.swap(k, k + 1);
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// Unrelated strings, near-duplicates, or a shared prefix and suffix
/// around unrelated middles.
fn string_pair(g: &mut Gen) -> (String, String) {
    match g.usize_in(0, 3) {
        0 => (any_string(g), any_string(g)),
        1 => {
            let a = any_string(g);
            let b = mutate(g, &a);
            (a, b)
        }
        _ => {
            let (p, s) = (string_of(g, 5), string_of(g, 3));
            let (x, y) = (any_string(g), any_string(g));
            (format!("{p}{x}{s}"), format!("{p}{y}{s}"))
        }
    }
}

#[test]
fn levenshtein_is_the_dp_distance() {
    cases(384, 0x0e71, |g| {
        let (a, b) = string_pair(g);
        assert_eq!(
            levenshtein(&a, &b),
            dp_levenshtein(&a, &b),
            "{a:?} vs {b:?}"
        );
        assert_eq!(
            normalized_levenshtein(&a, &b).to_bits(),
            dp_normalized_levenshtein(&a, &b).to_bits(),
            "{a:?} vs {b:?}"
        );
    });
}

#[test]
fn jaro_and_jaro_winkler_are_the_flag_scan_values() {
    cases(384, 0x0e72, |g| {
        let (a, b) = string_pair(g);
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_eq!(
                jaro(x, y).to_bits(),
                flag_scan_jaro(x, y).to_bits(),
                "{x:?} vs {y:?}"
            );
            assert_eq!(
                jaro_winkler(x, y).to_bits(),
                flag_scan_jaro_winkler(x, y).to_bits(),
                "{x:?} vs {y:?}"
            );
        }
    });
}

/// Cells of one column side: strings, or sentences of repeated words.
fn cells(g: &mut Gen) -> Vec<String> {
    g.vec_len(1, 6, |g| {
        if g.bool(0.5) {
            any_string(g)
        } else {
            let words = g.vec_len(1, 4, |g| {
                let len = g.usize_in(1, 10);
                string_of(g, len)
            });
            let n = g.usize_in(0, 40);
            let picks: Vec<&str> = (0..n).map(|_| g.pick(&words).as_str()).collect();
            picks.join(" ")
        }
    })
}

/// The reference value of one of the edit-based feature measures on
/// two normalized strings.
fn oracle(m: StringMeasure, a: &str, b: &str) -> f64 {
    match m {
        StringMeasure::Levenshtein => dp_normalized_levenshtein(a, b),
        StringMeasure::JaroWinkler => flag_scan_jaro_winkler(a, b),
        StringMeasure::MongeElkan => {
            monge_elkan(&word_tokens(a), &word_tokens(b), flag_scan_jaro_winkler)
        }
        other => unreachable!("no oracle for {other}"),
    }
}

/// `measure_cells` for each of `measures` on every cell pair of two
/// prepared columns, `rounds` times over, through one scratch that
/// every call reuses. (The scratch's memo is keyed by interner ids, so
/// it lives exactly as long as the interner.)
fn assert_cells_match_oracles(
    a: &[String],
    b: &[String],
    measures: &[StringMeasure],
    rounds: usize,
) {
    let mut interner = TokenInterner::new();
    let col_a = PreparedColumn::prepare(a.iter().map(String::as_str), &mut interner);
    let col_b = PreparedColumn::prepare(b.iter().map(String::as_str), &mut interner);
    let mut expected = Vec::new();
    for ra in a {
        for rb in b {
            let (na, nb) = (normalize(ra), normalize(rb));
            for &m in measures {
                expected.push(oracle(m, &na, &nb).to_bits());
            }
        }
    }
    let mut scratch = SimScratch::new();
    for _ in 0..rounds {
        let mut want = expected.iter();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                for &m in measures {
                    let got = measure_cells(m, &col_a, i, &col_b, j, &interner, &mut scratch);
                    assert_eq!(Some(&got.to_bits()), want.next(), "{m} on {ra:?} vs {rb:?}");
                }
            }
        }
    }
}

#[test]
fn measure_cells_match_the_oracles() {
    let measures = [
        StringMeasure::Levenshtein,
        StringMeasure::JaroWinkler,
        StringMeasure::MongeElkan,
    ];
    cases(96, 0x0e73, |g| {
        let (a, b) = (cells(g), cells(g));
        assert_cells_match_oracles(&a, &b, &measures, 1);
    });
}

#[test]
fn memo_evictions_only_recompute() {
    // 200 distinct tokens a side give 2 * 200 * 200 ordered id pairs
    // per cell pair, more than the memo's 2^16 slots, so keys must
    // overwrite each other; the second round then reads keys back
    // after their slot was taken.
    cases(1, 0x0e74, |g| {
        let side = |g: &mut Gen, tag: char| -> String {
            let words: Vec<String> = (0..200)
                .map(|k| format!("{tag}{k}{}", g.string("abcdefgh", 4)))
                .collect();
            words.join(" ")
        };
        let a = vec![side(g, 'a'), "a1 a2 b3".to_owned()];
        let b = vec![side(g, 'a'), side(g, 'b')];
        assert_cells_match_oracles(&a, &b, &[StringMeasure::MongeElkan], 2);
    });
}

/// The distinct `#`-padded 3-grams of `s`: `##s##` cut into every
/// three-char window; none for the empty string.
fn naive_qgrams(s: &str) -> BTreeSet<String> {
    if s.is_empty() {
        return BTreeSet::new();
    }
    let padded: Vec<char> = format!("##{s}##").chars().collect();
    padded.windows(3).map(|w| w.iter().collect()).collect()
}

/// `|A ∩ B| / |A ∪ B|`, and 1 when both sets are empty.
fn naive_jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    a.intersection(b).count() as f64 / a.union(b).count() as f64
}

/// Token counts as a term-frequency vector.
fn term_counts(tokens: &[String]) -> BTreeMap<String, f64> {
    let mut tf = BTreeMap::new();
    for t in tokens {
        *tf.entry(t.clone()).or_insert(0.0) += 1.0;
    }
    tf
}

/// `a · b / (|a| |b|)`, with the dot product and the norms summed in
/// token order; 1 when both vectors are empty and 0 when one is.
fn naive_cosine(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut dot = 0.0;
    for (t, x) in a {
        if let Some(y) = b.get(t) {
            dot += x * y;
        }
    }
    let norm = |v: &BTreeMap<String, f64>| v.values().map(|w| w * w).sum::<f64>().sqrt();
    (dot / (norm(a) * norm(b))).clamp(0.0, 1.0)
}

/// The TF-IDF vector of a raw cell over the corpus `docs`: the count
/// of each raw word token times its smoothed inverse document frequency
/// `ln((1 + N) / (1 + df)) + 1`, with `df` recounted over `docs`.
fn naive_tfidf(docs: &[String], cell: &str) -> BTreeMap<String, f64> {
    let mut v = term_counts(&word_tokens(cell));
    for (t, w) in &mut v {
        let df = docs.iter().filter(|d| word_tokens(d).contains(t)).count();
        *w *= ((1.0 + docs.len() as f64) / (1.0 + df as f64)).ln() + 1.0;
    }
    v
}

/// The bits of `x`, with both zeros as one value. Whether a kernel
/// returns 0.0 or -0.0 for disjoint inputs is a convention it shares
/// with its scalar twin (`columnar_equivalence.rs` pins it); the
/// oracles pin every other bit.
fn bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Cells for the set kernels: words from one vocabulary both sides
/// share, so cells overlap, with repeats, mixed case and punctuation
/// between words; some cells are empty, blank or unrelated strings.
fn word_cells(g: &mut Gen, vocab: &[String]) -> Vec<String> {
    g.vec_len(1, 7, |g| match g.usize_in(0, 8) {
        0 => String::new(),
        1 => "  ".to_owned(),
        2 => any_string(g),
        _ => {
            let mut cell = String::new();
            for k in 0..g.usize_in(1, 9) {
                if k > 0 {
                    let sep: &&str = g.pick(&[" ", ", ", "-", "  ", "/"]);
                    cell.push_str(sep);
                }
                let w = g.pick(vocab);
                if g.bool(0.3) {
                    cell.push_str(&w.to_uppercase());
                } else {
                    cell.push_str(w);
                }
            }
            cell
        }
    })
}

#[test]
fn set_and_tfidf_kernels_match_the_naive_measures() {
    cases(160, 0x0e75, |g| {
        let vocab = g.vec_len(2, 8, |g| {
            let len = g.usize_in(1, 6);
            string_of(g, len)
        });
        let (a, b) = (word_cells(g, &vocab), word_cells(g, &vocab));
        let mut interner = TokenInterner::new();
        let mut col_a = PreparedColumn::prepare(a.iter().map(String::as_str), &mut interner);
        let mut col_b = PreparedColumn::prepare(b.iter().map(String::as_str), &mut interner);
        // The corpus is every cell of both sides.
        let mut df = Vec::new();
        let n_docs = col_a.accumulate_doc_freq(&mut df) + col_b.accumulate_doc_freq(&mut df);
        df.resize(interner.len(), 0);
        let rank = interner.string_ranks();
        col_a.finish_tfidf(&df, n_docs, &rank);
        col_b.finish_tfidf(&df, n_docs, &rank);
        let docs: Vec<String> = a.iter().chain(&b).cloned().collect();

        let mut scratch = SimScratch::new();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                let (na, nb) = (normalize(ra), normalize(rb));
                let (wa, wb) = (word_tokens(&na), word_tokens(&nb));
                let set = |w: &[String]| w.iter().cloned().collect::<BTreeSet<_>>();
                let want = [
                    (
                        StringMeasure::JaccardWords,
                        naive_jaccard(&set(&wa), &set(&wb)),
                    ),
                    (
                        StringMeasure::JaccardQgrams,
                        naive_jaccard(&naive_qgrams(&na), &naive_qgrams(&nb)),
                    ),
                    (
                        StringMeasure::CosineWords,
                        naive_cosine(&term_counts(&wa), &term_counts(&wb)),
                    ),
                ];
                for (m, w) in want {
                    let got = measure_cells(m, &col_a, i, &col_b, j, &interner, &mut scratch);
                    assert_eq!(bits(got), bits(w), "{m} on {ra:?} vs {rb:?}: {got} vs {w}");
                }
                let got = tfidf_cosine_cells(&col_a, i, &col_b, j);
                let w = naive_cosine(&naive_tfidf(&docs, ra), &naive_tfidf(&docs, rb));
                assert_eq!(
                    bits(got),
                    bits(w),
                    "tfidf on {ra:?} vs {rb:?}: {got} vs {w}"
                );
            }
        }
    });
}
