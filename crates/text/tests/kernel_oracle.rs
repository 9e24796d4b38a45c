//! Reference oracles for the edit kernels.
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

use fairem_rng::check::{cases, Gen};
use fairem_text::{
    jaro, jaro_winkler, levenshtein, measure_cells, monge_elkan, normalize, normalized_levenshtein,
    word_tokens, PreparedColumn, SimScratch, StringMeasure, TokenInterner,
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
