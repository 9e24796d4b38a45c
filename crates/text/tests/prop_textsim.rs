//! Property-based tests for the string-similarity kernels, on the
//! in-workspace `fairem_rng::check` harness.

use fairem_rng::check::{cases, Gen};
use fairem_text::{
    damerau_levenshtein, jaccard, jaro, jaro_winkler, levenshtein, normalize,
    normalized_levenshtein, qgrams, word_tokens, StringMeasure,
};

/// Mixed alphabet standing in for proptest's `\PC` (printable char)
/// strategy: ASCII letters, digits, punctuation, space, and a few
/// multi-byte code points to exercise char-vs-byte handling.
const PRINTABLE: &str = "abcXYZ019 .,;!-_()наïé漢字Ω";

#[test]
fn levenshtein_triangle_inequality() {
    cases(128, 0x7341, |g: &mut Gen| {
        let a = g.string("abcde", 12);
        let b = g.string("abcde", 12);
        let c = g.string("abcde", 12);
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        assert!(ac <= ab + bc, "{a:?} {b:?} {c:?}");
    });
}

#[test]
fn levenshtein_symmetry_and_identity() {
    cases(128, 0x7342, |g| {
        let a = g.string(PRINTABLE, 16);
        let b = g.string(PRINTABLE, 16);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        assert_eq!(levenshtein(&a, &a), 0);
    });
}

#[test]
fn levenshtein_bounded_by_max_len() {
    cases(128, 0x7343, |g| {
        let a = g.string("abcdefghijklmnopqrstuvwxyz", 16);
        let b = g.string("abcdefghijklmnopqrstuvwxyz", 16);
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        assert!(d >= la.abs_diff(lb));
        assert!(d <= la.max(lb));
    });
}

#[test]
fn damerau_never_exceeds_levenshtein() {
    cases(128, 0x7344, |g| {
        let a = g.string("abcd", 10);
        let b = g.string("abcd", 10);
        assert!(
            damerau_levenshtein(&a, &b) <= levenshtein(&a, &b),
            "{a:?} {b:?}"
        );
    });
}

#[test]
fn jaro_winkler_dominates_jaro() {
    cases(128, 0x7345, |g| {
        let a = g.string("abcdefghijklmnopqrstuvwxyz", 12);
        let b = g.string("abcdefghijklmnopqrstuvwxyz", 12);
        assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12, "{a:?} {b:?}");
    });
}

#[test]
fn all_measures_in_unit_interval() {
    cases(128, 0x7346, |g| {
        let a = g.string("abcdefghijklmnopqrstuvwxyz ", 20);
        let b = g.string("abcdefghijklmnopqrstuvwxyz ", 20);
        for m in StringMeasure::ALL {
            let s = m.eval(&a, &b);
            assert!((0.0..=1.0).contains(&s), "{m} gave {s} on {a:?} {b:?}");
        }
    });
}

#[test]
fn normalize_is_idempotent() {
    cases(128, 0x7347, |g| {
        let s = g.string(PRINTABLE, 32);
        let once = normalize(&s);
        assert_eq!(normalize(&once), once);
    });
}

#[test]
fn jaccard_self_is_one() {
    cases(128, 0x7348, |g| {
        let s = g.string_len("abcdefghijklmnopqrstuvwxyz ", 1, 20);
        let t = word_tokens(&s);
        assert_eq!(jaccard(&t, &t), 1.0);
    });
}

#[test]
fn normalized_levenshtein_consistent() {
    cases(128, 0x7349, |g| {
        let a = g.string("abcdefghijklmnopqrstuvwxyz", 12);
        let b = g.string("abcdefghijklmnopqrstuvwxyz", 12);
        let s = normalized_levenshtein(&a, &b);
        let max = a.chars().count().max(b.chars().count());
        if max > 0 {
            let back = ((1.0 - s) * max as f64).round() as usize;
            assert_eq!(back, levenshtein(&a, &b));
        }
    });
}

#[test]
fn qgram_count_matches_formula() {
    cases(128, 0x734A, |g| {
        let s = g.string_len("abcdefghijklmnopqrstuvwxyz", 1, 20);
        let q = g.usize_in(1, 5);
        assert_eq!(qgrams(&s, q).len(), s.len() + q - 1);
    });
}
