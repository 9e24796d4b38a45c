//! Token-set and hybrid similarity measures.

use std::collections::HashMap;

fn counts(tokens: &[String]) -> HashMap<&str, usize> {
    let mut m: HashMap<&str, usize> = HashMap::with_capacity(tokens.len());
    for t in tokens {
        *m.entry(t.as_str()).or_insert(0) += 1;
    }
    m
}

/// Jaccard similarity over token *sets*: `|A ∩ B| / |A ∪ B|`.
///
/// Returns `1.0` when both token lists are empty (identical empties) and
/// `0.0` when exactly one is empty.
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa = counts(a);
    let sb = counts(b);
    let inter = sa.keys().filter(|k| sb.contains_key(*k)).count();
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Cosine similarity over token *multisets* (term-frequency vectors).
pub fn cosine_tokens(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let ca = counts(a);
    let cb = counts(b);
    let dot: f64 = ca
        .iter()
        .filter_map(|(k, &va)| cb.get(k).map(|&vb| (va * vb) as f64))
        .sum();
    let na: f64 = ca.values().map(|&v| (v * v) as f64).sum::<f64>().sqrt();
    let nb: f64 = cb.values().map(|&v| (v * v) as f64).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Monge-Elkan similarity: for each token in `a`, take the best inner
/// similarity against tokens of `b`, and average. Symmetrized by taking
/// the max of both directions (the common symmetric variant).
pub fn monge_elkan(a: &[String], b: &[String], inner: fn(&str, &str) -> f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let one_way = |xs: &[String], ys: &[String]| -> f64 {
        let total: f64 = xs
            .iter()
            .map(|x| ys.iter().map(|y| inner(x, y)).fold(0.0_f64, f64::max))
            .sum();
        total / xs.len() as f64
    };
    one_way(a, b).max(one_way(b, a)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::jaro_winkler;
    use crate::tokenize::word_tokens;

    fn toks(s: &str) -> Vec<String> {
        word_tokens(s)
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&toks("a b c"), &toks("b c d")), 0.5);
        assert_eq!(jaccard(&toks(""), &toks("")), 1.0);
        assert_eq!(jaccard(&toks("a"), &toks("")), 0.0);
        assert_eq!(jaccard(&toks("a b"), &toks("a b")), 1.0);
    }

    #[test]
    fn jaccard_ignores_multiplicity() {
        assert_eq!(jaccard(&toks("a a b"), &toks("a b b")), 1.0);
    }

    #[test]
    fn cosine_orthogonal_and_parallel() {
        assert_eq!(cosine_tokens(&toks("a b"), &toks("c d")), 0.0);
        assert!((cosine_tokens(&toks("a b"), &toks("a b")) - 1.0).abs() < 1e-12);
        // Multiplicity matters for cosine.
        let s = cosine_tokens(&toks("a a b"), &toks("a b"));
        assert!(s > 0.9 && s < 1.0, "{s}");
    }

    #[test]
    fn monge_elkan_tolerates_token_order_and_typos() {
        let s = monge_elkan(&toks("wei li"), &toks("li wei"), jaro_winkler);
        assert!((s - 1.0).abs() < 1e-12);
        let s = monge_elkan(&toks("jon smith"), &toks("john smyth"), jaro_winkler);
        assert!(s > 0.8, "{s}");
        assert_eq!(monge_elkan(&toks(""), &toks("x"), jaro_winkler), 0.0);
        assert_eq!(monge_elkan(&toks(""), &toks(""), jaro_winkler), 1.0);
    }
}
