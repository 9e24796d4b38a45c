//! Similarity measure for numeric attribute values.

/// Relative-difference similarity: `1 - |a-b| / max(|a|, |b|)`, with
/// `1.0` when both are zero. NaN inputs yield `0.0`.
pub fn rel_diff_sim(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        return 0.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_diff_cases() {
        assert_eq!(rel_diff_sim(0.0, 0.0), 1.0);
        assert_eq!(rel_diff_sim(100.0, 100.0), 1.0);
        assert_eq!(rel_diff_sim(100.0, 50.0), 0.5);
        assert_eq!(rel_diff_sim(-1.0, 1.0), 0.0);
        assert_eq!(rel_diff_sim(f64::NAN, 1.0), 0.0);
    }
}
