//! Nearest-rank percentiles and the tail rule. Medians come from
//! `fairem_stats::desc::median`.

/// Nearest-rank percentile: the value at 1-based rank
/// `ceil(n × per_mille / 1000)` of the sorted samples.
pub fn percentile(xs: &[f64], per_mille: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), per_mille) - 1]
}

/// 1-based nearest rank of a percentile (at least 1).
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).max(1)
}

/// A reported tail percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Label such as `p90`.
    pub label: &'static str,
    /// The percentile in per-mille (900 for p90).
    pub per_mille: usize,
    /// Sample count the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly beyond the percentile.
    pub beyond: usize,
}

/// The tail rule: the highest of p50, p90, p99 and p99.9 that has at
/// least ten samples ranked beyond it. `None` below eleven samples.
pub fn tail_level(n: usize) -> Option<Tail> {
    const LEVELS: [(&str, usize); 4] = [("p99.9", 999), ("p99", 990), ("p90", 900), ("p50", 500)];
    LEVELS.iter().find_map(|&(label, per_mille)| {
        let beyond = n.saturating_sub(rank(n, per_mille));
        (n > 0 && beyond >= 10).then_some(Tail {
            label,
            per_mille,
            samples: n,
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 990), 99.0);
    }
}
