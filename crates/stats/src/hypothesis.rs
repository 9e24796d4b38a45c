//! Hypothesis tests used by multiple-workload fairness analysis.
//!
//! The suite's null hypothesis is "the matcher is fair on group g" (its
//! mean disparity does not exceed the fairness threshold); the alternative
//! is "the matcher is unfair on g". With k bootstrap workloads the
//! disparity population is approximately normal, so z-statistics apply
//! (paper §2.3).

use crate::dist::normal_cdf;

/// Which tail(s) of the distribution form the rejection region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// H1: parameter is greater than the hypothesized value.
    Greater,
    /// H1: parameter is less than the hypothesized value.
    Less,
    /// H1: parameter differs from the hypothesized value.
    TwoSided,
}

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (z or chi-squared).
    pub statistic: f64,
    /// Probability of observing a statistic at least as extreme under H0.
    pub p_value: f64,
    /// Degrees of freedom (`f64::INFINITY` for z-tests).
    pub df: f64,
    /// Sample size(s) involved.
    pub n: usize,
}

impl TestResult {
    /// Reject the null hypothesis at significance level `alpha`?
    /// Uses the standard decision rule: reject iff `p_value <= alpha`.
    /// (The paper's §2.3 prints the inequality reversed; that is a typo —
    /// rejecting when `alpha <= p` would reject *more* often as evidence
    /// weakens.)
    pub fn reject_at(&self, alpha: f64) -> bool {
        self.p_value <= alpha
    }
}

fn tail_p(stat: f64, tail: Tail) -> f64 {
    match tail {
        Tail::Greater => 1.0 - normal_cdf(stat),
        Tail::Less => normal_cdf(stat),
        Tail::TwoSided => 2.0 * (1.0 - normal_cdf(stat.abs())).min(0.5),
    }
}

/// One-sample z-test: is the sample mean different from `mu0`?
///
/// Uses the sample standard deviation as the population estimate, which
/// is standard for `n ≥ 30` (bootstrap workload populations easily reach
/// this). Panics if `sample.len() < 2`.
pub fn one_sample_z_test(sample: &[f64], mu0: f64, tail: Tail) -> TestResult {
    assert!(sample.len() >= 2, "z-test needs at least 2 observations");
    let n = sample.len();
    let m = crate::desc::mean(sample);
    let sd = crate::desc::sample_std(sample);
    let se = sd / (n as f64).sqrt();
    // Constant samples can show a femto-scale sd from floating-point
    // round-off; treat those as exactly degenerate.
    let degenerate = se <= 1e-12 * m.abs().max(1.0);
    let z = if degenerate {
        // Degenerate sample: all values identical. The statistic is ±inf
        // when the mean differs from mu0, 0 otherwise (again up to
        // round-off in the mean).
        let diff = m - mu0;
        if diff.abs() <= 1e-12 * m.abs().max(1.0) {
            0.0
        } else if diff > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (m - mu0) / se
    };
    TestResult {
        statistic: z,
        p_value: tail_p(z, tail),
        df: f64::INFINITY,
        n,
    }
}

/// Chi-squared test of independence on an r×c contingency table
/// (counts). H0: row and column variables are independent. Used by the
/// suite's group-representation explanations: does group membership
/// depend on the match/non-match class?
///
/// # Panics
/// If the table is ragged, smaller than 2×2, or all-zero.
pub fn chi_squared_independence(table: &[Vec<f64>]) -> TestResult {
    let rows = table.len();
    assert!(rows >= 2, "contingency table needs at least 2 rows");
    let cols = table[0].len();
    assert!(cols >= 2, "contingency table needs at least 2 columns");
    assert!(
        table.iter().all(|r| r.len() == cols),
        "ragged contingency table"
    );
    let row_sums: Vec<f64> = table.iter().map(|r| r.iter().sum()).collect();
    let col_sums: Vec<f64> = (0..cols)
        .map(|c| table.iter().map(|r| r[c]).sum())
        .collect();
    let total: f64 = row_sums.iter().sum();
    assert!(total > 0.0, "contingency table is empty");
    let mut stat = 0.0;
    for (i, row) in table.iter().enumerate() {
        for (j, &obs) in row.iter().enumerate() {
            let expected = row_sums[i] * col_sums[j] / total;
            if expected > 0.0 {
                stat += (obs - expected) * (obs - expected) / expected;
            }
        }
    }
    let df = ((rows - 1) * (cols - 1)) as f64;
    TestResult {
        statistic: stat,
        p_value: 1.0 - crate::dist::chi_squared_cdf(stat, df),
        df,
        n: total as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_test_detects_shifted_mean() {
        // Sample with mean 0.45, testing H0 mu = 0.2 vs greater.
        let xs: Vec<f64> = (0..40)
            .map(|i| 0.45 + 0.01 * ((i % 5) as f64 - 2.0))
            .collect();
        let r = one_sample_z_test(&xs, 0.2, Tail::Greater);
        assert!(r.statistic > 10.0);
        assert!(r.p_value < 1e-6);
        assert!(r.reject_at(0.05));
    }

    #[test]
    fn z_test_accepts_null_under_null() {
        let xs: Vec<f64> = (0..40)
            .map(|i| 0.2 + 0.02 * ((i % 7) as f64 - 3.0))
            .collect();
        let r = one_sample_z_test(&xs, 0.2, Tail::Greater);
        assert!(r.p_value > 0.3, "p={}", r.p_value);
        assert!(!r.reject_at(0.05));
    }

    #[test]
    fn z_two_sided_doubles_tail() {
        let xs: Vec<f64> = (0..30).map(|i| 0.3 + 0.01 * ((i % 3) as f64)).collect();
        let g = one_sample_z_test(&xs, 0.29, Tail::Greater);
        let two = one_sample_z_test(&xs, 0.29, Tail::TwoSided);
        assert!((two.p_value - 2.0 * g.p_value).abs() < 1e-9);
    }

    #[test]
    fn degenerate_sample_handled() {
        let xs = [0.4, 0.4, 0.4];
        let r = one_sample_z_test(&xs, 0.2, Tail::Greater);
        assert!(r.statistic.is_infinite());
        assert_eq!(r.p_value, 0.0);
        let r0 = one_sample_z_test(&xs, 0.4, Tail::Greater);
        assert_eq!(r0.statistic, 0.0);
    }

    #[test]
    fn chi_squared_detects_dependence() {
        // Strongly dependent 2×2 table.
        let dependent = vec![vec![50.0, 10.0], vec![10.0, 50.0]];
        let r = chi_squared_independence(&dependent);
        assert!(r.statistic > 20.0);
        assert!(r.reject_at(0.01));
        assert_eq!(r.df, 1.0);
        // Perfectly proportional table: statistic 0.
        let independent = vec![vec![20.0, 40.0], vec![10.0, 20.0]];
        let r = chi_squared_independence(&independent);
        assert!(r.statistic < 1e-9);
        assert!(!r.reject_at(0.05));
    }

    #[test]
    fn chi_squared_handles_larger_tables() {
        let t = vec![
            vec![30.0, 20.0, 10.0],
            vec![25.0, 25.0, 10.0],
            vec![20.0, 30.0, 10.0],
        ];
        let r = chi_squared_independence(&t);
        assert_eq!(r.df, 4.0);
        assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn chi_squared_rejects_ragged() {
        let _ = chi_squared_independence(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_samples() {
        let _ = one_sample_z_test(&[1.0], 0.0, Tail::Greater);
    }
}
