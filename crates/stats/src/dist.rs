//! Probability distributions implemented from scratch: the standard
//! normal (via a high-accuracy `erf`) and chi-squared (via the regularized
//! lower incomplete gamma function).

/// Error function, Abramowitz & Stegun 7.1.26 refined with the
/// Winitzki-style high-precision rational approximation (|err| < 1.2e-7),
/// adequate for p-values down to ~1e-7.
pub fn erf(x: f64) -> f64 {
    // Numerical-recipes erfc approximation with relative error < 1.2e-7.
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let tau = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        1.0 - tau
    } else {
        tau - 1.0
    }
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Natural log of the gamma function (Lanczos approximation).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut ser = 1.000000000190015;
    for (j, &g) in G.iter().enumerate() {
        ser += g / (x + j as f64 + 1.0);
    }
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    -tmp + (2.5066282746310005 * ser / x).ln()
}

/// Regularized lower incomplete gamma P(a, x) (series for `x < a+1`,
/// continued fraction otherwise — Numerical Recipes `gammp`).
fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 3e-14 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a, x), then P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1e300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 3e-14 {
                break;
            }
        }
        1.0 - (-x + a * x.ln() - ln_gamma(a)).exp() * h
    }
}

/// Chi-squared cumulative distribution function with `df` degrees of
/// freedom. Panics if `df` is not positive or `x` is negative.
pub fn chi_squared_cdf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    assert!(x >= 0.0, "chi-squared statistic must be non-negative");
    gamma_p(df / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96) - 0.9750021).abs() < 1e-5);
        assert!((normal_cdf(-1.6448536) - 0.05).abs() < 1e-5);
    }

    #[test]
    fn chi_squared_reference_values() {
        // df=1: P(X ≤ 3.841) = 0.95.
        assert!((chi_squared_cdf(3.8415, 1.0) - 0.95).abs() < 1e-4);
        // df=2 is Exp(1/2): CDF(x) = 1 − e^{−x/2}.
        for x in [0.5, 1.0, 4.0] {
            let expected = 1.0 - (-x / 2.0f64).exp();
            assert!((chi_squared_cdf(x, 2.0) - expected).abs() < 1e-10, "x={x}");
        }
        // df=10: P(X ≤ 18.307) = 0.95.
        assert!((chi_squared_cdf(18.307, 10.0) - 0.95).abs() < 1e-4);
        assert_eq!(chi_squared_cdf(0.0, 3.0), 0.0);
    }
}
