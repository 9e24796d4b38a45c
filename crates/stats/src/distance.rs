//! Distances between empirical score distributions, the substrate for
//! threshold-independent fairness audits (paper ref \[10\]): instead of
//! comparing group confusion matrices at one matching threshold, compare
//! the groups' score *distributions* directly. Two groups whose score
//! CDFs coincide receive identical treatment at *every* threshold, so a
//! small distribution distance certifies fairness over the whole
//! threshold range at once.
//!
//! All functions work on raw samples (no binning): the empirical CDFs
//! are swept jointly over the merged sorted support, which is exact and
//! `O(n log n)`. Samples are compared with `total_cmp`, so inputs with
//! non-finite values still produce a deterministic (if meaningless)
//! answer — callers are expected to clamp scores to `[0, 1]` upstream,
//! as the matcher boundary contract already guarantees.
//!
//! [`ks_distance_sorted`] and [`wasserstein_1_sorted`] take samples the
//! caller already sorted, so comparing many groups against one
//! reference sorts the reference once; the unsorted entries sort and
//! delegate to them, so both give the same bits.

use std::cmp::Ordering;

/// Kolmogorov–Smirnov distance: `sup_x |F_a(x) - F_b(x)|` between the
/// empirical CDFs of two samples. In `[0, 1]`; 0 iff the empirical
/// distributions coincide, 1 when the supports are disjoint.
///
/// # Panics
/// If either sample is empty.
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    ks_distance_sorted(&sorted(a), &sorted(b))
}

/// [`ks_distance`] of two samples already sorted ascending under
/// `total_cmp`.
///
/// # Panics
/// If either sample is empty (debug builds also check the order).
pub fn ks_distance_sorted(sa: &[f64], sb: &[f64]) -> f64 {
    assert!(
        !sa.is_empty() && !sb.is_empty(),
        "ks_distance needs non-empty samples"
    );
    debug_assert!(
        is_sorted(sa) && is_sorted(sb),
        "ks_distance_sorted needs sorted samples"
    );
    let (n, m) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < sa.len() || j < sb.len() {
        let x = next_breakpoint(sa, i, sb, j);
        while i < sa.len() && sa[i].total_cmp(&x) == Ordering::Equal {
            i += 1;
        }
        while j < sb.len() && sb[j].total_cmp(&x) == Ordering::Equal {
            j += 1;
        }
        let gap = (i as f64 / n - j as f64 / m).abs();
        if gap > d {
            d = gap;
        }
    }
    d
}

/// 1-Wasserstein (earth mover's) distance between the empirical
/// distributions of two samples: `∫ |F_a(x) - F_b(x)| dx` over the
/// merged support. For scores in `[0, 1]` the result is in `[0, 1]`;
/// unlike KS it weighs *how far* mass must move, not just whether the
/// CDFs ever separate.
///
/// # Panics
/// If either sample is empty.
pub fn wasserstein_1(a: &[f64], b: &[f64]) -> f64 {
    wasserstein_1_sorted(&sorted(a), &sorted(b))
}

/// [`wasserstein_1`] of two samples already sorted ascending under
/// `total_cmp`.
///
/// # Panics
/// If either sample is empty (debug builds also check the order).
pub fn wasserstein_1_sorted(sa: &[f64], sb: &[f64]) -> f64 {
    assert!(
        !sa.is_empty() && !sb.is_empty(),
        "wasserstein_1 needs non-empty samples"
    );
    debug_assert!(
        is_sorted(sa) && is_sorted(sb),
        "wasserstein_1_sorted needs sorted samples"
    );
    let (n, m) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j, mut total) = (0usize, 0usize, 0.0f64);
    let mut prev: Option<f64> = None;
    while i < sa.len() || j < sb.len() {
        let x = next_breakpoint(sa, i, sb, j);
        if let Some(p) = prev {
            // CDFs are constant on (p, x): height set by counts consumed so far.
            total += (i as f64 / n - j as f64 / m).abs() * (x - p);
        }
        while i < sa.len() && sa[i].total_cmp(&x) == Ordering::Equal {
            i += 1;
        }
        while j < sb.len() && sb[j].total_cmp(&x) == Ordering::Equal {
            j += 1;
        }
        prev = Some(x);
    }
    total
}

/// Trapezoid-rule integral of the sampled curve `(xs[k], ys[k])`:
/// `Σ (xs[k+1] - xs[k]) · (ys[k] + ys[k+1]) / 2`. The sweep behind the
/// "fairness area" audit: `ys` holds a paired-group disparity evaluated
/// on an ascending threshold grid `xs`, and the integral summarizes the
/// disparity over the whole threshold range.
///
/// # Panics
/// If lengths differ or fewer than two points are given.
pub fn trapezoid(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "trapezoid needs aligned samples");
    assert!(xs.len() >= 2, "trapezoid needs at least two points");
    let mut total = 0.0;
    for k in 0..xs.len() - 1 {
        total += (xs[k + 1] - xs[k]) * (ys[k] + ys[k + 1]) / 2.0;
    }
    total
}

/// Sort a sample ascending under the `total_cmp` order.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn is_sorted(v: &[f64]) -> bool {
    v.is_sorted_by(|a, b| a.total_cmp(b).is_le())
}

/// Smallest unconsumed value across both sorted samples.
fn next_breakpoint(sa: &[f64], i: usize, sb: &[f64], j: usize) -> f64 {
    match (sa.get(i), sb.get(j)) {
        (Some(&u), Some(&v)) => {
            if u.total_cmp(&v) == Ordering::Greater {
                v
            } else {
                u
            }
        }
        (Some(&u), None) => u,
        (None, Some(&v)) => v,
        // fairem: allow(panic) — callers loop while i or j is in bounds
        (None, None) => unreachable!("breakpoint past both samples"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_have_zero_distance() {
        let a = [0.1, 0.4, 0.4, 0.9];
        assert_eq!(ks_distance(&a, &a), 0.0);
        assert_eq!(wasserstein_1(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_supports_saturate_ks() {
        let a = [0.1, 0.2, 0.3];
        let b = [0.7, 0.8, 0.9];
        assert_eq!(ks_distance(&a, &b), 1.0);
        // All mass moves by 0.6.
        assert!((wasserstein_1(&a, &b) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ks_matches_hand_computation() {
        // F_a jumps at 0.2, 0.6; F_b jumps at 0.4, 0.8. Max gap is 1/2
        // (e.g. just after 0.2: F_a = 0.5, F_b = 0.0).
        let a = [0.2, 0.6];
        let b = [0.4, 0.8];
        assert!((ks_distance(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wasserstein_equals_mean_shift_for_translated_samples() {
        let a: Vec<f64> = (0..50).map(|i| i as f64 / 100.0).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.25).collect();
        assert!((wasserstein_1(&a, &b) - 0.25).abs() < 1e-12);
        // KS saturates long before Wasserstein for a translation this big.
        assert!(ks_distance(&a, &b) > 0.5);
    }

    #[test]
    fn distances_handle_unequal_sample_sizes() {
        let a = [0.0, 0.5, 1.0];
        let b = [0.0, 0.25, 0.5, 0.75, 1.0];
        let d = ks_distance(&a, &b);
        assert!(d > 0.0 && d < 0.5, "{d}");
        let w = wasserstein_1(&a, &b);
        assert!(w > 0.0 && w < 0.25, "{w}");
    }

    #[test]
    fn distances_are_symmetric() {
        let a = [0.1, 0.3, 0.3, 0.7];
        let b = [0.2, 0.5, 0.9];
        assert_eq!(ks_distance(&a, &b).to_bits(), ks_distance(&b, &a).to_bits());
        assert_eq!(
            wasserstein_1(&a, &b).to_bits(),
            wasserstein_1(&b, &a).to_bits()
        );
    }

    #[test]
    fn trapezoid_integrates_constant_and_linear_curves() {
        let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
        assert!((trapezoid(&xs, &[2.0; 5]) - 2.0).abs() < 1e-12);
        let ys: Vec<f64> = xs.to_vec();
        assert!((trapezoid(&xs, &ys) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ks_rejects_empty() {
        let _ = ks_distance(&[], &[0.5]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn trapezoid_rejects_single_point() {
        let _ = trapezoid(&[0.5], &[1.0]);
    }
}
