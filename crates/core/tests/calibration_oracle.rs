//! Reference oracles for the calibrators: the PAVA isotonic fit against
//! the O(n²) max–min formula for least-squares isotonic regression with
//! tied scores held equal, the fit's invariance under sample order, and
//! the Platt and isotonic shape properties. Scores come from a coarse
//! grid, so most samples tie with others. Runs on the in-workspace
//! `fairem_rng::check` harness.

use fairem_core::calibrate::{IsotonicCalibrator, PlattScaler};
use fairem_rng::check::{cases, Gen};

/// Coarse score grid: `-0.0` and `0.0` tie under `==`, and with up to
/// 40 samples over seven points almost every score repeats.
const GRID: [f64; 7] = [-0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0];

fn coarse_sample(g: &mut Gen) -> (Vec<f64>, Vec<f64>) {
    let scores = g.vec_len(1, 40, |g| *g.pick(&GRID));
    let labels = scores.iter().map(|_| f64::from(g.bool(0.5))).collect();
    (scores, labels)
}

/// The least-squares isotonic fit with tied scores pooled, by brute
/// force: with tie groups `0..m` in ascending score order,
/// `f_k = max_{i≤k} min_{j≥k} mean(i..=j)`, where `mean` is the label
/// mean over the samples of groups `i` to `j`. Returns `(score, f_k)`
/// per group.
fn brute_force_isotonic(scores: &[f64], labels: &[f64]) -> Vec<(f64, f64)> {
    let mut samples: Vec<(f64, f64)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    // (score, label sum, count) per run of equal scores.
    let groups: Vec<(f64, f64, f64)> = samples
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run.iter().map(|s| s.1).sum(), run.len() as f64))
        .collect();
    let mean = |i: usize, j: usize| {
        let (sum, n) = groups[i..=j]
            .iter()
            .fold((0.0, 0.0), |(s, n), g| (s + g.1, n + g.2));
        sum / n
    };
    (0..groups.len())
        .map(|k| {
            let f = (0..=k)
                .map(|i| {
                    (k..groups.len())
                        .map(|j| mean(i, j))
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(f64::NEG_INFINITY, f64::max);
            (groups[k].0, f)
        })
        .collect()
}

#[test]
fn pava_matches_the_brute_force_isotonic_fit_on_tied_scores() {
    cases(256, 0x150a, |g| {
        let (scores, labels) = coarse_sample(g);
        let iso = IsotonicCalibrator::fit(&scores, &labels);
        for (score, want) in brute_force_isotonic(&scores, &labels) {
            let got = iso.transform(score);
            assert!(
                (got - want).abs() < 1e-12,
                "at {score}: PAVA {got} vs brute force {want} ({scores:?} / {labels:?})"
            );
        }
    });
}

#[test]
fn isotonic_fit_is_invariant_under_sample_order() {
    cases(256, 0x150b, |g| {
        let (scores, labels) = coarse_sample(g);
        // Fisher–Yates shuffle of the (score, label) samples.
        let mut order: Vec<usize> = (0..scores.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, g.usize_in(0, i + 1));
        }
        let shuffled_scores: Vec<f64> = order.iter().map(|&i| scores[i]).collect();
        let shuffled_labels: Vec<f64> = order.iter().map(|&i| labels[i]).collect();
        let a = IsotonicCalibrator::fit(&scores, &labels);
        let b = IsotonicCalibrator::fit(&shuffled_scores, &shuffled_labels);
        assert_eq!(a.n_steps(), b.n_steps());
        for probe in GRID.iter().copied().chain([0.1, 0.3, 0.6, 0.9]) {
            assert_eq!(
                a.transform(probe).to_bits(),
                b.transform(probe).to_bits(),
                "at {probe}: {scores:?} / {labels:?} vs order {order:?}"
            );
        }
    });
}

#[test]
fn platt_is_monotone_everywhere() {
    cases(48, 0x3105, |g| {
        let scores = g.vec_len(4, 40, Gen::unit_f64);
        let labels: Vec<f64> = scores.iter().map(|_| f64::from(g.bool(0.5))).collect();
        let p = PlattScaler::fit(&scores, &labels);
        let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let out: Vec<f64> = grid.iter().map(|&s| p.transform(s)).collect();
        let increasing = out.windows(2).all(|w| w[0] <= w[1] + 1e-12);
        let decreasing = out.windows(2).all(|w| w[0] >= w[1] - 1e-12);
        assert!(increasing || decreasing);
        assert!(out.iter().all(|v| (0.0..=1.0).contains(v)));
    });
}

#[test]
fn isotonic_output_is_monotone_and_bounded() {
    cases(48, 0x3106, |g| {
        let scores = g.vec_len(2, 40, Gen::unit_f64);
        let labels: Vec<f64> = scores.iter().map(|_| f64::from(g.bool(0.5))).collect();
        let iso = IsotonicCalibrator::fit(&scores, &labels);
        let mut prev = -1.0;
        for i in 0..=20 {
            let v = iso.transform(i as f64 / 20.0);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    });
}
