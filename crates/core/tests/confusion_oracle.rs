//! Reference oracles for the one-pass confusion counts.
//!
//! The suite counts every threshold-grid and per-group confusion matrix
//! in one pass (`threshold::grid_confusions`, `Workload::group_confusions`)
//! and sorts the overall score sample once for every group's KS / W1
//! distance. The naive versions those replaced live on here, verbatim
//! in behaviour: a full recount of the workload at each threshold, one
//! scan per group for its matrix and another for its support, and
//! distances that sort their own inputs. Seeded property cases compare
//! the two bit for bit (`to_bits`) on workloads built to hit the edges:
//! NaN scores, scores exactly on grid points, 0.0 and 1.0, unsorted,
//! duplicated and two-point grids, intra-group pairs (weight 2), groups
//! with no evidence, and all ten measures under both disparities.

use std::cmp::Ordering;

use fairem_core::audit::{AuditConfig, Auditor};
use fairem_core::calibrate::{distribution_audit, DistributionAudit};
use fairem_core::confusion::ConfusionMatrix;
use fairem_core::ensemble::EnsembleExplorer;
use fairem_core::fairness::{Disparity, FairnessMeasure};
use fairem_core::schema::Table;
use fairem_core::sensitive::{GroupId, GroupSpace, GroupVector, SensitiveAttr};
use fairem_core::threshold::{
    default_grid, grid_confusions, suggest_threshold, sweep, ThresholdSweep,
};
use fairem_core::workload::{Correspondence, Workload};
use fairem_csvio::parse_csv_str;
use fairem_rng::check::{cases, Gen};
use fairem_stats::{
    ks_distance, ks_distance_sorted, trapezoid, wasserstein_1, wasserstein_1_sorted,
};

// ---------------------------------------------------------------------
// Oracles: the retired counting loops.
// ---------------------------------------------------------------------

/// Overall matrix by recounting a copy of the workload at `t`.
fn recount_overall(w: &Workload, t: f64) -> ConfusionMatrix {
    let w = w.with_threshold(t);
    let mut cm = ConfusionMatrix::default();
    for c in &w.items {
        cm.record(w.prediction(c), c.truth, 1.0);
    }
    cm
}

/// One group's both-sides matrix by recounting a copy of the workload
/// at `t`.
fn recount_group(w: &Workload, t: f64, g: GroupId) -> ConfusionMatrix {
    let w = w.with_threshold(t);
    let mut cm = ConfusionMatrix::default();
    for c in &w.items {
        let weight = f64::from(c.left.contains(g)) + f64::from(c.right.contains(g));
        if weight > 0.0 {
            cm.record(w.prediction(c), c.truth, weight);
        }
    }
    cm
}

/// One group's support by its own scan.
fn scan_support(w: &Workload, g: GroupId) -> usize {
    w.items
        .iter()
        .filter(|c| c.left.contains(g) || c.right.contains(g))
        .count()
}

/// The sweep as one recount per threshold and group.
fn recount_sweep(
    w: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    measure: FairnessMeasure,
    grid: &[f64],
) -> ThresholdSweep {
    ThresholdSweep {
        measure,
        thresholds: grid.to_vec(),
        overall: grid
            .iter()
            .map(|&t| measure.value(&recount_overall(w, t)))
            .collect(),
        per_group: groups
            .iter()
            .map(|&g| {
                let values = grid
                    .iter()
                    .map(|&t| measure.value(&recount_group(w, t, g)))
                    .collect();
                (space.name(g).to_owned(), values)
            })
            .collect(),
    }
}

/// `suggest_threshold` over recounted sweeps and F1s.
fn recount_suggest(
    w: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    measure: FairnessMeasure,
    disparity: Disparity,
    fairness_threshold: f64,
    grid: &[f64],
) -> Option<f64> {
    let disparities = recount_sweep(w, space, groups, measure, grid).max_disparity(disparity);
    let mut best: Option<(f64, f64)> = None;
    for (i, &t) in grid.iter().enumerate() {
        if disparities[i] > fairness_threshold {
            continue;
        }
        let f1 = recount_overall(w, t).f1();
        if f1.is_finite() && best.is_none_or(|(bf, _)| f1 > bf) {
            best = Some((f1, t));
        }
    }
    best.map(|(_, t)| t)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn breakpoint(sa: &[f64], i: usize, sb: &[f64], j: usize) -> f64 {
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
        (None, None) => unreachable!("breakpoint past both samples"),
    }
}

/// KS distance that sorts its own inputs.
fn oracle_ks(a: &[f64], b: &[f64]) -> f64 {
    let (sa, sb) = (sorted(a), sorted(b));
    let (n, m) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < sa.len() || j < sb.len() {
        let x = breakpoint(&sa, i, &sb, j);
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

/// 1-Wasserstein distance that sorts its own inputs.
fn oracle_w1(a: &[f64], b: &[f64]) -> f64 {
    let (sa, sb) = (sorted(a), sorted(b));
    let (n, m) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j, mut total) = (0usize, 0usize, 0.0f64);
    let mut prev: Option<f64> = None;
    while i < sa.len() || j < sb.len() {
        let x = breakpoint(&sa, i, &sb, j);
        if let Some(p) = prev {
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

/// The distribution audit with per-group filters, per-call sorts and
/// one recounted sweep per measure.
fn oracle_distribution_audit(
    w: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    measures: &[FairnessMeasure],
    disparity: Disparity,
    grid: &[f64],
) -> Vec<(usize, u64, u64)> {
    let overall: Vec<f64> = w.items.iter().map(|c| c.score).collect();
    let mut rows: Vec<(usize, u64, u64)> = groups
        .iter()
        .map(|&g| {
            let scores: Vec<f64> = w
                .items
                .iter()
                .filter(|c| c.left.contains(g) || c.right.contains(g))
                .map(|c| c.score)
                .collect();
            if scores.is_empty() {
                (0, f64::NAN.to_bits(), f64::NAN.to_bits())
            } else {
                (
                    scores.len(),
                    oracle_ks(&scores, &overall).to_bits(),
                    oracle_w1(&scores, &overall).to_bits(),
                )
            }
        })
        .collect();
    let width = grid[grid.len() - 1] - grid[0];
    for &measure in measures {
        let disparities = recount_sweep(w, space, groups, measure, grid).max_disparity(disparity);
        rows.push((0, (trapezoid(grid, &disparities) / width).to_bits(), 0));
    }
    rows
}

fn audit_rows(a: &DistributionAudit) -> Vec<(usize, u64, u64)> {
    let mut rows: Vec<(usize, u64, u64)> = a
        .entries
        .iter()
        .map(|e| (e.support, e.ks.to_bits(), e.wasserstein.to_bits()))
        .collect();
    rows.extend(a.areas.iter().map(|x| (0, x.area.to_bits(), 0)));
    rows
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

const DISPARITIES: [Disparity; 2] = [Disparity::Subtraction, Disparity::Division];

/// A space of `k` groups `g0..g{k-1}` (ids in name order).
fn space(k: usize) -> GroupSpace {
    let mut csv = "id,g\n".to_owned();
    for i in 0..k {
        csv.push_str(&format!("r{i},g{i}\n"));
    }
    let t = Table::from_csv(parse_csv_str(&csv).expect("csv")).expect("table");
    GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")])
}

/// A threshold grid: the default grid, an unsorted grid with
/// duplicates (and the end points), or a two-point grid.
fn gen_grid(g: &mut Gen) -> Vec<f64> {
    match g.usize_in(0, 3) {
        0 => default_grid(),
        1 => {
            let mut grid = g.vec_len(2, 12, |g| match g.usize_in(0, 4) {
                0 => g.usize_in(0, 101) as f64 / 100.0,
                1 => *g.pick(&[0.0, 1.0, 0.5]),
                _ => g.unit_f64(),
            });
            let dup = grid[g.usize_in(0, grid.len())];
            grid.push(dup);
            grid
        }
        _ => {
            let lo = g.f64_in(0.0, 0.5);
            vec![lo, g.f64_in(lo, 1.0)]
        }
    }
}

/// A score: NaN, an exact grid point, 0.0 / 1.0, or uniform.
fn gen_score(g: &mut Gen, grid: &[f64]) -> f64 {
    match g.usize_in(0, 10) {
        0 => f64::NAN,
        1 | 2 => *g.pick(grid),
        3 => *g.pick(&[0.0, 1.0]),
        _ => g.unit_f64(),
    }
}

/// Group bits over the first `live` of the space's groups: none, one
/// group, or several.
fn gen_bits(g: &mut Gen, live: usize) -> GroupVector {
    match g.usize_in(0, 6) {
        0 => GroupVector(0),
        1 => GroupVector(g.u64() & ((1u64 << live) - 1)),
        _ => GroupVector(1 << g.usize_in(0, live)),
    }
}

/// A workload over `k` groups whose last group never appears (no
/// evidence), with a share of intra-group pairs (both sides equal).
fn gen_workload(g: &mut Gen, k: usize, grid: &[f64], min_len: usize) -> Workload {
    let live = k - 1;
    let items = g.vec_len(min_len, 60, |g| {
        let left = gen_bits(g, live);
        let right = if g.bool(0.3) { left } else { gen_bits(g, live) };
        Correspondence {
            a_row: 0,
            b_row: 0,
            score: gen_score(g, grid),
            truth: g.bool(0.4),
            left,
            right,
        }
    });
    let anywhere = g.unit_f64();
    let threshold = *g.pick(&[0.0, 0.5, 1.0, anywhere]);
    Workload::new(items, threshold)
}

/// Requested groups: every id of the space in a shuffled order, some
/// repeated.
fn gen_groups(g: &mut Gen, k: usize) -> Vec<GroupId> {
    let mut ids: Vec<GroupId> = (0..k as u32).map(GroupId).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, g.usize_in(0, i + 1));
    }
    if g.bool(0.5) {
        ids.push(ids[g.usize_in(0, k)]);
    }
    ids
}

fn bits(cm: &ConfusionMatrix) -> [u64; 4] {
    [
        cm.tp.to_bits(),
        cm.fp.to_bits(),
        cm.fn_.to_bits(),
        cm.tn.to_bits(),
    ]
}

fn curve_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

#[test]
fn grid_counts_match_a_recount_at_every_threshold() {
    cases(200, 0x6a1d, |g| {
        let k = g.usize_in(2, 6);
        let grid = gen_grid(g);
        let w = gen_workload(g, k, &grid, 0);
        let groups = gen_groups(g, k);
        let counts = grid_confusions(&w.items, &groups, &grid);
        assert_eq!(counts.len(), grid.len());
        for (at, &t) in counts.iter().zip(&grid) {
            assert_eq!(
                bits(&at.overall),
                bits(&recount_overall(&w, t)),
                "overall at {t}"
            );
            for (i, &gid) in groups.iter().enumerate() {
                assert_eq!(
                    bits(&at.groups[i]),
                    bits(&recount_group(&w, t, gid)),
                    "group {gid:?} at {t}"
                );
                assert_eq!(at.support[i], scan_support(&w, gid));
            }
        }
    });
}

#[test]
fn group_counts_match_one_scan_per_group() {
    cases(200, 0x9c0f, |g| {
        let k = g.usize_in(2, 6);
        let w = gen_workload(g, k, &default_grid(), 0);
        let groups = gen_groups(g, k);
        let counts = w.group_confusions(&groups);
        assert_eq!(
            bits(&counts.overall),
            bits(&recount_overall(&w, w.threshold))
        );
        assert_eq!(bits(&w.overall_confusion()), bits(&counts.overall));
        for (i, &gid) in groups.iter().enumerate() {
            let oracle = recount_group(&w, w.threshold, gid);
            assert_eq!(bits(&counts.groups[i]), bits(&oracle), "{gid:?}");
            assert_eq!(bits(&w.group_confusion(gid)), bits(&oracle));
            assert_eq!(counts.support[i], scan_support(&w, gid));
            assert_eq!(w.group_support(gid), scan_support(&w, gid));
        }
    });
}

#[test]
fn sweeps_and_suggestions_match_recounts_for_every_measure() {
    cases(60, 0x51e3, |g| {
        let k = g.usize_in(2, 5);
        let grid = gen_grid(g);
        let w = gen_workload(g, k, &grid, 0);
        let sp = space(k);
        let groups = gen_groups(g, k);
        let fairness_threshold = g.f64_in(0.0, 0.5);
        for measure in FairnessMeasure::ALL {
            let fast = sweep(&w, &sp, &groups, measure, &grid);
            let slow = recount_sweep(&w, &sp, &groups, measure, &grid);
            assert_eq!(
                curve_bits(&fast.overall),
                curve_bits(&slow.overall),
                "{measure:?}"
            );
            assert_eq!(fast.per_group.len(), slow.per_group.len());
            for ((fname, fv), (sname, sv)) in fast.per_group.iter().zip(&slow.per_group) {
                assert_eq!(fname, sname);
                assert_eq!(curve_bits(fv), curve_bits(sv), "{measure:?} {fname}");
            }
            for disparity in DISPARITIES {
                assert_eq!(
                    curve_bits(&fast.max_disparity(disparity)),
                    curve_bits(&slow.max_disparity(disparity))
                );
                let got = suggest_threshold(
                    &w,
                    &sp,
                    &groups,
                    measure,
                    disparity,
                    fairness_threshold,
                    &grid,
                );
                let want = recount_suggest(
                    &w,
                    &sp,
                    &groups,
                    measure,
                    disparity,
                    fairness_threshold,
                    &grid,
                );
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{measure:?}");
            }
        }
    });
}

#[test]
fn distribution_audit_matches_per_group_sorts_and_recounted_sweeps() {
    cases(60, 0xd157, |g| {
        let k = g.usize_in(2, 5);
        let grid = gen_grid(g);
        let w = gen_workload(g, k, &grid, 1);
        let sp = space(k);
        let groups = gen_groups(g, k);
        for disparity in DISPARITIES {
            let fast =
                distribution_audit(&w, &sp, &groups, &FairnessMeasure::ALL, disparity, &grid);
            let slow = oracle_distribution_audit(
                &w,
                &sp,
                &groups,
                &FairnessMeasure::ALL,
                disparity,
                &grid,
            );
            assert_eq!(audit_rows(&fast), slow, "{disparity:?}");
        }
    });
}

#[test]
fn presorted_distances_match_self_sorting_ones() {
    cases(300, 0x4b53, |g| {
        let sample = |g: &mut Gen| {
            g.vec_len(1, 40, |g| match g.usize_in(0, 8) {
                0 => f64::NAN,
                1 => *g.pick(&[0.0, 1.0, 0.5, -0.0]),
                _ => g.unit_f64(),
            })
        };
        let (a, b) = (sample(g), sample(g));
        let (sa, sb) = (sorted(&a), sorted(&b));
        let ks = oracle_ks(&a, &b).to_bits();
        let w1 = oracle_w1(&a, &b).to_bits();
        assert_eq!(ks_distance(&a, &b).to_bits(), ks);
        assert_eq!(ks_distance_sorted(&sa, &sb).to_bits(), ks);
        assert_eq!(wasserstein_1(&a, &b).to_bits(), w1);
        assert_eq!(wasserstein_1_sorted(&sa, &sb).to_bits(), w1);
    });
}

#[test]
fn f1_from_grid_counts_matches_f1_from_predictions() {
    // `Session::tune_threshold` picks its threshold by the F1 of the
    // grid counts; the retired loop built a prediction vector per point.
    cases(200, 0x7f1e, |g| {
        let grid = default_grid();
        let w = gen_workload(g, 2, &grid, 0);
        let truths: Vec<bool> = w.items.iter().map(|c| c.truth).collect();
        let counts = grid_confusions(&w.items, &[], &grid);
        for (at, &t) in counts.iter().zip(&grid) {
            let preds: Vec<bool> = w.items.iter().map(|c| c.score >= t).collect();
            assert_eq!(
                at.overall.f1().to_bits(),
                fairem_ml::f1_score(&preds, &truths).to_bits(),
                "at {t}"
            );
        }
    });
}

#[test]
fn audits_and_ensembles_match_per_group_scans() {
    cases(100, 0xa0d1, |g| {
        let k = g.usize_in(2, 6);
        let sp = space(k);
        let w = gen_workload(g, k, &default_grid(), 0);
        let other = gen_workload(g, k, &default_grid(), 0);
        let auditor = Auditor::new(AuditConfig {
            measures: FairnessMeasure::ALL.to_vec(),
            min_support: g.usize_in(0, 4),
            ..AuditConfig::default()
        });
        let report = auditor.audit("X", &w, &sp);
        let overall = recount_overall(&w, w.threshold);
        for e in &report.entries {
            let cm = recount_group(&w, w.threshold, e.group_id);
            assert_eq!(e.group_value.to_bits(), e.measure.value(&cm).to_bits());
            assert_eq!(
                e.overall_value.to_bits(),
                e.measure.value(&overall).to_bits()
            );
            assert_eq!(e.support, scan_support(&w, e.group_id));
        }
        let groups: Vec<GroupId> = sp.ids().collect();
        let pair = [("a".to_owned(), &w), ("b".to_owned(), &other)];
        for measure in FairnessMeasure::ALL {
            let explorer =
                EnsembleExplorer::build(&pair, &sp, &groups, measure, Disparity::Subtraction);
            for (m, (_, wl)) in pair.iter().enumerate() {
                for (gi, &gid) in groups.iter().enumerate() {
                    let v = measure.value(&recount_group(wl, wl.threshold, gid));
                    let want = if v.is_finite() { v } else { f64::NAN };
                    assert_eq!(explorer.value(m, gi).to_bits(), want.to_bits());
                }
            }
        }
    });
}

#[test]
#[should_panic(expected = "threshold must be in [0,1]")]
fn grid_point_above_one_still_panics() {
    let sp = space(2);
    let groups: Vec<GroupId> = sp.ids().collect();
    let w = Workload::new(Vec::new(), 0.5);
    let _ = sweep(
        &w,
        &sp,
        &groups,
        FairnessMeasure::AccuracyParity,
        &[0.5, 1.5],
    );
}

#[test]
#[should_panic(expected = "threshold must be in [0,1]")]
fn negative_grid_point_still_panics() {
    let _ = grid_confusions(&[], &[], &[-0.01, 0.5]);
}
