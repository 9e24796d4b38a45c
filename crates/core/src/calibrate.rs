//! Per-group score calibration and the threshold-independent
//! `CalibratedAudit` report section behind `--calibrate` /
//! `--all-thresholds`.
//!
//! Single-threshold audits answer "is the matcher fair at *this*
//! operating point"; the paper's Fig. 4 shows the answer can flip as the
//! threshold moves, because raw scores mean different things for
//! different sensitive groups. "Threshold-Independent Fair Matching
//! through Score Calibration" (Moslemi & Milani 2024, the paper's ref
//! \[10\]) fits a calibrator *per group*, so that a score of `p` means
//! "probability `p` of a true match" for every group at once. This
//! module holds that method end to end:
//!
//! - [`PlattScaler`] and [`IsotonicCalibrator`] are the two calibrator
//!   families;
//! - [`CalibrationSpec`] names a family plus the minimum per-group
//!   support below which a group falls back to the global fit;
//! - [`GroupCalibrator::try_fit`] fits the global calibrator and every
//!   eligible group calibrator on a workload, as independent work items
//!   on a [`WorkerPool`], and [`apply_calibrator`] remaps a workload's
//!   scores through the fit;
//! - [`distribution_audit`] audits the score *distributions*: per-group
//!   Kolmogorov–Smirnov and 1-Wasserstein distances against the
//!   workload-wide distribution (zero iff the group is treated
//!   identically at every threshold), plus a trapezoid-swept "fairness
//!   area" that integrates the max paired-group disparity of each
//!   measure over the whole threshold grid.

use fairem_obs::SpanStatus;
use fairem_par::{CancelToken, Interrupt, WorkerPool};
use fairem_stats::{ks_distance_sorted, trapezoid, wasserstein_1_sorted};

use crate::fairness::{Disparity, FairnessMeasure};
use crate::sensitive::{GroupId, GroupSpace};
use crate::threshold::{grid_confusions, sweep_counts};
use crate::workload::{Correspondence, Workload};

/// Platt scaling: fit `p = σ(a·s + b)` on (score, label) pairs by
/// gradient descent on the log-loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlattScaler {
    /// Slope of the logistic link.
    pub a: f64,
    /// Intercept of the logistic link.
    pub b: f64,
}

impl PlattScaler {
    /// Fit on raw scores and binary labels.
    ///
    /// # Panics
    /// If inputs are empty or lengths differ.
    pub fn fit(scores: &[f64], labels: &[f64]) -> PlattScaler {
        assert!(!scores.is_empty(), "cannot calibrate on empty data");
        assert_eq!(scores.len(), labels.len(), "scores and labels must align");
        // Platt's target smoothing guards against overconfidence.
        let n_pos = labels.iter().filter(|&&y| y == 1.0).count() as f64;
        let n_neg = labels.len() as f64 - n_pos;
        let t_pos = (n_pos + 1.0) / (n_pos + 2.0);
        let t_neg = 1.0 / (n_neg + 2.0);
        let targets: Vec<f64> = labels
            .iter()
            .map(|&y| if y == 1.0 { t_pos } else { t_neg })
            .collect();
        let mut a = 1.0f64;
        let mut b = 0.0f64;
        let lr = 1.0;
        let n = scores.len() as f64;
        for _ in 0..500 {
            let mut ga = 0.0;
            let mut gb = 0.0;
            for (&s, &t) in scores.iter().zip(&targets) {
                let p = sigmoid(a * s + b);
                let err = p - t;
                ga += err * s;
                gb += err;
            }
            a -= lr * ga / n;
            b -= lr * gb / n;
        }
        PlattScaler { a, b }
    }

    /// Calibrated probability for a raw score. Inputs are pinned to the
    /// matcher-boundary score contract first (NaN reads as 0.0, ±inf and
    /// out-of-range scores clamp to the nearest bound), so the output is
    /// always the fitted link evaluated inside `[0, 1]`.
    pub fn transform(&self, score: f64) -> f64 {
        sigmoid(self.a * pin_score(score) + self.b)
    }
}

/// Pin a raw score to the `[0, 1]` contract shared with the matcher
/// boundary: NaN becomes 0.0 (no usable evidence), ±inf and out-of-range
/// values clamp to the nearest bound.
fn pin_score(score: f64) -> f64 {
    if score.is_nan() {
        0.0
    } else {
        score.clamp(0.0, 1.0)
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Isotonic regression calibrator fitted with the pool-adjacent-
/// violators algorithm (PAVA): a monotone step function from scores to
/// empirical match rates.
#[derive(Debug, Clone, PartialEq)]
pub struct IsotonicCalibrator {
    /// Breakpoint scores (ascending).
    thresholds: Vec<f64>,
    /// Calibrated value at and above each breakpoint.
    values: Vec<f64>,
}

impl IsotonicCalibrator {
    /// Fit on raw scores and binary labels.
    ///
    /// Each run of equal scores (`==`, so `-0.0` and `0.0` pool) enters
    /// PAVA as one block, weighted by its size and valued at its mean
    /// label. Tied scores therefore share one value whatever the input
    /// order, and the fit is the least-squares isotonic fit with ties
    /// held equal.
    ///
    /// # Panics
    /// If inputs are empty or lengths differ.
    pub fn fit(scores: &[f64], labels: &[f64]) -> IsotonicCalibrator {
        assert!(!scores.is_empty(), "cannot calibrate on empty data");
        assert_eq!(scores.len(), labels.len(), "scores and labels must align");
        // Sort by score.
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&i, &j| scores[i].total_cmp(&scores[j]));
        // PAVA over blocks (value, weight, start-score).
        struct Block {
            value: f64,
            weight: f64,
            score: f64,
        }
        let mut blocks: Vec<Block> = Vec::with_capacity(order.len());
        for run in order.chunk_by(|&i, &j| scores[i] == scores[j]) {
            let sum: f64 = run.iter().map(|&i| labels[i]).sum();
            blocks.push(Block {
                value: sum / run.len() as f64,
                weight: run.len() as f64,
                score: scores[run[0]],
            });
            while blocks.len() >= 2 {
                let last = blocks.len() - 1;
                if blocks[last - 1].value <= blocks[last].value {
                    break;
                }
                // Merge the violating pair (weighted average).
                let b = blocks.remove(last);
                let a = &mut blocks[last - 1];
                let w = a.weight + b.weight;
                a.value = (a.value * a.weight + b.value * b.weight) / w;
                a.weight = w;
            }
        }
        // Adjacent blocks with equal values merge so `n_steps` counts
        // genuine steps. All-tied and all-one-label fits degenerate to a
        // single constant step this way.
        blocks.dedup_by(|later, kept| later.value == kept.value);
        IsotonicCalibrator {
            thresholds: blocks.iter().map(|b| b.score).collect(),
            values: blocks.iter().map(|b| b.value).collect(),
        }
    }

    /// Calibrated probability for a raw score (step-function lookup;
    /// scores below the first breakpoint get the first value). Inputs
    /// are pinned to the matcher-boundary score contract first: NaN
    /// reads as 0.0, ±inf and out-of-range scores clamp to the nearest
    /// bound, so the lookup never walks off the fitted support.
    pub fn transform(&self, score: f64) -> f64 {
        let score = pin_score(score);
        match self.thresholds.binary_search_by(|t| t.total_cmp(&score)) {
            Ok(i) => self.values[i],
            Err(0) => self.values[0],
            Err(i) => self.values[i - 1],
        }
    }

    /// Number of monotone steps.
    pub fn n_steps(&self) -> usize {
        self.values.len()
    }
}

/// Calibrator family to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibratorKind {
    /// Platt scaling: logistic link `σ(a·s + b)` fit by gradient descent.
    Platt,
    /// Isotonic regression: monotone step function fit by PAVA.
    Isotonic,
}

impl CalibratorKind {
    /// Stable lowercase name (CLI flag value, report label, cache key).
    pub fn name(self) -> &'static str {
        match self {
            CalibratorKind::Platt => "platt",
            CalibratorKind::Isotonic => "isotonic",
        }
    }
}

/// A calibration policy: which calibrator family to fit per group, and
/// the minimum number of fitting samples a group needs (with both
/// classes present) before it earns its own calibrator instead of the
/// global fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationSpec {
    /// Calibrator family.
    pub kind: CalibratorKind,
    /// Minimum per-group sample count for a dedicated fit.
    pub min_support: usize,
}

impl CalibrationSpec {
    /// Default minimum support, matching the audit's small-group floor.
    pub const DEFAULT_MIN_SUPPORT: usize = 10;

    /// Platt scaling with the default support floor.
    pub fn platt() -> CalibrationSpec {
        CalibrationSpec {
            kind: CalibratorKind::Platt,
            min_support: Self::DEFAULT_MIN_SUPPORT,
        }
    }

    /// Isotonic regression with the default support floor.
    pub fn isotonic() -> CalibrationSpec {
        CalibrationSpec {
            kind: CalibratorKind::Isotonic,
            min_support: Self::DEFAULT_MIN_SUPPORT,
        }
    }

    /// Override the support floor.
    pub fn with_min_support(mut self, min_support: usize) -> CalibrationSpec {
        self.min_support = min_support.max(1);
        self
    }

    /// Parse a CLI-style spec: `none`, `platt`, `isotonic`, optionally
    /// suffixed `:<min-support>` (e.g. `isotonic:25`). `Ok(None)` means
    /// calibration is explicitly off.
    pub fn parse(raw: &str) -> Result<Option<CalibrationSpec>, String> {
        let (name, support) = match raw.split_once(':') {
            Some((n, s)) => (n, Some(s)),
            None => (raw, None),
        };
        let base = match name {
            "none" => {
                if support.is_some() {
                    return Err("'none' takes no min-support suffix".into());
                }
                return Ok(None);
            }
            "platt" => CalibrationSpec::platt(),
            "isotonic" => CalibrationSpec::isotonic(),
            other => {
                return Err(format!(
                    "unknown calibrator '{other}' (expected none|platt|isotonic[:min-support])"
                ))
            }
        };
        match support {
            None => Ok(Some(base)),
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Some(base.with_min_support(n))),
                _ => Err(format!("invalid min-support '{s}' (expected integer >= 1)")),
            },
        }
    }

    /// Stable label, e.g. `platt:10` — used in reports and cache keys.
    pub fn label(&self) -> String {
        format!("{}:{}", self.kind.name(), self.min_support)
    }
}

/// One fitted calibrator (either family).
#[derive(Debug, Clone)]
enum Fitted {
    Platt(PlattScaler),
    Isotonic(IsotonicCalibrator),
}

impl Fitted {
    fn fit(kind: CalibratorKind, scores: &[f64], labels: &[f64]) -> Fitted {
        match kind {
            CalibratorKind::Platt => Fitted::Platt(PlattScaler::fit(scores, labels)),
            CalibratorKind::Isotonic => Fitted::Isotonic(IsotonicCalibrator::fit(scores, labels)),
        }
    }

    fn transform(&self, score: f64) -> f64 {
        match self {
            Fitted::Platt(p) => p.transform(score),
            Fitted::Isotonic(i) => i.transform(score),
        }
    }
}

/// Per-group calibrator: a global fit over all samples plus a dedicated
/// fit for every group that clears the support floor with both classes
/// present. Groups without a dedicated fit (and correspondences outside
/// every group) route through the global calibrator.
#[derive(Debug, Clone)]
pub struct GroupCalibrator {
    global: Fitted,
    per_group: Vec<Option<Fitted>>,
}

impl GroupCalibrator {
    /// Fit the global calibrator plus one calibrator per eligible group
    /// on a fitting workload's scores and truth labels.
    ///
    /// Each correspondence belongs to the first group (in `groups`
    /// order) either side belongs to, the rule [`apply_calibrator`]
    /// routes by; correspondences outside every group still feed the
    /// global fit. Each of the `groups.len() + 1` fits is an
    /// independent work item on `pool`, so the stitched result is
    /// bit-for-bit identical for every worker count; a tripped `cancel`
    /// token aborts the whole fit (partial fits are never observable).
    ///
    /// # Panics
    /// If the fitting workload is empty.
    pub fn try_fit(
        spec: CalibrationSpec,
        fit: &Workload,
        groups: &[GroupId],
        pool: &WorkerPool,
        cancel: &CancelToken,
    ) -> Result<GroupCalibrator, Interrupt> {
        assert!(!fit.items.is_empty(), "cannot calibrate on empty data");
        let n_groups = groups.len();
        let group_of = assign_groups(&fit.items, groups);
        let recorder = pool.recorder().clone();
        let span = recorder.span("calib.fit");
        // Work item g < n_groups fits group g; item n_groups fits the
        // global calibrator over every sample.
        let outcome = pool.par_map_within(n_groups + 1, cancel, |g| {
            let (scores, labels): (Vec<f64>, Vec<f64>) = fit
                .items
                .iter()
                .zip(&group_of)
                .filter(|&(_, &slot)| g == n_groups || slot == Some(g))
                .map(|(c, _)| (c.score, f64::from(c.truth)))
                .unzip();
            let eligible = g == n_groups
                || (scores.len() >= spec.min_support
                    && labels.contains(&1.0)
                    && labels.contains(&0.0));
            eligible.then(|| Fitted::fit(spec.kind, &scores, &labels))
        });
        if let Some(interrupt) = outcome.interrupt().copied() {
            span.set_status(SpanStatus::Cut);
            drop(span);
            return Err(interrupt);
        }
        let mut fits = outcome.into_done();
        let global = match fits.pop().flatten() {
            Some(g) => g,
            // fairem: allow(panic) — pool contract: uninterrupted map returns all n_groups + 1 slots
            None => unreachable!("global fit always runs"),
        };
        let fallbacks = fits.iter().filter(|f| f.is_none()).count();
        recorder.add("calib.groups_fitted", (fits.len() - fallbacks) as u64);
        recorder.add("calib.fallbacks", fallbacks as u64);
        recorder.add("calib.samples", fit.items.len() as u64);
        drop(span);
        Ok(GroupCalibrator {
            global,
            per_group: fits,
        })
    }

    /// Number of groups that earned a dedicated fit.
    pub fn groups_fitted(&self) -> usize {
        self.per_group.iter().filter(|f| f.is_some()).count()
    }

    /// Number of groups routed to the global fallback.
    pub fn fallbacks(&self) -> usize {
        self.per_group.len() - self.groups_fitted()
    }

    /// Calibrated probability for one (group slot, raw score) pair.
    pub fn transform(&self, group: Option<usize>, score: f64) -> f64 {
        match group
            .and_then(|g| self.per_group.get(g))
            .and_then(|f| f.as_ref())
        {
            Some(fitted) => fitted.transform(score),
            None => self.global.transform(score),
        }
    }
}

/// Each correspondence's group slot: the first group (in `groups`
/// order) either side belongs to, so calibrators and audits agree on
/// membership.
fn assign_groups(items: &[Correspondence], groups: &[GroupId]) -> Vec<Option<usize>> {
    items
        .iter()
        .map(|c| {
            groups
                .iter()
                .position(|&g| c.left.contains(g) || c.right.contains(g))
        })
        .collect()
}

/// Remap an evaluation workload's scores through a fitted calibrator,
/// routing each correspondence by the same group-assignment rule the
/// fit used. Threshold and truth labels are untouched.
pub fn apply_calibrator(cal: &GroupCalibrator, eval: &Workload, groups: &[GroupId]) -> Workload {
    let group_of = assign_groups(&eval.items, groups);
    let items = eval
        .items
        .iter()
        .zip(&group_of)
        .map(|(c, &slot)| Correspondence {
            score: cal.transform(slot, c.score),
            ..*c
        })
        .collect();
    Workload::new(items, eval.threshold)
}

/// Score-distribution distances of one group against the whole
/// workload. Zero for both iff the group's empirical score CDF
/// coincides with the overall CDF — i.e. the group is treated
/// identically at *every* matching threshold.
#[derive(Debug, Clone)]
pub struct DistributionEntry {
    /// Group name.
    pub group: String,
    /// Number of correspondences involving the group.
    pub support: usize,
    /// Kolmogorov–Smirnov distance vs the overall score distribution.
    pub ks: f64,
    /// 1-Wasserstein distance vs the overall score distribution.
    pub wasserstein: f64,
}

/// Trapezoid-swept fairness area of one measure: the max paired-group
/// disparity integrated over the threshold grid, normalized by the grid
/// width — a threshold-free summary in the same `[0, 1]` scale as a
/// single-threshold disparity.
#[derive(Debug, Clone)]
pub struct FairnessArea {
    /// The measure swept.
    pub measure: FairnessMeasure,
    /// Normalized integral of the max disparity over the grid.
    pub area: f64,
}

/// The threshold-independent audit of one workload: per-group
/// distribution distances plus per-measure fairness areas.
#[derive(Debug, Clone)]
pub struct DistributionAudit {
    /// One row per audited group.
    pub entries: Vec<DistributionEntry>,
    /// One row per swept measure.
    pub areas: Vec<FairnessArea>,
}

impl DistributionAudit {
    /// Max finite KS distance across groups — the "KS disparity" the
    /// calibration gate in check.sh compares before/after.
    pub fn max_ks(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.ks)
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Max finite 1-Wasserstein distance across groups.
    pub fn max_wasserstein(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.wasserstein)
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Max finite fairness area across measures.
    pub fn max_area(&self) -> f64 {
        self.areas
            .iter()
            .map(|a| a.area)
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }
}

/// Compute the threshold-independent audit of a workload: group-wise
/// KS / 1-Wasserstein distances of score distributions (NaN for groups
/// with no evidence, mirroring the single-threshold audit's
/// insufficient-support convention) and the trapezoid-swept fairness
/// area of each measure over `grid`.
///
/// The overall score sample is sorted once for every group's
/// distances, and one [`grid_confusions`] pass serves the curves of
/// every measure.
///
/// # Panics
/// If the workload is empty, `grid` has fewer than two points, or a
/// grid point is outside `[0, 1]`.
pub fn distribution_audit(
    workload: &Workload,
    space: &GroupSpace,
    groups: &[GroupId],
    measures: &[FairnessMeasure],
    disparity: Disparity,
    grid: &[f64],
) -> DistributionAudit {
    assert!(!workload.items.is_empty(), "cannot audit an empty workload");
    assert!(
        grid.len() >= 2,
        "fairness area needs at least two grid points"
    );
    let mut overall: Vec<f64> = workload.items.iter().map(|c| c.score).collect();
    overall.sort_by(f64::total_cmp);
    let entries = groups
        .iter()
        .map(|&g| {
            let mut group_scores: Vec<f64> = workload
                .items
                .iter()
                .filter(|c| c.left.contains(g) || c.right.contains(g))
                .map(|c| c.score)
                .collect();
            group_scores.sort_by(f64::total_cmp);
            let (ks, wasserstein) = if group_scores.is_empty() {
                (f64::NAN, f64::NAN)
            } else {
                (
                    ks_distance_sorted(&group_scores, &overall),
                    wasserstein_1_sorted(&group_scores, &overall),
                )
            };
            DistributionEntry {
                group: space.name(g).to_owned(),
                support: group_scores.len(),
                ks,
                wasserstein,
            }
        })
        .collect();
    let counts = grid_confusions(&workload.items, groups, grid);
    let width = grid[grid.len() - 1] - grid[0];
    let areas = measures
        .iter()
        .map(|&measure| {
            let sw = sweep_counts(&counts, space, groups, measure, grid);
            FairnessArea {
                measure,
                area: trapezoid(grid, &sw.max_disparity(disparity)) / width,
            }
        })
        .collect();
    DistributionAudit { entries, areas }
}

/// The `CalibratedAudit` report section: the threshold-independent
/// audit of a matcher's raw scores, side by side with the audit of the
/// per-group calibrated scores when a calibration policy is active.
#[derive(Debug, Clone)]
pub struct CalibratedAudit {
    /// Matcher audited.
    pub matcher: String,
    /// Calibration policy label (`platt:10`, …), `None` when the audit
    /// covers raw scores only (`--all-thresholds` without `--calibrate`).
    pub calibration: Option<String>,
    /// Groups that earned a dedicated calibrator fit.
    pub groups_fitted: usize,
    /// Groups routed to the global fallback.
    pub fallbacks: usize,
    /// Threshold-independent audit of the raw scores.
    pub baseline: DistributionAudit,
    /// Same audit after per-group calibration (when active).
    pub calibrated: Option<DistributionAudit>,
}

impl CalibratedAudit {
    /// Whether calibration reduced (or held) the KS disparity —
    /// `None` when no calibration ran.
    pub fn ks_improved(&self) -> Option<bool> {
        self.calibrated
            .as_ref()
            .map(|c| c.max_ks() <= self.baseline.max_ks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Table;
    use crate::sensitive::{GroupVector, SensitiveAttr};
    use crate::threshold::default_grid;
    use fairem_csvio::parse_csv_str;
    use fairem_obs::Recorder;
    use fairem_par::Parallelism;

    fn space() -> GroupSpace {
        let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
        GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")])
    }

    /// The first `n` group ids; group `g` is bit `g` of a side's vector.
    fn groups(n: u32) -> Vec<GroupId> {
        (0..n).map(GroupId).collect()
    }

    fn c(score: f64, truth: bool, bits: u64) -> Correspondence {
        Correspondence {
            a_row: 0,
            b_row: 0,
            score,
            truth,
            left: GroupVector(bits),
            right: GroupVector(bits),
        }
    }

    /// The Fig. 4 fixture: group 0's (cn) scores compressed into
    /// [0.25, 0.45], group 1's (us) spread over [0.1, 0.9]; in both, the
    /// top half by rank are true matches.
    fn miscalibrated() -> Workload {
        let mut items = Vec::new();
        for i in 0..40 {
            let frac = i as f64 / 40.0;
            items.push(c(0.25 + 0.20 * frac, frac > 0.5, 0b01));
            items.push(c(0.1 + 0.8 * frac, frac > 0.5, 0b10));
        }
        Workload::new(items, 0.5)
    }

    fn fit(
        spec: CalibrationSpec,
        w: &Workload,
        groups: &[GroupId],
        pool: &WorkerPool,
    ) -> GroupCalibrator {
        GroupCalibrator::try_fit(spec, w, groups, pool, &CancelToken::inert())
            .expect("inert token cannot interrupt")
    }

    fn sequential() -> WorkerPool {
        WorkerPool::with_parallelism(Parallelism::Off)
    }

    fn skewed_scores() -> (Vec<f64>, Vec<f64>) {
        // Scores systematically compressed into [0.3, 0.6] with the true
        // boundary at 0.45 — uncalibrated w.r.t. a 0.5 threshold.
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let s = 0.3 + 0.3 * (i as f64 / 200.0);
            scores.push(s);
            labels.push(if s > 0.45 { 1.0 } else { 0.0 });
        }
        (scores, labels)
    }

    #[test]
    fn platt_recovers_decision_boundary() {
        let (scores, labels) = skewed_scores();
        let p = PlattScaler::fit(&scores, &labels);
        // After calibration, the boundary score maps near 0.5 and the
        // extremes saturate in the right direction.
        assert!(p.transform(0.30) < 0.2, "{}", p.transform(0.30));
        assert!(p.transform(0.60) > 0.8, "{}", p.transform(0.60));
        let mid = p.transform(0.45);
        assert!(mid > 0.2 && mid < 0.8, "{mid}");
    }

    #[test]
    fn platt_is_monotone() {
        let (scores, labels) = skewed_scores();
        let p = PlattScaler::fit(&scores, &labels);
        let out: Vec<f64> = scores.iter().map(|&s| p.transform(s)).collect();
        for w in out.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn isotonic_fits_monotone_steps() {
        let scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let labels = [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let iso = IsotonicCalibrator::fit(&scores, &labels);
        // Monotone output over the whole range.
        let mut prev = -1.0;
        for s in [0.0, 0.15, 0.35, 0.55, 0.75, 0.95] {
            let v = iso.transform(s);
            assert!(v >= prev - 1e-12, "not monotone at {s}");
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
        // PAVA pooled the 1,0 violation at 0.3/0.4 into 0.5.
        assert!((iso.transform(0.35) - 0.5).abs() < 1e-12);
        assert!(iso.n_steps() < scores.len());
    }

    #[test]
    fn isotonic_perfect_separation() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [0.0, 0.0, 1.0, 1.0];
        let iso = IsotonicCalibrator::fit(&scores, &labels);
        assert_eq!(iso.transform(0.15), 0.0);
        assert_eq!(iso.transform(0.85), 1.0);
    }

    #[test]
    fn isotonic_pools_tied_scores_whatever_their_order() {
        // The tie at 0.5 straddles a PAVA block boundary in one order
        // and not in the other; both must give the tie-pooled fit, 2/3
        // everywhere.
        for (scores, labels) in [
            ([0.4, 0.5, 0.5], [1.0, 0.0, 1.0]),
            ([0.4, 0.5, 0.5], [1.0, 1.0, 0.0]),
        ] {
            let iso = IsotonicCalibrator::fit(&scores, &labels);
            for s in [0.4, 0.5] {
                assert!(
                    (iso.transform(s) - 2.0 / 3.0).abs() < 1e-12,
                    "{labels:?} at {s}"
                );
            }
            assert_eq!(iso.n_steps(), 1);
        }
        // -0.0 and 0.0 are one tie run.
        let iso = IsotonicCalibrator::fit(&[-0.0, 0.0, 0.5], &[1.0, 0.0, 1.0]);
        assert_eq!(iso.transform(0.0).to_bits(), iso.transform(-0.0).to_bits());
        assert!((iso.transform(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transforms_pin_nonfinite_and_out_of_range_inputs() {
        let (scores, labels) = skewed_scores();
        let p = PlattScaler::fit(&scores, &labels);
        let iso = IsotonicCalibrator::fit(&scores, &labels);
        // NaN reads as 0.0; ±inf and out-of-range clamp to the bounds —
        // the same contract the matcher boundary enforces on raw scores.
        assert_eq!(p.transform(f64::NAN).to_bits(), p.transform(0.0).to_bits());
        assert_eq!(
            p.transform(f64::INFINITY).to_bits(),
            p.transform(1.0).to_bits()
        );
        assert_eq!(
            p.transform(f64::NEG_INFINITY).to_bits(),
            p.transform(0.0).to_bits()
        );
        assert_eq!(p.transform(7.5).to_bits(), p.transform(1.0).to_bits());
        assert_eq!(p.transform(-7.5).to_bits(), p.transform(0.0).to_bits());
        assert_eq!(
            iso.transform(f64::NAN).to_bits(),
            iso.transform(0.0).to_bits()
        );
        assert_eq!(
            iso.transform(f64::INFINITY).to_bits(),
            iso.transform(1.0).to_bits()
        );
        assert_eq!(
            iso.transform(f64::NEG_INFINITY).to_bits(),
            iso.transform(0.0).to_bits()
        );
        for probe in [p.transform(f64::NAN), iso.transform(f64::INFINITY)] {
            assert!((0.0..=1.0).contains(&probe));
        }
    }

    #[test]
    fn degenerate_fit_all_one_label_stays_in_unit_interval() {
        let scores: Vec<f64> = (0..20).map(|i| i as f64 / 19.0).collect();
        let labels = vec![1.0; 20];
        let p = PlattScaler::fit(&scores, &labels);
        let iso = IsotonicCalibrator::fit(&scores, &labels);
        for s in [f64::NAN, f64::NEG_INFINITY, -1.0, 0.0, 0.5, 1.0, 2.0] {
            let pv = p.transform(s);
            let iv = iso.transform(s);
            assert!(pv.is_finite() && (0.0..=1.0).contains(&pv), "{pv}");
            assert!(iv.is_finite() && (0.0..=1.0).contains(&iv), "{iv}");
        }
        // All-positive data collapses isotonic to a single unit step.
        assert_eq!(iso.n_steps(), 1);
        assert_eq!(iso.transform(0.5), 1.0);
    }

    #[test]
    fn degenerate_fit_all_tied_scores_stays_in_unit_interval() {
        let scores = vec![0.5; 12];
        let labels: Vec<f64> = (0..12)
            .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        let p = PlattScaler::fit(&scores, &labels);
        let iso = IsotonicCalibrator::fit(&scores, &labels);
        // Tied scores carry no ranking signal: isotonic pools everything
        // into one block at the empirical positive rate.
        assert_eq!(iso.n_steps(), 1);
        assert!((iso.transform(0.0) - 4.0 / 12.0).abs() < 1e-12);
        assert!((iso.transform(1.0) - 4.0 / 12.0).abs() < 1e-12);
        for s in [f64::NAN, f64::INFINITY, -0.5, 0.0, 0.5, 1.0, 1.5] {
            let pv = p.transform(s);
            let iv = iso.transform(s);
            assert!(pv.is_finite() && (0.0..=1.0).contains(&pv), "{pv}");
            assert!(iv.is_finite() && (0.0..=1.0).contains(&iv), "{iv}");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn platt_rejects_empty() {
        let _ = PlattScaler::fit(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn isotonic_rejects_misaligned() {
        let _ = IsotonicCalibrator::fit(&[0.1], &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn group_fit_rejects_an_empty_workload() {
        let _ = fit(
            CalibrationSpec::platt(),
            &Workload::new(Vec::new(), 0.5),
            &groups(2),
            &sequential(),
        );
    }

    #[test]
    fn per_group_fit_aligns_score_scales() {
        let cal = fit(
            CalibrationSpec::platt(),
            &miscalibrated(),
            &groups(2),
            &sequential(),
        );
        assert_eq!(cal.groups_fitted(), 2);
        assert_eq!(cal.fallbacks(), 0);
        // Raw scores: group 0's best match (0.45) scores below group 1's
        // clear matches. Calibrated: both groups' matches sit above 0.5
        // and non-matches below.
        assert!(cal.transform(Some(0), 0.44) > 0.5);
        assert!(cal.transform(Some(0), 0.27) < 0.5);
        assert!(cal.transform(Some(1), 0.85) > 0.5);
        assert!(cal.transform(Some(1), 0.15) < 0.5);
    }

    #[test]
    fn per_group_platt_restores_fairness_at_a_fixed_threshold() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        // Before: cn TPR at 0.5 is 0.
        let before = w.group_confusion(groups[0]).tpr();
        assert!(before < 0.1, "{before}");
        let cal = fit(CalibrationSpec::platt(), &w, &groups, &sequential());
        let calibrated = apply_calibrator(&cal, &w, &groups);
        let after = calibrated.group_confusion(groups[0]).tpr();
        assert!(after > 0.8, "calibrated cn TPR {after}");
        // us remains good.
        assert!(calibrated.group_confusion(groups[1]).tpr() > 0.8);
    }

    #[test]
    fn small_groups_fall_back_to_global() {
        let mut w = miscalibrated();
        // A third group with only 3 samples: below any sane floor.
        for (s, y) in [(0.2, false), (0.6, true), (0.8, true)] {
            w.items.push(c(s, y, 0b100));
        }
        let cal = fit(CalibrationSpec::isotonic(), &w, &groups(3), &sequential());
        assert_eq!(cal.groups_fitted(), 2);
        assert_eq!(cal.fallbacks(), 1);
        // The fallback group routes through the global fit: identical to
        // an out-of-group item.
        assert_eq!(
            cal.transform(Some(2), 0.7).to_bits(),
            cal.transform(None, 0.7).to_bits()
        );
    }

    #[test]
    fn one_class_groups_fall_back_even_with_support() {
        let mut items = Vec::new();
        for i in 0..30 {
            let frac = i as f64 / 30.0;
            items.push(c(frac, frac > 0.5, 0b01));
            // Group 1: plenty of samples, but every one is a match.
            items.push(c(0.5 + 0.4 * frac, true, 0b10));
        }
        let w = Workload::new(items, 0.5);
        let cal = fit(CalibrationSpec::platt(), &w, &groups(2), &sequential());
        assert_eq!(cal.groups_fitted(), 1);
        assert_eq!(cal.fallbacks(), 1);
    }

    #[test]
    fn correspondences_route_to_the_first_group_either_side_belongs_to() {
        // Every pair has a cn left side and a us right side, so all of
        // them belong to cn (listed first) and none to us.
        let items = (0..30)
            .map(|i| {
                let frac = i as f64 / 30.0;
                Correspondence {
                    left: GroupVector(0b01),
                    right: GroupVector(0b10),
                    ..c(frac, frac > 0.5, 0)
                }
            })
            .collect();
        let w = Workload::new(items, 0.5);
        let cal = fit(CalibrationSpec::platt(), &w, &groups(2), &sequential());
        assert_eq!(cal.groups_fitted(), 1);
        assert_eq!(cal.fallbacks(), 1);
        let swapped = fit(
            CalibrationSpec::platt(),
            &w,
            &[GroupId(1), GroupId(0)],
            &sequential(),
        );
        assert_eq!(swapped.groups_fitted(), 1);
        assert_eq!(
            cal.transform(Some(0), 0.3).to_bits(),
            swapped.transform(Some(0), 0.3).to_bits()
        );
    }

    #[test]
    fn fit_is_bitwise_identical_across_parallelism_policies() {
        let w = miscalibrated();
        let probes: Vec<(Option<usize>, f64)> = (0..50)
            .map(|i| (Some(i % 2), i as f64 / 50.0))
            .chain([(None, 0.3), (Some(9), 0.6)])
            .collect();
        let mut outputs: Vec<Vec<u64>> = Vec::new();
        for p in [
            Parallelism::Off,
            Parallelism::Fixed(1),
            Parallelism::Fixed(4),
        ] {
            let pool = WorkerPool::with_parallelism(p);
            let cal = fit(CalibrationSpec::isotonic(), &w, &groups(2), &pool);
            outputs.push(
                probes
                    .iter()
                    .map(|&(g, s)| cal.transform(g, s).to_bits())
                    .collect(),
            );
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn cancelled_fit_returns_interrupt() {
        let token = CancelToken::inert();
        token.cancel();
        let out = GroupCalibrator::try_fit(
            CalibrationSpec::platt(),
            &miscalibrated(),
            &groups(2),
            &sequential(),
            &token,
        );
        assert!(out.is_err());
    }

    #[test]
    fn spec_parse_round_trips() {
        assert_eq!(CalibrationSpec::parse("none"), Ok(None));
        assert_eq!(
            CalibrationSpec::parse("platt"),
            Ok(Some(CalibrationSpec::platt()))
        );
        assert_eq!(
            CalibrationSpec::parse("isotonic:25"),
            Ok(Some(CalibrationSpec::isotonic().with_min_support(25)))
        );
        assert!(CalibrationSpec::parse("sigmoid").is_err());
        assert!(CalibrationSpec::parse("platt:0").is_err());
        assert!(CalibrationSpec::parse("isotonic:abc").is_err());
        assert!(CalibrationSpec::parse("none:5").is_err());
        assert_eq!(
            CalibrationSpec::isotonic().with_min_support(25).label(),
            "isotonic:25"
        );
    }

    #[test]
    fn counters_land_in_the_snapshot() {
        let pool = sequential().observe(Recorder::enabled());
        let cal = fit(
            CalibrationSpec::platt(),
            &miscalibrated(),
            &groups(2),
            &pool,
        );
        assert_eq!(cal.groups_fitted(), 2);
        let snap = pool.recorder().snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("calib.groups_fitted"), Some(2));
        assert_eq!(counter("calib.fallbacks"), Some(0));
        assert_eq!(counter("calib.samples"), Some(80));
        assert!(snap.span_total("calib.fit") >= 0.0);
    }

    #[test]
    fn distribution_audit_flags_the_compressed_group() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let audit = distribution_audit(
            &w,
            &sp,
            &groups,
            &[FairnessMeasure::TruePositiveRateParity],
            Disparity::Subtraction,
            &default_grid(),
        );
        assert_eq!(audit.entries.len(), 2);
        // The compressed cn band is far from the pooled distribution.
        assert!(audit.max_ks() > 0.25, "{}", audit.max_ks());
        assert!(audit.max_wasserstein() > 0.05);
        // TPR disparity integrated over all thresholds is substantial.
        assert!(audit.max_area() > 0.1, "{}", audit.max_area());
    }

    #[test]
    fn calibration_shrinks_distribution_distances() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let cal = fit(CalibrationSpec::isotonic(), &w, &groups, &sequential());
        let calibrated = apply_calibrator(&cal, &w, &groups);
        let measures = [FairnessMeasure::TruePositiveRateParity];
        let before = distribution_audit(
            &w,
            &sp,
            &groups,
            &measures,
            Disparity::Subtraction,
            &default_grid(),
        );
        let after = distribution_audit(
            &calibrated,
            &sp,
            &groups,
            &measures,
            Disparity::Subtraction,
            &default_grid(),
        );
        assert!(
            after.max_ks() < before.max_ks(),
            "{} vs {}",
            after.max_ks(),
            before.max_ks()
        );
        assert!(after.max_wasserstein() < before.max_wasserstein());
        assert!(after.max_area() < before.max_area());
    }

    #[test]
    fn distribution_audit_is_threshold_invariant() {
        let w = miscalibrated();
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let measures = [FairnessMeasure::TruePositiveRateParity];
        let at = |t: f64| {
            distribution_audit(
                &w.with_threshold(t),
                &sp,
                &groups,
                &measures,
                Disparity::Subtraction,
                &default_grid(),
            )
        };
        let (a, b) = (at(0.35), (at(0.50)));
        // The distances and areas read the scores, not the operating
        // point: bit-for-bit equal under any workload threshold.
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.ks.to_bits(), eb.ks.to_bits());
            assert_eq!(ea.wasserstein.to_bits(), eb.wasserstein.to_bits());
        }
        assert_eq!(a.areas[0].area.to_bits(), b.areas[0].area.to_bits());
    }

    #[test]
    fn evidence_free_groups_read_nan_not_a_verdict() {
        let w = Workload::new(vec![c(0.9, true, 0b01), c(0.1, false, 0b01)], 0.5);
        let sp = space();
        let groups: Vec<GroupId> = sp.ids().collect();
        let audit = distribution_audit(
            &w,
            &sp,
            &groups,
            &[FairnessMeasure::AccuracyParity],
            Disparity::Subtraction,
            &default_grid(),
        );
        assert!(audit.entries[1].ks.is_nan());
        assert!(audit.entries[1].wasserstein.is_nan());
        assert_eq!(audit.entries[1].support, 0);
        assert!(audit.max_ks().is_finite());
    }
}
