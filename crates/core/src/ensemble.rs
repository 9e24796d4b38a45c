//! Ensemble-based resolution (paper §2.3 + Figures 6/7): assign a
//! possibly different matcher to each group, explore the `mᵏ` assignment
//! space, and surface the fairness/performance Pareto frontier for the
//! user to pick a resolution from.

use fairem_obs::{Recorder, SpanStatus};
use fairem_par::{CancelToken, Interrupt, ParOutcome, Parallelism, WorkerPool};

use crate::fairness::{Disparity, FairnessMeasure};
use crate::sensitive::{GroupId, GroupSpace};
use crate::workload::{GroupConfusions, Workload};

/// One ensemble strategy: a matcher per group, with its aggregate
/// fairness and performance.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Matcher index per group (into [`EnsembleExplorer::matchers`]).
    pub assignment: Vec<usize>,
    /// Worst-group performance `A` (paper criterion (a)): the measure's
    /// worst value across groups — minimum for higher-is-better
    /// measures, maximum for lower-is-better ones.
    pub performance: f64,
    /// Unfairness `F`: the maximum per-group disparity against the
    /// support-weighted mean of the per-group values.
    pub unfairness: f64,
}

/// Precomputed per-(matcher, group) values enabling cheap enumeration of
/// the assignment space.
#[derive(Debug, Clone)]
pub struct EnsembleExplorer {
    matchers: Vec<String>,
    groups: Vec<String>,
    /// `values[m][g]` — the measure's value for matcher `m` on group `g`.
    values: Vec<Vec<f64>>,
    /// Legitimate-correspondence counts per group (weights).
    supports: Vec<f64>,
    measure: FairnessMeasure,
    disparity: Disparity,
    parallelism: Parallelism,
    cancel: CancelToken,
    observe: Recorder,
}

impl EnsembleExplorer {
    /// Build the explorer from per-matcher workloads (same correspondence
    /// set, different scores) over the chosen groups.
    ///
    /// Non-finite measure values (a group with no support for some
    /// matcher) are kept as `NaN` rather than rejected: [`Self::evaluate`]
    /// folds over finite values only, and NaN points can never dominate
    /// or enter the Pareto frontier — "insufficient evidence" degrades
    /// gracefully instead of aborting the exploration.
    ///
    /// # Panics
    /// If inputs are empty.
    pub fn build(
        matcher_workloads: &[(String, &Workload)],
        space: &GroupSpace,
        groups: &[GroupId],
        measure: FairnessMeasure,
        disparity: Disparity,
    ) -> EnsembleExplorer {
        assert!(!matcher_workloads.is_empty(), "need at least one matcher");
        assert!(!groups.is_empty(), "need at least one group");
        let counts: Vec<GroupConfusions> = matcher_workloads
            .iter()
            .map(|(_name, w)| w.group_confusions(groups))
            .collect();
        let values = counts
            .iter()
            .map(|c| {
                c.groups
                    .iter()
                    .map(|cm| {
                        let v = measure.value(cm);
                        if v.is_finite() {
                            v
                        } else {
                            f64::NAN
                        }
                    })
                    .collect()
            })
            .collect();
        let supports = counts[0].support.iter().map(|&s| s as f64).collect();
        EnsembleExplorer {
            matchers: matcher_workloads.iter().map(|(n, _)| n.clone()).collect(),
            groups: groups.iter().map(|&g| space.name(g).to_owned()).collect(),
            values,
            supports,
            measure,
            disparity,
            parallelism: Parallelism::Off,
            cancel: CancelToken::inert(),
            observe: Recorder::disabled(),
        }
    }

    /// Set the worker-pool policy for [`Self::pareto_frontier`]'s
    /// assignment enumeration. The frontier is identical for every
    /// policy; only enumeration wall-clock changes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> EnsembleExplorer {
        self.parallelism = parallelism;
        self
    }

    /// Cancellation token observed during assignment enumeration (a
    /// session passes its run token through). With the default inert
    /// token the enumeration always completes.
    pub fn with_cancel(mut self, cancel: CancelToken) -> EnsembleExplorer {
        self.cancel = cancel;
        self
    }

    /// Observability recorder for the enumeration (a session passes its
    /// run recorder through): each frontier exploration records an
    /// `ensemble` span plus the assignment-space size. The default
    /// disabled recorder keeps enumeration bit-for-bit inert.
    pub fn with_observe(mut self, recorder: Recorder) -> EnsembleExplorer {
        self.observe = recorder;
        self
    }

    /// Matcher names, index-aligned with assignments.
    pub fn matchers(&self) -> &[String] {
        &self.matchers
    }

    /// Group names, index-aligned with assignment positions.
    pub fn groups(&self) -> &[String] {
        &self.groups
    }

    /// The measure the space is scored under.
    pub fn measure(&self) -> FairnessMeasure {
        self.measure
    }

    /// The per-group value of one matcher (for reporting).
    pub fn value(&self, matcher: usize, group: usize) -> f64 {
        self.values[matcher][group]
    }

    /// Evaluate one assignment into a [`ParetoPoint`].
    pub fn evaluate(&self, assignment: &[usize]) -> ParetoPoint {
        assert_eq!(
            assignment.len(),
            self.groups.len(),
            "assignment arity mismatch"
        );
        let vals: Vec<f64> = assignment
            .iter()
            .enumerate()
            .map(|(g, &m)| self.values[m][g])
            .collect();
        let higher = self.measure.higher_is_better();
        // Fold only finite values: groups with undefined measures carry
        // no evidence, and must neither poison the fold (NaN) nor decide
        // it. An assignment with no finite value at all is NaN overall,
        // which `total_cmp` sorts last and the frontier never admits.
        let finite = vals.iter().copied().filter(|v| v.is_finite());
        let performance = if vals.iter().all(|v| !v.is_finite()) {
            f64::NAN
        } else if higher {
            finite.fold(f64::INFINITY, f64::min)
        } else {
            finite.fold(f64::NEG_INFINITY, f64::max)
        };
        // Reference: support-weighted mean of the finite per-group values.
        let (wsum, wtotal) =
            vals.iter()
                .zip(&self.supports)
                .fold((0.0_f64, 0.0_f64), |(num, den), (&v, &s)| {
                    if v.is_finite() {
                        (num + v * s, den + s)
                    } else {
                        (num, den)
                    }
                });
        let reference = wsum / wtotal; // NaN when nothing is finite
        let unfairness = vals
            .iter()
            .map(|&v| self.disparity.compute(reference, v, higher))
            .fold(0.0, f64::max);
        ParetoPoint {
            assignment: assignment.to_vec(),
            performance,
            unfairness,
        }
    }

    /// The per-group-optimal assignment (paper's first strategy,
    /// `E(g) = argmax_M A_M(g)` — argmin for lower-is-better measures).
    pub fn best_per_group(&self) -> Vec<usize> {
        let higher = self.measure.higher_is_better();
        (0..self.groups.len())
            .map(|g| {
                (0..self.matchers.len())
                    .max_by(|&a, &b| {
                        let (va, vb) = (self.values[a][g], self.values[b][g]);
                        if higher {
                            va.total_cmp(&vb)
                        } else {
                            vb.total_cmp(&va)
                        }
                    })
                    .unwrap_or(0) // matchers is non-empty (asserted in build)
            })
            .collect()
    }

    /// Exhaustively enumerate all `mᵏ` assignments and return the Pareto
    /// frontier (non-dominated in ⟨unfairness ↓, performance ↑/↓⟩),
    /// sorted by unfairness ascending.
    ///
    /// # Panics
    /// If the assignment space exceeds `10⁷` points; restrict groups or
    /// matchers first.
    pub fn pareto_frontier(&self) -> Vec<ParetoPoint> {
        self.try_pareto_frontier().0
    }

    /// Cancellable [`Self::pareto_frontier`]: when the explorer's token
    /// (see [`Self::with_cancel`]) trips mid-enumeration, returns the
    /// frontier of the contiguous prefix of assignments evaluated so
    /// far, plus the [`Interrupt`] record — a usable partial result
    /// instead of an all-or-nothing abort.
    ///
    /// # Panics
    /// If the assignment space exceeds `10⁷` points; restrict groups or
    /// matchers first.
    pub fn try_pareto_frontier(&self) -> (Vec<ParetoPoint>, Option<Interrupt>) {
        let m = self.matchers.len();
        let k = self.groups.len();
        assert!(
            (m as f64).powi(k as i32) <= 1e7,
            "assignment space too large: {m}^{k}"
        );
        let total = m.pow(k as u32);
        let higher = self.measure.higher_is_better();
        let span = self.observe.span("ensemble");
        span.note(format!("{m}^{k} = {total} assignments"));
        self.observe.gauge("ensemble.assignments", total as f64);
        // Candidate evaluation fans out over the pool: each linear index
        // decodes (mixed-radix, position 0 fastest) to exactly the
        // assignment the old odometer visited at that step, and the pool
        // returns points in index order — so the point sequence, and
        // therefore the frontier, is identical for any worker count.
        let pool = WorkerPool::with_parallelism(self.parallelism).observe(self.observe.clone());
        let outcome = pool.par_map_within(total, &self.cancel, |idx| {
            let mut assignment = vec![0usize; k];
            let mut rest = idx;
            for slot in assignment.iter_mut() {
                *slot = rest % m;
                rest /= m;
            }
            self.evaluate(&assignment)
        });
        match outcome {
            ParOutcome::Complete(points) => (frontier(points, higher), None),
            ParOutcome::Interrupted {
                done, interrupt, ..
            } => {
                span.set_status(SpanStatus::Cut);
                span.note(interrupt.to_string());
                (frontier(done, higher), Some(interrupt))
            }
        }
    }

    /// The assignment minimizing unfairness (ties broken by performance)
    /// — the paper's "optimize for fairness" strategy. Derived from the
    /// frontier, whose first element is minimal-unfairness by ordering.
    /// When every assignment is evidence-free (all-NaN performance, so
    /// the frontier is empty), falls back to the all-zeros assignment so
    /// callers still get a well-formed point.
    pub fn min_unfairness(&self) -> ParetoPoint {
        self.pareto_frontier()
            .into_iter()
            .next()
            .unwrap_or_else(|| self.evaluate(&vec![0; self.groups.len()]))
    }

    /// Render an assignment as `group → matcher` lines.
    pub fn describe(&self, assignment: &[usize]) -> String {
        assignment
            .iter()
            .enumerate()
            .map(|(g, &m)| format!("{} → {}", self.groups[g], self.matchers[m]))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Keep the non-dominated points: minimal unfairness, maximal (oriented)
/// performance.
fn frontier(mut points: Vec<ParetoPoint>, higher_is_better: bool) -> Vec<ParetoPoint> {
    // Orient performance so that bigger is always better.
    let perf = |p: &ParetoPoint| {
        if higher_is_better {
            p.performance
        } else {
            -p.performance
        }
    };
    points.sort_by(|a, b| {
        a.unfairness
            .total_cmp(&b.unfairness)
            .then(perf(b).total_cmp(&perf(a)))
    });
    let mut out: Vec<ParetoPoint> = Vec::new();
    let mut best_perf = f64::NEG_INFINITY;
    for p in points {
        if perf(&p) > best_perf {
            best_perf = perf(&p);
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Table;
    use crate::sensitive::{GroupVector, SensitiveAttr};
    use crate::workload::Correspondence;
    use fairem_csvio::parse_csv_str;

    fn space() -> GroupSpace {
        let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
        GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")])
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

    /// Matcher A: perfect on us, poor on cn. Matcher B: decent on both.
    fn workloads() -> (Workload, Workload) {
        let mut a_items = Vec::new();
        let mut b_items = Vec::new();
        for i in 0..10 {
            // cn true matches: A finds 3/10, B finds 8/10.
            a_items.push(c(if i < 3 { 0.9 } else { 0.1 }, true, 0b01));
            b_items.push(c(if i < 8 { 0.9 } else { 0.1 }, true, 0b01));
            // us true matches: A finds 10/10, B finds 8/10.
            a_items.push(c(0.9, true, 0b10));
            b_items.push(c(if i < 8 { 0.9 } else { 0.1 }, true, 0b10));
            // negatives, both correct.
            a_items.push(c(0.1, false, 0b01));
            b_items.push(c(0.1, false, 0b01));
        }
        (Workload::new(a_items, 0.5), Workload::new(b_items, 0.5))
    }

    fn explorer() -> EnsembleExplorer {
        let (wa, wb) = workloads();
        let space = space();
        let groups: Vec<GroupId> = space.ids().collect();
        // Leak the workloads for 'static-free borrows in the test.
        let wa = Box::leak(Box::new(wa));
        let wb = Box::leak(Box::new(wb));
        EnsembleExplorer::build(
            &[("A".to_owned(), &*wa), ("B".to_owned(), &*wb)],
            &space,
            &groups,
            FairnessMeasure::TruePositiveRateParity,
            Disparity::Subtraction,
        )
    }

    #[test]
    fn values_match_workload_confusions() {
        let e = explorer();
        assert!((e.value(0, 0) - 0.3).abs() < 1e-12); // A on cn
        assert!((e.value(0, 1) - 1.0).abs() < 1e-12); // A on us
        assert!((e.value(1, 0) - 0.8).abs() < 1e-12); // B on cn
        assert!((e.value(1, 1) - 0.8).abs() < 1e-12); // B on us
    }

    #[test]
    fn best_per_group_picks_the_winner() {
        let e = explorer();
        // cn → B (0.8 > 0.3), us → A (1.0 > 0.8).
        assert_eq!(e.best_per_group(), vec![1, 0]);
    }

    #[test]
    fn evaluate_computes_worst_group_and_disparity() {
        let e = explorer();
        let p = e.evaluate(&[0, 0]); // all-A
        assert!((p.performance - 0.3).abs() < 1e-12);
        assert!(p.unfairness > 0.2, "{}", p.unfairness);
        let q = e.evaluate(&[1, 1]); // all-B: equal groups → fair
        assert!((q.performance - 0.8).abs() < 1e-12);
        assert!(q.unfairness < 1e-9);
    }

    #[test]
    fn frontier_is_non_dominated_and_sorted() {
        let e = explorer();
        let f = e.pareto_frontier();
        assert!(!f.is_empty());
        for w in f.windows(2) {
            assert!(w[0].unfairness <= w[1].unfairness);
            assert!(w[0].performance < w[1].performance + 1e-12);
        }
        // The all-B point (perf .8, unfairness 0) must be on the frontier.
        assert!(f
            .iter()
            .any(|p| (p.performance - 0.8).abs() < 1e-9 && p.unfairness < 1e-9));
        // The mixed cn→B, us→A point dominates all-A.
        let all_a = e.evaluate(&[0, 0]);
        for p in &f {
            assert!(p.unfairness <= all_a.unfairness + 1e-12 || p.performance > all_a.performance);
        }
    }

    #[test]
    fn frontier_is_identical_for_any_worker_count() {
        let e = explorer();
        let seq = e
            .clone()
            .with_parallelism(Parallelism::Off)
            .pareto_frontier();
        let par = e.with_parallelism(Parallelism::Fixed(4)).pareto_frontier();
        assert_eq!(seq, par);
    }

    #[test]
    fn min_unfairness_is_frontier_head() {
        let e = explorer();
        let m = e.min_unfairness();
        let f = e.pareto_frontier();
        assert_eq!(m, f[0]);
        assert!(m.unfairness <= f.last().unwrap().unfairness);
    }

    #[test]
    fn describe_renders_assignment() {
        let e = explorer();
        let s = e.describe(&[1, 0]);
        assert_eq!(s, "cn → B, us → A");
    }

    #[test]
    fn lower_is_better_measures_orient_the_frontier() {
        // FPR: matcher A has low FPR on us, high on cn; B moderate on both.
        let mut a_items = Vec::new();
        let mut b_items = Vec::new();
        for i in 0..10 {
            // cn negatives: A false-matches 6/10, B 2/10.
            a_items.push(c(if i < 6 { 0.9 } else { 0.1 }, false, 0b01));
            b_items.push(c(if i < 2 { 0.9 } else { 0.1 }, false, 0b01));
            // us negatives: A false-matches 0/10, B 2/10.
            a_items.push(c(0.1, false, 0b10));
            b_items.push(c(if i < 2 { 0.9 } else { 0.1 }, false, 0b10));
            // some true matches so rates exist.
            a_items.push(c(0.9, true, 0b01));
            b_items.push(c(0.9, true, 0b01));
        }
        let wa = Workload::new(a_items, 0.5);
        let wb = Workload::new(b_items, 0.5);
        let space = space();
        let groups: Vec<GroupId> = space.ids().collect();
        let e = EnsembleExplorer::build(
            &[("A".to_owned(), &wa), ("B".to_owned(), &wb)],
            &space,
            &groups,
            FairnessMeasure::FalsePositiveRateParity,
            Disparity::Subtraction,
        );
        // Performance = worst (max) FPR; all-B is 0.2 everywhere.
        let all_b = e.evaluate(&[1, 1]);
        assert!((all_b.performance - 0.2).abs() < 1e-12);
        assert!(all_b.unfairness < 1e-9);
        let all_a = e.evaluate(&[0, 0]);
        assert!((all_a.performance - 0.6).abs() < 1e-12); // cn FPR dominates
                                                          // Support-weighted reference is 0.4; cn deviates +0.2 adversely.
        assert!(
            (all_a.unfairness - 0.2).abs() < 1e-9,
            "{}",
            all_a.unfairness
        );
        // Frontier: performance axis decreases as unfairness is relaxed
        // only in the *better* direction (smaller max FPR is better).
        let f = e.pareto_frontier();
        for w in f.windows(2) {
            assert!(w[0].unfairness <= w[1].unfairness);
            assert!(
                w[0].performance >= w[1].performance - 1e-12,
                "orientation broken"
            );
        }
        // The mixed cn→B, us→A strategy achieves max FPR 0.2 with some
        // disparity; all-B dominates or ties it on both axes.
        let mixed = e.evaluate(&[1, 0]);
        assert!(mixed.performance >= all_b.performance - 1e-12);
    }

    #[test]
    fn resolution_beats_single_matcher_on_fairness() {
        // The demo's Fig. 7 claim: the ensemble resolves unfairness that
        // any single matcher exhibits... here all-A is unfair, and the
        // frontier offers strictly fairer alternatives.
        let e = explorer();
        let all_a = e.evaluate(&[0, 0]);
        let best = e.min_unfairness();
        assert!(best.unfairness < all_a.unfairness);
    }
}
