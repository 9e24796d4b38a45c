//! The unified execution context for batch APIs.
//!
//! Every fan-out entry point takes one [`Exec`] instead of its own
//! ad-hoc combination of pool / token / budget arguments: a context
//! struct a caller builds once and threads everywhere. [`PairBatch`]
//! names the unit of work those entry points consume. The defaults are the
//! hermetic ones: sequential pool, inert cancel token, unlimited
//! budget, disabled recorder — an `Exec::default()` run is bit-for-bit
//! the plain sequential computation.

use fairem_obs::Recorder;
use fairem_par::{Budget, CancelToken, MemTracker, WorkerPool};

/// A batch of candidate record pairs to evaluate.
///
/// Row indices refer to the tables the consuming [`FeatureGenerator`]
/// was built from — the generator owns the prepared (interned) columns
/// of exactly those tables, so the batch only needs to carry the pair
/// list itself.
///
/// [`FeatureGenerator`]: crate::features::FeatureGenerator
#[derive(Debug, Clone, Copy)]
pub struct PairBatch<'a> {
    /// `(row_in_a, row_in_b)` index pairs.
    pub pairs: &'a [(usize, usize)],
}

impl<'a> PairBatch<'a> {
    /// Wrap a pair list.
    pub fn new(pairs: &'a [(usize, usize)]) -> PairBatch<'a> {
        PairBatch { pairs }
    }

    /// Number of pairs in the batch.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the batch holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Execution context for batch entry points: where to run (`pool`), how
/// to stop early (`cancel` + `budget`), and where to count work
/// (`recorder`).
///
/// `cancel` and `budget` compose the same way the suite pipeline does:
/// when the budget is unlimited the call runs directly under `cancel`
/// (same token, same step accounting); otherwise each call runs under a
/// fresh child of `cancel` carrying `budget`, so one call's allowance
/// never leaks into the next.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Worker pool the batch is chunked over.
    pub pool: WorkerPool,
    /// Cooperative cancellation observed between chunks.
    pub cancel: CancelToken,
    /// Per-call allowance layered on top of `cancel` (unlimited by
    /// default: the call then polls `cancel` itself).
    pub budget: Budget,
    /// Metrics sink; the disabled recorder never touches the clock.
    pub recorder: Recorder,
    /// Deterministic allocation account for the columnar build path.
    /// The default tracker is unlimited: it records current/peak bytes
    /// but never rejects a build.
    pub mem: MemTracker,
}

impl Default for Exec {
    fn default() -> Exec {
        Exec::sequential()
    }
}

impl Exec {
    /// The hermetic context: one worker, inert token, unlimited budget,
    /// disabled recorder. Batch results under it are bit-for-bit the
    /// sequential scalar computation.
    pub fn sequential() -> Exec {
        Exec::with_pool(WorkerPool::new(1))
    }

    /// A context running on `pool` with no cancellation, budget, or
    /// metrics armed.
    pub fn with_pool(pool: WorkerPool) -> Exec {
        Exec {
            pool,
            cancel: CancelToken::inert(),
            budget: Budget::UNLIMITED,
            recorder: Recorder::disabled(),
            mem: MemTracker::unlimited(),
        }
    }

    /// Replace the cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Exec {
        self.cancel = token;
        self
    }

    /// Arm a per-call budget.
    pub fn budget(mut self, budget: Budget) -> Exec {
        self.budget = budget;
        self
    }

    /// Attach a metrics recorder.
    pub fn observe(mut self, recorder: Recorder) -> Exec {
        self.recorder = recorder;
        self
    }

    /// Attach a memory tracker (allocation accounting / budget).
    pub fn mem(mut self, tracker: MemTracker) -> Exec {
        self.mem = tracker;
        self
    }

    /// The token one batch call runs under: `cancel` itself when the
    /// budget is unlimited (identical step accounting to passing the
    /// token straight through), else a fresh budgeted child.
    pub fn run_token(&self) -> CancelToken {
        if self.budget.is_unlimited() {
            self.cancel.clone()
        } else {
            self.cancel.child(self.budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_exec_is_hermetic() {
        let e = Exec::default();
        assert_eq!(e.pool.workers(), 1);
        assert!(e.budget.is_unlimited());
        assert!(!e.recorder.is_enabled());
        assert!(!e.cancel.is_cancelled());
    }

    #[test]
    fn unbudgeted_run_token_shares_step_accounting() {
        let e = Exec::sequential();
        let t = e.run_token();
        t.checkpoint().expect("inert token");
        // Same underlying token: steps recorded on the run token are
        // visible on the context's token.
        assert_eq!(e.cancel.steps_done(), 1);
    }

    #[test]
    fn budgeted_run_token_is_a_fresh_child() {
        let e = Exec::sequential().budget(Budget::steps(1));
        let t = e.run_token();
        assert!(t.checkpoint().is_ok());
        assert!(t.checkpoint().is_err(), "child budget trips");
        assert!(!e.cancel.is_cancelled(), "parent unaffected");
        let t2 = e.run_token();
        assert!(t2.checkpoint().is_ok(), "each call gets a fresh allowance");
    }

    #[test]
    fn cancelling_the_context_trips_budgeted_children() {
        let e = Exec::sequential().budget(Budget::steps(1_000));
        e.cancel.cancel();
        assert!(e.run_token().checkpoint().is_err());
    }

    #[test]
    fn pair_batch_reports_size() {
        let pairs = [(0, 1), (2, 3)];
        let b = PairBatch::new(&pairs);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!(PairBatch::new(&[]).is_empty());
    }
}
