//! The unified execution context for batch APIs.
//!
//! Every fan-out entry point takes one [`Exec`] instead of its own
//! ad-hoc combination of pool / token / tracker arguments: a context
//! struct a caller builds once and threads everywhere. [`PairBatch`]
//! names the unit of work those entry points consume. The defaults are the
//! hermetic ones: sequential pool, inert cancel token, disabled
//! recorder, unlimited memory — an `Exec::default()` run is bit-for-bit
//! the plain sequential computation.

use fairem_obs::Recorder;
use fairem_par::{CancelToken, MemTracker, WorkerPool};

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
/// to stop early (`cancel`), and where to count work (`recorder`).
///
/// A caller that wants a step or wall-clock allowance arms it on the
/// token: `Exec::sequential().cancel(CancelToken::with_budget(..))`.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Worker pool the batch is chunked over.
    pub pool: WorkerPool,
    /// Cooperative cancellation observed between chunks.
    pub cancel: CancelToken,
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
    /// The hermetic context: one worker, inert token, disabled
    /// recorder, unlimited memory. Batch results under it are
    /// bit-for-bit the sequential scalar computation.
    pub fn sequential() -> Exec {
        Exec::with_pool(WorkerPool::new(1))
    }

    /// A context running on `pool` with no cancellation, metrics or
    /// memory limit armed.
    pub fn with_pool(pool: WorkerPool) -> Exec {
        Exec {
            pool,
            cancel: CancelToken::inert(),
            recorder: Recorder::disabled(),
            mem: MemTracker::unlimited(),
        }
    }

    /// Replace the cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Exec {
        self.cancel = token;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_exec_is_hermetic() {
        let e = Exec::default();
        assert_eq!(e.pool.workers(), 1);
        assert!(!e.recorder.is_enabled());
        assert!(!e.cancel.is_cancelled());
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
