//! The fixed-size worker pool.
//!
//! Scheduling model: a parallel region partitions the index range
//! `0..n` into fixed chunks, spawns `workers` scoped threads, and the
//! threads pull chunk indices from one atomic cursor (work stealing at
//! chunk granularity). Each thread tags its chunk outputs with the
//! chunk index, and the caller stitches outputs back in chunk order —
//! so the assembled result is **bit-for-bit identical** to a sequential
//! run no matter how many workers raced or how chunks interleaved.
//! `par_map` and `par_map_within` run on the range form
//! ([`WorkerPool::try_par_chunks_within`]): a chunk's closure receives
//! the chunk's index range and its output `Vec` and fills one item per
//! index, so per-chunk setup happens once per range, not per item.
//!
//! Worker threads are scoped to the parallel region (fork-join): the
//! pool object carries the policy, not live threads, so there is no
//! cross-call state, no job-queue lifetime unsafety, and a poisoned
//! region can never leak threads into the next one.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use fairem_obs::Recorder;

use crate::cancel::{CancelToken, Interrupt};
use crate::contain::contain;
use crate::parallelism::{hardware_threads, Parallelism};

/// A contained panic, attributed to the chunk of work it escaped from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPanic {
    /// The index range of the chunk that panicked.
    pub range: Range<usize>,
    /// The captured panic payload text.
    pub detail: String,
}

impl std::fmt::Display for ChunkPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chunk {}..{} panicked: {}",
            self.range.start, self.range.end, self.detail
        )
    }
}

impl std::error::Error for ChunkPanic {}

/// The outcome of a cancellable parallel region.
///
/// Generic over the *collected* output `C`, not the per-item type: pool
/// primitives produce `ParOutcome<Vec<T>>`, while higher-level batch
/// APIs that stitch items into a richer container return that
/// container (the feature matrix returns `ParOutcome<Matrix>`, with
/// its accounting in rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParOutcome<C> {
    /// Every item ran; the output is bit-for-bit the sequential result.
    Complete(C),
    /// The token tripped mid-region. Workers stop pulling new chunks
    /// (in-flight chunks finish), so the region ends promptly and no
    /// output is torn mid-chunk.
    Interrupted {
        /// The longest contiguous prefix of results, in index order —
        /// identical to what a sequential run would have produced for
        /// those indices. Safe to consume as a partial result.
        done: C,
        /// Total items that finished anywhere (≥ the prefix length,
        /// since out-of-order chunks past the first gap are accounted
        /// but not returned).
        completed: usize,
        /// Items the full region would have processed.
        total: usize,
        /// Why and when the region was cut.
        interrupt: Interrupt,
    },
}

impl<C> ParOutcome<C> {
    /// The completed results, discarding partial-progress metadata.
    pub fn into_done(self) -> C {
        match self {
            ParOutcome::Complete(v) => v,
            ParOutcome::Interrupted { done, .. } => done,
        }
    }

    /// The interrupt record, if the region was cut.
    pub fn interrupt(&self) -> Option<&Interrupt> {
        match self {
            ParOutcome::Complete(_) => None,
            ParOutcome::Interrupted { interrupt, .. } => Some(interrupt),
        }
    }
}

/// Chunk outputs harvested from a (possibly interrupted) region:
/// `(chunk index, output)` pairs sorted by chunk index, plus the chunk
/// count the full region would have had.
struct Harvest<T> {
    tagged: Vec<(usize, T)>,
    n_chunks: usize,
}

impl<T> Harvest<T> {
    fn is_complete(&self) -> bool {
        self.tagged.len() == self.n_chunks
    }
}

/// A fixed-size worker pool over index ranges.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: usize,
    recorder: Recorder,
}

impl WorkerPool {
    /// A pool with `workers` workers, carrying the inert (disabled)
    /// recorder. The count is clamped to at least 1 and at most four
    /// per hardware thread, so no worker count can make one region
    /// spawn a thread per item.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            workers: workers.clamp(1, WorkerPool::max_workers()),
            recorder: Recorder::disabled(),
        }
    }

    /// The most workers a pool runs: four per hardware thread. A region
    /// plans about four chunks per worker, so this many workers already
    /// give every hardware thread sixteen chunks to pull. At least 4 on
    /// any host, so `Fixed(4)` always races four threads.
    fn max_workers() -> usize {
        4 * hardware_threads()
    }

    /// A pool sized by a [`Parallelism`] policy.
    pub fn with_parallelism(p: Parallelism) -> WorkerPool {
        WorkerPool::new(p.workers())
    }

    /// Attach an observability recorder: parallel regions count their
    /// chunks and time them into `par.*` metrics, and stage code that
    /// holds only the pool can reach the recorder via
    /// [`WorkerPool::recorder`]. The default (disabled) recorder keeps
    /// every region bit-for-bit on the pre-observability path — no
    /// clock reads, no locks.
    pub fn observe(mut self, recorder: Recorder) -> WorkerPool {
        self.recorder = recorder;
        self
    }

    /// The recorder this pool carries (disabled unless
    /// [`WorkerPool::observe`] attached one).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The chunk size used for `n` items: roughly four chunks per
    /// worker, so stragglers rebalance without drowning the scheduler
    /// in tiny chunks. Saturating, so any worker count is safe.
    pub fn chunk_for(&self, n: usize) -> usize {
        n.div_ceil(self.workers.saturating_mul(4)).max(1)
    }

    /// Run `per_chunk` over chunks of `0..n`, observing `token` (when
    /// given) before each chunk is pulled: a tripped token stops the
    /// pull, in-flight chunks finish, and the harvest may be partial.
    /// `per_chunk` must not unwind (callers wrap it in [`contain`]); if
    /// it does anyway, the panic is re-raised on the calling thread
    /// after all workers finish.
    fn harvest<T: Send>(
        &self,
        n: usize,
        token: Option<&CancelToken>,
        per_chunk: impl Fn(Range<usize>) -> T + Sync,
    ) -> Harvest<T> {
        if n == 0 {
            return Harvest {
                tagged: Vec::new(),
                n_chunks: 0,
            };
        }
        let chunk = self.chunk_for(n);
        let n_chunks = n.div_ceil(chunk);
        let range_of = |c: usize| c * chunk..((c + 1) * chunk).min(n);
        let tripped = || token.is_some_and(CancelToken::is_cancelled);
        // Observability: a disabled recorder takes the untimed branch —
        // no clock read, no lock — so metrics-off regions run the exact
        // pre-instrumentation code path.
        let observed = self.recorder.is_enabled();
        if observed {
            self.recorder.incr("par.regions");
            self.recorder.add("par.items", n as u64);
        }
        let per_chunk = &per_chunk;
        let run = move |r: Range<usize>| {
            if observed {
                let start = std::time::Instant::now();
                let out = per_chunk(r);
                self.recorder
                    .observe("par.chunk_secs", start.elapsed().as_secs_f64());
                self.recorder.incr("par.chunks");
                out
            } else {
                per_chunk(r)
            }
        };
        if self.workers == 1 || n_chunks == 1 {
            // Sequential fast path: no threads at all (Parallelism::Off).
            let mut tagged = Vec::with_capacity(n_chunks);
            for c in 0..n_chunks {
                if tripped() {
                    break;
                }
                tagged.push((c, run(range_of(c))));
            }
            return Harvest { tagged, n_chunks };
        }
        let cursor = AtomicUsize::new(0);
        let threads = self.workers.min(n_chunks);
        let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out: Vec<(usize, T)> = Vec::new();
                        loop {
                            if tripped() {
                                return out;
                            }
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                return out;
                            }
                            out.push((c, run(range_of(c))));
                        }
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(n_chunks);
            for h in handles {
                match h.join() {
                    Ok(part) => all.extend(part),
                    // Only reachable if `per_chunk` unwound despite the
                    // contract; surface it on the calling thread.
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
            all
        });
        tagged.sort_unstable_by_key(|(c, _)| *c);
        Harvest { tagged, n_chunks }
    }

    /// Stitch a harvest of per-chunk item vectors into a [`ParOutcome`]:
    /// complete when every chunk ran, otherwise the contiguous prefix
    /// plus progress accounting.
    fn assemble<T>(h: Harvest<Vec<T>>, n: usize, token: &CancelToken) -> ParOutcome<Vec<T>> {
        if h.is_complete() {
            let mut out = Vec::with_capacity(n);
            for (_, v) in h.tagged {
                out.extend(v);
            }
            return ParOutcome::Complete(out);
        }
        let completed = h.tagged.iter().map(|(_, v)| v.len()).sum();
        let mut done = Vec::new();
        for (next, (c, v)) in h.tagged.into_iter().enumerate() {
            if c != next {
                break;
            }
            done.extend(v);
        }
        ParOutcome::Interrupted {
            done,
            completed,
            total: n,
            interrupt: token.interrupt(),
        }
    }

    /// Chunked parallel map over `0..n` with deterministic ordering:
    /// `par_map(n, f)[i] == f(i)` for every `i`, regardless of worker
    /// count. Panics are captured per chunk and the first (in chunk
    /// order) is re-raised after every worker has finished, so no work
    /// is silently lost mid-region.
    ///
    /// # Panics
    /// If `f` panics for any index.
    pub fn par_map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        self.par_map_within(n, &CancelToken::inert(), f).into_done()
    }

    /// Parallel map with **per-item** panic isolation: every index gets
    /// its own contained outcome, so one poisoned item degrades only
    /// itself — the shape the per-matcher train/score fan-out needs.
    pub fn par_map_isolated<T: Send>(
        &self,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<Result<T, String>> {
        // Without a token the harvest is always complete.
        self.harvest(n, None, |range| {
            range.map(|i| contain(|| f(i))).collect::<Vec<_>>()
        })
        .tagged
        .into_iter()
        .flat_map(|(_, items)| items)
        .collect()
    }

    /// Cancellable [`WorkerPool::par_map`]: workers stop pulling chunks
    /// once `token` trips, and the outcome carries the contiguous
    /// prefix of results plus progress accounting. With an untripped
    /// token the output is bit-for-bit the `par_map` output.
    ///
    /// # Panics
    /// If `f` panics for any completed index.
    pub fn par_map_within<T: Send>(
        &self,
        n: usize,
        token: &CancelToken,
        f: impl Fn(usize) -> T + Sync,
    ) -> ParOutcome<Vec<T>> {
        match self.try_par_chunks_within(n, token, |range, out| out.extend(range.map(&f))) {
            Ok(out) => out,
            // fairem: allow(panic) — documented # Panics contract: re-raises a worker panic
            Err(p) => panic!("{}", p.detail),
        }
    }

    /// Cancellable chunked map in **range form**: `f` gets each chunk's
    /// index range and that chunk's output `Vec` (empty, with room for
    /// the range), and pushes one item per index, in index order.
    ///
    /// This is the shape batch kernels need. A chunk sees its whole
    /// range at once, so it can build working buffers once (DP rows,
    /// match masks, a memo) and split the range into runs that share
    /// one setup, without ever leaking state between chunks.
    /// Determinism contract: `f`'s output for a range must depend only
    /// on that range, never on which worker ran it or what ran before,
    /// so the stitched output is bit-for-bit identical for every
    /// worker count and chunk size.
    ///
    /// A panic in `f` is contained and returned as the [`ChunkPanic`] of
    /// the first failing chunk in chunk order. It takes precedence over
    /// an interruption: if any chunk that ran panicked, that chunk is
    /// the error even when the token also tripped. A chunk whose `f`
    /// pushes more or fewer items than its range holds fails the same
    /// way.
    pub fn try_par_chunks_within<T: Send>(
        &self,
        n: usize,
        token: &CancelToken,
        f: impl Fn(Range<usize>, &mut Vec<T>) + Sync,
    ) -> Result<ParOutcome<Vec<T>>, ChunkPanic> {
        let f = &f;
        let h = self.harvest(n, Some(token), move |range| {
            let r = range.clone();
            contain(move || {
                let mut out = Vec::with_capacity(r.len());
                f(r.clone(), &mut out);
                assert!(
                    out.len() == r.len(),
                    "chunk {}..{} yielded {} items",
                    r.start,
                    r.end,
                    out.len()
                );
                out
            })
            .map_err(|detail| ChunkPanic { range, detail })
        });
        let n_chunks = h.n_chunks;
        let mut tagged = Vec::with_capacity(h.tagged.len());
        for (c, r) in h.tagged {
            tagged.push((c, r?));
        }
        Ok(WorkerPool::assemble(Harvest { tagged, n_chunks }, n, token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_every_worker_count() {
        let n = 1003;
        let expected: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for workers in [1, 2, 3, 4, 9] {
            let pool = WorkerPool::new(workers);
            let got = pool.par_map(n, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn pool_respects_parallelism_policy() {
        assert_eq!(WorkerPool::with_parallelism(Parallelism::Off).workers(), 1);
        assert_eq!(
            WorkerPool::with_parallelism(Parallelism::Fixed(4)).workers(),
            4
        );
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = WorkerPool::new(4);
        assert!(pool.par_map(0, |i| i).is_empty());
        assert_eq!(
            pool.try_par_chunks_within(0, &CancelToken::inert(), |r, out| out.extend(r)),
            Ok(ParOutcome::Complete(Vec::new()))
        );
        assert!(pool.par_map_isolated(0, |i| i).is_empty());
    }

    #[test]
    fn worker_counts_are_bounded_by_the_hardware() {
        // Checked on the pool's configuration alone: nothing here
        // spawns a thread.
        let bound = WorkerPool::max_workers();
        assert!(bound >= 4, "Fixed(4) must always get four workers");
        assert_eq!(WorkerPool::new(usize::MAX).workers(), bound);
        assert_eq!(WorkerPool::new(bound + 1).workers(), bound);
        assert_eq!(WorkerPool::new(4).workers(), 4);
        assert_eq!(
            WorkerPool::with_parallelism(Parallelism::Fixed(usize::MAX)).workers(),
            bound
        );
    }

    #[test]
    fn any_worker_count_chunks_without_overflow() {
        // Unclamped, four chunks per worker would overflow `usize` for
        // these counts (`usize::MAX / 4 + 1` times four wraps to zero).
        for workers in [usize::MAX, usize::MAX / 4 + 1] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.chunk_for(10), 1);
            assert_eq!(
                pool.par_map(10, |i| i * 3),
                (0..10).map(|i| i * 3).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn par_map_isolated_degrades_only_the_poisoned_item() {
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let out = pool.par_map_isolated(10, |i| {
                assert!(i != 3, "injected: item 3 dies");
                i * 2
            });
            assert_eq!(out.len(), 10);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let e = r.as_ref().expect_err("item 3 must fail");
                    assert!(e.contains("item 3 dies"));
                } else {
                    assert_eq!(r.as_ref().copied(), Ok(i * 2), "workers={workers}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "item 5 detonated")]
    fn par_map_repanics_after_joining() {
        let pool = WorkerPool::new(2);
        let _ = pool.par_map(20, |i| assert!(i != 5, "item 5 detonated"));
    }

    #[test]
    fn untripped_token_outcome_is_bitwise_the_par_map_output() {
        use crate::cancel::CancelToken;
        let n = 777;
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let plain = pool.par_map(n, |i| (i as u64).wrapping_mul(0x9E37));
            let token = CancelToken::inert();
            match pool.par_map_within(n, &token, |i| (i as u64).wrapping_mul(0x9E37)) {
                ParOutcome::Complete(v) => assert_eq!(v, plain, "workers={workers}"),
                other => panic!("untripped token must complete: {other:?}"),
            }
        }
    }

    #[test]
    fn pretripped_token_yields_empty_partial_with_accounting() {
        use crate::cancel::{CancelCause, CancelToken};
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let token = CancelToken::inert();
            token.cancel();
            match pool.par_map_within(500, &token, |i| i) {
                ParOutcome::Interrupted {
                    done,
                    completed,
                    total,
                    interrupt,
                } => {
                    assert!(done.is_empty(), "workers={workers}");
                    assert_eq!(completed, 0);
                    assert_eq!(total, 500);
                    assert_eq!(interrupt.cause, CancelCause::Cancelled);
                }
                ParOutcome::Complete(_) => panic!("pre-tripped token must interrupt"),
            }
        }
    }

    #[test]
    fn mid_region_cancel_returns_a_contiguous_prefix() {
        use crate::cancel::CancelToken;
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let token = CancelToken::inert();
            let cut = 100;
            let outcome = pool.par_map_within(100_000, &token, |i| {
                if i == cut {
                    token.cancel();
                }
                i
            });
            match outcome {
                ParOutcome::Interrupted {
                    done,
                    completed,
                    total,
                    ..
                } => {
                    // The prefix is exactly the sequential result for
                    // those indices, and accounting is consistent.
                    assert_eq!(done, (0..done.len()).collect::<Vec<_>>());
                    assert!(completed >= done.len(), "workers={workers}");
                    assert_eq!(total, 100_000);
                    assert!(completed < total, "cancel must cut the region short");
                }
                ParOutcome::Complete(_) => {
                    panic!("cancel at item {cut} must interrupt (workers={workers})")
                }
            }
        }
    }

    #[test]
    fn panic_wins_over_interruption_in_try_par_chunks_within() {
        use crate::cancel::CancelToken;
        let pool = WorkerPool::new(1);
        let token = CancelToken::inert();
        let err = pool
            .try_par_chunks_within(1000, &token, |range, out| {
                for i in range {
                    if i == 10 {
                        token.cancel();
                    }
                    assert!(i != 5, "item 5 is cursed");
                    out.push(i);
                }
            })
            .expect_err("chunk panic must surface");
        assert!(err.range.contains(&5), "{:?}", err.range);
        assert!(err.detail.contains("cursed"));
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn observed_pool_counts_regions_and_chunks_without_changing_output() {
        let n = 403;
        let expected: Vec<usize> = (0..n).map(|i| i * 3).collect();
        for workers in [1, 4] {
            let rec = Recorder::enabled();
            let pool = WorkerPool::new(workers).observe(rec.clone());
            assert!(pool.recorder().is_enabled());
            let got = pool.par_map(n, |i| i * 3);
            assert_eq!(got, expected, "workers={workers}");
            let snap = rec.snapshot();
            let counter = |name: &str| {
                snap.counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| *v)
            };
            assert_eq!(counter("par.regions"), Some(1), "workers={workers}");
            assert_eq!(counter("par.items"), Some(n as u64));
            let chunks = counter("par.chunks").unwrap_or(0);
            assert!(chunks >= 1, "workers={workers}");
            let hist = snap
                .histograms
                .iter()
                .find(|(k, _)| k == "par.chunk_secs")
                .map(|(_, h)| h.count);
            assert_eq!(hist, Some(chunks), "workers={workers}");
        }
    }

    #[test]
    fn disabled_recorder_snapshot_stays_empty_after_regions() {
        let pool = WorkerPool::new(4);
        let _ = pool.par_map(100, |i| i);
        let snap = pool.recorder().snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn a_chunk_that_yields_the_wrong_count_is_a_chunk_panic() {
        use crate::cancel::CancelToken;
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let chunk = pool.chunk_for(100);
            let err = pool
                .try_par_chunks_within(100, &CancelToken::inert(), |range, out| {
                    // The chunk holding item 40 drops its first item.
                    let short = range.contains(&40);
                    out.extend(range.skip(usize::from(short)));
                })
                .expect_err("a short chunk must fail");
            let start = 40 / chunk * chunk;
            assert_eq!(
                err.range,
                start..(start + chunk).min(100),
                "workers={workers}"
            );
            assert!(err.detail.contains("yielded"), "{}", err.detail);
        }
    }

    #[test]
    fn chunking_covers_the_range_without_overlap() {
        // Indirectly verified by identity map: output == input order.
        for n in [1, 2, 7, 64, 65, 1000] {
            let pool = WorkerPool::new(4);
            let got = pool.par_map(n, |i| i);
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }
}
