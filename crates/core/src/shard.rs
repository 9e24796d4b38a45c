//! Sharded audit execution: deterministic partitioning of the test
//! candidate-pair space plus the exact group-pair histogram that makes
//! per-shard results mergeable bit-for-bit.
//!
//! # Why a histogram merges exactly
//!
//! Every confusion quantity the auditor consumes
//! ([`crate::workload::Workload::overall_confusion`],
//! `group_confusion`, `pairwise_confusion`, `group_support`) is a sum
//! of weights in `{1.0, 2.0}` over correspondences, keyed only by the
//! two group encodings, the thresholded prediction, and the truth
//! label. [`PairCounts`] buckets correspondences by exactly that key
//! with integer counts, so any confusion matrix is *recomputed* from
//! the histogram as a sum of exact integers — f64 addition on integers
//! below 2⁵³ is exact in any order, which is what makes shard-merged
//! audits bit-for-bit identical to the unsharded path.

use std::collections::BTreeMap;

use fairem_csvio::Json;

use crate::confusion::ConfusionMatrix;
use crate::sensitive::{GroupId, GroupVector};

/// How a run is sharded and checkpointed. The default (`shards == 1`,
/// no checkpoint directory) is the plain in-memory path.
#[derive(Debug, Clone, Default)]
pub struct ShardPolicy {
    /// Number of shards the test split is partitioned into (values
    /// `<= 1` mean unsharded).
    pub shards: usize,
    /// Directory for the `fairem-ckpt/1` manifest and per-shard result
    /// files; `None` disables checkpointing.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Reuse committed shard results from `checkpoint_dir` when their
    /// run key matches this run.
    pub resume: bool,
}

/// One contiguous shard of the test pair space: `[start, end)` indices
/// into the test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard ordinal (0-based).
    pub index: usize,
    /// First test-pair index (inclusive).
    pub start: usize,
    /// One past the last test-pair index.
    pub end: usize,
}

impl Shard {
    /// Number of pairs in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the shard holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The deterministic shard plan: `n` items cut into `shards` contiguous
/// windows whose sizes differ by at most one (the first `n % shards`
/// shards get the extra item). Purely arithmetic — no clock, RNG, or
/// machine state — so every run of the same configuration produces the
/// identical plan.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Partition `n` items into `shards` contiguous windows. `shards`
    /// is clamped to `[1, max(n, 1)]` so no shard is empty unless
    /// `n == 0` (then a single empty shard keeps the loop shape).
    pub fn partition(n: usize, shards: usize) -> ShardPlan {
        let k = shards.clamp(1, n.max(1));
        let base = n / k;
        let extra = n % k;
        let mut out = Vec::with_capacity(k);
        let mut start = 0;
        for index in 0..k {
            let len = base + usize::from(index < extra);
            out.push(Shard {
                index,
                start,
                end: start + len,
            });
            start += len;
        }
        ShardPlan { shards: out }
    }

    /// The planned shards, in execution order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards in the plan.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the plan holds no shards (never happens via
    /// [`ShardPlan::partition`]).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// Deterministic window width for processing `shard_len` pairs under
/// `headroom` budget bytes when each pair's build transiently costs
/// `per_pair` bytes: as many pairs as fit, at least one, at most the
/// shard. `None` headroom (unlimited tracker) takes the whole shard.
pub fn window_len(shard_len: usize, headroom: Option<u64>, per_pair: u64) -> usize {
    match headroom {
        None => shard_len.max(1),
        Some(h) => {
            let fit = h.checked_div(per_pair).unwrap_or(shard_len as u64);
            (fit.min(shard_len as u64) as usize).max(1)
        }
    }
}

/// Histogram key: both group encodings, the thresholded prediction, and
/// the truth label.
type CountKey = (u64, u64, bool, bool);

/// The exact per-shard audit accumulator: integer counts of
/// correspondences bucketed by `(left groups, right groups, predicted,
/// truth)`. Everything the auditor needs — overall/group/pairwise
/// confusion matrices and supports — is recomputed from these buckets
/// with the same weight rules as [`crate::workload::Workload`], and the
/// recomputation is exact (integer-valued f64 sums), so merging shard
/// histograms then auditing equals auditing the concatenated workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairCounts {
    counts: BTreeMap<CountKey, u64>,
}

impl PairCounts {
    /// An empty histogram.
    pub fn new() -> PairCounts {
        PairCounts::default()
    }

    /// Record one correspondence.
    pub fn record(&mut self, left: GroupVector, right: GroupVector, predicted: bool, truth: bool) {
        *self
            .counts
            .entry((left.0, right.0, predicted, truth))
            .or_insert(0) += 1;
    }

    /// Merge another histogram into this one (pure integer addition —
    /// commutative and associative, so merge order is immaterial).
    pub fn merge(&mut self, other: &PairCounts) {
        for (k, v) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += v;
        }
    }

    /// Total correspondences recorded.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Confusion over all correspondences, each counted once — the
    /// histogram form of [`crate::workload::Workload::overall_confusion`].
    pub fn overall_confusion(&self) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        for (&(_, _, pred, truth), &n) in &self.counts {
            if n > 0 {
                cm.record(pred, truth, n as f64);
            }
        }
        cm
    }

    /// Single-paradigm group confusion under the both-sides rule — the
    /// histogram form of [`crate::workload::Workload::group_confusion`].
    pub fn group_confusion(&self, g: GroupId) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        for (&(left, right, pred, truth), &n) in &self.counts {
            let weight = f64::from(GroupVector(left).contains(g))
                + f64::from(GroupVector(right).contains(g));
            if weight > 0.0 && n > 0 {
                cm.record(pred, truth, weight * n as f64);
            }
        }
        cm
    }

    /// Correspondences legitimate for `g` — the histogram form of
    /// [`crate::workload::Workload::group_support`].
    pub fn group_support(&self, g: GroupId) -> usize {
        self.counts
            .iter()
            .filter(|(&(left, right, _, _), _)| {
                GroupVector(left).contains(g) || GroupVector(right).contains(g)
            })
            .map(|(_, &n)| n as usize)
            .sum()
    }

    /// Pairwise-paradigm confusion — the histogram form of
    /// [`crate::workload::Workload::pairwise_confusion`].
    pub fn pairwise_confusion(&self, g1: GroupId, g2: GroupId) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        for (&(left, right, pred, truth), &n) in &self.counts {
            let (l, r) = (GroupVector(left), GroupVector(right));
            let forward = l.contains(g1) && r.contains(g2);
            let backward = l.contains(g2) && r.contains(g1);
            if (forward || backward) && n > 0 {
                cm.record(pred, truth, n as f64);
            }
        }
        cm
    }

    /// Serialize as a JSON array of bucket objects. Group bits are
    /// emitted as decimal *strings*: the JSON number model is `f64`,
    /// which cannot hold every `u64` exactly.
    pub fn to_json(&self) -> Json {
        Json::arr(self.counts.iter().map(|(&(l, r, pred, truth), &n)| {
            Json::obj([
                ("left", Json::Str(l.to_string())),
                ("right", Json::Str(r.to_string())),
                ("pred", Json::Bool(pred)),
                ("truth", Json::Bool(truth)),
                ("n", Json::Str(n.to_string())),
            ])
        }))
    }

    /// Parse the [`PairCounts::to_json`] form. `None` on any malformed
    /// bucket — checkpoint readers treat that as a corrupt shard file
    /// and recompute.
    pub fn from_json(v: &Json) -> Option<PairCounts> {
        let Json::Arr(items) = v else { return None };
        let mut out = PairCounts::new();
        for item in items {
            let left: u64 = item.get("left")?.as_str()?.parse().ok()?;
            let right: u64 = item.get("right")?.as_str()?.parse().ok()?;
            let pred = match item.get("pred")? {
                Json::Bool(b) => *b,
                _ => return None,
            };
            let truth = match item.get("truth")? {
                Json::Bool(b) => *b,
                _ => return None,
            };
            let n: u64 = item.get("n")?.as_str()?.parse().ok()?;
            *out.counts.entry((left, right, pred, truth)).or_insert(0) += n;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Correspondence, Workload};

    fn c(score: f64, truth: bool, left: u64, right: u64) -> Correspondence {
        Correspondence {
            a_row: 0,
            b_row: 0,
            score,
            truth,
            left: GroupVector(left),
            right: GroupVector(right),
        }
    }

    fn workload() -> Workload {
        Workload::new(
            vec![
                c(0.9, true, 0b01, 0b01),
                c(0.8, false, 0b01, 0b10),
                c(0.2, true, 0b10, 0b10),
                c(0.1, false, 0b10, 0b01),
                c(0.7, true, 0b01, 0b10),
            ],
            0.5,
        )
    }

    fn counts_of(w: &Workload) -> PairCounts {
        let mut pc = PairCounts::new();
        for item in &w.items {
            pc.record(item.left, item.right, w.prediction(item), item.truth);
        }
        pc
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let plan = ShardPlan::partition(10, 3);
        let s = plan.shards();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].start, s[0].end), (0, 4));
        assert_eq!((s[1].start, s[1].end), (4, 7));
        assert_eq!((s[2].start, s[2].end), (7, 10));
        assert!(s.iter().all(|sh| sh.len() >= 3));
    }

    #[test]
    fn partition_clamps_degenerate_requests() {
        assert_eq!(ShardPlan::partition(5, 0).len(), 1);
        assert_eq!(ShardPlan::partition(5, 99).len(), 5);
        let empty = ShardPlan::partition(0, 4);
        assert_eq!(empty.len(), 1);
        assert!(empty.shards()[0].is_empty());
    }

    #[test]
    fn window_len_is_clamped_and_deterministic() {
        assert_eq!(window_len(100, None, 8), 100);
        assert_eq!(window_len(100, Some(160), 16), 10);
        assert_eq!(window_len(100, Some(0), 16), 1, "always makes progress");
        assert_eq!(window_len(100, Some(u64::MAX), 16), 100);
        assert_eq!(window_len(0, None, 8), 1);
    }

    #[test]
    fn histogram_reproduces_workload_confusions_bitwise() {
        let w = workload();
        let pc = counts_of(&w);
        assert_eq!(pc.total(), w.len() as u64);
        let (a, b) = (w.overall_confusion(), pc.overall_confusion());
        assert_eq!((a.tp, a.fp, a.fn_, a.tn), (b.tp, b.fp, b.fn_, b.tn));
        for g in [GroupId(0), GroupId(1)] {
            let (wg, pg) = (w.group_confusion(g), pc.group_confusion(g));
            assert_eq!((wg.tp, wg.fp, wg.fn_, wg.tn), (pg.tp, pg.fp, pg.fn_, pg.tn));
            assert_eq!(w.group_support(g), pc.group_support(g));
        }
        let (wp, pp) = (
            w.pairwise_confusion(GroupId(0), GroupId(1)),
            pc.pairwise_confusion(GroupId(0), GroupId(1)),
        );
        assert_eq!((wp.tp, wp.fp, wp.fn_, wp.tn), (pp.tp, pp.fp, pp.fn_, pp.tn));
    }

    #[test]
    fn sharded_merge_equals_whole_histogram() {
        let w = workload();
        let whole = counts_of(&w);
        let plan = ShardPlan::partition(w.len(), 2);
        let mut merged = PairCounts::new();
        for sh in plan.shards() {
            let part = Workload::new(w.items[sh.start..sh.end].to_vec(), w.threshold);
            merged.merge(&counts_of(&part));
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let pc = counts_of(&workload());
        let back = PairCounts::from_json(&pc.to_json()).unwrap();
        assert_eq!(back, pc);
        // Large group bits survive the string encoding exactly.
        let mut big = PairCounts::new();
        big.record(GroupVector(u64::MAX), GroupVector(1 << 60), true, false);
        let round = PairCounts::from_json(&big.to_json()).unwrap();
        assert_eq!(round, big);
    }

    #[test]
    fn malformed_json_is_rejected_not_misread() {
        assert!(PairCounts::from_json(&Json::Null).is_none());
        let bad = Json::arr([Json::obj([("left", Json::Str("x".into()))])]);
        assert!(PairCounts::from_json(&bad).is_none());
    }
}
