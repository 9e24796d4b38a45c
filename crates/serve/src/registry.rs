//! The session registry: import once, audit many times.
//!
//! A [`SessionSpec`] canonically names a workload (generator, seed,
//! matchers, threshold). The registry caches one built
//! [`fairem_core::pipeline::Session`] per spec behind an `Arc`, so
//! concurrent connections opening the same spec share the same feature
//! matrices and trained matchers — the "import once, serve repeated
//! reads" shape the suite demo implies. Builds for the *same* spec are
//! serialized on a per-slot mutex (the second opener waits, then gets
//! the cache hit); builds for *different* specs proceed in parallel.
//!
//! Determinism note: execution parallelism is deliberately **not** part
//! of the cache key. The suite's contract is that results are identical
//! under every worker-pool policy, so two requests differing only in
//! parallelism must share one session — and byte-identical replies.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fairem_core::audit::{AuditReport, Auditor};
use fairem_core::fnv1a64;
use fairem_core::matcher::MatcherKind;
use fairem_core::pipeline::{FairEm360, Session, ShardedRun, SuiteConfig};
use fairem_core::sensitive::{GroupId, SensitiveAttr};
use fairem_core::{CalibrationSpec, GroupCalibrator, SuiteError};
use fairem_obs::Recorder;
use fairem_par::{CancelToken, Interrupt, Parallelism};

/// Matchers trained when `open` names none: one tree, one linear model
/// — the cheapest pair that still gives ensemble/tune requests
/// something to compare.
pub const DEFAULT_MATCHERS: [MatcherKind; 2] = [MatcherKind::DtMatcher, MatcherKind::LinRegMatcher];

/// Canonical description of a server-side workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Generator name (`faculty`, `products`, `citations`,
    /// `noflycompas`).
    pub dataset: String,
    /// Generator seed; 0 keeps the generator default.
    pub seed: u64,
    /// Matchers to train, in request order.
    pub matchers: Vec<MatcherKind>,
    /// Matching threshold.
    pub threshold: f64,
    /// Shard count: 1 builds a materialized [`Session`], >1 runs the
    /// out-of-core sharded path and serves a [`ShardedRun`].
    pub shards: usize,
}

impl SessionSpec {
    /// Resolve the wire-level `open` arguments into a spec, validating
    /// dataset and matcher names up front so errors surface before any
    /// expensive work.
    pub fn resolve(
        dataset: &str,
        seed: u64,
        matchers: &[String],
        threshold: f64,
        shards: usize,
    ) -> Result<SessionSpec, String> {
        if !fairem_datasets::GENERATORS.contains(&dataset) {
            return Err(format!(
                "unknown dataset {dataset:?} (expected faculty|products|citations|noflycompas)"
            ));
        }
        if shards == 0 {
            return Err("shards must be at least 1".to_owned());
        }
        let kinds: Vec<MatcherKind> = if matchers.is_empty() {
            DEFAULT_MATCHERS.to_vec()
        } else {
            matchers
                .iter()
                .map(|m| m.parse::<MatcherKind>().map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?
        };
        Ok(SessionSpec {
            dataset: dataset.to_owned(),
            seed,
            matchers: kinds,
            threshold,
            shards,
        })
    }

    /// Stable cache key: every field that affects session *content*
    /// (and nothing that does not — see the module note on
    /// parallelism). The shard count is included even though sharding
    /// never changes audit results, because the two variants differ in
    /// *capability* (only materialized sessions serve `tune_threshold`
    /// and `ensemble`).
    ///
    /// The threshold prints with four decimals when that reads back as
    /// the same `f64`, and in full otherwise, so two distinct thresholds
    /// never share a key.
    pub fn key(&self) -> String {
        let names: Vec<&str> = self.matchers.iter().map(|m| m.name()).collect();
        let short = format!("{:.4}", self.threshold);
        let threshold = if short.parse::<f64>() == Ok(self.threshold) {
            short
        } else {
            self.threshold.to_string()
        };
        format!(
            "{}#{}#{}#{}#s{}",
            self.dataset,
            self.seed,
            names.join(","),
            threshold,
            self.shards
        )
    }

    /// Token-blocking column for the spec's generator: the citation and
    /// product tables have no `name` column, so they block on `title`
    /// (the CLI's `--blocking title`).
    fn blocking_column(&self) -> &'static str {
        match self.dataset.as_str() {
            "citations" | "products" => "title",
            _ => "name",
        }
    }
}

/// What the registry actually serves for a spec: a fully materialized
/// [`Session`] (feature matrices resident, every request type
/// available) or the merged histograms of an out-of-core
/// [`ShardedRun`] (audits only, but bounded memory and checkpointed
/// builds).
#[derive(Debug)]
pub enum ServedSession {
    /// Materialized session — `shards == 1`.
    Full(Box<Session>),
    /// Sharded out-of-core run — `shards > 1`.
    Sharded(ShardedRun),
}

impl ServedSession {
    /// Names of the surviving matchers, in registry order.
    pub fn matcher_names(&self) -> Vec<&str> {
        match self {
            ServedSession::Full(s) => s.matcher_names(),
            ServedSession::Sharded(r) => r.matcher_names(),
        }
    }

    /// Number of test correspondences scored.
    pub fn test_size(&self) -> usize {
        match self {
            ServedSession::Full(s) => s.test_size(),
            ServedSession::Sharded(r) => r.test_size(),
        }
    }

    /// True when at least one requested matcher failed.
    pub fn is_degraded(&self) -> bool {
        match self {
            ServedSession::Full(s) => s.is_degraded(),
            ServedSession::Sharded(r) => r.is_degraded(),
        }
    }

    /// Audit one matcher by name.
    pub fn audit(&self, matcher: &str, auditor: &Auditor) -> Result<AuditReport, SuiteError> {
        match self {
            ServedSession::Full(s) => s.audit(matcher, auditor),
            ServedSession::Sharded(r) => r.audit(matcher, auditor),
        }
    }

    /// Audit every surviving matcher under `cancel`, returning whatever
    /// completed plus the interrupt if the token tripped. The sharded
    /// variant audits from merged histograms (cheap), checking the
    /// token between matchers.
    pub fn try_audit_all_within(
        &self,
        auditor: &Auditor,
        cancel: &CancelToken,
    ) -> (Vec<AuditReport>, Option<Interrupt>) {
        match self {
            ServedSession::Full(s) => s.try_audit_all_within(auditor, cancel),
            ServedSession::Sharded(r) => {
                let mut reports = Vec::new();
                for name in r.matcher_names() {
                    if let Err(interrupt) = cancel.checkpoint() {
                        return (reports, Some(interrupt));
                    }
                    if let Ok(report) = r.audit(name, auditor) {
                        reports.push(report);
                    }
                }
                (reports, None)
            }
        }
    }

    /// The materialized session, if this is one. Requests that need
    /// trained models or resident feature matrices (`tune_threshold`,
    /// `ensemble`) go through here and error on sharded sessions.
    pub fn as_full(&self) -> Option<&Session> {
        match self {
            ServedSession::Full(s) => Some(s),
            ServedSession::Sharded(_) => None,
        }
    }
}

/// A cached session plus the spec key it was built from.
#[derive(Debug)]
pub struct SessionEntry {
    /// The registry key this entry is cached under.
    pub key: String,
    /// The built session. Both variants are `Send + Sync`; audits take
    /// `&self`, so any number of connection threads read concurrently.
    pub session: ServedSession,
    /// Per-group calibrators fitted on this session, keyed by
    /// `matcher#spec-label`. Fitting is deterministic, so a lost race
    /// just produces the identical calibrator twice; the cache exists
    /// to make repeat `calibrate` requests cheap, not for correctness.
    calibrators: Mutex<BTreeMap<String, Arc<GroupCalibrator>>>,
}

impl SessionEntry {
    /// Fetch (or fit and cache) the per-group calibrator for
    /// `matcher` under `spec`. `session` must be this entry's own
    /// materialized session — the caller has already gone through
    /// [`ServedSession::as_full`].
    pub fn calibrator(
        &self,
        session: &Session,
        matcher: &str,
        spec: CalibrationSpec,
        groups: &[GroupId],
        observe: &Recorder,
    ) -> Result<Arc<GroupCalibrator>, SuiteError> {
        let key = format!("{matcher}#{}", spec.label());
        {
            let cache = match self.calibrators.lock() {
                Ok(c) => c,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(cal) = cache.get(&key) {
                observe.incr("serve.calib.cache_hit");
                return Ok(Arc::clone(cal));
            }
        }
        // Fit outside the lock: a slow fit must not block readers of
        // other calibrators on the same session.
        observe.incr("serve.calib.cache_miss");
        let fitted = Arc::new(session.group_calibrator(matcher, spec, groups)?);
        let mut cache = match self.calibrators.lock() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ok(Arc::clone(cache.entry(key).or_insert(fitted)))
    }
}

/// Why an `open` could not produce a session.
#[derive(Debug)]
pub enum OpenError {
    /// The cache is at capacity and the spec is not already resident.
    Full {
        /// The configured capacity.
        max: usize,
    },
    /// The suite build failed (bad data, config, or a deadline cut).
    Suite(SuiteError),
}

/// One cache slot: the outer registry map only ever holds `Arc<Slot>`,
/// so the registry lock is released before any build starts, and two
/// openers of the same spec serialize on the slot — not on the whole
/// registry.
#[derive(Debug, Default)]
struct Slot {
    cell: Mutex<Option<Arc<SessionEntry>>>,
}

/// Bounded, keyed session cache.
#[derive(Debug)]
pub struct SessionRegistry {
    max: usize,
    checkpoint_dir: Option<PathBuf>,
    slots: Mutex<BTreeMap<String, Arc<Slot>>>,
}

impl SessionRegistry {
    /// A registry holding at most `max` sessions.
    pub fn new(max: usize) -> SessionRegistry {
        SessionRegistry {
            max: max.max(1),
            checkpoint_dir: None,
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// Root directory for sharded-build checkpoints. Each spec
    /// checkpoints under its own subdirectory (keyed by a hash of the
    /// spec key), so a server killed or drained mid-build resumes the
    /// completed shards on restart instead of redoing them.
    pub fn with_checkpoint_dir(mut self, dir: Option<PathBuf>) -> SessionRegistry {
        self.checkpoint_dir = dir;
        self
    }

    /// Number of specs with a slot (built or building).
    pub fn len(&self) -> usize {
        self.slots.lock().map(|s| s.len()).unwrap_or(0)
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the session for `spec`, building it under `cancel` on a
    /// miss. Returns the shared entry and whether it was already
    /// cached. The build inherits the request token, so an `open` that
    /// outlives its deadline is cut at the next suite checkpoint and
    /// surfaces as [`SuiteError::TimedOut`].
    pub fn get_or_build(
        &self,
        spec: &SessionSpec,
        parallelism: Parallelism,
        cancel: &CancelToken,
        observe: &Recorder,
    ) -> Result<(Arc<SessionEntry>, bool), OpenError> {
        let key = spec.key();
        let slot = {
            let mut slots = match self.slots.lock() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            match slots.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    if slots.len() >= self.max {
                        return Err(OpenError::Full { max: self.max });
                    }
                    let slot = Arc::new(Slot::default());
                    slots.insert(key.clone(), Arc::clone(&slot));
                    slot
                }
            }
        };
        let mut cell = match slot.cell.lock() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(entry) = cell.as_ref() {
            return Ok((Arc::clone(entry), true));
        }
        match build_session(
            spec,
            parallelism,
            cancel,
            observe,
            self.checkpoint_dir.as_deref(),
        ) {
            Ok(session) => {
                let entry = Arc::new(SessionEntry {
                    key: key.clone(),
                    session,
                    calibrators: Mutex::new(BTreeMap::new()),
                });
                *cell = Some(Arc::clone(&entry));
                Ok((entry, false))
            }
            Err(e) => {
                drop(cell);
                // A failed build must not squat on capacity: evict the
                // empty slot (unless a concurrent opener already filled
                // it, which get_or_build re-checks next time anyway).
                if let Ok(mut slots) = self.slots.lock() {
                    let still_empty = slots
                        .get(&key)
                        .is_some_and(|s| s.cell.lock().map(|c| c.is_none()).unwrap_or(false));
                    if still_empty {
                        slots.remove(&key);
                    }
                }
                Err(OpenError::Suite(e))
            }
        }
    }
}

fn build_session(
    spec: &SessionSpec,
    parallelism: Parallelism,
    cancel: &CancelToken,
    observe: &Recorder,
    checkpoint_root: Option<&std::path::Path>,
) -> Result<ServedSession, SuiteError> {
    let data =
        fairem_datasets::generate(&spec.dataset, spec.seed).ok_or_else(|| SuiteError::Config {
            detail: format!("unknown dataset {:?}", spec.dataset),
        })?;
    let sensitive: Vec<SensitiveAttr> = data
        .sensitive
        .iter()
        .map(SensitiveAttr::categorical)
        .collect();
    let mut config = SuiteConfig {
        matching_threshold: spec.threshold,
        parallelism,
        cancel: cancel.clone(),
        observe: observe.clone(),
        ..SuiteConfig::fast()
    };
    config.prep.blocking_columns = vec![spec.blocking_column().to_owned()];
    let mut builder = FairEm360::builder()
        .tables(data.table_a, data.table_b)
        .ground_truth(data.matches)
        .sensitive(sensitive)
        .config(config);
    if spec.shards <= 1 {
        return builder
            .build()?
            .try_run(&spec.matchers)
            .map(|s| ServedSession::Full(Box::new(s)));
    }
    builder = builder.shards(spec.shards);
    if let Some(root) = checkpoint_root {
        // Per-spec subdirectory so distinct specs never collide on
        // shard files; the run key inside each directory still guards
        // against stale content.
        let sub = root.join(format!("{:016x}", fnv1a64(spec.key().as_bytes())));
        builder = builder.checkpoint_dir(sub).resume(true);
    }
    builder
        .build()?
        .try_run_sharded(&spec.matchers)
        .map(ServedSession::Sharded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_par::Budget;

    fn spec() -> SessionSpec {
        SessionSpec::resolve("faculty", 7, &[], 0.5, 1).expect("valid spec")
    }

    #[test]
    fn resolve_validates_names_up_front() {
        assert!(SessionSpec::resolve("faculty", 0, &[], 0.5, 1).is_ok());
        assert!(SessionSpec::resolve("mars", 0, &[], 0.5, 1)
            .expect_err("bad dataset")
            .contains("unknown dataset"));
        assert!(
            SessionSpec::resolve("faculty", 0, &["NopeMatcher".into()], 0.5, 1)
                .expect_err("bad matcher")
                .contains("unknown matcher")
        );
        assert!(SessionSpec::resolve("faculty", 0, &[], 0.5, 0)
            .expect_err("zero shards")
            .contains("at least 1"));
    }

    #[test]
    fn keys_are_canonical_and_distinguish_content_fields() {
        let base = spec();
        assert_eq!(base.key(), "faculty#7#DTMatcher,LinRegMatcher#0.5000#s1");
        let mut other = spec();
        other.threshold = 0.4;
        assert_ne!(base.key(), other.key());
        let mut sharded = spec();
        sharded.shards = 4;
        assert_ne!(base.key(), sharded.key());
    }

    #[test]
    fn a_threshold_four_decimals_cannot_show_opens_its_own_session() {
        let reg = SessionRegistry::new(4);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let rec = Recorder::disabled();
        let (_, cached) = reg
            .get_or_build(&spec(), Parallelism::Fixed(1), &token, &rec)
            .expect("open at 0.5 builds");
        assert!(!cached);
        let mut near = spec();
        near.threshold = 0.50004;
        let (entry, cached) = reg
            .get_or_build(&near, Parallelism::Fixed(1), &token, &rec)
            .expect("open at 0.50004 builds");
        assert!(!cached, "0.50004 was served the session built at 0.5");
        assert_eq!(entry.key, "faculty#7#DTMatcher,LinRegMatcher#0.50004#s1");
        let auditor = Auditor::new(fairem_core::audit::AuditConfig::default());
        let report = entry
            .session
            .audit("DTMatcher", &auditor)
            .expect("DTMatcher audits");
        assert_eq!(report.matching_threshold, 0.50004);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn second_open_of_the_same_spec_is_a_cache_hit() {
        let reg = SessionRegistry::new(4);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let rec = Recorder::disabled();
        let (a, cached_a) = reg
            .get_or_build(&spec(), Parallelism::Fixed(1), &token, &rec)
            .expect("first open builds");
        assert!(!cached_a);
        let (b, cached_b) = reg
            .get_or_build(&spec(), Parallelism::Fixed(2), &token, &rec)
            .expect("second open attaches");
        assert!(cached_b);
        // Same Arc: parallelism is not part of the identity.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn capacity_is_enforced_and_failed_builds_do_not_leak_slots() {
        let reg = SessionRegistry::new(1);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let rec = Recorder::disabled();
        // A build cut before it starts fails… and must release its slot.
        let cut = CancelToken::with_budget(Budget::UNLIMITED);
        cut.cancel();
        let err = reg
            .get_or_build(&spec(), Parallelism::Fixed(1), &cut, &rec)
            .expect_err("cancelled build fails");
        assert!(matches!(err, OpenError::Suite(_)), "{err:?}");
        assert!(reg.is_empty(), "failed build leaked a slot");

        // Fill the single slot, then a different spec is shed as full.
        reg.get_or_build(&spec(), Parallelism::Fixed(1), &token, &rec)
            .expect("build fills the slot");
        let mut other = spec();
        other.seed = 8;
        match reg.get_or_build(&other, Parallelism::Fixed(1), &token, &rec) {
            Err(OpenError::Full { max }) => assert_eq!(max, 1),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn every_dataset_opens_materialized_and_sharded() {
        let reg = SessionRegistry::new(8);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let rec = Recorder::disabled();
        for dataset in ["faculty", "products", "citations", "noflycompas"] {
            let spec = SessionSpec::resolve(dataset, 0, &[], 0.5, 1).expect("valid spec");
            let (entry, _) = reg
                .get_or_build(&spec, Parallelism::Fixed(1), &token, &rec)
                .unwrap_or_else(|e| panic!("{dataset} does not open: {e:?}"));
            assert!(entry.session.as_full().is_some(), "{dataset}");
            assert!(entry.session.test_size() > 0, "{dataset}");
        }
        let sharded = SessionSpec::resolve("citations", 0, &[], 0.5, 2).expect("valid spec");
        let (entry, _) = reg
            .get_or_build(&sharded, Parallelism::Fixed(1), &token, &rec)
            .unwrap_or_else(|e| panic!("sharded citations does not open: {e:?}"));
        assert!(matches!(entry.session, ServedSession::Sharded(_)));
        assert!(entry.session.test_size() > 0);
    }

    fn counter(rec: &Recorder, name: &str) -> u64 {
        rec.snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    #[test]
    fn sharded_specs_checkpoint_and_resume_across_registry_lifetimes() {
        let dir = std::env::temp_dir().join(format!(
            "fairem-serve-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let token = CancelToken::with_budget(Budget::UNLIMITED);
        let sharded = SessionSpec::resolve("faculty", 7, &[], 0.5, 3).expect("valid spec");

        // First server lifetime: builds from scratch, committing every
        // shard under the per-spec checkpoint subdirectory.
        let rec1 = Recorder::enabled();
        let reg1 = SessionRegistry::new(4).with_checkpoint_dir(Some(dir.clone()));
        let (entry, cached) = reg1
            .get_or_build(&sharded, Parallelism::Fixed(1), &token, &rec1)
            .expect("sharded build");
        assert!(!cached);
        assert!(matches!(entry.session, ServedSession::Sharded(_)));
        assert!(
            entry.session.as_full().is_none(),
            "sharded has no full view"
        );
        assert_eq!(counter(&rec1, "ckpt.shards_written"), 3);
        assert_eq!(counter(&rec1, "ckpt.shards_skipped"), 0);
        drop(reg1); // the server process dies here…

        // …and a fresh registry over the same root resumes every shard.
        let rec2 = Recorder::enabled();
        let reg2 = SessionRegistry::new(4).with_checkpoint_dir(Some(dir.clone()));
        let (resumed, cached) = reg2
            .get_or_build(&sharded, Parallelism::Fixed(1), &token, &rec2)
            .expect("resumed build");
        assert!(!cached, "a new registry starts with an empty cache");
        assert_eq!(counter(&rec2, "ckpt.shards_skipped"), 3);
        assert_eq!(counter(&rec2, "ckpt.shards_written"), 0);

        // The resumed sharded session audits bit-for-bit like a
        // materialized session of the same workload.
        let auditor = fairem_core::audit::Auditor::new(fairem_core::audit::AuditConfig::default());
        let (full, _) = reg2
            .get_or_build(&spec(), Parallelism::Fixed(1), &token, &rec2)
            .expect("materialized build");
        let from_full = full.session.try_audit_all_within(&auditor, &token).0;
        let from_shards = resumed.session.try_audit_all_within(&auditor, &token).0;
        assert!(!from_full.is_empty());
        assert_eq!(from_full.len(), from_shards.len());
        for (a, b) in from_full.iter().zip(&from_shards) {
            assert_eq!(
                fairem_core::report::audit_json(a).to_string_compact(),
                fairem_core::report::audit_json(b).to_string_compact(),
                "sharded resume must reproduce the materialized audit"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
