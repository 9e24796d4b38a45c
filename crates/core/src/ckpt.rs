//! Crash-safe shard checkpoints: the `fairem-ckpt/1` on-disk format.
//!
//! A checkpoint directory holds one `manifest.json` describing the run
//! (schema, run key, shard count) plus one `shard-<idx>.json` per
//! committed shard carrying the per-matcher [`PairCounts`] histograms
//! and the shard's clamp tally. Every write goes to a `.tmp` sibling
//! first and is published with `fs::rename` — the atomic-commit idiom —
//! so a `kill -9` at any instant leaves either the previous committed
//! file or none, never a torn one. Readers treat *anything* unexpected
//! (missing file, parse error, schema/run-key/index mismatch, malformed
//! histogram) as "not committed" and recompute the shard; resume is
//! therefore always safe, merely slower when files are damaged.
//!
//! The run key is an FNV-1a 64 hash over a canonical description of the
//! inputs and the knobs that change shard content (see
//! [`crate::pipeline`]); it deliberately excludes the memory budget —
//! shard results are window-size independent, so a resume may use a
//! different `--mem-budget` than the run it resumes.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use fairem_csvio::Json;

use crate::error::SuiteError;
use crate::shard::PairCounts;

/// The checkpoint schema tag.
pub const CKPT_SCHEMA: &str = "fairem-ckpt/1";

/// FNV-1a 64-bit over a byte string — the suite's hand-rolled, stable,
/// dependency-free fingerprint (also used for run keys).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One committed shard's results: per-matcher histograms (in matcher
/// order) plus the number of scores the sanitize clamp repaired inside
/// the shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardRecord {
    /// `(matcher name, histogram)` in fleet order.
    pub matchers: Vec<(String, PairCounts)>,
    /// Scores clamped to `[0,1]` within the shard.
    pub clamped: u64,
}

/// A checkpoint directory bound to one run key.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    run_key: u64,
    shards: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory for a run.
    ///
    /// When `resume` is false, or the existing manifest does not match
    /// this run's key/shard count/schema, a fresh manifest is committed
    /// and any stale shard files are ignored by the run-key check on
    /// load. When `resume` is true and the manifest matches, committed
    /// shard files become reusable.
    pub fn open(
        dir: &Path,
        run_key: u64,
        shards: usize,
        resume: bool,
    ) -> Result<CheckpointStore, SuiteError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let store = CheckpointStore {
            dir: dir.to_path_buf(),
            run_key,
            shards,
        };
        let manifest_ok = resume && store.manifest_matches();
        if !manifest_ok {
            store.write_manifest()?;
        }
        Ok(store)
    }

    /// The run key this store is bound to.
    pub fn run_key(&self) -> u64 {
        self.run_key
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index}.json"))
    }

    fn manifest_matches(&self) -> bool {
        let Ok(text) = fs::read_to_string(self.manifest_path()) else {
            return false;
        };
        let Ok(v) = Json::parse(&text) else {
            return false;
        };
        v.get("schema").and_then(Json::as_str) == Some(CKPT_SCHEMA)
            && v.get("run_key").and_then(Json::as_str) == Some(self.run_key.to_string().as_str())
            && v.get("shards").and_then(Json::as_num) == Some(self.shards as f64)
    }

    fn write_manifest(&self) -> Result<(), SuiteError> {
        let v = Json::obj([
            ("schema", Json::Str(CKPT_SCHEMA.into())),
            ("run_key", Json::Str(self.run_key.to_string())),
            ("shards", Json::Num(self.shards as f64)),
        ]);
        self.commit(&self.manifest_path(), &v.to_string_pretty())
    }

    /// Load a committed shard. `None` means "recompute": the file is
    /// missing, torn, from a different run, or malformed — never an
    /// error, because recomputation is always a valid answer.
    pub fn load_shard(&self, index: usize) -> Option<ShardRecord> {
        let text = fs::read_to_string(self.shard_path(index)).ok()?;
        let v = Json::parse(&text).ok()?;
        if v.get("schema").and_then(Json::as_str) != Some(CKPT_SCHEMA)
            || v.get("run_key").and_then(Json::as_str) != Some(self.run_key.to_string().as_str())
            || v.get("shard").and_then(Json::as_num) != Some(index as f64)
        {
            return None;
        }
        let clamped: u64 = v.get("clamped")?.as_str()?.parse().ok()?;
        let Json::Arr(items) = v.get("matchers")? else {
            return None;
        };
        let mut matchers = Vec::with_capacity(items.len());
        for item in items {
            let name = item.get("name")?.as_str()?.to_owned();
            let counts = PairCounts::from_json(item.get("counts")?)?;
            matchers.push((name, counts));
        }
        Some(ShardRecord { matchers, clamped })
    }

    /// Commit a shard's results: serialize, write `shard-<idx>.json.tmp`,
    /// `sync_all` it, then atomically `rename` it into place.
    pub fn store_shard(&self, index: usize, record: &ShardRecord) -> Result<(), SuiteError> {
        let v = Json::obj([
            ("schema", Json::Str(CKPT_SCHEMA.into())),
            ("run_key", Json::Str(self.run_key.to_string())),
            ("shard", Json::Num(index as f64)),
            ("clamped", Json::Str(record.clamped.to_string())),
            (
                "matchers",
                Json::arr(record.matchers.iter().map(|(name, counts)| {
                    Json::obj([
                        ("name", Json::Str(name.clone())),
                        ("counts", counts.to_json()),
                    ])
                })),
            ),
        ]);
        self.commit(&self.shard_path(index), &v.to_string_compact())
    }

    fn commit(&self, path: &Path, text: &str) -> Result<(), SuiteError> {
        let tmp = path.with_extension("json.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, path)
        };
        write().map_err(|e| io_err(path, &e))
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> SuiteError {
    SuiteError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitive::GroupVector;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fairem-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn record() -> ShardRecord {
        let mut pc = PairCounts::new();
        pc.record(GroupVector(1), GroupVector(2), true, false);
        pc.record(GroupVector(2), GroupVector(2), false, false);
        ShardRecord {
            matchers: vec![("DTMatcher".into(), pc)],
            clamped: 3,
        }
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"fairem"), fnv1a64(b"fairem"));
        assert_ne!(fnv1a64(b"fairem"), fnv1a64(b"fairen"));
    }

    #[test]
    fn store_then_load_round_trips() {
        let d = tmpdir("roundtrip");
        let s = CheckpointStore::open(&d, 42, 3, false).unwrap();
        assert!(s.load_shard(0).is_none(), "nothing committed yet");
        let r = record();
        s.store_shard(0, &r).unwrap();
        assert_eq!(s.load_shard(0).unwrap(), r);
        assert!(s.load_shard(1).is_none());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn resume_honors_run_key_and_shard_count() {
        let d = tmpdir("runkey");
        let s = CheckpointStore::open(&d, 7, 2, false).unwrap();
        s.store_shard(1, &record()).unwrap();
        // Same key, resume: the shard is reusable.
        let again = CheckpointStore::open(&d, 7, 2, true).unwrap();
        assert!(again.load_shard(1).is_some());
        // Different key: the stale file is rejected on load.
        let other = CheckpointStore::open(&d, 8, 2, true).unwrap();
        assert!(other.load_shard(1).is_none());
        // Different shard count with the old key: manifest mismatch is
        // rewritten; stale shard indices stay loadable only if the key
        // still matches (it does here — content is window-independent).
        let wider = CheckpointStore::open(&d, 7, 4, true).unwrap();
        assert!(wider.load_shard(1).is_some());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_or_corrupt_shard_files_read_as_uncommitted() {
        let d = tmpdir("corrupt");
        let s = CheckpointStore::open(&d, 9, 2, false).unwrap();
        s.store_shard(0, &record()).unwrap();
        // Truncate mid-file: simulates a torn write that bypassed the
        // rename protocol.
        let p = d.join("shard-0.json");
        let text = fs::read_to_string(&p).unwrap();
        fs::write(&p, &text[..text.len() / 2]).unwrap();
        assert!(s.load_shard(0).is_none(), "torn file must not parse");
        // Garbage JSON of the right shape but wrong schema.
        fs::write(&p, "{\"schema\":\"other/9\"}").unwrap();
        assert!(s.load_shard(0).is_none());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn fresh_open_without_resume_invalidates_nothing_but_rewrites_manifest() {
        let d = tmpdir("fresh");
        let s = CheckpointStore::open(&d, 5, 2, false).unwrap();
        s.store_shard(0, &record()).unwrap();
        // Re-open without resume: loads still check the key, and the
        // old committed file has the right key, so the caller decides
        // whether to reuse (the pipeline only calls load when resuming).
        let s2 = CheckpointStore::open(&d, 5, 2, false).unwrap();
        assert!(s2.load_shard(0).is_some());
        let _ = fs::remove_dir_all(&d);
    }
}
