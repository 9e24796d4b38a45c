//! The benchmark's filesystem and process touch points: the run's
//! scratch directory inside the checkout and the kernel's peak-RSS
//! counter.

use std::path::{Path, PathBuf};

/// Peak resident memory of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    // fairem: allow(fs) — reading the kernel's per-process memory counters is the peak_rss_mb measurement
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    // fairem: allow(fs) — sizing the checkpoint files a run committed (ckpt.bytes)
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// A run's scratch directory under `.bench_tmp/` in the working
/// directory. Removed (with everything in it) on drop, so nothing one
/// run writes reaches the next.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create `.bench_tmp/<tag>-<pid>`, emptying any leftover first.
    pub fn create(tag: &str) -> Result<RunDir, String> {
        let path = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        remove_tree(&path);
        // fairem: allow(fs) — the run's scratch directory for checkpoint commits
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        remove_tree(&self.path);
        // The parent goes too once no concurrent run still uses it.
        if let Some(parent) = self.path.parent() {
            // fairem: allow(fs) — removes the shared scratch root only when it is empty
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Remove a directory tree, ignoring a missing path.
pub fn remove_tree(path: &Path) {
    // fairem: allow(fs) — per-op checkpoint directories are deleted so every op starts cold
    let _ = std::fs::remove_dir_all(path);
}
