//! The benchmark's one time source: monotonic nanoseconds since the
//! first reading. `main` reads it first thing, so `now_ns()` is the
//! time since process start to within the runtime's own start-up.

use std::sync::OnceLock;
// fairem: allow(clock) — timing is the benchmark's subject; this module is its only clock
use std::time::Instant;

// fairem: allow(clock) — the epoch every benchmark timestamp is relative to
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // fairem: allow(clock) — the single clock read all spans and op timings go through
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Milliseconds from `start_ns` to now.
pub fn ms_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 / 1e6
}

/// Time `f`, returning its result and the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now_ns();
    let out = f();
    (out, ms_since(start))
}
