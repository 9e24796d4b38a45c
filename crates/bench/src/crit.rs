//! Criterion-compatible micro-benchmark harness.
//!
//! The workspace builds hermetically (no crates-io access), so the
//! external `criterion` crate is unavailable. This module re-implements
//! the small slice of its API the benches use — `Criterion`,
//! `benchmark_group`, `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros — on top of `std::time::Instant`, so the
//! bench sources migrate with a one-line import swap.
//!
//! Timing model: each benchmark calibrates with a single untimed call,
//! then runs as many iterations as fit the group's measurement time
//! (capped at 1M) and reports the mean wall-clock per iteration. Set
//! `FAIREM_BENCH_FAST=1` to cap measurement time at 50 ms per benchmark
//! for smoke runs.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark identifier; mirrors `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/param` identifier.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(format!("{name}/{param}"))
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(param: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(param.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId(s.to_owned())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId(s)
    }
}

/// Top-level benchmark driver; mirrors `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            measurement_time: Duration::from_secs(2),
        }
    }
}

/// A named group of benchmarks sharing measurement settings.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    measurement_time: Duration,
}

impl BenchmarkGroup {
    /// Accepted for API compatibility; iteration count is derived from
    /// the measurement time here, not from a sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Total wall-clock budget for each benchmark in the group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Run one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut routine: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            budget: self.budget(),
            iters: 0,
            elapsed: Duration::ZERO,
        };
        routine(&mut b);
        b.report(&self.name, &id.0);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let budget = self.budget();
        let mut b = Bencher {
            budget,
            iters: 0,
            elapsed: Duration::ZERO,
        };
        routine(&mut b, input);
        b.report(&self.name, &id.0);
        self
    }

    /// Close the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}

    fn budget(&self) -> Duration {
        if std::env::var_os("FAIREM_BENCH_FAST").is_some() {
            self.measurement_time.min(Duration::from_millis(50))
        } else {
            self.measurement_time
        }
    }
}

/// Per-benchmark timing loop; mirrors `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    budget: Duration,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, choosing an iteration count that fits the
    /// measurement budget.
    pub fn iter<T>(&mut self, mut routine: impl FnMut() -> T) {
        // Untimed calibration call sizes the loop.
        let probe = Instant::now();
        black_box(routine());
        let once = probe.elapsed().max(Duration::from_nanos(1));
        let n = (self.budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..n {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iters = n;
    }

    fn report(&self, group: &str, id: &str) {
        if self.iters == 0 {
            println!("{group}/{id}: no measurement");
            return;
        }
        let per = self.elapsed.as_nanos() as f64 / self.iters as f64;
        let (value, unit) = if per >= 1e9 {
            (per / 1e9, "s")
        } else if per >= 1e6 {
            (per / 1e6, "ms")
        } else if per >= 1e3 {
            (per / 1e3, "µs")
        } else {
            (per, "ns")
        };
        println!(
            "{group}/{id}: {value:.3} {unit}/iter ({} iters)",
            self.iters
        );
    }
}

/// Collect benchmark functions under one entry name; mirrors
/// `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::crit::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the given groups; mirrors `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.measurement_time(Duration::from_millis(5));
        let mut ran = 0u64;
        g.bench_function("add", |b| {
            b.iter(|| {
                ran += 1;
                black_box(1u64 + 1)
            })
        });
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("exhaustive", "x^2").0, "exhaustive/x^2");
        assert_eq!(BenchmarkId::from_parameter(42).0, "42");
        assert_eq!(BenchmarkId::from("abc").0, "abc");
    }
}
