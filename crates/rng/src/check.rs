//! A miniature property-testing harness.
//!
//! Stands in for `proptest` in the hermetic build: [`cases`] runs a
//! closure over `n` independently seeded [`Gen`]s and, when a case
//! panics, re-panics with the failing case seed so the exact input can
//! be replayed with [`replay`].
//!
//! There is no shrinking — generators are kept small enough (short
//! strings, small vectors) that raw counterexamples stay readable.

use crate::rngs::StdRng;
use crate::seq::SliceRandom;
use crate::{Rng, SeedableRng};

/// Seeded source of random test inputs for one property case.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// Generator for an explicit case seed (used by [`replay`]).
    pub fn from_seed(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    /// If `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }

    /// Bernoulli draw with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// Raw 64-bit draw (e.g. to derive sub-seeds).
    pub fn u64(&mut self) -> u64 {
        use crate::RngCore;
        self.rng.next_u64()
    }

    /// String of `0..=max_len` chars drawn uniformly from `alphabet`.
    ///
    /// # Panics
    /// If `alphabet` is empty and `max_len > 0`.
    pub fn string(&mut self, alphabet: &str, max_len: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let len = self.rng.gen_range(0..=max_len);
        (0..len).map(|_| *chars.pick(&mut self.rng)).collect()
    }

    /// String of exactly `lo..=hi` chars from `alphabet`.
    pub fn string_len(&mut self, alphabet: &str, lo: usize, hi: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let len = self.rng.gen_range(lo..=hi);
        (0..len).map(|_| *chars.pick(&mut self.rng)).collect()
    }

    /// Vector of `0..=max_len` elements built by `f`.
    pub fn vec<T>(&mut self, max_len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.rng.gen_range(0..=max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// Vector of exactly `lo..=hi` elements built by `f`.
    pub fn vec_len<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.rng.gen_range(lo..=hi);
        (0..len).map(|_| f(self)).collect()
    }

    /// Uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    /// If `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        items.pick(&mut self.rng)
    }
}

/// Derive the seed of case `i` under `base_seed`.
///
/// SplitMix64-style mixing so consecutive case seeds decorrelate.
fn case_seed(base_seed: u64, i: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `property` over `n` independently seeded cases.
///
/// On a failing case the panic is re-raised with the case seed attached;
/// feed that seed to [`replay`] to reproduce the exact input locally.
///
/// # Panics
/// Propagates the first case failure, annotated with its seed.
pub fn cases(n: usize, base_seed: u64, mut property: impl FnMut(&mut Gen)) {
    for i in 0..n as u64 {
        let seed = case_seed(base_seed, i);
        let mut gen = Gen::from_seed(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut gen);
        }));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic".to_owned());
            // fairem: allow(panic) — the harness's contract: re-raise the failing case with its replay seed
            panic!("property failed at case {i} (replay seed {seed}): {msg}");
        }
    }
}

/// Re-run `property` on the single case identified by a replay seed
/// reported by [`cases`].
pub fn replay(seed: u64, mut property: impl FnMut(&mut Gen)) {
    let mut gen = Gen::from_seed(seed);
    property(&mut gen);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_runs_all_and_is_deterministic() {
        let mut seen = Vec::new();
        cases(10, 99, |g| seen.push(g.u64()));
        assert_eq!(seen.len(), 10);
        let mut again = Vec::new();
        cases(10, 99, |g| again.push(g.u64()));
        assert_eq!(seen, again);
        // Distinct cases draw distinct values.
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len());
    }

    #[test]
    fn failure_reports_replay_seed() {
        // Any draw ≥ 10 fails the property — with 20 cases over [0, 100)
        // every plausible stream trips it almost immediately.
        let err = std::panic::catch_unwind(|| {
            cases(20, 1, |g| {
                let v = g.usize_in(0, 100);
                assert!(v < 10, "drew {v}");
            });
        })
        .expect_err("property should fail somewhere in 20 cases");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic message");
        assert!(msg.contains("replay seed"), "{msg}");
        // The reported seed replays to the same failing draw.
        let seed: u64 = msg
            .split("replay seed ")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .and_then(|s| s.parse().ok())
            .expect("seed parses");
        let mut replay_failed = false;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay(seed, |g| {
                let v = g.usize_in(0, 100);
                replay_failed = v >= 10;
            });
        }));
        assert!(replay_failed);
    }

    #[test]
    fn string_respects_alphabet_and_len() {
        cases(50, 7, |g| {
            let s = g.string("abc", 12);
            assert!(s.chars().count() <= 12);
            assert!(s.chars().all(|c| "abc".contains(c)));
        });
    }
}
