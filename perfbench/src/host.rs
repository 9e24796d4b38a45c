//! The host-speed index, and the scale every end-to-end time is
//! reported at.
//!
//! The development host switches between speed modes a quarter or more
//! apart that last from seconds to minutes, and every stage of an op
//! slows together with the host. So a raw wall time says as much about
//! the host's mode as about the program. The benchmark therefore times
//! a reference kernel of its own (no suite code) at short intervals
//! between the ops it measures, and reports each op's wall time at the
//! reference host speed: an op that took `t` ms where the nearby kernel
//! runs took `r` ms reads `t × REF_HOST_MS / r`. A program change moves
//! the op and not the kernel, so it still shows; a change of host mode
//! moves both, so it cancels.

use crate::clock::{now_ns, timed};

/// The reference kernel's time, in milliseconds, on the reference
/// host. End-to-end times read as on a host where the kernel takes
/// this long.
pub const REF_HOST_MS: f64 = 10.0;

/// Probes an op is scaled by: the ones nearest to it in time.
const NEAREST: usize = 9;

/// The benchmark-owned reference kernel behind the index: string
/// building, whitespace tokenising and sorting, no suite code. Its
/// wall time tracks how fast this host runs plain CPU- and
/// allocator-bound code right now. Returns a checksum so the work
/// cannot be optimised away.
pub fn reference_kernel() -> u64 {
    let mut text = String::with_capacity(1 << 20);
    for i in 0u64..40_000 {
        let a = i.wrapping_mul(2_654_435_761) % 10_007;
        let b = i % 97;
        text.push('w');
        text.push_str(&a.to_string());
        text.push_str(" tok");
        text.push_str(&b.to_string());
        text.push(' ');
    }
    let mut tokens: Vec<&str> = text.split_whitespace().collect();
    tokens.sort_unstable();
    tokens.dedup();
    tokens.iter().fold(tokens.len() as u64, |h, t| {
        h.rotate_left(5) ^ t.len() as u64
    })
}

/// A run's reference-kernel probes: when each ran and how long it took.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HostIndex {
    /// Kernels each probe runs at once: the workers of the op it scales,
    /// since an op on two workers also waits for the second processor.
    threads: usize,
    /// `(midpoint ns, milliseconds)` per probe, in time order.
    probes: Vec<(u64, f64)>,
}

impl HostIndex {
    /// An index whose probes run `threads` kernels at once.
    pub fn new(threads: usize) -> HostIndex {
        HostIndex {
            threads: threads.max(1),
            probes: Vec::new(),
        }
    }

    /// An index from hand-made probes, for tests.
    pub fn from_probes(probes: Vec<(u64, f64)>) -> HostIndex {
        HostIndex { threads: 1, probes }
    }

    /// Time the reference kernel on each of the index's threads at
    /// once; the probe reads their mean time.
    pub fn probe(&mut self) {
        let start = now_ns();
        let time_one = || {
            let (sum, ms) = timed(reference_kernel);
            std::hint::black_box(sum);
            ms
        };
        let ms = if self.threads == 1 {
            time_one()
        } else {
            // fairem: allow(thread) — one kernel per worker, joined before the probe returns
            let times: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads).map(|_| scope.spawn(time_one)).collect();
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            });
            fairem_stats::desc::mean(&times)
        };
        self.probes.push((start + (ms * 5e5) as u64, ms));
    }

    /// Milliseconds of every probe.
    pub fn probe_ms(&self) -> Vec<f64> {
        self.probes.iter().map(|&(_, ms)| ms).collect()
    }

    /// The kernel's time around `at_ns`: the median of the probes
    /// nearest to it in time (`None` before any probe).
    pub fn local_ms(&self, at_ns: u64) -> Option<f64> {
        let mut near: Vec<(u64, f64)> = self
            .probes
            .iter()
            .map(|&(t, ms)| (t.abs_diff(at_ns), ms))
            .collect();
        near.sort_by_key(|&(d, _)| d);
        let ms: Vec<f64> = near.iter().take(NEAREST).map(|&(_, ms)| ms).collect();
        (!ms.is_empty()).then(|| fairem_stats::desc::median(&ms))
    }

    /// `ms` of wall time that started at `start_ns`, read at the
    /// reference host speed (the kernel's local time taken at the
    /// span's midpoint). Unscaled where there is no probe.
    pub fn at_ref(&self, start_ns: u64, ms: f64) -> f64 {
        match self.local_ms(start_ns + (ms * 5e5) as u64) {
            Some(local) if local > 0.0 => ms * REF_HOST_MS / local,
            _ => ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_is_scaled_by_the_probes_nearest_to_it() {
        // A slow mode (kernel 12.5 ms) for the first ten seconds, then a
        // fast one (8 ms): one probe a second.
        let probes = (0..20u64)
            .map(|s| (s * 1_000_000_000, if s < 10 { 12.5 } else { 8.0 }))
            .collect();
        let idx = HostIndex::from_probes(probes);
        // A 100 ms op at 2 s in the slow mode and one at 18 s in the
        // fast mode read the same at the reference speed.
        assert_eq!(idx.at_ref(2_000_000_000, 125.0), 100.0);
        assert_eq!(idx.at_ref(18_000_000_000, 80.0), 100.0);
        assert_eq!(HostIndex::default().at_ref(1, 80.0), 80.0);
    }
}
