//! The user-facing parallelism policy.

use std::sync::OnceLock;

/// Environment variable consulted by [`Parallelism::Auto`] (and the
/// test gate in `scripts/check.sh`): a worker count, or `auto`/`0` for
/// hardware detection.
pub const JOBS_ENV: &str = "FAIREM_JOBS";

/// The hardware threads available to this process, queried once: the
/// query reads cgroup files, and pools are built per request.
pub(crate) fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How much parallelism a suite run may use.
///
/// Whatever the policy, results are **identical** — the pool assembles
/// chunk outputs in index order, every stage is a pure function of its
/// index, and the suite's own seeds are never shared across workers.
/// The policy only decides wall-clock time and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Strictly sequential: no worker threads are spawned at all.
    Off,
    /// Use `FAIREM_JOBS` if set, else one worker per hardware thread.
    /// Resolved once per process.
    #[default]
    Auto,
    /// Exactly `n` workers (clamped to at least 1).
    Fixed(usize),
}

impl Parallelism {
    /// Parse a `--jobs` / `FAIREM_JOBS` value: `auto` or `0` mean
    /// [`Parallelism::Auto`], a positive integer means
    /// [`Parallelism::Fixed`]. Returns `None` for anything else.
    pub fn parse_jobs(raw: &str) -> Option<Parallelism> {
        let raw = raw.trim();
        if raw.eq_ignore_ascii_case("auto") {
            return Some(Parallelism::Auto);
        }
        match raw.parse::<usize>() {
            Ok(0) => Some(Parallelism::Auto),
            Ok(n) => Some(Parallelism::Fixed(n)),
            Err(_) => None,
        }
    }

    /// Interpret a raw `FAIREM_JOBS` value. `auto` and positive worker
    /// counts are honored as-is; everything else — `0`, negatives,
    /// unparseable text — falls back to [`Parallelism::Auto`] and the
    /// second element carries a warning for the caller to surface.
    /// Split out from the `Auto` resolution so the fallback policy is
    /// unit-testable without touching process environment.
    fn interpret_env_jobs(raw: &str) -> (Parallelism, Option<String>) {
        match Parallelism::parse_jobs(raw) {
            Some(p @ Parallelism::Fixed(_)) => (p, None),
            Some(Parallelism::Auto) if raw.trim().eq_ignore_ascii_case("auto") => {
                (Parallelism::Auto, None)
            }
            // `0` (parsed as Auto but ambiguous as a worker count),
            // negative, or unparseable: degrade to Auto, loudly.
            _ => (
                Parallelism::Auto,
                Some(format!(
                    "warning: {JOBS_ENV}={raw:?} is not a positive worker count or \
                     `auto`; falling back to auto (hardware threads)"
                )),
            ),
        }
    }

    /// The policy armed by the environment, if any. Invalid values fall
    /// back to [`Parallelism::Auto`] with a stderr warning rather than
    /// being silently ignored; `Auto` reads the environment once, so
    /// the warning prints at most once.
    fn from_env() -> Option<Parallelism> {
        let raw = std::env::var(JOBS_ENV).ok()?;
        let (policy, warning) = Parallelism::interpret_env_jobs(&raw);
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        Some(policy)
    }

    /// The worker count this policy resolves to on this machine.
    pub fn workers(self) -> usize {
        static AUTO: OnceLock<usize> = OnceLock::new();
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => *AUTO.get_or_init(|| match Parallelism::from_env() {
                Some(Parallelism::Fixed(n)) => n.max(1),
                // `FAIREM_JOBS=auto`/`0` or unset: hardware count.
                _ => hardware_threads(),
            }),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Off => f.write_str("off"),
            Parallelism::Auto => f.write_str("auto"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_covers_the_flag_grammar() {
        assert_eq!(Parallelism::parse_jobs("auto"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse_jobs("AUTO"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse_jobs("0"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse_jobs("1"), Some(Parallelism::Fixed(1)));
        assert_eq!(Parallelism::parse_jobs(" 4 "), Some(Parallelism::Fixed(4)));
        assert_eq!(Parallelism::parse_jobs("-1"), None);
        assert_eq!(Parallelism::parse_jobs("many"), None);
        assert_eq!(Parallelism::parse_jobs(""), None);
    }

    #[test]
    fn invalid_env_jobs_fall_back_to_auto_with_a_warning() {
        // Honored verbatim, no warning.
        assert_eq!(
            Parallelism::interpret_env_jobs("4"),
            (Parallelism::Fixed(4), None)
        );
        assert_eq!(
            Parallelism::interpret_env_jobs(" auto "),
            (Parallelism::Auto, None)
        );
        // 0, negative, and garbage all degrade to Auto and warn.
        for bad in ["0", "-2", "banana", "", "1.5"] {
            let (policy, warning) = Parallelism::interpret_env_jobs(bad);
            assert_eq!(policy, Parallelism::Auto, "{bad:?}");
            let w = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(w.contains(JOBS_ENV), "{w}");
            assert!(w.contains("falling back to auto"), "{w}");
        }
    }

    #[test]
    fn workers_resolution_is_at_least_one() {
        assert_eq!(Parallelism::Off.workers(), 1);
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert_eq!(Parallelism::Fixed(7).workers(), 7);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for p in [Parallelism::Auto, Parallelism::Fixed(3)] {
            assert_eq!(Parallelism::parse_jobs(&p.to_string()), Some(p));
        }
        assert_eq!(Parallelism::Off.to_string(), "off");
    }
}
