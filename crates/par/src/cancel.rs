//! Cooperative cancellation: tokens, budgets, and interrupt records.
//!
//! The suite never kills threads. Instead, every long-running region —
//! pool chunks, trainer epochs, per-example neural steps — polls a
//! [`CancelToken`] at natural checkpoints and unwinds *cooperatively*
//! when the token trips. A token trips for one of three reasons:
//!
//! - someone called [`CancelToken::cancel`] (Ctrl-C, programmatic stop),
//! - its wall-clock deadline passed ([`Budget::wall`]),
//! - its step allowance ran out ([`Budget::steps`]).
//!
//! Tokens form a tree: a per-matcher token created with
//! [`CancelToken::child`] trips when its own budget expires **or** when
//! any ancestor trips, so cancelling the suite token cuts every matcher
//! at its next checkpoint. Checks are cheap — one or two relaxed atomic
//! loads plus a monotonic clock read when a deadline is armed — so
//! polling once per epoch/chunk/example costs nothing measurable.
//!
//! When a region is cut it reports an [`Interrupt`]: the cause, the
//! elapsed wall time, and how many checkpoints (steps) completed before
//! the cut. That record is what degraded-mode reports surface so the
//! user can see *who* was cut and *how far* it got.
//!
//! [`MemBudget`]/[`MemTracker`] are the *memory* siblings of the
//! wall/step budget: a deterministic byte account over caller-declared
//! allocation estimates (never RSS), used by the sharded audit path to
//! bound resident feature matrices and to size shard windows.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A time/step allowance for a region of work.
///
/// The default budget is unlimited; [`Budget::wall`] and
/// [`Budget::steps`] arm the two limits independently, and a struct
/// literal arms both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum wall-clock time, measured from token creation.
    pub wall: Option<Duration>,
    /// Maximum number of [`CancelToken::checkpoint`] calls.
    pub max_steps: Option<u64>,
}

impl Budget {
    /// The unlimited budget: never trips on its own.
    pub const UNLIMITED: Budget = Budget {
        wall: None,
        max_steps: None,
    };

    /// A wall-clock budget.
    pub fn wall(limit: Duration) -> Budget {
        Budget {
            wall: Some(limit),
            max_steps: None,
        }
    }

    /// A wall-clock budget in milliseconds.
    pub fn wall_ms(millis: u64) -> Budget {
        Budget::wall(Duration::from_millis(millis))
    }

    /// A step budget: at most `max` checkpoints may complete.
    pub fn steps(max: u64) -> Budget {
        Budget {
            wall: None,
            max_steps: Some(max),
        }
    }

    /// True when neither limit is armed.
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none() && self.max_steps.is_none()
    }
}

/// Why a token tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called on this token or an ancestor.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The step allowance ran out.
    StepLimit,
}

/// The record of a cooperative cut: why, when, and how far the work got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupt {
    /// Why the token tripped.
    pub cause: CancelCause,
    /// Wall time from token creation to the observed cut.
    pub elapsed: Duration,
    /// Checkpoints completed on this token before the cut.
    pub steps: u64,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let secs = self.elapsed.as_secs_f64();
        match self.cause {
            CancelCause::Cancelled => {
                write!(f, "cancelled after {secs:.3}s ({} steps done)", self.steps)
            }
            CancelCause::Deadline => {
                write!(f, "timed out after {secs:.3}s ({} steps done)", self.steps)
            }
            CancelCause::StepLimit => write!(
                f,
                "step budget exhausted after {} steps ({secs:.3}s)",
                self.steps
            ),
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Explicit cancellation (Ctrl-C, programmatic).
    flag: AtomicBool,
    /// When this token was created — the budget's epoch.
    started: Instant,
    /// Absolute wall-clock deadline, if armed. A budget reaching past
    /// the clock's range arms none: it could never expire.
    deadline: Option<Instant>,
    /// Step allowance, if armed.
    max_steps: Option<u64>,
    /// Checkpoints completed on this token.
    steps: AtomicU64,
    /// Ancestor chain: a child trips when any ancestor trips.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn new(budget: Budget, parent: Option<Arc<Inner>>) -> Inner {
        let started = Instant::now();
        Inner {
            flag: AtomicBool::new(false),
            started,
            deadline: budget.wall.and_then(|w| started.checked_add(w)),
            max_steps: budget.max_steps,
            steps: AtomicU64::new(0),
            parent,
        }
    }

    /// Own cause only — ancestors are consulted by [`Inner::cause`].
    fn own_cause(&self) -> Option<CancelCause> {
        if self.flag.load(Ordering::Relaxed) {
            return Some(CancelCause::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(CancelCause::Deadline);
            }
        }
        if let Some(max) = self.max_steps {
            if self.steps.load(Ordering::Relaxed) >= max {
                return Some(CancelCause::StepLimit);
            }
        }
        None
    }

    fn cause(&self) -> Option<CancelCause> {
        let mut node = Some(self);
        while let Some(n) = node {
            if let Some(c) = n.own_cause() {
                return Some(c);
            }
            node = n.parent.as_deref();
        }
        None
    }
}

/// A shareable, cheap-to-poll cancellation token.
///
/// Cloning shares state: all clones observe the same flag, deadline,
/// and step counter. See the module docs for the full semantics.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::inert()
    }
}

impl CancelToken {
    /// A token with no budget and no parent: it trips only if
    /// [`CancelToken::cancel`] is called. The right token to pass when
    /// cancellation is not in play — checkpoints on it never fail.
    pub fn inert() -> CancelToken {
        CancelToken::with_budget(Budget::UNLIMITED)
    }

    /// A root token with the given budget, started now.
    pub fn with_budget(budget: Budget) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner::new(budget, None)),
        }
    }

    /// A child token with its own budget (started now) that also trips
    /// whenever `self` or any of `self`'s ancestors trips. Child steps
    /// and deadlines are independent of the parent's.
    pub fn child(&self, budget: Budget) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner::new(budget, Some(Arc::clone(&self.inner)))),
        }
    }

    /// Trip this token (and, transitively, every child). Idempotent and
    /// async-signal-safe: a single relaxed atomic store.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// True when [`CancelToken::cancel`] was called on this token
    /// itself (not on an ancestor, not via a budget). The CLI uses this
    /// to distinguish a user interrupt from a deadline.
    pub fn cancel_requested(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
    }

    /// Why this token has tripped, if it has. Checks the explicit flag,
    /// then the deadline, then the step allowance, then ancestors.
    pub fn cause(&self) -> Option<CancelCause> {
        self.inner.cause()
    }

    /// Cheap poll: has this token (or an ancestor) tripped?
    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }

    /// Record one unit of progress and poll. Returns `Err` with the
    /// [`Interrupt`] record when the token has tripped; the step that
    /// tripped a step limit is *not* counted as done.
    pub fn checkpoint(&self) -> Result<(), Interrupt> {
        match self.cause() {
            None => {
                self.inner.steps.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Some(cause) => Err(self.interrupt_with(cause)),
        }
    }

    /// Checkpoints completed on this token so far.
    pub fn steps_done(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Wall time since this token was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// The [`Interrupt`] record for a token known (or assumed) to have
    /// tripped. If the token has not actually tripped, the cause is
    /// reported as [`CancelCause::Cancelled`].
    pub fn interrupt(&self) -> Interrupt {
        self.interrupt_with(self.cause().unwrap_or(CancelCause::Cancelled))
    }

    fn interrupt_with(&self, cause: CancelCause) -> Interrupt {
        Interrupt {
            cause,
            elapsed: self.elapsed(),
            steps: self.steps_done(),
        }
    }
}

/// A byte allowance for resident working-set data — the memory sibling
/// of the wall/step [`Budget`].
///
/// Accounting is *deterministic by construction*: the tracked figure is
/// the sum of caller-declared byte estimates (matrix dimensions × cell
/// width), never the process RSS, so a run that degrades to narrower
/// shard windows under pressure degrades identically on every machine
/// and every rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemBudget {
    /// Maximum tracked resident bytes; `None` = unlimited.
    pub max_bytes: Option<u64>,
}

impl MemBudget {
    /// The unlimited budget: [`MemTracker::try_hold`] never fails, but
    /// current/peak accounting still runs (it feeds the obs gauges).
    pub const UNLIMITED: MemBudget = MemBudget { max_bytes: None };

    /// A budget of `n` bytes.
    pub fn bytes(n: u64) -> MemBudget {
        MemBudget { max_bytes: Some(n) }
    }

    /// A budget of `n` mebibytes.
    pub fn mib(n: u64) -> MemBudget {
        MemBudget::bytes(n.saturating_mul(1024 * 1024))
    }

    /// True when no limit is armed.
    pub fn is_unlimited(&self) -> bool {
        self.max_bytes.is_none()
    }
}

/// A rejected [`MemTracker::try_hold`]: admitting `requested` more
/// bytes on top of `in_use` would cross `limit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPressure {
    /// Bytes the caller asked to hold.
    pub requested: u64,
    /// Bytes already held when the request was rejected.
    pub in_use: u64,
    /// The armed limit.
    pub limit: u64,
}

impl std::fmt::Display for MemPressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: need {} B with {} B already resident (limit {} B)",
            self.requested, self.in_use, self.limit
        )
    }
}

impl std::error::Error for MemPressure {}

#[derive(Debug, Default)]
struct MemInner {
    limit: Option<u64>,
    current: AtomicU64,
    peak: AtomicU64,
}

/// Shared allocation account for one run. Clones share state, exactly
/// like [`CancelToken`]; the default tracker is unlimited and costs two
/// relaxed atomics per hold.
#[derive(Debug, Clone, Default)]
pub struct MemTracker {
    inner: Arc<MemInner>,
}

impl MemTracker {
    /// A tracker that accounts but never rejects.
    pub fn unlimited() -> MemTracker {
        MemTracker::default()
    }

    /// A tracker enforcing `budget`.
    pub fn with_budget(budget: MemBudget) -> MemTracker {
        MemTracker {
            inner: Arc::new(MemInner {
                limit: budget.max_bytes,
                current: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }),
        }
    }

    /// Reserve `bytes` against the budget. The returned [`MemHold`]
    /// releases them on drop; call [`MemHold::persist`] for data that
    /// stays resident for the rest of the run. Fails (without changing
    /// the account) when the reservation would cross the limit.
    pub fn try_hold(&self, bytes: u64) -> Result<MemHold, MemPressure> {
        let updated = self
            .inner
            .current
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                let next = cur.checked_add(bytes)?;
                match self.inner.limit {
                    Some(limit) if next > limit => None,
                    _ => Some(next),
                }
            });
        match updated {
            Ok(prev) => {
                self.inner.peak.fetch_max(prev + bytes, Ordering::SeqCst);
                Ok(MemHold {
                    inner: Arc::clone(&self.inner),
                    bytes,
                    persisted: false,
                })
            }
            Err(in_use) => Err(MemPressure {
                requested: bytes,
                in_use,
                limit: self.inner.limit.unwrap_or(u64::MAX),
            }),
        }
    }

    /// Bytes currently held.
    pub fn in_use(&self) -> u64 {
        self.inner.current.load(Ordering::SeqCst)
    }

    /// High-water mark of held bytes over the tracker's lifetime.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::SeqCst)
    }

    /// The armed limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.inner.limit
    }

    /// Bytes still admissible before the limit; `None` when unlimited.
    pub fn headroom(&self) -> Option<u64> {
        self.inner.limit.map(|l| l.saturating_sub(self.in_use()))
    }
}

/// An admitted reservation. Dropping it releases the bytes; persisted
/// holds stay on the account for the tracker's lifetime (data that
/// lives to the end of the run, like a session's resident matrices).
#[derive(Debug)]
pub struct MemHold {
    inner: Arc<MemInner>,
    bytes: u64,
    persisted: bool,
}

impl MemHold {
    /// Bytes this hold covers.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Keep the bytes on the account permanently (the backing data
    /// outlives the scope that reserved it).
    pub fn persist(mut self) {
        self.persisted = true;
    }
}

impl Drop for MemHold {
    fn drop(&mut self) {
        if !self.persisted {
            self.inner.current.fetch_sub(self.bytes, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_trips() {
        let t = CancelToken::inert();
        assert!(!t.is_cancelled());
        for _ in 0..1000 {
            assert!(t.checkpoint().is_ok());
        }
        assert_eq!(t.steps_done(), 1000);
        assert_eq!(t.cause(), None);
    }

    #[test]
    fn explicit_cancel_trips_and_is_shared_across_clones() {
        let t = CancelToken::inert();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert!(c.cancel_requested());
        let i = c.checkpoint().expect_err("must trip");
        assert_eq!(i.cause, CancelCause::Cancelled);
        assert_eq!(i.steps, 0);
    }

    #[test]
    fn step_budget_trips_at_the_limit_exactly() {
        let t = CancelToken::with_budget(Budget::steps(3));
        assert!(t.checkpoint().is_ok());
        assert!(t.checkpoint().is_ok());
        assert!(t.checkpoint().is_ok());
        let i = t.checkpoint().expect_err("4th checkpoint must trip");
        assert_eq!(i.cause, CancelCause::StepLimit);
        assert_eq!(i.steps, 3, "the tripping step is not counted as done");
    }

    #[test]
    fn deadline_trips_after_it_passes() {
        let t = CancelToken::with_budget(Budget::wall_ms(20));
        assert!(t.checkpoint().is_ok(), "fresh deadline must not trip");
        std::thread::sleep(Duration::from_millis(40));
        let i = t.checkpoint().expect_err("deadline passed");
        assert_eq!(i.cause, CancelCause::Deadline);
        assert!(i.elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn a_deadline_past_the_clock_range_never_trips() {
        let t = CancelToken::with_budget(Budget::wall(Duration::MAX));
        assert!(t.checkpoint().is_ok());
    }

    #[test]
    fn child_trips_when_parent_does_but_keeps_its_own_progress() {
        let parent = CancelToken::inert();
        let child = parent.child(Budget::UNLIMITED);
        assert!(child.checkpoint().is_ok());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(
            !child.cancel_requested(),
            "the child itself was not cancelled"
        );
        let i = child.checkpoint().expect_err("parent cancel propagates");
        assert_eq!(i.cause, CancelCause::Cancelled);
        assert_eq!(i.steps, 1);
    }

    #[test]
    fn child_budget_is_independent_of_the_parent() {
        let parent = CancelToken::inert();
        let child = parent.child(Budget::steps(1));
        assert!(child.checkpoint().is_ok());
        assert!(child.checkpoint().is_err(), "child limit trips the child");
        assert!(!parent.is_cancelled(), "but never the parent");
        assert!(parent.checkpoint().is_ok());
    }

    #[test]
    fn budget_builders_compose() {
        assert!(Budget::UNLIMITED.is_unlimited());
        assert!(Budget::default().is_unlimited());
        let b = Budget {
            max_steps: Some(10),
            ..Budget::wall_ms(500)
        };
        assert_eq!(b.wall, Some(Duration::from_millis(500)));
        assert_eq!(b.max_steps, Some(10));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn interrupt_display_names_the_cause_and_progress() {
        let i = Interrupt {
            cause: CancelCause::Deadline,
            elapsed: Duration::from_millis(1500),
            steps: 42,
        };
        let s = i.to_string();
        assert!(s.contains("timed out"), "{s}");
        assert!(s.contains("1.500s"), "{s}");
        assert!(s.contains("42 steps"), "{s}");
        let c = Interrupt {
            cause: CancelCause::Cancelled,
            ..i
        };
        assert!(c.to_string().contains("cancelled"), "{c}");
        let l = Interrupt {
            cause: CancelCause::StepLimit,
            ..i
        };
        assert!(l.to_string().contains("step budget exhausted"), "{l}");
    }

    #[test]
    fn mem_tracker_accounts_holds_and_releases() {
        let t = MemTracker::with_budget(MemBudget::bytes(100));
        assert_eq!(t.limit(), Some(100));
        assert_eq!(t.headroom(), Some(100));
        let a = t.try_hold(40).expect("fits");
        assert_eq!(a.bytes(), 40);
        assert_eq!(t.in_use(), 40);
        assert_eq!(t.headroom(), Some(60));
        let b = t.try_hold(60).expect("exactly fills the budget");
        assert_eq!(t.in_use(), 100);
        let p = t.try_hold(1).expect_err("over budget");
        assert_eq!(p.requested, 1);
        assert_eq!(p.in_use, 100);
        assert_eq!(p.limit, 100);
        assert!(p.to_string().contains("memory budget exceeded"), "{p}");
        drop(b);
        assert_eq!(t.in_use(), 40);
        drop(a);
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.peak(), 100, "peak survives releases");
    }

    #[test]
    fn mem_persisted_holds_survive_scope_exit() {
        let t = MemTracker::with_budget(MemBudget::bytes(50));
        {
            let h = t.try_hold(30).expect("fits");
            h.persist();
        }
        assert_eq!(t.in_use(), 30, "persisted bytes stay on the account");
        assert!(t.try_hold(30).is_err());
        assert!(t.try_hold(20).is_ok());
    }

    #[test]
    fn unlimited_tracker_accounts_without_rejecting() {
        let t = MemTracker::unlimited();
        assert_eq!(t.limit(), None);
        assert_eq!(t.headroom(), None);
        let h = t.try_hold(u64::MAX / 2).expect("unlimited never rejects");
        assert_eq!(t.peak(), u64::MAX / 2);
        drop(h);
        assert_eq!(t.in_use(), 0);
        assert!(MemBudget::UNLIMITED.is_unlimited());
        assert_eq!(MemBudget::mib(2).max_bytes, Some(2 * 1024 * 1024));
        assert!(!MemBudget::bytes(1).is_unlimited());
    }

    #[test]
    fn mem_trackers_share_state_across_clones() {
        let t = MemTracker::with_budget(MemBudget::bytes(10));
        let c = t.clone();
        let h = c.try_hold(10).expect("fits");
        assert!(t.try_hold(1).is_err(), "clones share one account");
        drop(h);
        assert_eq!(t.in_use(), 0);
    }
}
