//! Deterministic fault injection and panic containment.
//!
//! [`FaultPlan`] arms seeded faults at the pipeline's four injection
//! points — import, feature generation, matcher training, and matcher
//! scoring — so degraded-mode behavior is testable instead of
//! theoretical. [`guard`] is the shared panic-containment primitive the
//! pipeline wraps stage and matcher work in: it catches unwinds,
//! extracts the payload text, and suppresses the default panic-hook
//! stderr noise for panics it contains (other threads' panics are
//! untouched). Containment itself lives in `fairem-par` (the worker
//! pool needs the identical semantics per chunk); `guard` re-exports
//! that primitive so existing call sites keep working.

use fairem_rng::rngs::StdRng;
use fairem_rng::{Rng, SeedableRng};

use crate::matcher::MatcherKind;

/// Where a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// During table adoption (corrupts rows before schema checks).
    Import,
    /// While building the feature generator.
    FeatureGen,
    /// Inside a matcher's training call.
    Train,
    /// Inside a matcher's scoring call.
    Score,
}

/// What the fault does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultMode {
    /// Panic with the given message.
    Panic(String),
    /// Replace a seeded subset of matcher scores with NaN/±inf/out-of-range
    /// values (Score site only).
    PoisonScores,
    /// Duplicate and blank a seeded subset of row ids (Import site only),
    /// exercising the quarantine path.
    CorruptRows,
    /// Sleep for `millis` at the injection point, polling the active
    /// [`CancelToken`] in small slices — a deterministic stand-in for a
    /// hung or pathologically slow matcher that deadline budgets can
    /// cut cooperatively.
    Stall {
        /// How long the stall runs if no budget cuts it.
        millis: u64,
    },
}

/// One armed fault.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// Injection point.
    pub site: FaultSite,
    /// Restrict to one matcher (`None` = any matcher / non-matcher stage).
    pub matcher: Option<MatcherKind>,
    /// Behavior at the injection point.
    pub mode: FaultMode,
}

/// A seeded, deterministic set of faults to inject into one run.
///
/// The default plan is empty (no faults). Builders return `self` so
/// plans compose: `FaultPlan::seeded(7).kill(DtMatcher, Train)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed driving every stochastic corruption this plan performs.
    pub seed: u64,
    /// Armed faults.
    pub faults: Vec<InjectedFault>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::seeded(0)
    }
}

impl FaultPlan {
    /// Empty plan with a corruption seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Arm a panic for one matcher at `Train` or `Score`.
    pub fn kill(mut self, matcher: MatcherKind, site: FaultSite) -> FaultPlan {
        self.faults.push(InjectedFault {
            site,
            matcher: Some(matcher),
            mode: FaultMode::Panic(format!("injected fault: {} killed", matcher.name())),
        });
        self
    }

    /// Arm a panic at a non-matcher stage (`Import` / `FeatureGen`).
    pub fn panic_at(mut self, site: FaultSite) -> FaultPlan {
        self.faults.push(InjectedFault {
            site,
            matcher: None,
            mode: FaultMode::Panic(format!("injected fault at {site:?}")),
        });
        self
    }

    /// Arm score poisoning (NaN/±inf/out-of-range) for one matcher.
    pub fn poison_scores(mut self, matcher: MatcherKind) -> FaultPlan {
        self.faults.push(InjectedFault {
            site: FaultSite::Score,
            matcher: Some(matcher),
            mode: FaultMode::PoisonScores,
        });
        self
    }

    /// Arm import-time row corruption (duplicate + blanked ids).
    pub fn corrupt_import(mut self) -> FaultPlan {
        self.faults.push(InjectedFault {
            site: FaultSite::Import,
            matcher: None,
            mode: FaultMode::CorruptRows,
        });
        self
    }

    /// Arm a cooperative stall of `millis` for one matcher at `Train`
    /// or `Score` — the deterministic way to test budgets and timeouts.
    pub fn stall(mut self, matcher: MatcherKind, site: FaultSite, millis: u64) -> FaultPlan {
        self.faults.push(InjectedFault {
            site,
            matcher: Some(matcher),
            mode: FaultMode::Stall { millis },
        });
        self
    }

    /// Arm a cooperative stall at a non-matcher stage
    /// (`Import` / `FeatureGen`), for whole-suite budget testing.
    pub fn stall_stage(mut self, site: FaultSite, millis: u64) -> FaultPlan {
        self.faults.push(InjectedFault {
            site,
            matcher: None,
            mode: FaultMode::Stall { millis },
        });
        self
    }

    /// True when no fault is armed.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn armed(&self, site: FaultSite, matcher: Option<MatcherKind>) -> Option<&InjectedFault> {
        self.faults
            .iter()
            .find(|f| f.site == site && (f.matcher.is_none() || f.matcher == matcher))
    }

    /// Fire any armed `Panic` fault for this site/matcher.
    ///
    /// # Panics
    /// By design, when a matching panic fault is armed.
    pub fn trip(&self, site: FaultSite, matcher: Option<MatcherKind>) {
        if let Some(f) = self.armed(site, matcher) {
            if let FaultMode::Panic(msg) = &f.mode {
                // fairem: allow(panic) — documented # Panics contract: fault injection fires by design
                panic!("{msg}");
            }
        }
    }

    /// Run any armed `Stall` fault for this site/matcher: sleep in
    /// ~5 ms slices, checkpointing `token` between slices so an armed
    /// budget (or an explicit cancel) cuts the stall cooperatively.
    /// Returns `Err` with the interrupt record when the token tripped
    /// mid-stall, `Ok` when the stall ran to completion (or none was
    /// armed).
    pub fn stall_if_armed(
        &self,
        site: FaultSite,
        matcher: Option<MatcherKind>,
        token: &fairem_par::CancelToken,
    ) -> Result<(), fairem_par::Interrupt> {
        let armed = self.faults.iter().find(|f| {
            f.site == site
                && (f.matcher.is_none() || f.matcher == matcher)
                && matches!(f.mode, FaultMode::Stall { .. })
        });
        let Some(InjectedFault {
            mode: FaultMode::Stall { millis },
            ..
        }) = armed
        else {
            return Ok(());
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(*millis);
        const SLICE: std::time::Duration = std::time::Duration::from_millis(5);
        while std::time::Instant::now() < deadline {
            token.checkpoint()?;
            std::thread::sleep(SLICE);
        }
        Ok(())
    }

    /// True when `PoisonScores` is armed for this matcher.
    pub fn poisons(&self, matcher: MatcherKind) -> bool {
        self.faults.iter().any(|f| {
            f.site == FaultSite::Score
                && f.mode == FaultMode::PoisonScores
                && (f.matcher.is_none() || f.matcher == Some(matcher))
        })
    }

    /// True when `CorruptRows` is armed at import.
    pub fn corrupts_import(&self) -> bool {
        self.faults
            .iter()
            .any(|f| f.site == FaultSite::Import && f.mode == FaultMode::CorruptRows)
    }

    /// Seeded score corruption: overwrite ~20% of `scores` (at least one)
    /// with hazardous values, cycling NaN, +inf, −inf, 2.5, −1.0.
    pub fn corrupt_scores(&self, matcher: MatcherKind, scores: &mut [f64]) {
        if scores.is_empty() {
            return;
        }
        const HAZARDS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.5, -1.0];
        let mut rng = StdRng::seed_from_u64(self.seed ^ (matcher as u64).wrapping_mul(0x9E37));
        let n = (scores.len() / 5).max(1);
        for k in 0..n {
            let i = rng.gen_range(0..scores.len());
            scores[i] = HAZARDS[k % HAZARDS.len()];
        }
    }

    /// Seeded import corruption on raw CSV rows: duplicates one row's id
    /// into another row and blanks a third (when enough rows exist).
    pub fn corrupt_rows(&self, rows: &mut [Vec<String>], id_col: usize) {
        if rows.len() < 2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0_44_0F);
        let src = rng.gen_range(0..rows.len());
        let dst = (src + 1 + rng.gen_range(0..rows.len() - 1)) % rows.len();
        let id = rows[src][id_col].clone();
        rows[dst][id_col] = id;
        if rows.len() >= 3 {
            // First index that is neither the duplicate source nor its
            // target — always exists with ≥3 rows.
            if let Some(blank) = (0..rows.len()).find(|&i| i != src && i != dst) {
                rows[blank][id_col] = String::new();
            }
        }
    }
}

/// Extract a readable message from a caught panic payload.
pub use fairem_par::panic_message;

/// Run `f`, containing any panic and returning its message as `Err`.
///
/// Panics raised inside `f` on *this* thread are kept off stderr (the
/// containment is the report); panics on other threads still reach the
/// default hook. The active-containment flag is restored by a drop
/// guard inside [`fairem_par::contain`], so it can never stay latched
/// even if payload extraction itself panics.
pub fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    fairem_par::contain(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_trips_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.trip(FaultSite::Train, Some(MatcherKind::DtMatcher));
        plan.trip(FaultSite::Import, None);
        assert!(!plan.poisons(MatcherKind::DtMatcher));
        assert!(!plan.corrupts_import());
    }

    #[test]
    fn kill_targets_only_its_matcher() {
        let plan = FaultPlan::seeded(1).kill(MatcherKind::DtMatcher, FaultSite::Train);
        plan.trip(FaultSite::Train, Some(MatcherKind::SvmMatcher)); // no-op
        plan.trip(FaultSite::Score, Some(MatcherKind::DtMatcher)); // wrong site
        let err = guard(|| plan.trip(FaultSite::Train, Some(MatcherKind::DtMatcher)))
            .expect_err("armed fault must fire");
        assert!(err.contains("DTMatcher"), "{err}");
    }

    #[test]
    fn score_corruption_is_seeded_and_hazardous() {
        let plan = FaultPlan::seeded(9).poison_scores(MatcherKind::RfMatcher);
        assert!(plan.poisons(MatcherKind::RfMatcher));
        assert!(!plan.poisons(MatcherKind::DtMatcher));
        let mut a = vec![0.5; 40];
        let mut b = vec![0.5; 40];
        plan.corrupt_scores(MatcherKind::RfMatcher, &mut a);
        plan.corrupt_scores(MatcherKind::RfMatcher, &mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "corruption must be deterministic"
        );
        assert!(a.iter().any(|v| !v.is_finite() || !(0.0..=1.0).contains(v)));
    }

    #[test]
    fn row_corruption_duplicates_and_blanks_ids() {
        let plan = FaultPlan::seeded(3).corrupt_import();
        assert!(plan.corrupts_import());
        let mut rows: Vec<Vec<String>> = (0..6)
            .map(|i| vec![format!("r{i}"), format!("v{i}")])
            .collect();
        plan.corrupt_rows(&mut rows, 0);
        let mut ids: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        ids.sort_unstable();
        let dup = ids.windows(2).any(|w| !w[0].is_empty() && w[0] == w[1]);
        let blank = ids.iter().any(|i| i.is_empty());
        assert!(dup, "expected a duplicated id: {ids:?}");
        assert!(blank, "expected a blanked id: {ids:?}");
    }

    #[test]
    fn stall_runs_to_completion_without_a_budget() {
        use fairem_par::CancelToken;
        let plan = FaultPlan::seeded(1).stall(MatcherKind::DtMatcher, FaultSite::Train, 20);
        let t0 = std::time::Instant::now();
        plan.stall_if_armed(
            FaultSite::Train,
            Some(MatcherKind::DtMatcher),
            &CancelToken::inert(),
        )
        .expect("inert token never cuts the stall");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        // Wrong matcher / site: no stall at all.
        plan.stall_if_armed(
            FaultSite::Train,
            Some(MatcherKind::SvmMatcher),
            &CancelToken::inert(),
        )
        .expect("not armed");
    }

    #[test]
    fn budget_cuts_a_long_stall_cooperatively() {
        use fairem_par::{Budget, CancelCause, CancelToken};
        let plan = FaultPlan::seeded(1).stall_stage(FaultSite::FeatureGen, 60_000);
        let token = CancelToken::with_budget(Budget::wall_ms(60));
        let t0 = std::time::Instant::now();
        let i = plan
            .stall_if_armed(FaultSite::FeatureGen, None, &token)
            .expect_err("60ms budget must cut a 60s stall");
        assert_eq!(i.cause, CancelCause::Deadline);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "stall must end promptly, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn guard_returns_value_or_panic_text() {
        assert_eq!(guard(|| 41 + 1), Ok(42));
        let err = guard(|| panic!("boom {}", 7)).expect_err("panic contained");
        assert_eq!(err, "boom 7");
    }
}
