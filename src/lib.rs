//! # FairEM360
//!
//! A suite for responsible entity matching — Rust reproduction of the
//! VLDB 2024 demonstration paper *"FairEM360: A Suite for Responsible
//! Entity Matching"*.
//!
//! This facade crate re-exports every workspace crate under one roof so
//! examples, tests and downstream users can depend on a single name:
//!
//! - [`text`] — string similarity kernels and TF-IDF.
//! - [`par`] — the deterministic worker pool behind the suite's
//!   parallel hot paths (see [`core::Parallelism`]).
//! - [`csvio`] — CSV (RFC 4180) and JSON IO substrate.
//! - [`stats`] — the z- and chi-squared tests, distributions, summaries
//!   and distances.
//! - [`ml`] — classic from-scratch matchers (DT, RF, SVM, ...).
//! - [`neural`] — tape autograd + the four Lite deep-matcher models.
//! - [`datasets`] — synthetic FacultyMatch / NoFlyCompas generators.
//! - [`obs`] — hermetic metrics + span tracing (the `--metrics` and
//!   `--trace` recorder; inert unless switched on).
//! - [`serve`] — the interactive audit server: cached sessions behind
//!   the length-prefixed `fairem-serve/1` protocol, with admission
//!   control, per-request deadlines, and graceful drain.
//! - [`core`] — the three-layer FairEM360 suite itself (data, logic,
//!   presentation), including auditing, explanations, and the
//!   ensemble-based resolution with its Pareto frontier.
//!
//! See the repository README for a quickstart and `DESIGN.md` for the
//! full system inventory.

pub mod cli;

pub use fairem_core as core;
pub use fairem_csvio as csvio;
pub use fairem_datasets as datasets;
pub use fairem_ml as ml;
pub use fairem_neural as neural;
pub use fairem_obs as obs;
pub use fairem_par as par;
pub use fairem_serve as serve;
pub use fairem_stats as stats;
pub use fairem_text as text;

/// Convenience prelude: the types needed for the standard four-step demo
/// flow (import → matcher selection → audit → resolution).
pub mod prelude {
    pub use fairem_core::audit::{AuditConfig, AuditReport, Auditor};
    pub use fairem_core::calibrate::{
        CalibratedAudit, CalibrationSpec, CalibratorKind, DistributionAudit, GroupCalibrator,
    };
    pub use fairem_core::ensemble::{EnsembleExplorer, ParetoPoint};
    pub use fairem_core::fairness::{Disparity, FairnessMeasure, Paradigm};
    pub use fairem_core::matcher::{Matcher, MatcherKind, MatcherRegistry};
    pub use fairem_core::pipeline::{FairEm360, SuiteBuilder, SuiteConfig};
    pub use fairem_core::sensitive::{GroupSpace, SensitiveAttr};
    pub use fairem_core::workload::Workload;
    pub use fairem_datasets::{faculty_match, nofly_compas};
    pub use fairem_obs::{Recorder, Snapshot};
    pub use fairem_par::{Budget, CancelToken, Interrupt, Parallelism};
}
