//! # fairem-core
//!
//! The FairEM360 suite itself: a three-layer architecture for responsible
//! entity matching, reproducing the system of *"FairEM360: A Suite for
//! Responsible Entity Matching"* (PVLDB 2024) as a library.
//!
//! - **Data layer** — [`schema`] (Magellan-format tables), [`sensitive`]
//!   (group/subgroup extraction and one-hot entity encodings), [`prep`]
//!   (candidate pairing, splitting, featurization).
//! - **Logic layer** — [`blocking`], [`features`], [`matcher`] (the ten
//!   integrated matchers plus the evaluation-only external-score path),
//!   [`workload`], [`confusion`], [`fairness`] (paradigms, measures, and
//!   Eq. 2/3 disparity).
//! - **Presentation layer** — [`audit`], [`multiworkload`] (k-workload
//!   hypothesis testing), [`explain`] (the four explanation families),
//!   [`ensemble`] (group→matcher assignments and the fairness/performance
//!   Pareto frontier), and [`report`] (text/JSON rendering).
//!
//! The [`pipeline::SuiteBuilder`] front door (via
//! [`pipeline::FairEm360::builder`]) strings the four demo steps
//! together: data import → matcher selection → fairness evaluation →
//! ensemble-based resolution. Hot paths (feature matrices, matcher
//! train/score, audits, Pareto enumeration) fan out over the
//! `fairem-par` worker pool under a [`Parallelism`] policy; results are
//! identical for every policy, sequential included.
//!
//! # Example: audit a hand-built workload
//!
//! The logic layer can be used standalone — score pairs however you
//! like, wrap them in a [`workload::Workload`], and audit:
//!
//! ```
//! use fairem_core::audit::{AuditConfig, Auditor};
//! use fairem_core::fairness::FairnessMeasure;
//! use fairem_core::schema::Table;
//! use fairem_core::sensitive::{GroupSpace, SensitiveAttr};
//! use fairem_core::workload::{Correspondence, Workload};
//! use fairem_csvio::parse_csv_str;
//!
//! let t = Table::from_csv(parse_csv_str("id,g\na1,cn\na2,us\n").unwrap()).unwrap();
//! let space = GroupSpace::extract(&[&t], vec![SensitiveAttr::categorical("g")]);
//! let (cn, us) = (space.encode(&t, 0), space.encode(&t, 1));
//!
//! // One missed cn match, one found us match.
//! let items = vec![
//!     Correspondence { a_row: 0, b_row: 0, score: 0.2, truth: true, left: cn, right: cn },
//!     Correspondence { a_row: 1, b_row: 1, score: 0.9, truth: true, left: us, right: us },
//! ];
//! let workload = Workload::new(items, 0.5);
//!
//! let auditor = Auditor::new(AuditConfig {
//!     measures: vec![FairnessMeasure::TruePositiveRateParity],
//!     min_support: 1,
//!     ..AuditConfig::default()
//! });
//! let report = auditor.audit("MyMatcher", &workload, &space);
//! let cn_cell = report.entry(FairnessMeasure::TruePositiveRateParity, "cn").unwrap();
//! assert!(cn_cell.unfair);
//! ```

pub mod audit;
pub mod blocking;
pub mod calibrate;
pub mod ckpt;
pub mod confusion;
pub mod ensemble;
pub mod error;
pub mod exec;
pub mod explain;
pub mod fairness;
pub mod fault;
pub mod features;
pub mod matcher;
pub mod multiworkload;
pub mod pipeline;
pub mod prep;
pub mod quarantine;
pub mod repair;
pub mod report;
pub mod resolution;
pub mod schema;
pub mod sensitive;
pub mod shard;
pub mod threshold;
pub mod workload;

pub use audit::{AuditConfig, AuditEntry, AuditReport, Auditor};
pub use blocking::{Blocker, CandidatePairs, SortedNeighborhood, TokenBlocking};
pub use calibrate::{
    CalibratedAudit, CalibrationSpec, CalibratorKind, DistributionAudit, DistributionEntry,
    FairnessArea, GroupCalibrator,
};
pub use ckpt::{fnv1a64, CheckpointStore, ShardRecord, CKPT_SCHEMA};
pub use confusion::ConfusionMatrix;
pub use ensemble::{EnsembleExplorer, ParetoPoint};
pub use error::{Stage, SuiteError, SuiteResult};
pub use exec::{Exec, PairBatch};
pub use fairem_obs::{Recorder, Snapshot, SpanStatus};
pub use fairem_par::{
    Budget, CancelToken, Interrupt, MemBudget, MemTracker, ParOutcome, Parallelism, WorkerPool,
};
pub use fairness::{Disparity, FairnessMeasure, Paradigm};
pub use fault::{FaultPlan, FaultSite};
pub use matcher::{FailureCause, Matcher, MatcherFailure, MatcherKind, MatcherRegistry};
pub use pipeline::{FairEm360, MatcherPerformance, Session, SuiteBuilder, SuiteConfig};
pub use quarantine::{QuarantineReport, QuarantinedRow, RowIssue};
pub use resolution::{Feedback, Proposal, ResolutionSession};
pub use schema::Table;
pub use sensitive::{GroupId, GroupSpace, SensitiveAttr, SensitiveKind};
pub use shard::{window_len, PairCounts, Shard, ShardPlan, ShardPolicy};
pub use workload::{Correspondence, Workload};
