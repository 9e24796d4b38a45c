//! fairem-lint — the workspace contract gate (DESIGN.md §9).
//!
//! FairEM360 promises audits that are bit-for-bit identical under
//! every parallelism policy, with a recorder that is provably inert
//! when disabled. Those guarantees rest on cross-cutting conventions
//! — clocks only where time is the subject, threads only in the
//! `WorkerPool`, randomness only from `fairem-rng`, no external
//! crates, no hash-order leaks, no stray panics, total float orders,
//! documented `unsafe` — that no single crate can see being broken.
//! This crate turns the conventions into machine-checked rules, in
//! two layers:
//!
//! **Per-file** (token-stream over the [`lexer`], independent per
//! file):
//!
//! - [`lexer`] — a minimal Rust lexer so findings never fire inside
//!   comments or string/char literals (the reason grep cannot do
//!   this job);
//! - [`source`] — per-file structure: `#[cfg(test)]` regions and
//!   `fairem: allow(<rule>)` suppression pragmas with mandatory
//!   justifications;
//! - [`rules`] — the [`rules::Rule`] catalog: `clock`, `fs`,
//!   `thread`, `rng`, `hash_iter`, `panic`, `unsafe_comment`,
//!   `float_order`;
//! - [`deps`] — the `hermetic_deps` Cargo.toml walker.
//!
//! **Cross-file** (over the [`items::ItemIndex`] extracted from every
//! file):
//!
//! - [`items`] — the per-file item graph: functions, lock-holding
//!   struct fields, lock-acquisition order edges, metric-recorder
//!   calls, enums, string constants, path references;
//! - [`graph`] — the cross-file rules: `metrics_registry` (every
//!   emitted metric name is a literal declared in
//!   `crates/obs/src/names.rs`, and every declared name is emitted),
//!   `lock_order` (no cycles in the lock-acquisition graph),
//!   `exit_code` (every `SuiteError` variant is explicitly mapped to
//!   an exit code);
//! - `stale_pragma` (in [`driver`]) — a justified pragma that
//!   suppresses zero findings is itself a finding, so the exemption
//!   inventory cannot rot.
//!
//! The [`driver`] engine analyzes every file on every run, in parallel
//! over the `fairem-par` [`WorkerPool`](fairem_par::WorkerPool) with
//! chunk-stitched deterministic output, so findings are bit-identical
//! across `FAIREM_JOBS` settings. The binary prints
//! `file:line rule message` (or
//! `--format json`, schema `fairem-lint/2` via the workspace's one JSON
//! module, `fairem_csvio::Json`) and exits nonzero when any finding
//! survives.

pub mod deps;
pub mod driver;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;

pub use driver::{
    diff_expected, lint, lint_with, render_json, rule_names, validate_report_json, LintReport,
};
pub use rules::Finding;
