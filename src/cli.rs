//! The `fairem` command-line interface: generate benchmark datasets,
//! audit matchers on Magellan-shaped CSV files (Matching-and-Evaluation),
//! and audit uploaded score files (Evaluation-Only).
//!
//! Each subcommand declares its flags once, in the `COMMANDS` table.
//! `Args::parse` is the only code that checks argv against it: an
//! unknown or repeated flag, a value flag without a value, a switch
//! followed by a bare word and a missing required flag are usage errors
//! naming the flag and the subcommand. [`usage`] renders its synopsis
//! from the same table; its notes on the flags are hand-written. The
//! workspace carries no CLI dependency. `run` is pure-ish (filesystem
//! only) and returns the rendered output, so the whole surface is
//! unit-testable.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use fairem_core::audit::{AuditConfig, Auditor};
use fairem_core::fairness::{Disparity, FairnessMeasure, Paradigm};
use fairem_core::fault::FaultSite;
use fairem_core::matcher::{ExternalScores, MatcherKind};
use fairem_core::pipeline::FairEm360;
use fairem_core::report::{audit_json, audit_text, calibrated_audit_json, calibrated_audit_text};
use fairem_core::sensitive::SensitiveAttr;
use fairem_core::{Budget, CancelToken, MemBudget, Parallelism, SuiteError};
use fairem_csvio::{read_csv_file, write_csv_stream, CsvTable, Json};
use fairem_datasets::{ScaleConfig, ScaleDataset};

/// Process exit code: clean success.
pub const EXIT_OK: i32 = 0;
/// Process exit code: bad flags / unknown command / invalid config.
pub const EXIT_USAGE: i32 = 1;
/// Process exit code: unusable input data (unreadable file, schema
/// violation, no surviving matcher).
pub const EXIT_DATA: i32 = 2;
/// Process exit code: the run completed, but degraded — matchers failed
/// or input rows were quarantined; read the report's degraded section.
pub const EXIT_DEGRADED: i32 = 3;
/// Process exit code: a deadline budget expired — either the whole-suite
/// `--timeout` aborted the run, or a per-matcher `--matcher-timeout` cut
/// at least one matcher (the report names who was cut and where).
pub const EXIT_TIMEOUT: i32 = 4;
/// Process exit code: the run was interrupted (Ctrl-C / explicit
/// cancellation) and wound down cooperatively; any output produced is a
/// valid partial result. 130 = 128 + SIGINT, the shell convention.
pub const EXIT_INTERRUPTED: i32 = 130;

/// CLI failure with a user-facing message and a process exit code.
#[derive(Debug)]
pub struct CliError {
    /// User-facing description.
    pub message: String,
    /// Process exit code ([`EXIT_USAGE`] or [`EXIT_DATA`]).
    pub exit: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        exit: EXIT_USAGE,
    }
}

fn data_err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        exit: EXIT_DATA,
    }
}

/// The exit code one [`SuiteError`] variant maps to. This match is
/// deliberately exhaustive — no wildcard arm — so adding a `SuiteError`
/// variant without deciding its exit code is a compile error, and the
/// `exit_code` lint rule cross-checks that every variant declared in
/// `crates/core/src/error.rs` appears here by name.
fn suite_exit_code(e: &SuiteError) -> i32 {
    match e {
        SuiteError::Config { .. } => EXIT_USAGE,
        SuiteError::TimedOut { .. } => EXIT_TIMEOUT,
        SuiteError::Io { .. } => EXIT_DATA,
        SuiteError::Schema { .. } => EXIT_DATA,
        SuiteError::Data { .. } => EXIT_DATA,
        SuiteError::Stage { .. } => EXIT_DATA,
        SuiteError::AllMatchersFailed { .. } => EXIT_DATA,
        SuiteError::UnknownMatcher { .. } => EXIT_DATA,
        SuiteError::MemExceeded { .. } => EXIT_DATA,
    }
}

/// Successful CLI output: the rendered text plus how the run ended
/// (degraded coverage, budget cuts, external interruption), which
/// decides the process exit code.
#[derive(Debug)]
pub struct CliOutput {
    /// Rendered report / status text.
    pub text: String,
    /// True when the run completed over reduced coverage.
    pub degraded: bool,
    /// True when a deadline budget cut at least one matcher or audit.
    pub timed_out: bool,
    /// True when the run was cancelled externally (Ctrl-C) and wound
    /// down with partial results.
    pub interrupted: bool,
}

impl CliOutput {
    fn clean(text: impl Into<String>) -> CliOutput {
        CliOutput {
            text: text.into(),
            degraded: false,
            timed_out: false,
            interrupted: false,
        }
    }

    /// The process exit code this output maps to. Interruption outranks
    /// timeout outranks degradation: the most externally-caused ending
    /// wins, so scripts can distinguish "you stopped it" from "it was
    /// slow" from "it lost matchers".
    pub fn exit_code(&self) -> i32 {
        if self.interrupted {
            EXIT_INTERRUPTED
        } else if self.timed_out {
            EXIT_TIMEOUT
        } else if self.degraded {
            EXIT_DEGRADED
        } else {
            EXIT_OK
        }
    }
}

/// One flag a subcommand accepts.
struct Flag {
    name: &'static str,
    /// The placeholder the usage text shows for the flag's value;
    /// `None` for a switch, which takes no value.
    value: Option<&'static str>,
    required: bool,
}

/// A flag that must be given, with a value.
const fn req(name: &'static str, value: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        required: true,
    }
}

/// An optional flag with a value.
const fn opt(name: &'static str, value: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        required: false,
    }
}

/// An optional switch.
const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        required: false,
    }
}

/// A subcommand: the flags it accepts and the function that runs it.
struct Command {
    name: &'static str,
    /// Flag groups, in synopsis order (audit and audit-scores share
    /// some).
    flags: &'static [&'static [Flag]],
    run: fn(&Args, &CancelToken) -> Result<CliOutput, CliError>,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The subcommand's synopsis, wrapped at 80 columns.
    fn synopsis(&self) -> String {
        let mut out = format!("  fairem {}", self.name);
        let mut width = out.len();
        for f in self.flags() {
            let word = match (f.value, f.required) {
                (Some(v), true) => format!("--{} {v}", f.name),
                (Some(v), false) => format!("[--{} {v}]", f.name),
                (None, _) => format!("[--{}]", f.name),
            };
            if width + 1 + word.len() > 80 {
                out.push_str("\n        ");
                width = 8;
            }
            out.push(' ');
            out.push_str(&word);
            width += 1 + word.len();
        }
        out
    }
}

/// The inputs of every audit-style subcommand.
#[rustfmt::skip]
const INPUTS: &[Flag] = &[
    req("table-a", "<csv>"), req("table-b", "<csv>"), req("matches", "<csv>"),
    req("sensitive", "<col[,col]>"),
];

/// The uploaded matcher scores of the Evaluation-Only subcommands.
const SCORES: &[Flag] = &[req("scores", "<csv>")];

/// Flags that only a fleet the suite trains itself can honour.
#[rustfmt::skip]
const FLEET: &[Flag] = &[
    opt("matchers", "<name,..>"), opt("shards", "<n>"), opt("checkpoint-dir", "<dir>"),
    switch("resume"), opt("calibrate", "none|platt|isotonic[:min-support]"),
];

/// The audit options `audit` and `audit-scores` share.
#[rustfmt::skip]
const AUDIT: &[Flag] = &[
    opt("measures", "<name,..>"), opt("paradigm", "single|pairwise"),
    opt("disparity", "subtraction|division"), opt("threshold", "<f>"),
    opt("fairness-threshold", "<f>"), opt("min-support", "<n>"),
    switch("only-unfair"), switch("json"), opt("dump-workload", "<dir>"),
    opt("blocking", "<col[,col]>"), opt("blocker", "token|sorted:<key-col>[:<window>]"),
    opt("negative-ratio", "<f|all>"), opt("train-frac", "<f>"), opt("mem-budget", "<mib>"),
    switch("all-thresholds"), opt("jobs", "<n|auto>"),
    opt("timeout", "<secs>"), opt("matcher-timeout", "<secs>"),
    opt("inject-stall", "<matcher>:<train|score>:<millis>"),
    opt("metrics", "<path>"), switch("trace"),
];

/// Every subcommand, in usage order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "generate", run: cmd_generate, flags: &[&[
        req("dataset", "<faculty|noflycompas|products|citations|scale>"), req("out", "<dir>"),
        opt("seed", "<n>"), opt("rows", "<n>"), opt("block-width", "<n>"),
    ]] },
    Command { name: "audit", run: cmd_audit, flags: &[INPUTS, FLEET, AUDIT] },
    Command { name: "audit-scores", run: cmd_audit, flags: &[INPUTS, SCORES, AUDIT] },
    Command { name: "analyze", run: cmd_analyze, flags: &[INPUTS, SCORES, &[
        opt("measure", "<name>"), opt("fairness-threshold", "<f>"), opt("jobs", "<n|auto>"),
    ]] },
    Command { name: "serve", run: cmd_serve, flags: &[&[
        opt("port", "<n>"), opt("max-sessions", "<n>"), opt("max-inflight", "<n>"),
        opt("max-cached", "<n>"), opt("request-timeout", "<secs>"), opt("drain-timeout", "<secs>"),
        opt("metrics", "<path>"), opt("checkpoint-dir", "<dir>"), opt("jobs", "<n|auto>"),
    ]] },
    Command { name: "client", run: cmd_client, flags: &[&[
        req("addr", "<host:port>"), req("send", "\"<cmd>[; <cmd>..]\""),
    ]] },
    Command { name: "storm", run: cmd_storm, flags: &[&[
        req("addr", "<host:port>"), opt("clients", "<n>"), opt("rounds", "<n>"),
        opt("stall-ms", "<n>"), opt("seed", "<n>"),
    ]] },
];

/// The usage text: every subcommand's synopsis, rendered from its flag
/// table, then the notes on the flags.
pub fn usage() -> String {
    let mut out = String::from("fairem — responsible entity matching suite\n\nUSAGE:\n");
    for c in COMMANDS {
        out.push_str(&c.synopsis());
        out.push('\n');
    }
    out.push_str(NOTES);
    out
}

/// The hand-written part of [`usage`].
const NOTES: &str = "
FILES:
  matches csv: header `id_a,id_b`, one ground-truth pair per row
  scores  csv: header `id_a,id_b,score`, your matcher's predictions

BLOCKING:
  --blocker selects the candidate-generation scheme: `token` (the
  default: token blocking, optionally restricted to the --blocking
  columns) or `sorted:<key-col>[:<window>]`, a sorted-neighborhood
  scan over <key-col> with the given window (default 10, minimum 2).
  Candidate sets are deterministic under either scheme.

PARALLELISM:
  --jobs N uses a fixed pool of N workers; `auto` or `0` (the default)
  sizes the pool from FAIREM_JOBS or the hardware thread count. Results
  are identical for every setting; only wall-clock time changes.

DEADLINES:
  --timeout S aborts the whole run after S seconds (exit 4). With
  --matcher-timeout S each matcher trains and scores under its own
  S-second budget: an expiry cuts only that matcher — the survivors are
  still audited and the report names who was cut, where, and after how
  long. Ctrl-C winds the run down cooperatively at the same checkpoints
  and exits 130 with whatever partial output exists. --inject-stall is
  a chaos flag that makes one matcher sleep at train or score time, for
  rehearsing the above deterministically.

SHARDING:
  --shards N partitions the test pair space into N contiguous shards and
  audits from merged per-shard histograms — the report is bit-for-bit
  identical to the materialized run, but peak memory is bounded by
  --mem-budget M (MiB over the suite's deterministic cost model; scoring
  windows narrow to fit). --checkpoint-dir DIR commits each completed
  shard there (`fairem-ckpt/1`, atomic rename), and --resume reuses
  committed shards whose run key matches, so a killed audit rerun with
  the same flags skips straight to the unfinished shards. Damaged or
  foreign checkpoint files are recomputed, never trusted.
  `generate --dataset scale --rows N --block-width W` emits a streamed
  benchmark with ≈ N×W candidate pairs for rehearsing all of the above
  (pair with --negative-ratio all to keep every blocked candidate).

CALIBRATION:
  A single-threshold verdict can flip as --threshold moves.
  --all-thresholds appends a threshold-independent audit per matcher:
  group-wise KS / 1-Wasserstein distances between each group's score
  distribution and the overall one (zero iff the group is treated
  identically at every threshold), plus a trapezoid-swept \"fairness
  area\" integrating each measure's max disparity over the whole
  threshold grid. --calibrate fits a per-group calibrator (platt or
  isotonic; groups under min-support — default 10 — fall back to a
  global fit) on the validation split and reports the same audit on
  the calibrated scores side by side. Both flags need materialized
  score vectors: drop --shards/--checkpoint-dir, and use a trained
  fleet (not audit-scores) with --calibrate.

OBSERVABILITY:
  --metrics PATH writes a JSON snapshot (schema `fairem-obs/1`) of
  per-stage timings, counters, and histograms after the run. --trace
  appends the span tree (import → features → train/score → audit →
  ensemble, with per-matcher children) to the text report. Both are off
  by default; with neither flag the recorder is inert and the run is
  bit-for-bit identical to an uninstrumented one.

SERVER:
  `fairem serve` holds imported sessions in memory and answers repeated
  audit/tune_threshold/ensemble/metrics requests over the length-prefixed
  fairem-serve/1 protocol (--port 0 picks an ephemeral port; the bound
  address is printed on startup). Admission control sheds work above
  --max-sessions connections or --max-inflight concurrent requests with
  a structured `busy` reply carrying retry_after_ms. Each request runs
  under its own --request-timeout budget and degrades to a `partial`
  reply when it expires. Three malformed frames quarantine a connection.
  SIGINT drains gracefully within --drain-timeout and exits 0 (4 if
  connections had to be severed). `fairem client` scripts one
  connection; `fairem storm` drives a mixed fleet for robustness drills.

EXIT CODES:
  0    success, full coverage
  1    usage error (bad or unknown flags, unknown command, invalid configuration)
  2    data error (unreadable file, schema violation, every matcher failed)
  3    completed but degraded (matchers failed or input rows quarantined;
       the report lists what is missing)
  4    a deadline budget expired (--timeout aborted the run, or
       --matcher-timeout cut at least one matcher)
  130  interrupted (Ctrl-C); any output is a valid partial result
";

/// argv checked against one subcommand's flag table.
struct Args {
    command: &'static Command,
    /// The flags given, in argv order, with their values (`None` for a
    /// switch).
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Find argv's subcommand and check every flag against its table.
    fn parse(argv: &[String]) -> Result<Args, CliError> {
        let name = argv.first().ok_or_else(|| err(usage()))?;
        let command = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| err(format!("unknown command {name:?}\n\n{}", usage())))?;
        let refuse = |problem: String| {
            err(format!(
                "fairem {}: {problem}\n\nUSAGE:\n{}",
                command.name,
                command.synopsis()
            ))
        };
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut words = argv.iter().skip(1).peekable();
        while let Some(word) = words.next() {
            let Some(name) = word.strip_prefix("--") else {
                return Err(refuse(format!("unexpected argument {word:?}")));
            };
            let Some(flag) = command.flags().find(|f| f.name == name) else {
                return Err(refuse(format!("unknown flag {word}")));
            };
            if given.iter().any(|(n, _)| *n == flag.name) {
                return Err(refuse(format!("{word} is given more than once")));
            }
            match (flag.value, words.next_if(|w| !w.starts_with("--"))) {
                (Some(placeholder), None) => {
                    return Err(refuse(format!(
                        "{word} expects {placeholder}, but no value was given"
                    )))
                }
                (None, Some(bare)) => {
                    return Err(refuse(format!(
                        "{word} is a switch and takes no value, got {bare:?}"
                    )))
                }
                (_, value) => given.push((flag.name, value.cloned())),
            }
        }
        let missing = command
            .flags()
            .find(|f| f.required && !given.iter().any(|(n, _)| *n == f.name));
        if let Some(f) = missing {
            return Err(refuse(format!("missing required --{}", f.name)));
        }
        Ok(Args { command, given })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of a flag its table marks required: [`Args::parse`]
    /// has refused any argv without it.
    fn required(&self, name: &str) -> &str {
        self.get(name).unwrap_or_default()
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name} expects an integer, got {v:?}"))),
        }
    }

    /// `--name` as a finite number that `ok` accepts, or `None` when
    /// the flag is absent. An unparseable value is refused as not
    /// `unit`; a non-finite one, or one `ok` rejects, as not `range`.
    fn number(
        &self,
        name: &str,
        unit: &str,
        range: &str,
        ok: fn(f64) -> bool,
    ) -> Result<Option<f64>, CliError> {
        let Some(v) = self.get(name) else {
            return Ok(None);
        };
        let x: f64 = v
            .parse()
            .map_err(|_| err(format!("--{name} expects {unit}, got {v:?}")))?;
        if x.is_finite() && ok(x) {
            Ok(Some(x))
        } else {
            Err(err(format!("--{name} expects {range}, got {v:?}")))
        }
    }

    /// `--fairness-threshold`: the largest disparity still judged fair.
    fn fairness_threshold(&self) -> Result<f64, CliError> {
        let t = self.number(
            "fairness-threshold",
            "a number",
            "a non-negative number",
            |t| t >= 0.0,
        )?;
        Ok(t.unwrap_or(0.2))
    }

    fn jobs(&self) -> Result<Parallelism, CliError> {
        match self.get("jobs") {
            None => Ok(Parallelism::Auto),
            Some(v) => Parallelism::parse_jobs(v).ok_or_else(|| {
                err(format!("--jobs expects a worker count, `0`, or `auto`, got {v:?}"))
            }),
        }
    }

    /// Parse `--<name> <secs>` into a wall-clock [`Budget`] (fractional
    /// seconds allowed); `None` when the flag is absent.
    fn wall_budget(&self, name: &str) -> Result<Option<Budget>, CliError> {
        let secs = self.number(name, "seconds", "a positive number of seconds", |s| s > 0.0)?;
        // A budget too long for a `Duration` could never expire anyway.
        Ok(secs.map(|s| Budget::wall(Duration::try_from_secs_f64(s).unwrap_or(Duration::MAX))))
    }
}

/// Parse `--inject-stall <matcher>:<train|score>:<millis>` into an
/// armed stall fault (the CLI's deterministic chaos knob for deadline
/// rehearsals).
fn parse_inject_stall(
    spec: &str,
    plan: fairem_core::FaultPlan,
) -> Result<fairem_core::FaultPlan, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [matcher, site, millis] = parts[..] else {
        return Err(err(format!(
            "--inject-stall expects <matcher>:<train|score>:<millis>, got {spec:?}"
        )));
    };
    let kind: MatcherKind = matcher
        .parse()
        .map_err(|e| err(format!("bad --inject-stall matcher: {e}")))?;
    let site = match site {
        "train" => FaultSite::Train,
        "score" => FaultSite::Score,
        other => {
            return Err(err(format!(
                "--inject-stall site must be `train` or `score`, got {other:?}"
            )))
        }
    };
    let millis: u64 = millis
        .parse()
        .map_err(|_| err(format!("--inject-stall expects integer millis, got {millis:?}")))?;
    Ok(plan.stall(kind, site, millis))
}

/// Parse `--blocker token` / `--blocker sorted:<key-col>[:<window>]`
/// into a blocking scheme. `token` returns `None`: the suite then uses
/// its default [`fairem_core::TokenBlocking`], which honours the
/// `--blocking` column list.
fn parse_blocker(
    spec: &str,
) -> Result<Option<std::sync::Arc<dyn fairem_core::Blocker>>, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts[..] {
        ["token"] => Ok(None),
        ["sorted", key] | ["sorted", key, _] if key.trim().is_empty() => Err(err(
            "--blocker sorted needs a key column: sorted:<key-col>[:<window>]",
        )),
        ["sorted", key] => Ok(Some(std::sync::Arc::new(fairem_core::SortedNeighborhood {
            key_column: key.trim().to_owned(),
            window: 10,
        }))),
        ["sorted", key, window] => {
            let window: usize = window.parse().map_err(|_| {
                err(format!("--blocker sorted expects an integer window, got {window:?}"))
            })?;
            if window < 2 {
                return Err(err(format!(
                    "--blocker sorted window must be at least 2, got {window}"
                )));
            }
            Ok(Some(std::sync::Arc::new(fairem_core::SortedNeighborhood {
                key_column: key.trim().to_owned(),
                window,
            })))
        }
        _ => Err(err(format!(
            "--blocker expects `token` or `sorted:<key-col>[:<window>]`, got {spec:?}"
        ))),
    }
}

/// The process-wide cancellation token the SIGINT handler trips. The
/// binary passes it to [`run_with_token`]; library callers normally
/// never need it.
pub fn global_cancel_token() -> &'static CancelToken {
    static GLOBAL_CANCEL: OnceLock<CancelToken> = OnceLock::new();
    GLOBAL_CANCEL.get_or_init(CancelToken::inert)
}

/// Install a SIGINT (Ctrl-C) handler that trips [`global_cancel_token`],
/// so an in-flight run winds down cooperatively at its next checkpoint
/// and still emits a valid partial report (exit 130). Idempotent; no-op
/// on non-unix platforms.
#[cfg(unix)]
pub fn install_sigint_handler() {
    use std::sync::Once;
    static INSTALLED: Once = Once::new();
    INSTALLED.call_once(|| {
        extern "C" fn on_sigint(_signum: i32) {
            // Async-signal-safe: tripping the token is one atomic store.
            global_cancel_token().cancel();
        }
        const SIGINT: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: installs a handler that only performs an atomic store.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    });
}

/// See the unix variant; signal handling is not wired on this platform.
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

/// Entry point: run the CLI on raw (post-program-name) arguments and
/// return the rendered output (plus how the run ended). Uses an inert
/// cancellation token — Ctrl-C integration goes through
/// [`run_with_token`].
pub fn run(argv: &[String]) -> Result<CliOutput, CliError> {
    run_with_token(argv, &CancelToken::inert())
}

/// [`run`] under an external cancellation token: trip `cancel` (e.g.
/// from the SIGINT handler) and the suite winds down cooperatively —
/// completed audits are still rendered and the exit code is
/// [`EXIT_INTERRUPTED`].
pub fn run_with_token(argv: &[String], cancel: &CancelToken) -> Result<CliOutput, CliError> {
    if let Some("help" | "--help" | "-h") = argv.first().map(String::as_str) {
        return Ok(CliOutput::clean(usage()));
    }
    let args = Args::parse(argv)?;
    (args.command.run)(&args, cancel)
}

fn cmd_generate(args: &Args, _: &CancelToken) -> Result<CliOutput, CliError> {
    let name = args.required("dataset");
    let out = PathBuf::from(args.required("out"));
    let seed = args.get_usize("seed", 0)? as u64;
    if name == "scale" {
        return cmd_generate_scale(args, &out, seed);
    }
    let dataset = fairem_datasets::generate(name, seed)
        .ok_or_else(|| err(format!("unknown dataset {name:?}")))?;
    let (a, b) = (&dataset.table_a, &dataset.table_b);
    let ids = ["id_a", "id_b"].map(String::from);
    let pair = |(a, b): &(String, String)| vec![a.clone(), b.clone()];
    write_rows(&out, "tableA.csv", &a.header, a.rows.iter().cloned())?;
    write_rows(&out, "tableB.csv", &b.header, b.rows.iter().cloned())?;
    write_rows(&out, "matches.csv", &ids, dataset.matches.iter().map(pair))?;
    Ok(CliOutput::clean(format!(
        "wrote {} (|A|={}, |B|={}, matches={}, sensitive={:?}) to {}",
        dataset.name,
        dataset.table_a.len(),
        dataset.table_b.len(),
        dataset.matches.len(),
        dataset.sensitive,
        out.display()
    )))
}

/// `generate --dataset scale`: stream seeded rows straight to disk —
/// no table is ever materialized, so row count is disk-bound, not
/// memory-bound.
fn cmd_generate_scale(args: &Args, out: &Path, seed: u64) -> Result<CliOutput, CliError> {
    let mut cfg = ScaleConfig::default();
    if seed != 0 {
        cfg.seed = seed;
    }
    cfg.rows = args.get_usize("rows", cfg.rows)?;
    cfg.block_width = args.get_usize("block-width", cfg.block_width)?;
    if cfg.rows == 0 || cfg.block_width == 0 {
        return Err(err("--rows and --block-width must be positive"));
    }
    let d = ScaleDataset::new(cfg);
    let ids = ["id_a", "id_b"].map(String::from);
    let rows_a = write_rows(out, "tableA.csv", &d.header(), d.rows_a())?;
    let rows_b = write_rows(out, "tableB.csv", &d.header(), d.rows_b())?;
    let pairs = d.matches().map(|(a, b)| vec![a, b]);
    let matches = write_rows(out, "matches.csv", &ids, pairs)?;
    Ok(CliOutput::clean(format!(
        "wrote ScaleMatch (|A|={rows_a}, |B|={rows_b}, matches={matches}, sensitive={:?}, ~{} candidate pairs) to {}",
        d.sensitive(),
        d.candidate_estimate(),
        out.display()
    )))
}

/// Write `header` and `rows` as CSV to `dir/name`, creating `dir` if
/// needed. Returns the number of data rows.
fn write_rows(
    dir: &Path,
    name: &str,
    header: &[String],
    rows: impl Iterator<Item = Vec<String>>,
) -> Result<u64, CliError> {
    std::fs::create_dir_all(dir).map_err(|e| data_err(format!("cannot create {dir:?}: {e}")))?;
    let path = dir.join(name);
    let f = std::fs::File::create(&path)
        .map_err(|e| data_err(format!("cannot create {path:?}: {e}")))?;
    let mut w = std::io::BufWriter::new(f);
    write_csv_stream(&mut w, header, rows)
        .and_then(|n| std::io::Write::flush(&mut w).map(|()| n))
        .map_err(|e| data_err(format!("writing {path:?}: {e}")))
}

fn read_table(path: &str) -> Result<CsvTable, CliError> {
    read_csv_file(Path::new(path)).map_err(|e| data_err(format!("reading {path}: {e}")))
}

fn read_matches(path: &str) -> Result<Vec<(String, String)>, CliError> {
    let t = read_table(path)?;
    let ia = t
        .column_index("id_a")
        .ok_or_else(|| data_err("matches csv needs an id_a column"))?;
    let ib = t
        .column_index("id_b")
        .ok_or_else(|| data_err("matches csv needs an id_b column"))?;
    Ok(t.rows
        .iter()
        .map(|r| (r[ia].clone(), r[ib].clone()))
        .collect())
}

fn parse_list<T: std::str::FromStr>(raw: &str, what: &str) -> Result<Vec<T>, CliError>
where
    T::Err: fmt::Display,
{
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<T>()
                .map_err(|e| err(format!("bad {what}: {e}")))
        })
        .collect()
}

/// Map a suite error to a CLI error: timeouts get the deadline exit
/// codes (130 when the cut came from an external cancel), config errors
/// are usage errors, everything else is a data error.
fn run_err(e: SuiteError, cancel: &CancelToken) -> CliError {
    let exit = match suite_exit_code(&e) {
        EXIT_TIMEOUT if cancel.cancel_requested() => EXIT_INTERRUPTED,
        code => code,
    };
    CliError {
        exit,
        message: e.to_string(),
    }
}

/// A suite builder loaded with the tables, ground truth and sensitive
/// attributes the `INPUTS` flags name.
fn inputs(args: &Args) -> Result<fairem_core::pipeline::SuiteBuilder, CliError> {
    let sensitive = args.required("sensitive").split(',');
    Ok(FairEm360::builder()
        .tables(
            read_table(args.required("table-a"))?,
            read_table(args.required("table-b"))?,
        )
        .ground_truth(read_matches(args.required("matches"))?)
        .sensitive(sensitive.map(|c| SensitiveAttr::categorical(c.trim()))))
}

/// `fairem audit`, and `fairem audit-scores` — the only subcommand whose
/// table declares `--scores` — for the Evaluation-Only flow.
fn cmd_audit(args: &Args, cancel: &CancelToken) -> Result<CliOutput, CliError> {
    let scores_path = args.get("scores");
    let fleet = match args.get("matchers") {
        Some(raw) => parse_list(raw, "matcher")?,
        None => vec![
            MatcherKind::DtMatcher,
            MatcherKind::RfMatcher,
            MatcherKind::LinRegMatcher,
        ],
    };
    let measures: Vec<FairnessMeasure> = match args.get("measures") {
        None => FairnessMeasure::PAPER_FIVE.to_vec(),
        Some(raw) => parse_list(raw, "measure")?,
    };
    let paradigm = match args.get("paradigm").unwrap_or("single") {
        "single" => Paradigm::Single,
        "pairwise" => Paradigm::Pairwise,
        other => return Err(err(format!("unknown paradigm {other:?}"))),
    };
    let disparity = match args.get("disparity").unwrap_or("subtraction") {
        "subtraction" => Disparity::Subtraction,
        "division" => Disparity::Division,
        other => return Err(err(format!("unknown disparity {other:?}"))),
    };
    let audit_measures = measures.clone();
    let auditor = Auditor::new(AuditConfig {
        paradigm,
        measures,
        disparity,
        fairness_threshold: args.fairness_threshold()?,
        min_support: args.get_usize("min-support", 10)?,
        only_unfair: args.has("only-unfair"),
        pairwise_attr: 0,
    });

    // Observability: `--metrics <path>` and/or `--trace` swap the inert
    // default recorder for a live one. With neither flag the recorder
    // stays disabled and the run is bit-for-bit what it always was.
    let metrics_path = args.get("metrics").map(PathBuf::from);
    let trace = args.has("trace");
    let observe = if metrics_path.is_some() || trace {
        fairem_core::Recorder::enabled()
    } else {
        fairem_core::Recorder::disabled()
    };

    // Calibration: `--calibrate platt|isotonic[:min-support]` fits a
    // per-group calibrator; `--all-thresholds` appends the
    // threshold-independent distribution audit (with a calibrated column
    // when a calibrator is configured).
    let calibrate_spec = match args.get("calibrate") {
        Some(raw) => fairem_core::CalibrationSpec::parse(raw)
            .map_err(|e| err(format!("--calibrate: {e}")))?,
        None => None,
    };
    let all_thresholds = args.has("all-thresholds");

    let mut config = fairem_core::pipeline::SuiteConfig {
        // The suite itself refuses a threshold outside [0, 1].
        matching_threshold: args
            .number("threshold", "a number", "a finite number", |_| true)?
            .unwrap_or(0.5),
        parallelism: args.jobs()?,
        cancel: cancel.clone(),
        observe: observe.clone(),
        calibration: calibrate_spec,
        ..Default::default()
    };
    if let Some(budget) = args.wall_budget("timeout")? {
        config.budget = budget;
    }
    if let Some(budget) = args.wall_budget("matcher-timeout")? {
        config.matcher_budget = budget;
    }
    if let Some(spec) = args.get("inject-stall") {
        config.fault = parse_inject_stall(spec, config.fault)?;
    }
    if let Some(cols) = args.get("blocking") {
        config.prep.blocking_columns = cols.split(',').map(|c| c.trim().to_owned()).collect();
    }
    if let Some(spec) = args.get("blocker") {
        config.blocker = parse_blocker(spec)?;
    }
    if args.get("negative-ratio") == Some("all") {
        config.prep.negative_ratio = f64::INFINITY;
    } else if let Some(r) = args.number(
        "negative-ratio",
        "a number or `all`",
        "a non-negative number or `all`",
        |r| r >= 0.0,
    )? {
        config.prep.negative_ratio = r;
    }
    if let Some(f) = args.number(
        "train-frac",
        "a fraction",
        "a fraction strictly between 0 and 1",
        |f| f > 0.0 && f < 1.0,
    )? {
        config.prep.train_frac = f;
    }
    let shards = args.get_usize("shards", 1)?;
    if shards == 0 {
        return Err(err("--shards must be at least 1"));
    }
    config.shard.shards = shards;
    config.shard.checkpoint_dir = args.get("checkpoint-dir").map(PathBuf::from);
    config.shard.resume = args.has("resume");
    if config.shard.resume && config.shard.checkpoint_dir.is_none() {
        return Err(err("--resume requires --checkpoint-dir"));
    }
    if let Some(mib) = args.number("mem-budget", "MiB", "a positive number of MiB", |m| m > 0.0)? {
        config.mem_budget = MemBudget::bytes((mib * 1024.0 * 1024.0) as u64);
    }
    let sharded = shards > 1 || config.shard.checkpoint_dir.is_some();
    if sharded && args.has("dump-workload") {
        return Err(err(
            "--dump-workload needs materialized score vectors; drop --shards/--checkpoint-dir",
        ));
    }
    if sharded && (calibrate_spec.is_some() || all_thresholds) {
        return Err(err(
            "--calibrate/--all-thresholds need materialized score vectors; \
             drop --shards/--checkpoint-dir",
        ));
    }
    // Fault-tolerant import (the builder's default): malformed rows are
    // quarantined (and listed in the output) instead of failing the
    // whole audit.
    let suite = inputs(args)?.config(config).build();
    let suite = suite.map_err(|e| run_err(e, cancel))?;

    if sharded {
        let run = suite
            .try_run_sharded(&fleet)
            .map_err(|e| run_err(e, cancel))?;
        let reports = run.audit_all(&auditor);
        let mut text = render_audit_output(
            args.has("json"),
            &reports,
            &[],
            run.quarantine(),
            run.failures(),
            run.coverage(),
            run.clamped_scores(),
            None,
            run.matcher_names().len(),
        );
        append_observability(&mut text, &observe, trace, args.has("json"), metrics_path.as_deref())?;
        return Ok(CliOutput {
            text,
            degraded: run.is_degraded() || !run.quarantine().is_empty(),
            timed_out: run.failures().iter().any(|f| f.interrupt().is_some()),
            interrupted: cancel.cancel_requested(),
        });
    }

    let dump_path = args.get("dump-workload").map(PathBuf::from);
    let dump = |session: &fairem_core::pipeline::Session,
                matcher: &str,
                w: &fairem_core::workload::Workload|
     -> Result<(), CliError> {
        let Some(dir) = &dump_path else { return Ok(()) };
        let header = ["id_a", "id_b", "score", "truth", "prediction"].map(String::from);
        let rows = w.items.iter().map(|c| {
            vec![
                session.table_a.id(c.a_row).to_owned(),
                session.table_b.id(c.b_row).to_owned(),
                format!("{:.6}", c.score),
                c.truth.to_string(),
                w.prediction(c).to_string(),
            ]
        });
        write_rows(dir, &format!("workload_{matcher}.csv"), &header, rows).map(drop)
    };

    let (session, reports, audit_interrupt, calibrated) = if let Some(scores_path) = scores_path {
        // Evaluation-Only: train nothing beyond the cheapest matcher
        // (needed to build the test pairing), then audit the uploads.
        let ext = read_external_scores(scores_path)?;
        let session = suite
            .try_run(&[MatcherKind::DtMatcher])
            .map_err(|e| run_err(e, cancel))?;
        let w = session.external_workload(&ext);
        dump(&session, ext.name(), &w)?;
        let reports = vec![auditor.audit(ext.name(), &w, &session.space)];
        // `--all-thresholds` still applies: the distribution audit only
        // needs the uploaded score vectors, not a fit split.
        let calibrated = if all_thresholds {
            let grid = fairem_core::threshold::default_grid();
            let groups = session.space.level1_of_attr(0);
            vec![fairem_core::CalibratedAudit {
                matcher: ext.name().to_owned(),
                calibration: None,
                groups_fitted: 0,
                fallbacks: 0,
                baseline: fairem_core::calibrate::distribution_audit(
                    &w,
                    &session.space,
                    &groups,
                    &audit_measures,
                    disparity,
                    &grid,
                ),
                calibrated: None,
            }]
        } else {
            Vec::new()
        };
        (session, reports, None, calibrated)
    } else {
        let session = suite.try_run(&fleet).map_err(|e| run_err(e, cancel))?;
        for name in session.matcher_names() {
            let w = session.workload(name).map_err(|e| run_err(e, cancel))?;
            dump(&session, name, &w)?;
        }
        let (reports, interrupt) = session.try_audit_all(&auditor);
        let mut calibrated = Vec::new();
        if calibrate_spec.is_some() || all_thresholds {
            let grid = fairem_core::threshold::default_grid();
            let groups = session.space.level1_of_attr(0);
            for name in session.matcher_names() {
                let report = session
                    .calibrated_audit(name, &audit_measures, disparity, &grid, &groups)
                    .map_err(|e| run_err(e, cancel))?;
                calibrated.push(report);
            }
        }
        (session, reports, interrupt, calibrated)
    };

    // Fleet-wide KS disparity gauges, so `--metrics` snapshots carry the
    // before/after headline that scripts (check.sh) assert on.
    if observe.is_enabled() && !calibrated.is_empty() {
        let raw = calibrated
            .iter()
            .map(|c| c.baseline.max_ks())
            .fold(0.0f64, f64::max);
        observe.gauge("calib.ks_max.raw", raw);
        let cal: Vec<f64> = calibrated
            .iter()
            .filter_map(|c| c.calibrated.as_ref().map(|d| d.max_ks()))
            .collect();
        if !cal.is_empty() {
            observe.gauge(
                "calib.ks_max.calibrated",
                cal.iter().fold(0.0f64, |a, &b| a.max(b)),
            );
        }
    }

    // With observability on, also enumerate the ensemble Pareto frontier
    // so the snapshot covers every stage the suite can run. Skipped when
    // the assignment space would trip the explorer's enumeration cap.
    if observe.is_enabled() && !session.matcher_names().is_empty() {
        // A configured calibrator doubles the workload pool (raw +
        // calibrated variant per matcher), so it enters the cap too.
        let variants = if session.calibration().is_some() { 2.0 } else { 1.0 };
        let m = session.matcher_names().len() as f64 * variants;
        let k = session.space.level1_of_attr(0).len() as f64;
        if m.powf(k) <= 1e7 {
            match session.calibration() {
                Some(spec) => {
                    if let Ok(e) = session.ensemble_with_calibrators(
                        0,
                        FairnessMeasure::AccuracyParity,
                        disparity,
                        &[spec],
                    ) {
                        let _ = e.try_pareto_frontier();
                    }
                }
                None => {
                    let _ = session
                        .ensemble(0, FairnessMeasure::AccuracyParity, disparity)
                        .try_pareto_frontier();
                }
            }
        }
    }

    let mut text = render_audit_output(
        args.has("json"),
        &reports,
        &calibrated,
        session.quarantine(),
        session.failures(),
        session.coverage(),
        session.clamped_scores(),
        audit_interrupt.as_ref(),
        session.matcher_names().len(),
    );
    append_observability(&mut text, &observe, trace, args.has("json"), metrics_path.as_deref())?;
    Ok(CliOutput {
        text,
        degraded: session.is_degraded() || !session.quarantine().is_empty(),
        timed_out: audit_interrupt.is_some()
            || session.failures().iter().any(|f| f.interrupt().is_some()),
        interrupted: cancel.cancel_requested(),
    })
}

/// Render the audit report text/JSON shared by the materialized and
/// sharded paths — one assembly function so `--shards` cannot drift
/// from the unsharded output byte-wise.
#[allow(clippy::too_many_arguments)]
fn render_audit_output(
    json: bool,
    reports: &[fairem_core::AuditReport],
    calibrated: &[fairem_core::CalibratedAudit],
    quarantine: &fairem_core::QuarantineReport,
    failures: &[fairem_core::MatcherFailure],
    coverage: (usize, usize),
    clamped: usize,
    audit_interrupt: Option<&fairem_core::Interrupt>,
    matcher_total: usize,
) -> String {
    if json {
        let audits = Json::arr(reports.iter().map(audit_json));
        // The historical shape (a bare array of audit reports) is kept
        // verbatim unless the new calibration flags asked for more.
        if calibrated.is_empty() {
            return audits.to_string_pretty();
        }
        let j = Json::obj([
            ("audits", audits),
            (
                "calibrated",
                Json::arr(calibrated.iter().map(calibrated_audit_json)),
            ),
        ]);
        return j.to_string_pretty();
    }
    let mut text = reports
        .iter()
        .map(audit_text)
        .collect::<Vec<_>>()
        .join("\n");
    for c in calibrated {
        text.push('\n');
        text.push_str(&calibrated_audit_text(c));
    }
    if !quarantine.is_empty() {
        text.push('\n');
        text.push_str(&quarantine.render());
    }
    if !failures.is_empty() {
        let (survivors, requested) = coverage;
        text.push_str(&format!(
            "\nDEGRADED RUN: {survivors}/{requested} matcher(s) survived\n"
        ));
        for f in failures {
            text.push_str(&format!("  {f}\n"));
        }
    }
    if let Some(i) = audit_interrupt {
        // Same `cut at <stage>` phrasing as a MatcherFailure line, so
        // every deadline cut in the report names its stage one way.
        text.push_str(&format!(
            "\nAUDIT INTERRUPTED: cut at audit: {i} — {}/{} report(s) completed\n",
            reports.len(),
            matcher_total
        ));
    }
    if clamped > 0 {
        text.push_str(&format!(
            "\nnote: {clamped} non-finite/out-of-range matcher score(s) clamped to [0,1]\n"
        ));
    }
    text
}

/// Append `--trace` span trees to the text and write the `--metrics`
/// snapshot, when observability is on.
fn append_observability(
    text: &mut String,
    observe: &fairem_core::Recorder,
    trace: bool,
    json: bool,
    metrics_path: Option<&Path>,
) -> Result<(), CliError> {
    if !observe.is_enabled() {
        return Ok(());
    }
    // Snapshot once, after every instrumented stage has run.
    let snapshot = observe.snapshot();
    if trace && !json {
        text.push_str("\nTRACE:\n");
        text.push_str(&snapshot.render_spans());
    }
    if let Some(path) = metrics_path {
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| data_err(format!("writing metrics to {path:?}: {e}")))?;
    }
    Ok(())
}

fn read_external_scores(path: &str) -> Result<ExternalScores, CliError> {
    let t = read_table(path)?;
    let ia = t
        .column_index("id_a")
        .ok_or_else(|| data_err("scores csv needs id_a"))?;
    let ib = t
        .column_index("id_b")
        .ok_or_else(|| data_err("scores csv needs id_b"))?;
    let is = t
        .column_index("score")
        .ok_or_else(|| data_err("scores csv needs score"))?;
    let mut preds = Vec::with_capacity(t.len());
    for r in &t.rows {
        let s: f64 = r[is].parse().map_err(|_| {
            data_err(format!("bad score {:?} for ({}, {})", r[is], r[ia], r[ib]))
        })?;
        preds.push(((r[ia].clone(), r[ib].clone()), s));
    }
    Ok(ExternalScores::new("UploadedScores", preds))
}

/// `fairem analyze`: threshold-sensitivity + AUC-parity analysis of an
/// uploaded score file (the extension experiments, headless).
fn cmd_analyze(args: &Args, cancel: &CancelToken) -> Result<CliOutput, CliError> {
    use fairem_core::threshold::{auc_parity, default_grid, suggest_threshold, sweep};

    let measure: FairnessMeasure = args
        .get("measure")
        .unwrap_or("TPRP")
        .parse()
        .map_err(|e| err(format!("bad measure: {e}")))?;
    let fairness_threshold = args.fairness_threshold()?;
    let parallelism = args.jobs()?;
    let builder = inputs(args)?;
    let ext = read_external_scores(args.required("scores"))?;

    let suite = builder
        .parallelism(parallelism)
        .cancel_token(cancel.clone())
        .strict()
        .build()
        .map_err(|e| run_err(e, cancel))?;
    let session = suite
        .try_run(&[MatcherKind::DtMatcher])
        .map_err(|e| run_err(e, cancel))?;
    let workload = session.external_workload(&ext);
    let groups: Vec<fairem_core::sensitive::GroupId> = session.space.level1_of_attr(0);

    let mut out = String::new();
    out.push_str(&format!(
        "threshold analysis of uploaded scores ({measure}):\n"
    ));
    let grid: Vec<f64> = (1..20).map(|i| i as f64 * 0.05).collect();
    let sw = sweep(&workload, &session.space, &groups, measure, &grid);
    let disp = sw.max_disparity(Disparity::Subtraction);
    out.push_str("  threshold  overall  max-disparity\n");
    for (i, &t) in sw.thresholds.iter().enumerate() {
        out.push_str(&format!(
            "  {t:>9.2} {:>8.3} {:>14.3} {}\n",
            sw.overall[i],
            disp[i],
            if disp[i] <= fairness_threshold {
                ""
            } else {
                "UNFAIR"
            }
        ));
    }
    match suggest_threshold(
        &workload,
        &session.space,
        &groups,
        measure,
        Disparity::Subtraction,
        fairness_threshold,
        &default_grid(),
    ) {
        Some(t) => out.push_str(&format!("suggested fair threshold: {t:.2}\n")),
        None => out.push_str("no fair threshold exists on the grid\n"),
    }
    out.push_str("\nAUC parity (threshold-independent):\n");
    for e in auc_parity(&workload, &session.space, &groups, Disparity::Subtraction) {
        out.push_str(&format!(
            "  {:<10} AUC {:>6.3}  disparity {:>6.3}\n",
            e.group, e.auc, e.disparity
        ));
    }
    Ok(CliOutput::clean(out))
}

/// `fairem serve`: the interactive audit server (fairem-serve crate).
/// Prints the bound address immediately (scripts parse it), runs until
/// SIGINT, then drains and reports. A clean drain exits 0; a drain that
/// had to sever connections exits 4 like any other expired budget.
fn cmd_serve(args: &Args, cancel: &CancelToken) -> Result<CliOutput, CliError> {
    let port = args.get_usize("port", 4360)?;
    let request_budget = args
        .wall_budget("request-timeout")?
        .unwrap_or(Budget::wall(Duration::from_secs(30)));
    let drain_budget = args
        .wall_budget("drain-timeout")?
        .unwrap_or(Budget::wall(Duration::from_secs(5)));
    let metrics_path = args.get("metrics").map(PathBuf::from);
    let recorder = if metrics_path.is_some() {
        fairem_core::Recorder::enabled()
    } else {
        fairem_core::Recorder::disabled()
    };
    let checkpoint_dir = args.get("checkpoint-dir").map(PathBuf::from);
    let config = fairem_serve::ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        max_sessions: args.get_usize("max-sessions", 64)?,
        max_inflight: args.get_usize("max-inflight", 8)?,
        max_cached: args.get_usize("max-cached", 16)?,
        request_budget,
        drain_budget,
        parallelism: args.jobs()?,
        checkpoint_dir,
    };
    let summary = fairem_serve::serve(config, cancel.clone(), recorder, |addr| {
        // Announced immediately, not in the final CliOutput: scripted
        // callers block on this line to learn the ephemeral port.
        println!("fairem-serve listening on {addr}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
    })
    .map_err(err)?;
    if let Some(path) = &metrics_path {
        std::fs::write(path, summary.snapshot.to_json())
            .map_err(|e| err(format!("writing metrics to {}: {e}", path.display())))?;
    }
    Ok(CliOutput {
        timed_out: !summary.drain_clean,
        ..CliOutput::clean(summary.render())
    })
}

/// `fairem client`: scripted peer for one connection — sends each
/// `;`-separated command from `--send` and prints the replies.
fn cmd_client(args: &Args, _: &CancelToken) -> Result<CliOutput, CliError> {
    let addr = args.required("addr");
    let script = args.required("send");
    let mut client = fairem_serve::Client::connect(addr, Duration::from_secs(60))
        .map_err(|e| data_err(format!("connect {addr}: {e}")))?;
    let mut text = format!("hello: {}\n", client.hello);
    if fairem_serve::Client::status_of(&client.hello) != "ok" {
        return Ok(CliOutput {
            degraded: true,
            ..CliOutput::clean(text)
        });
    }
    let mut degraded = false;
    for cmd in script.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        match client.send(cmd) {
            Ok(reply) => {
                text.push_str(&format!("{cmd}: {reply}\n"));
                if fairem_serve::Client::status_of(&reply) == "error" {
                    degraded = true;
                }
            }
            Err(e) => {
                text.push_str(&format!("{cmd}: transport error: {e}\n"));
                degraded = true;
                break;
            }
        }
    }
    Ok(CliOutput {
        degraded,
        ..CliOutput::clean(text)
    })
}

/// `fairem storm`: the mixed-traffic storm driver against a live
/// server. A dirty storm (transport failures, determinism violations,
/// or exhausted retries) exits 3 so scripts can assert cleanliness.
fn cmd_storm(args: &Args, _: &CancelToken) -> Result<CliOutput, CliError> {
    let addr = args.required("addr");
    let config = fairem_serve::StormConfig {
        clients: args.get_usize("clients", 16)?,
        rounds: args.get_usize("rounds", 2)?,
        stall_ms: args.get_usize("stall-ms", 1_500)? as u64,
        seed: args.get_usize("seed", 4360)? as u64,
        ..fairem_serve::StormConfig::default()
    };
    let report = fairem_serve::run_storm(addr, &config);
    Ok(CliOutput {
        degraded: !report.is_clean(),
        ..CliOutput::clean(report.render())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_csvio::write_csv_file;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fairem_cli_{name}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap().text;
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_lists_every_flag_under_its_subcommand() {
        let help = run(&args(&["help"])).unwrap().text;
        for c in COMMANDS {
            let start = help
                .find(&format!("\n  fairem {} ", c.name))
                .unwrap_or_else(|| panic!("no synopsis for {}:\n{help}", c.name));
            // The synopsis: its first line plus the indented continuations.
            let synopsis: Vec<&str> = help[start + 1..]
                .lines()
                .enumerate()
                .take_while(|(i, l)| *i == 0 || l.starts_with("         "))
                .map(|(_, l)| l)
                .collect();
            let synopsis = synopsis.join(" ");
            for f in c.flags() {
                let shown = match f.value {
                    Some(v) if f.required => format!(" --{} {v}", f.name),
                    Some(v) => format!("[--{} {v}]", f.name),
                    None => format!("[--{}]", f.name),
                };
                let name = c.name;
                assert!(
                    synopsis.contains(&shown),
                    "{name}: no {shown} in {synopsis}"
                );
            }
        }
    }

    #[test]
    fn flags_outside_a_subcommands_table_are_usage_errors() {
        let inputs = "--table-a a --table-b b --matches m --sensitive c";
        #[rustfmt::skip]
        let cases: &[(&str, &[&str], &str)] = &[
            ("audit", &["--treshold", "0.9"], "unknown flag --treshold"),
            ("audit", &["--shard", "4"], "unknown flag --shard"),
            ("audit", &["--json", "out.json"], "--json is a switch"),
            ("audit", &["--threshold", "0.3", "--threshold", "0.7"], "--threshold is given"),
            ("audit-scores", &["--scores", "s.csv", "--matchers", "DTMatcher"], "--matchers"),
            ("audit-scores", &["--scores", "s.csv", "--shards", "2"], "--shards"),
            ("audit-scores", &["--scores", "s.csv", "--calibrate", "platt"], "--calibrate"),
            ("analyze", &["--scores", "s.csv", "--threshold", "0.7"], "--threshold"),
            ("serve", &["--max-sesions", "1"], "unknown flag --max-sesions"),
            ("generate", &["--dataset", "faculty", "--out", "o", "--jobs", "2"], "--jobs"),
            ("audit", &["--"], "unknown flag --"),
            ("audit", &["--timeout", "--json"], "--timeout expects <secs>"),
            ("audit", &["stray"], "unexpected argument \"stray\""),
            ("audit-scores", &[], "missing required --scores"),
        ];
        for (cmd, extra, needle) in cases {
            let mut argv = vec![*cmd];
            if !matches!(*cmd, "serve" | "generate") {
                argv.extend(inputs.split(' '));
            }
            argv.extend(*extra);
            // No file above exists: every case is refused before any IO.
            let e = run(&args(&argv)).unwrap_err();
            assert_eq!(e.exit, EXIT_USAGE, "{argv:?}: {}", e.message);
            let first = e.message.lines().next().unwrap_or_default();
            assert!(
                first.starts_with(&format!("fairem {cmd}: ")) && first.contains(needle),
                "{argv:?}: {first}"
            );
        }
    }

    #[test]
    fn bad_threshold_values_are_usage_errors() {
        let dir = tmpdir("bad_thresholds");
        let out = dir.to_str().unwrap();
        run(&args(&["generate", "--dataset", "faculty", "--out", out])).unwrap();
        let matches = read_table(dir.join("matches.csv").to_str().unwrap()).unwrap();
        let scores = CsvTable {
            header: vec!["id_a".into(), "id_b".into(), "score".into()],
            rows: matches
                .rows
                .iter()
                .map(|r| vec![r[0].clone(), r[1].clone(), "0.9".into()])
                .collect(),
        };
        write_csv_file(&dir.join("scores.csv"), &scores).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let check = |cmd: &str, flag: &str, bad: &str| {
            let mut argv = args(&[cmd, "--sensitive", "country", flag, bad]);
            for (f, file) in [("--table-a", "tableA.csv"), ("--table-b", "tableB.csv")] {
                argv.extend([f.to_owned(), path(file)]);
            }
            argv.extend(["--matches".to_owned(), path("matches.csv")]);
            if cmd != "audit" {
                argv.extend(["--scores".to_owned(), path("scores.csv")]);
            }
            let e = run(&argv).unwrap_err();
            let why = format!("{cmd} {flag} {bad}: {}", e.message);
            assert_eq!(e.exit, EXIT_USAGE, "{why}");
            assert!(e.message.contains("threshold"), "{why}");
        };
        // NaN and inf are refused as flags; 1.5 and -3 by the suite itself.
        for cmd in ["audit", "audit-scores"] {
            for bad in ["NaN", "1.5", "-3", "inf"] {
                check(cmd, "--threshold", bad);
            }
        }
        for cmd in ["audit", "audit-scores", "analyze"] {
            for bad in ["NaN", "-1", "inf", "-inf"] {
                check(cmd, "--fairness-threshold", bad);
            }
        }
    }

    /// The front end under seeded random input: argv built from each
    /// subcommand's table with misspellings, bare `--`,
    /// repeats, junk words and random values, plus random specs for the
    /// value parsers. Every case ends in `Ok` or a usage error; none
    /// reaches file IO or a run.
    #[test]
    fn seeded_fuzz_of_the_front_end_never_panics() {
        use fairem_rng::check::{cases, Gen};
        // Words the value parsers know, numbers at their edges, and junk.
        const PIECES: &str = "token sorted title DTMatcher LinRegMatcher train score none \
            platt isotonic auto all 0 1 2 -1 0.5 1e308 1e400 NaN inf -inf \
            18446744073709551616 4611686018427387904 é _";
        fn word(g: &mut Gen) -> String {
            let pieces: Vec<&str> = PIECES.split_whitespace().chain(["", " "]).collect();
            let sep = *g.pick(&[":", ",", "", "."]);
            let parts: Vec<&str> = (0..g.usize_in(1, 4)).map(|_| *g.pick(&pieces)).collect();
            parts.join(sep)
        }
        cases(600, 0xF1A6_7AB1, |g| {
            let command = g.pick(COMMANDS);
            let flags: Vec<&Flag> = command.flags().collect();
            let mut argv = vec![command.name.to_owned()];
            // Half the cases are well formed: every required flag and a
            // random set of the others, once each, with random values.
            let well_formed = g.bool(0.5);
            for flag in flags.iter().filter(|_| well_formed) {
                if flag.required || g.bool(0.5) {
                    argv.push(format!("--{}", flag.name));
                    if flag.value.is_some() {
                        argv.push(word(g));
                    }
                }
            }
            let noise = if well_formed { 0 } else { g.usize_in(1, 10) };
            for _ in 0..noise {
                let flag = *g.pick(&flags);
                match g.usize_in(0, 8) {
                    0 => {
                        let mut name = flag.name.to_owned();
                        name.remove(g.usize_in(0, name.len()));
                        argv.push(format!("--{name}"));
                    }
                    1 => argv.push("--".to_owned()),
                    2 => argv.push(word(g)),
                    3 => {
                        let again = g.pick(&argv).clone();
                        argv.push(again);
                    }
                    _ => {
                        argv.push(format!("--{}", flag.name));
                        if flag.value.is_some() || g.bool(0.1) {
                            argv.push(word(g));
                        }
                    }
                }
            }
            let refusals = match Args::parse(&argv) {
                Err(e) => {
                    assert!(!well_formed, "{argv:?}: {}", e.message);
                    vec![e]
                }
                Ok(parsed) => {
                    let mut refusals: Vec<CliError> = Vec::new();
                    for f in command.flags() {
                        refusals.extend(parsed.get_usize(f.name, 0).err());
                        refusals.extend(parsed.number(f.name, "", "", |_| true).err());
                        refusals.extend(parsed.wall_budget(f.name).err());
                    }
                    refusals.extend(parsed.jobs().err());
                    refusals.extend(parsed.fairness_threshold().err());
                    refusals
                }
            };
            let spec = word(g);
            let plan = fairem_core::FaultPlan::default();
            let stall = parse_inject_stall(&spec, plan).err();
            let _ = fairem_core::CalibrationSpec::parse(&spec);
            let _ = Parallelism::parse_jobs(&spec);
            let parsers = [parse_blocker(&spec).err(), stall];
            for e in refusals.into_iter().chain(parsers.into_iter().flatten()) {
                assert_eq!(e.exit, EXIT_USAGE, "{argv:?} / {spec:?}: {}", e.message);
            }
        });
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.message.contains("unknown command"));
    }

    #[test]
    fn missing_flag_errors() {
        let e = run(&args(&["generate", "--dataset", "faculty"])).unwrap_err();
        assert!(e.message.contains("--out"));
    }

    #[test]
    fn generate_then_audit_round_trip() {
        let dir = tmpdir("roundtrip");
        let out = run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap()
        .text;
        assert!(out.contains("FacultyMatch"));
        assert!(dir.join("tableA.csv").exists());

        let report = run(&args(&[
            "audit",
            "--table-a",
            dir.join("tableA.csv").to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--sensitive",
            "country",
            "--matchers",
            "LinRegMatcher",
            "--measures",
            "TPRP",
            "--min-support",
            "20",
            "--fairness-threshold",
            "0.15",
        ]))
        .unwrap()
        .text;
        assert!(report.contains("LinRegMatcher"));
        assert!(report.contains("cn"));
        assert!(report.contains("UNFAIR"), "{report}");
    }

    #[test]
    fn corrupted_input_degrades_audit_and_exit_code() {
        let dir = tmpdir("degraded");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();

        // Vandalize tableA: duplicate one id, blank another.
        let path = dir.join("tableA.csv");
        let csv = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
        assert!(lines.len() > 4, "generated table too small to corrupt");
        let dup_id = lines[1].split(',').next().unwrap().to_owned();
        lines[2] = {
            let rest = lines[2].split_once(',').unwrap().1;
            format!("{dup_id},{rest}")
        };
        lines[3] = {
            let rest = lines[3].split_once(',').unwrap().1;
            format!(",{rest}")
        };
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let out = run(&args(&[
            "audit",
            "--table-a",
            path.to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--sensitive",
            "country",
            "--matchers",
            "LinRegMatcher",
            "--min-support",
            "20",
        ]))
        .unwrap();
        // The audit completes, but the run is flagged and exits 3.
        assert!(out.degraded);
        assert_eq!(out.exit_code(), EXIT_DEGRADED);
        assert!(out.text.contains("quarantined"), "{}", out.text);
        assert!(out.text.contains("LinRegMatcher"));
    }

    #[test]
    fn jobs_flag_is_validated_and_does_not_change_output() {
        let dir = tmpdir("jobs");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let audit = |jobs: &str| {
            run(&args(&[
                "audit",
                "--table-a",
                dir.join("tableA.csv").to_str().unwrap(),
                "--table-b",
                dir.join("tableB.csv").to_str().unwrap(),
                "--matches",
                dir.join("matches.csv").to_str().unwrap(),
                "--sensitive",
                "country",
                "--matchers",
                "LinRegMatcher",
                "--min-support",
                "20",
                "--jobs",
                jobs,
            ]))
        };
        let seq = audit("1").unwrap();
        let par = audit("4").unwrap();
        assert_eq!(seq.text, par.text, "report must not depend on --jobs");
        assert_eq!(seq.exit_code(), par.exit_code());
        let e = audit("banana").unwrap_err();
        assert!(e.message.contains("--jobs expects"), "{}", e.message);
        assert_eq!(e.exit, EXIT_USAGE);
    }

    #[test]
    fn blocker_flag_selects_scheme_and_rejects_bad_specs() {
        let dir = tmpdir("blocker");
        run(&args(&[
            "generate",
            "--dataset",
            "products",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let base = |extra: &[&str]| {
            let mut v = args(&[
                "audit",
                "--table-a",
                dir.join("tableA.csv").to_str().unwrap(),
                "--table-b",
                dir.join("tableB.csv").to_str().unwrap(),
                "--matches",
                dir.join("matches.csv").to_str().unwrap(),
                "--sensitive",
                "tier",
                "--blocking",
                "title",
                "--matchers",
                "DTMatcher",
            ]);
            v.extend(extra.iter().map(|s| (*s).to_owned()));
            v
        };
        // Sorted-neighborhood over the title key produces a full report.
        let sorted = run(&base(&["--blocker", "sorted:title:6"])).unwrap().text;
        assert!(sorted.contains("DTMatcher"), "{sorted}");
        // `token` is accepted as the explicit default spelling.
        let token = run(&base(&["--blocker", "token"])).unwrap().text;
        assert!(token.contains("DTMatcher"), "{token}");
        // Bad specs are usage errors, not panics.
        for bad in ["sorted", "sorted::4", "sorted:title:1", "sorted:title:x", "lsh"] {
            let e = run(&base(&["--blocker", bad])).unwrap_err();
            assert_eq!(e.exit, EXIT_USAGE, "{bad}: {}", e.message);
            assert!(e.message.contains("--blocker"), "{bad}: {}", e.message);
        }
    }

    #[test]
    fn audit_json_output_is_json() {
        let dir = tmpdir("json");
        run(&args(&[
            "generate",
            "--dataset",
            "products",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let report = run(&args(&[
            "audit",
            "--table-a",
            dir.join("tableA.csv").to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--sensitive",
            "tier",
            "--blocking",
            "title",
            "--matchers",
            "DTMatcher",
            "--json",
        ]))
        .unwrap()
        .text;
        assert!(report.trim_start().starts_with('['));
        assert!(report.contains("\"entries\""));
    }

    #[test]
    fn pairwise_and_division_flags_are_honored() {
        let dir = tmpdir("pairwise");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let report = run(&args(&[
            "audit",
            "--table-a",
            dir.join("tableA.csv").to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--sensitive",
            "country",
            "--matchers",
            "DTMatcher",
            "--measures",
            "AP",
            "--paradigm",
            "pairwise",
            "--disparity",
            "division",
        ]))
        .unwrap()
        .text;
        // Pairwise group labels use the × separator.
        assert!(
            report.contains("cn×cn") || report.contains("cn×de"),
            "{report}"
        );
        // Bad values produce usage errors.
        let e = run(&args(&[
            "audit",
            "--table-a",
            dir.join("tableA.csv").to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--sensitive",
            "country",
            "--paradigm",
            "sideways",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown paradigm"));
    }

    #[test]
    fn dump_workload_writes_per_matcher_csv() {
        let dir = tmpdir("dump");
        run(&args(&[
            "generate",
            "--dataset",
            "products",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let dump = dir.join("workloads");
        run(&args(&[
            "audit",
            "--table-a",
            dir.join("tableA.csv").to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--sensitive",
            "tier",
            "--blocking",
            "title",
            "--matchers",
            "DTMatcher",
            "--dump-workload",
            dump.to_str().unwrap(),
        ]))
        .unwrap();
        let w = read_table(dump.join("workload_DTMatcher.csv").to_str().unwrap()).unwrap();
        assert_eq!(
            w.header,
            vec!["id_a", "id_b", "score", "truth", "prediction"]
        );
        assert!(!w.is_empty());
        let si = w.column_index("score").unwrap();
        assert!(w.rows.iter().all(|r| r[si].parse::<f64>().is_ok()));
    }

    #[test]
    fn valueless_deadline_and_metrics_flags_are_usage_errors() {
        let dir = tmpdir("valueless");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let check = |flag: &str, needle: &str| {
            let e = run(&args(&[
                "audit",
                "--table-a",
                dir.join("tableA.csv").to_str().unwrap(),
                "--table-b",
                dir.join("tableB.csv").to_str().unwrap(),
                "--matches",
                dir.join("matches.csv").to_str().unwrap(),
                "--sensitive",
                "country",
                flag,
            ]))
            .unwrap_err();
            assert!(
                e.message.contains(flag) && e.message.contains(needle),
                "{flag}: {}",
                e.message
            );
            assert_eq!(e.exit, EXIT_USAGE, "{flag}");
        };
        // `--timeout` with no value must not silently run undeadlined,
        // and `--metrics` needs an output path.
        check("--timeout", "no value was given");
        check("--matcher-timeout", "no value was given");
        check("--metrics", "no value was given");
    }

    #[test]
    fn zero_and_negative_deadlines_are_usage_errors() {
        // A zero budget would otherwise trip at the very first
        // checkpoint — always-empty output masquerading as a timeout.
        // Pinned for every flag that parses through `wall_budget`,
        // including the server's request/drain knobs.
        let dir = tmpdir("zero_deadline");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let check = |cmd: &str, flag: &str, bad: &str| {
            let argv = if cmd == "audit" {
                args(&[
                    "audit",
                    "--table-a",
                    dir.join("tableA.csv").to_str().unwrap(),
                    "--table-b",
                    dir.join("tableB.csv").to_str().unwrap(),
                    "--matches",
                    dir.join("matches.csv").to_str().unwrap(),
                    "--sensitive",
                    "country",
                    flag,
                    bad,
                ])
            } else {
                args(&[cmd, flag, bad])
            };
            let e = run(&argv).unwrap_err();
            assert!(
                e.message.contains(flag) && e.message.contains("positive"),
                "{cmd} {flag} {bad}: {}",
                e.message
            );
            assert_eq!(e.exit, EXIT_USAGE, "{cmd} {flag} {bad}");
        };
        for flag in ["--timeout", "--matcher-timeout"] {
            for bad in ["0", "-1", "0.0", "NaN"] {
                check("audit", flag, bad);
            }
        }
        // The server validates its deadline knobs before it ever binds.
        for flag in ["--request-timeout", "--drain-timeout"] {
            for bad in ["0", "-1", "0.0", "NaN"] {
                check("serve", flag, bad);
            }
        }
    }

    #[test]
    fn metrics_and_trace_cover_every_stage() {
        let dir = tmpdir("metrics");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let metrics = dir.join("metrics.json");
        let (ta, tb, m) = (
            dir.join("tableA.csv"),
            dir.join("tableB.csv"),
            dir.join("matches.csv"),
        );
        let base = [
            "audit",
            "--table-a",
            ta.to_str().unwrap(),
            "--table-b",
            tb.to_str().unwrap(),
            "--matches",
            m.to_str().unwrap(),
            "--sensitive",
            "country",
            "--matchers",
            "DTMatcher,LinRegMatcher",
            "--min-support",
            "20",
        ];
        let mut with_obs = base.to_vec();
        with_obs.extend(["--metrics", metrics.to_str().unwrap(), "--trace"]);
        let out = run(&args(&with_obs)).unwrap();

        // The trace tree names each stage and each per-matcher child.
        assert!(out.text.contains("TRACE:"), "{}", out.text);
        for stage in ["import", "prep", "blocking", "features", "audit", "ensemble"] {
            assert!(out.text.contains(stage), "missing {stage} in:\n{}", out.text);
        }
        assert!(out.text.contains("train.DTMatcher"), "{}", out.text);
        assert!(out.text.contains("score.LinRegMatcher"), "{}", out.text);

        // The snapshot parses and carries the same coverage.
        let raw = std::fs::read_to_string(&metrics).unwrap();
        let json = Json::parse(&raw).expect("snapshot must be valid JSON");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("fairem-obs/1")
        );
        for stage in ["import", "train", "score", "audit", "ensemble"] {
            assert!(raw.contains(&format!("\"{stage}\"")), "missing {stage}");
        }

        // The report itself is unchanged by instrumentation.
        let plain = run(&args(&base)).unwrap();
        assert!(out.text.starts_with(&plain.text), "{}", out.text);
        assert_eq!(out.exit_code(), plain.exit_code());
    }

    #[test]
    fn audit_scores_evaluation_only() {
        let dir = tmpdir("scores");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        // Build a trivial score file: every ground-truth pair scored 1.0.
        let matches = read_table(dir.join("matches.csv").to_str().unwrap()).unwrap();
        let scores = CsvTable {
            header: vec!["id_a".into(), "id_b".into(), "score".into()],
            rows: matches
                .rows
                .iter()
                .map(|r| vec![r[0].clone(), r[1].clone(), "1.0".into()])
                .collect(),
        };
        write_csv_file(&dir.join("scores.csv"), &scores).unwrap();
        let report = run(&args(&[
            "audit-scores",
            "--table-a",
            dir.join("tableA.csv").to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--scores",
            dir.join("scores.csv").to_str().unwrap(),
            "--sensitive",
            "country",
        ]))
        .unwrap()
        .text;
        assert!(report.contains("UploadedScores"));
        // Oracle scores → fair everywhere.
        assert!(!report.contains("UNFAIR"), "{report}");
    }

    #[test]
    fn analyze_reports_sweep_and_auc() {
        let dir = tmpdir("analyze");
        run(&args(&[
            "generate",
            "--dataset",
            "faculty",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let matches = read_table(dir.join("matches.csv").to_str().unwrap()).unwrap();
        let scores = CsvTable {
            header: vec!["id_a".into(), "id_b".into(), "score".into()],
            rows: matches
                .rows
                .iter()
                .map(|r| vec![r[0].clone(), r[1].clone(), "0.9".into()])
                .collect(),
        };
        write_csv_file(&dir.join("scores.csv"), &scores).unwrap();
        let out = run(&args(&[
            "analyze",
            "--table-a",
            dir.join("tableA.csv").to_str().unwrap(),
            "--table-b",
            dir.join("tableB.csv").to_str().unwrap(),
            "--matches",
            dir.join("matches.csv").to_str().unwrap(),
            "--scores",
            dir.join("scores.csv").to_str().unwrap(),
            "--sensitive",
            "country",
        ]))
        .unwrap()
        .text;
        assert!(out.contains("threshold analysis"), "{out}");
        assert!(out.contains("AUC parity"));
        assert!(out.contains("cn"));
    }
}
