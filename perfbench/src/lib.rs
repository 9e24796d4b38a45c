//! `fairem-perfbench`: the closed-loop end-to-end benchmark for the
//! fairem360 workspace, with an outside-in traced layer breakdown.
//!
//! `run(["--workload", W, "--seed", N, "--seconds", S, "--trace", T])`
//! runs one workload in this process and returns the report lines; the
//! last line is the JSON result. See `README.md` for the workloads,
//! the metrics and what each layer metric should move.

pub mod batch;
pub mod clock;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod servemix;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

/// FNV-1a 64 of an op's output (a rendered report or a reply body):
/// the digest every measured op is compared on.
pub fn digest(output: &str) -> u64 {
    fairem_core::ckpt::fnv1a64(output.as_bytes())
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Nominal measured seconds; sets the fixed op count.
    pub seconds: u64,
    /// Print per-layer metrics from a traced replay instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <citations-audit|scale-sharded|serve-mix> \
--seed <n> --seconds <n> --trace <0|1>";

impl Args {
    /// Parse `--flag value` pairs.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => {
                    // The op counts (and serve-mix's scripts) scale with it.
                    let s = num()?;
                    if !(1..=3600).contains(&s) {
                        return Err(format!("--seconds must be 1..=3600, got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        let missing = |flag: &str| format!("missing {flag}\n{USAGE}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Human-readable lines, printed before the result.
    pub notes: Vec<String>,
    /// The JSON result line.
    pub result: String,
    /// False when any op failed or disagreed with its reference.
    pub correct: bool,
}

/// Run one workload as described by `argv`.
pub fn run(argv: &[String]) -> Result<Outcome, String> {
    let args = Args::parse(argv)?;
    workloads::run(&args)
}
