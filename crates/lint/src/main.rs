//! `fairem-lint` — machine enforcement of the workspace contracts.
//!
//! ```text
//! fairem-lint [--root DIR] [--expect MANIFEST] [--jobs N|auto]
//!             [--format text|json] [SUBPATH...]
//! fairem-lint --validate-json FILE
//! ```
//!
//! With no arguments: lint the whole workspace (the directory holding
//! the workspace `Cargo.toml`, found by walking up from the current
//! directory), print findings as `file:line rule message`, exit 1 when
//! any finding survives, 0 when clean.
//!
//! `--jobs` sets the per-file parallelism (default: `FAIREM_JOBS`,
//! else auto). Every run analyzes every file. `--format json` emits
//! the machine-readable `fairem-lint/2` document; `--validate-json
//! FILE` checks such a document and exits 0/1.
//!
//! `--expect MANIFEST` compares the findings against an expectation
//! file (one `file:line rule` per line, `#` comments allowed) and
//! exits 1 on any mismatch in either direction — this is how
//! `scripts/check.sh` proves the seeded fixture violations still fire,
//! so the linter cannot silently go blind. Exit 2 on usage or I/O
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

use fairem_par::Parallelism;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut expect: Option<PathBuf> = None;
    let mut jobs = Parallelism::Auto;
    let mut format = Format::Text;
    let mut subpaths: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--expect" => match args.next() {
                Some(v) => expect = Some(PathBuf::from(v)),
                None => return usage("--expect needs a manifest file"),
            },
            "--jobs" => match args.next().as_deref().and_then(Parallelism::parse_jobs) {
                Some(p) => jobs = p,
                None => return usage("--jobs needs N or `auto`"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return usage("--format needs `text` or `json`"),
            },
            "--validate-json" => {
                return match args.next() {
                    Some(v) => validate_json(&PathBuf::from(v)),
                    None => usage("--validate-json needs a file path"),
                };
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            other => subpaths.push(PathBuf::from(other)),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("fairem-lint: no workspace Cargo.toml above the current directory");
            return ExitCode::from(2);
        }
    };

    let report = match fairem_lint::lint_with(&root, &subpaths, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if let Some(manifest_path) = expect {
        let manifest = match std::fs::read_to_string(&manifest_path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!(
                    "fairem-lint: cannot read manifest {}: {e}",
                    manifest_path.display()
                );
                return ExitCode::from(2);
            }
        };
        let problems = fairem_lint::diff_expected(&report.findings, &manifest);
        if problems.is_empty() {
            println!(
                "fairem-lint: fixture self-check ok — {} expected finding(s) all fired",
                report.findings.len()
            );
            return ExitCode::SUCCESS;
        }
        for p in &problems {
            eprintln!("fairem-lint: {p}");
        }
        return ExitCode::FAILURE;
    }

    match format {
        Format::Json => print!("{}", fairem_lint::render_json(&report)),
        Format::Text => {
            for f in &report.findings {
                println!("{f}");
            }
            if report.findings.is_empty() {
                println!(
                    "fairem-lint: workspace clean ({} analyzed)",
                    report.files_analyzed
                );
            }
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        if matches!(format, Format::Text) {
            eprintln!("fairem-lint: {} finding(s)", report.findings.len());
        }
        ExitCode::FAILURE
    }
}

enum Format {
    Text,
    Json,
}

const USAGE: &str = "usage: fairem-lint [--root DIR] [--expect MANIFEST] [--jobs N|auto] \
[--format text|json] [SUBPATH...]\n       \
fairem-lint --validate-json FILE";

fn usage(msg: &str) -> ExitCode {
    eprintln!("fairem-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn validate_json(path: &PathBuf) -> ExitCode {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("fairem-lint: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match fairem_lint::validate_report_json(&body) {
        Ok(n) => {
            println!(
                "fairem-lint: {} is a valid fairem-lint/2 report ({n} finding(s))",
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fairem-lint: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Walk up from the current directory to the manifest that declares
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(body) = std::fs::read_to_string(&manifest) {
            if body.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
