//! The analysis engine: parallel per-file analysis over the
//! `fairem-par` [`WorkerPool`], the cross-file rule pass, pragma
//! suppression with a stale-pragma audit, and deterministic finding
//! order.
//!
//! Pipeline per run:
//!
//! 1. **Collect** — walk the workspace (or the requested subpaths)
//!    into a sorted file list.
//! 2. **Analyze** — `par_map` over the files: lex / parse / run the
//!    per-file rules on every file, every run. Chunk-index stitching
//!    makes the artifact vector order-identical under any
//!    `FAIREM_JOBS`.
//! 3. **Relate** — run the cross-file rules ([`crate::graph`]) over
//!    the item indexes.
//! 4. **Suppress** — apply `fairem: allow` pragmas to the combined
//!    findings, counting uses; a justified pragma that suppressed
//!    nothing becomes a `stale_pragma` finding, and malformed pragmas
//!    stay findings in their own right.
//! 5. **Order** — sort by `(file, line, rule, msg)` and dedupe, so
//!    jobs=1/N runs emit bit-identical output.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use fairem_csvio::Json;
use fairem_par::{Parallelism, WorkerPool};

use crate::deps;
use crate::graph::{self, WalkScope};
use crate::items::ItemIndex;
use crate::rules::{all_rules, Finding};
use crate::source::{Pragma, SourceFile};

/// Known rule names, for pragma validation.
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    names.push(deps::RULE);
    names.extend([
        "stale_pragma",
        "metrics_registry",
        "lock_order",
        "exit_code",
    ]);
    names
}

/// A lint run's findings plus the number of files it analyzed.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    /// Files analyzed this run.
    pub files_analyzed: u64,
}

/// One file's per-file analysis: everything the later passes need.
struct FileArtifact {
    /// Workspace-relative path (finding prefix).
    rel: String,
    /// Local-rule findings **before** pragma suppression.
    raw: Vec<Finding>,
    pragmas: Vec<Pragma>,
    items: ItemIndex,
}

/// Lint the workspace rooted at `root`. When `subpaths` is non-empty,
/// only those (root-relative) files/directories are walked — that is
/// how the fixture set is scanned despite being skipped by the
/// default walk.
pub fn lint(root: &Path, subpaths: &[PathBuf]) -> Result<Vec<Finding>, String> {
    lint_with(root, subpaths, Parallelism::Auto).map(|r| r.findings)
}

/// [`lint`] under an explicit parallelism policy, with the count of
/// analyzed files beside the findings.
pub fn lint_with(
    root: &Path,
    subpaths: &[PathBuf],
    parallelism: Parallelism,
) -> Result<LintReport, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if subpaths.is_empty() {
        walk(root, root, true, &mut files)?;
    } else {
        for sub in subpaths {
            let p = root.join(sub);
            if p.is_dir() {
                walk(root, &p, false, &mut files)?;
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let scope = WalkScope {
        full: subpaths.is_empty(),
        fixtures: subpaths
            .iter()
            .any(|p| p.components().any(|c| c.as_os_str() == "fixtures")),
    };

    let pool = WorkerPool::with_parallelism(parallelism);
    let mut artifacts = pool
        .par_map(files.len(), |i| analyze(root, &files[i]))
        .into_iter()
        .collect::<Result<Vec<FileArtifact>, String>>()?;

    // Cross-file pass over every item index.
    let indexed: Vec<(String, ItemIndex)> = artifacts
        .iter_mut()
        .map(|a| (a.rel.clone(), std::mem::take(&mut a.items)))
        .collect();
    let global = graph::global_findings(&indexed, scope);

    // Pragma suppression with per-pragma use counts.
    let by_rel: BTreeMap<&str, usize> = artifacts
        .iter()
        .enumerate()
        .map(|(i, a)| (a.rel.as_str(), i))
        .collect();
    let mut used: Vec<Vec<usize>> = artifacts.iter().map(|a| vec![0; a.pragmas.len()]).collect();
    let mut findings: Vec<Finding> = Vec::new();
    let raw_count = artifacts.iter().map(|a| a.raw.len()).sum::<usize>() + global.len();
    let mut all_raw: Vec<Finding> = Vec::with_capacity(raw_count);
    for a in &artifacts {
        all_raw.extend(a.raw.iter().cloned());
    }
    all_raw.extend(global);
    for f in all_raw {
        let Some(&ai) = by_rel.get(f.rel.as_str()) else {
            findings.push(f);
            continue;
        };
        let mut suppressed = false;
        for (pi, p) in artifacts[ai].pragmas.iter().enumerate() {
            if p.covers(f.rule, f.line) {
                used[ai][pi] += 1;
                suppressed = true;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    // Malformed pragmas are findings in their own right, so a
    // suppression can never silently decay; justified pragmas that
    // suppressed nothing are stale — the exemption inventory stays
    // honest in both directions.
    let known = rule_names();
    for (ai, a) in artifacts.iter().enumerate() {
        for (pi, p) in a.pragmas.iter().enumerate() {
            if !known.contains(&p.rule.as_str()) {
                findings.push(Finding {
                    rel: a.rel.clone(),
                    line: p.line,
                    rule: "pragma",
                    msg: format!("pragma names unknown rule `{}`", p.rule),
                });
            } else if !p.justified {
                findings.push(Finding {
                    rel: a.rel.clone(),
                    line: p.line,
                    rule: "pragma",
                    msg: "pragma is missing its mandatory justification text".to_owned(),
                });
            } else if p.rule != "stale_pragma" && used[ai][pi] == 0 {
                let mut suppressed = false;
                for (qi, q) in a.pragmas.iter().enumerate() {
                    if q.covers("stale_pragma", p.line) {
                        used[ai][qi] += 1;
                        suppressed = true;
                    }
                }
                if !suppressed {
                    findings.push(Finding {
                        rel: a.rel.clone(),
                        line: p.line,
                        rule: "stale_pragma",
                        msg: format!("pragma `allow({})` suppresses nothing — delete it", p.rule),
                    });
                }
            }
        }
        for (pi, p) in a.pragmas.iter().enumerate() {
            if p.rule == "stale_pragma" && p.justified && used[ai][pi] == 0 {
                findings.push(Finding {
                    rel: a.rel.clone(),
                    line: p.line,
                    rule: "stale_pragma",
                    msg: "pragma `allow(stale_pragma)` suppresses nothing — delete it".to_owned(),
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.rel, a.line, a.rule)
            .cmp(&(&b.rel, b.line, b.rule))
            .then_with(|| a.msg.cmp(&b.msg))
    });
    findings.dedup_by(|a, b| a.rel == b.rel && a.line == b.line && a.rule == b.rule);

    Ok(LintReport {
        findings,
        files_analyzed: artifacts.len() as u64,
    })
}

/// Analyze one file: lex, parse and run the per-file rules.
fn analyze(root: &Path, path: &Path) -> Result<FileArtifact, String> {
    let rel = relpath(root, path);
    let src = fs::read_to_string(path)
        .map_err(|e| format!("fairem-lint: cannot read {}: {e}", path.display()))?;
    if path.file_name().is_some_and(|n| n == "Cargo.toml") {
        return Ok(FileArtifact {
            raw: deps::check_manifest(&rel, &src),
            rel,
            pragmas: Vec::new(),
            items: ItemIndex::default(),
        });
    }
    let file = SourceFile::parse(&rel, &src);
    let mut raw: Vec<Finding> = Vec::new();
    for rule in &all_rules() {
        rule.check(&file, &mut raw);
    }
    let items = ItemIndex::parse(&file);
    Ok(FileArtifact {
        rel,
        raw,
        pragmas: file.pragmas,
        items,
    })
}

/// The default walk covers every `.rs` file and `Cargo.toml` under the
/// root, skipping build output, VCS metadata, result artifacts, and
/// the linter's own seeded-violation fixtures.
fn walk(
    root: &Path,
    dir: &Path,
    skip_fixtures: bool,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir)
        .map_err(|e| format!("fairem-lint: cannot walk {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("fairem-lint: walk error: {e}"))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "results" {
                continue;
            }
            if skip_fixtures && name == "fixtures" && relpath(root, &path).contains("tests/") {
                continue;
            }
            walk(root, &path, skip_fixtures, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Serialize a report in the machine-readable `fairem-lint/2` schema.
/// `files_cached` stays in the schema and is always 0: every run
/// analyzes every file.
pub fn render_json(report: &LintReport) -> String {
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Json::obj([
                ("file", Json::Str(f.rel.clone())),
                ("line", Json::Num(f.line as f64)),
                ("rule", Json::Str(f.rule.to_owned())),
                ("message", Json::Str(f.msg.clone())),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("format", Json::Str("fairem-lint/2".into())),
        ("files_analyzed", Json::Num(report.files_analyzed as f64)),
        ("files_cached", Json::Num(0.0)),
        ("findings", Json::Arr(findings)),
    ]);
    let mut text = doc.to_string_compact();
    text.push('\n');
    text
}

/// Validate that `text` is a well-formed `fairem-lint/2` document:
/// parses as JSON, carries the format tag, and every finding has the
/// four required fields. Returns the number of findings.
pub fn validate_report_json(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("format").and_then(Json::as_str) != Some("fairem-lint/2") {
        return Err("missing or wrong `format` tag (want fairem-lint/2)".to_owned());
    }
    for field in ["files_analyzed", "files_cached"] {
        doc.get(field)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("missing numeric `{field}`"))?;
    }
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("missing `findings` array")?;
    for (i, f) in findings.iter().enumerate() {
        f.get("file")
            .and_then(Json::as_str)
            .ok_or(format!("finding {i}: missing `file`"))?;
        f.get("line")
            .and_then(Json::as_usize)
            .ok_or(format!("finding {i}: missing `line`"))?;
        f.get("rule")
            .and_then(Json::as_str)
            .ok_or(format!("finding {i}: missing `rule`"))?;
        f.get("message")
            .and_then(Json::as_str)
            .ok_or(format!("finding {i}: missing `message`"))?;
    }
    Ok(findings.len())
}

/// Compare `findings` against an expectation manifest: one
/// `file:line rule` prefix per non-comment line. Returns a list of
/// human-readable mismatches (empty means exact agreement).
pub fn diff_expected(findings: &[Finding], manifest: &str) -> Vec<String> {
    let mut expected: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    expected.sort();
    let mut got: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{} {}", f.rel, f.line, f.rule))
        .collect();
    got.sort();
    let mut problems = Vec::new();
    for e in &expected {
        if !got.contains(e) {
            problems.push(format!("expected finding missing: {e}"));
        }
    }
    for g in &got {
        if !expected.contains(g) {
            problems.push(format!("unexpected finding: {g}"));
        }
    }
    problems
}
