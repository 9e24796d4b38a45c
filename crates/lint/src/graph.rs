//! Cross-file rules over the item graph: `metrics_registry`,
//! `lock_order`, and `exit_code`.
//!
//! These are the rules a per-file scanner cannot express — each one
//! relates facts from different files (a call site in `crates/serve`
//! against the registry in `crates/obs`, an enum in `crates/core`
//! against a match in `src/cli.rs`, lock fields in one impl against
//! acquisition order in another). They run after the per-file pass,
//! over the [`ItemIndex`] of every file in the walk.
//!
//! Partial walks degrade conservatively: checks that need the whole
//! workspace in view (registry exhaustiveness, the missing-mapping
//! probe) only run on the default full walk, so `fairem-lint
//! crates/serve` never reports drift it cannot see. The fixture walk
//! (`crates/lint/tests/fixtures`) re-enables the call-site checks
//! against an empty registry so the seeded violations provably fire.

use crate::items::ItemIndex;
use crate::rules::Finding;

/// Where the registry of metric names lives.
pub const REGISTRY_FILE: &str = "crates/obs/src/names.rs";
/// The enum whose variants must all map to exit codes.
pub const EXIT_ENUM: &str = "SuiteError";
/// The CLI function holding the exhaustive exit-code match.
pub const EXIT_FN: &str = "suite_exit_code";

/// What kind of walk produced the file set — decides which cross-file
/// checks have enough of the workspace in view to be meaningful.
#[derive(Debug, Clone, Copy)]
pub struct WalkScope {
    /// The default whole-workspace walk.
    pub full: bool,
    /// The walk includes the linter's seeded fixtures.
    pub fixtures: bool,
}

/// Run all cross-file rules over `(rel, items)` pairs (sorted by rel
/// by the driver; the output order is normalized by the driver's final
/// sort either way).
pub fn global_findings(files: &[(String, ItemIndex)], scope: WalkScope) -> Vec<Finding> {
    let mut out = Vec::new();
    metrics_registry(files, scope, &mut out);
    lock_order(files, &mut out);
    exit_code(files, scope, &mut out);
    out
}

/// `metrics_registry`: every metric name at a recorder call site must
/// be a string literal declared in [`REGISTRY_FILE`], and (on a full
/// walk) every declared name must be emitted somewhere — drift in
/// either direction fires.
fn metrics_registry(files: &[(String, ItemIndex)], scope: WalkScope, out: &mut Vec<Finding>) {
    let registry = files.iter().find(|(rel, _)| rel == REGISTRY_FILE);
    let mut declared: Vec<(&str, usize)> = Vec::new();
    if let Some((rel, items)) = registry {
        for c in &items.str_consts {
            if let Some(&(_, first_line)) = declared.iter().find(|(v, _)| *v == c.value) {
                out.push(Finding {
                    rel: rel.clone(),
                    line: c.line,
                    rule: "metrics_registry",
                    msg: format!(
                        "metric name `{}` is declared twice (first at line {first_line})",
                        c.value
                    ),
                });
            } else {
                declared.push((c.value.as_str(), c.line));
            }
        }
    }
    let check_names = registry.is_some() || scope.full || scope.fixtures;

    let mut used: Vec<&str> = Vec::new();
    for (rel, items) in files {
        if rel == REGISTRY_FILE {
            continue;
        }
        for call in &items.metric_calls {
            if call.is_test {
                continue;
            }
            match &call.name {
                None => out.push(Finding {
                    rel: rel.clone(),
                    line: call.line,
                    rule: "metrics_registry",
                    msg: format!(
                        "`.{}(` metric name must be a string literal declared in {REGISTRY_FILE}",
                        call.method
                    ),
                }),
                Some(name) => {
                    used.push(name.as_str());
                    if check_names && !declared.iter().any(|(v, _)| v == name) {
                        out.push(Finding {
                            rel: rel.clone(),
                            line: call.line,
                            rule: "metrics_registry",
                            msg: format!("metric name `{name}` is not declared in {REGISTRY_FILE}"),
                        });
                    }
                }
            }
        }
    }

    if scope.full {
        if registry.is_none() {
            out.push(Finding {
                rel: REGISTRY_FILE.to_owned(),
                line: 1,
                rule: "metrics_registry",
                msg: "metric-name registry file is missing from the workspace".to_owned(),
            });
        }
        for (name, line) in &declared {
            if !used.contains(name) {
                out.push(Finding {
                    rel: REGISTRY_FILE.to_owned(),
                    line: *line,
                    rule: "metrics_registry",
                    msg: format!("registered metric `{name}` is never emitted by production code"),
                });
            }
        }
    }
}

/// `lock_order`: build the Mutex/RwLock acquisition graph across
/// `crates/serve` and `crates/obs` (plus the seeded fixtures) and flag
/// nested-hold cycles. An edge `a → b` means some function acquired
/// `b` while holding `a`; a cycle means two call paths can block on
/// each other's held lock. Edge endpoints are filtered to names that
/// are provably lock fields, so io `.read()`-alikes on unknown
/// receivers never enter the graph.
fn lock_order(files: &[(String, ItemIndex)], out: &mut Vec<Finding>) {
    let in_scope = |rel: &str| {
        rel.starts_with("crates/serve/")
            || rel.starts_with("crates/obs/")
            || rel.contains("tests/fixtures")
    };
    let mut lock_names: Vec<&str> = Vec::new();
    for (rel, items) in files {
        if !in_scope(rel) {
            continue;
        }
        for f in &items.lock_fields {
            if !lock_names.contains(&f.name.as_str()) {
                lock_names.push(&f.name);
            }
        }
    }
    // (first, then, rel, line) edges between known lock fields.
    let mut edges: Vec<(&str, &str, &str, usize)> = Vec::new();
    for (rel, items) in files {
        if !in_scope(rel) {
            continue;
        }
        for e in &items.lock_edges {
            if e.is_test {
                continue;
            }
            if lock_names.contains(&e.first.as_str()) && lock_names.contains(&e.then.as_str()) {
                edges.push((&e.first, &e.then, rel, e.line));
            }
        }
    }

    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: Vec<&str> = vec![from];
        let mut stack: Vec<&str> = vec![from];
        while let Some(n) = stack.pop() {
            for (a, b, _, _) in &edges {
                if *a == n && !seen.contains(b) {
                    if *b == to {
                        return true;
                    }
                    seen.push(b);
                    stack.push(b);
                }
            }
        }
        false
    };

    for (a, b, rel, line) in &edges {
        if a == b {
            out.push(Finding {
                rel: (*rel).to_owned(),
                line: *line,
                rule: "lock_order",
                msg: format!("`{a}` acquired while already held — re-entrant deadlock"),
            });
        } else if reaches(b, a) {
            out.push(Finding {
                rel: (*rel).to_owned(),
                line: *line,
                rule: "lock_order",
                msg: format!(
                    "lock-order cycle: `{b}` acquired while holding `{a}`, but another \
                     path acquires `{a}` while holding `{b}`"
                ),
            });
        }
    }
}

/// `exit_code`: every [`EXIT_ENUM`] variant must be mapped by name in
/// [`EXIT_FN`] — a wildcard arm, an unknown variant reference, or an
/// unmapped variant all fire, so the error taxonomy and the process
/// exit codes cannot drift apart.
fn exit_code(files: &[(String, ItemIndex)], scope: WalkScope, out: &mut Vec<Finding>) {
    let enum_site = files.iter().find_map(|(rel, items)| {
        items
            .enums
            .iter()
            .find(|e| e.name == EXIT_ENUM)
            .map(|e| (rel.as_str(), e))
    });
    let Some((enum_rel, suite_enum)) = enum_site else {
        return;
    };
    let fn_site = files.iter().find_map(|(rel, items)| {
        items
            .fns
            .iter()
            .find(|f| f.name == EXIT_FN)
            .map(|f| (rel.as_str(), f, items))
    });
    let Some((fn_rel, map_fn, fn_items)) = fn_site else {
        if scope.full {
            out.push(Finding {
                rel: enum_rel.to_owned(),
                line: suite_enum.line,
                rule: "exit_code",
                msg: format!("`{EXIT_ENUM}` has no `{EXIT_FN}` exit-code mapping in src/cli.rs"),
            });
        }
        return;
    };
    let span = map_fn.line..=map_fn.end_line;
    let refs: Vec<_> = fn_items
        .path_refs
        .iter()
        .filter(|p| p.base == EXIT_ENUM && span.contains(&p.line))
        .collect();

    for (variant, vline) in &suite_enum.variants {
        if !refs.iter().any(|r| r.name == *variant) {
            out.push(Finding {
                rel: enum_rel.to_owned(),
                line: *vline,
                rule: "exit_code",
                msg: format!("`{EXIT_ENUM}::{variant}` has no exit code in `{EXIT_FN}`"),
            });
        }
    }
    for r in &refs {
        if !suite_enum.variants.iter().any(|(v, _)| v == &r.name) {
            out.push(Finding {
                rel: fn_rel.to_owned(),
                line: r.line,
                rule: "exit_code",
                msg: format!("`{EXIT_ENUM}::{}` is not a declared variant", r.name),
            });
        }
    }
    for (wline, is_test) in &fn_items.wildcards {
        if !is_test && span.contains(wline) {
            out.push(Finding {
                rel: fn_rel.to_owned(),
                line: *wline,
                rule: "exit_code",
                msg: format!(
                    "wildcard arm in `{EXIT_FN}` hides unmapped `{EXIT_ENUM}` variants — \
                     match every variant by name"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn items(rel: &str, src: &str) -> (String, ItemIndex) {
        (
            rel.to_owned(),
            ItemIndex::parse(&SourceFile::parse(rel, src)),
        )
    }

    const FULL: WalkScope = WalkScope {
        full: true,
        fixtures: false,
    };
    const PARTIAL: WalkScope = WalkScope {
        full: false,
        fixtures: false,
    };

    #[test]
    fn undeclared_and_non_literal_metric_names_fire() {
        let reg = items(REGISTRY_FILE, "pub const A: &str = \"import.rows\";\n");
        let site = items(
            "crates/core/src/pipeline.rs",
            "fn f(recorder: &Recorder) {\n    recorder.incr(\"import.rows\");\n    recorder.incr(\"bogus.name\");\n    recorder.gauge(dynamic(), 1.0);\n}\n",
        );
        let fs = vec![reg, site];
        let found = global_findings(&fs, PARTIAL);
        let metrics: Vec<_> = found
            .iter()
            .filter(|f| f.rule == "metrics_registry")
            .collect();
        assert_eq!(metrics.len(), 2, "{metrics:#?}");
        assert!(metrics
            .iter()
            .any(|f| f.line == 3 && f.msg.contains("bogus.name")));
        assert!(metrics
            .iter()
            .any(|f| f.line == 4 && f.msg.contains("string literal")));
    }

    #[test]
    fn unused_registry_entry_fires_on_full_walk_only() {
        let reg = items(REGISTRY_FILE, "pub const A: &str = \"never.used\";\n");
        let fs = vec![reg];
        assert!(global_findings(&fs, PARTIAL)
            .iter()
            .all(|f| f.rule != "metrics_registry"));
        let full = global_findings(&fs, FULL);
        assert!(full
            .iter()
            .any(|f| f.rule == "metrics_registry" && f.msg.contains("never emitted")));
    }

    #[test]
    fn lock_cycle_fires_and_straight_order_does_not() {
        let decl = items(
            "crates/serve/src/registry.rs",
            "struct R { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl R {\n\
             fn ab(&self) { let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); let _ = (g, h); }\n\
             }\n",
        );
        let clean = global_findings(std::slice::from_ref(&decl), PARTIAL);
        assert!(clean.iter().all(|f| f.rule != "lock_order"), "{clean:#?}");

        let reverse = items(
            "crates/serve/src/server.rs",
            "fn ba(r: &R) { let h = r.b.lock().unwrap(); let g = r.a.lock().unwrap(); let _ = (g, h); }\n",
        );
        let cyclic = global_findings(&[decl, reverse], PARTIAL);
        let hits: Vec<_> = cyclic.iter().filter(|f| f.rule == "lock_order").collect();
        assert_eq!(hits.len(), 2, "{hits:#?}");
    }

    #[test]
    fn lock_edges_outside_serve_and_obs_are_ignored() {
        let par = items(
            "crates/par/src/pool.rs",
            "struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
             fn x(p: &P) { let g = p.a.lock().unwrap(); let h = p.b.lock().unwrap(); let _ = (g, h); }\n\
             fn y(p: &P) { let h = p.b.lock().unwrap(); let g = p.a.lock().unwrap(); let _ = (g, h); }\n",
        );
        assert!(global_findings(&[par], PARTIAL)
            .iter()
            .all(|f| f.rule != "lock_order"));
    }

    #[test]
    fn exit_code_flags_unmapped_unknown_and_wildcard() {
        let file = items(
            "crates/lint/tests/fixtures/exit_code.rs",
            "pub enum SuiteError {\n    Mapped,\n    Unmapped,\n}\n\
             pub fn suite_exit_code(e: &SuiteError) -> i32 {\n    match e {\n        SuiteError::Mapped => 0,\n        SuiteError::Bogus => 1,\n        _ => 2,\n    }\n}\n",
        );
        let found = global_findings(&[file], PARTIAL);
        let hits: Vec<_> = found.iter().filter(|f| f.rule == "exit_code").collect();
        assert_eq!(hits.len(), 3, "{hits:#?}");
        assert!(hits
            .iter()
            .any(|f| f.line == 3 && f.msg.contains("Unmapped")));
        assert!(hits.iter().any(|f| f.line == 8 && f.msg.contains("Bogus")));
        assert!(hits
            .iter()
            .any(|f| f.line == 9 && f.msg.contains("wildcard")));
    }

    #[test]
    fn exhaustive_mapping_is_clean() {
        let file = items(
            "src/cli.rs",
            "pub enum SuiteError { A, B }\n\
             pub fn suite_exit_code(e: &SuiteError) -> i32 {\n    match e {\n        SuiteError::A => 1,\n        SuiteError::B => 2,\n    }\n}\n",
        );
        assert!(global_findings(&[file], FULL)
            .iter()
            .all(|f| f.rule != "exit_code"));
    }
}
