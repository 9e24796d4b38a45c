//! The rule catalog (DESIGN.md §9).
//!
//! Every rule scans the **code projection** of a file — comments and
//! string/char literals are already blanked by the lexer — so a banned
//! token in prose or test data can never fire. Test code (files under
//! `tests/`, regions under `#[cfg(test)]`) is exempt from the
//! behavioural rules (clock, thread, hash_iter, panic) but not from
//! the hermeticity rules (rng) or `unsafe` hygiene: a test that pulls
//! in `rand` or an undocumented `unsafe` is just as much a breach.

use crate::source::SourceFile;

/// One violation: printed as `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rel: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{} {} {}", self.rel, self.line, self.rule, self.msg)
    }
}

/// A workspace contract checked file-by-file.
pub trait Rule {
    /// Name used in output and in `fairem: allow(<name>)` pragmas.
    fn name(&self) -> &'static str;
    /// Append findings for `file` (pragma filtering happens later).
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The full catalog, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(ClockRule),
        Box::new(FsRule),
        Box::new(ThreadRule),
        Box::new(RngRule),
        Box::new(HashIterRule),
        Box::new(PanicRule),
        Box::new(UnsafeRule),
        Box::new(FloatOrderRule),
    ]
}

/// Find `pat` in `line` at an identifier boundary on both ends.
fn token_at(line: &str, pat: &str) -> Option<usize> {
    let is_ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let lb = line.as_bytes();
    let pb = pat.as_bytes();
    let mut from = 0usize;
    while let Some(off) = line.get(from..).and_then(|s| s.find(pat)) {
        let at = from + off;
        let pre_ok = at == 0
            || !is_ident(lb[at - 1])
            // `std::thread::spawn` must still match `thread::spawn`.
            || !pb.first().map(|&c| is_ident(c)).unwrap_or(false)
            || (at >= 2 && lb[at - 1] == b':' && lb[at - 2] == b':');
        let end = at + pat.len();
        let post_ok = end >= lb.len()
            || !is_ident(lb[end])
            || !pb.last().map(|&c| is_ident(c)).unwrap_or(false);
        if pre_ok && post_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

fn path_in(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel == *p || rel.starts_with(p))
}

/// (1) Clock discipline: wall-clock types only where time is the
/// *subject* (span timing, budgets, pool chunk timing, stall
/// injection, benchmarking). Everywhere else a clock read is hidden
/// nondeterminism.
pub struct ClockRule;

const CLOCK_ALLOW: &[&str] = &[
    "crates/obs/src/recorder.rs",
    "crates/par/src/cancel.rs",
    "crates/par/src/pool.rs",
    "crates/core/src/fault.rs",
    "crates/bench/",
    // The server legitimately reads the clock: per-request deadlines,
    // frame-stall detection, and the drain timer are all wall-clock.
    "crates/serve/",
];

impl Rule for ClockRule {
    fn name(&self) -> &'static str {
        "clock"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if path_in(&file.rel, CLOCK_ALLOW) {
            return;
        }
        for (i, line) in file.code.iter().enumerate() {
            if file.is_test(i + 1) {
                continue;
            }
            for tok in ["Instant", "SystemTime"] {
                if token_at(line, tok).is_some() {
                    out.push(Finding {
                        rel: file.rel.clone(),
                        line: i + 1,
                        rule: self.name(),
                        msg: format!(
                            "`{tok}` outside the clock allowlist (obs/recorder, par/{{pool,cancel}}, core/fault, bench)"
                        ),
                    });
                }
            }
        }
    }
}

/// (1b) Filesystem discipline: the compute stages are hermetic — a
/// `std::fs` call inside a matcher, auditor, or feature kernel is
/// hidden state that breaks replayability and the sandboxed-serve
/// contract. Filesystem access lives only at the IO boundary (csvio,
/// the CLI), in the checkpoint store (whose rename-commit discipline
/// is itself the point), and in tooling that exists to read or write
/// workspace files (lint, bench).
pub struct FsRule;

const FS_ALLOW: &[&str] = &[
    // The checkpoint store: atomic rename-commit shard persistence.
    "crates/core/src/ckpt.rs",
    // The tabular IO substrate and the CLI boundary.
    "crates/csvio/",
    "src/cli.rs",
    // Tooling whose job is reading/writing workspace files. `src/`
    // only — the linter's seeded fixtures under tests/ must still fire.
    "crates/lint/src/",
    "crates/bench/",
];

impl Rule for FsRule {
    fn name(&self) -> &'static str {
        "fs"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if path_in(&file.rel, FS_ALLOW) {
            return;
        }
        for (i, line) in file.code.iter().enumerate() {
            if file.is_test(i + 1) {
                continue;
            }
            for tok in ["std::fs", "fs::"] {
                if token_at(line, tok).is_some() {
                    out.push(Finding {
                        rel: file.rel.clone(),
                        line: i + 1,
                        rule: self.name(),
                        msg: format!(
                            "`{tok}` outside the filesystem allowlist (core/ckpt, csvio, cli, lint/src, bench) — compute stages are hermetic"
                        ),
                    });
                    break; // one strike per line, not per token alias
                }
            }
        }
    }
}

/// (2) Thread discipline: the `WorkerPool` is the only thread spawner
/// (plus `core/fault`'s stall rehearsal) — ad-hoc threads bypass the
/// deterministic chunk stitching and panic containment.
pub struct ThreadRule;

// The server's accept loop and per-connection workers are the second
// sanctioned home for ad-hoc threads: connections are containment
// boundaries there, mirroring what the pool does for chunks.
const THREAD_ALLOW: &[&str] = &["crates/par/", "crates/core/src/fault.rs", "crates/serve/"];

impl Rule for ThreadRule {
    fn name(&self) -> &'static str {
        "thread"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if path_in(&file.rel, THREAD_ALLOW) {
            return;
        }
        for (i, line) in file.code.iter().enumerate() {
            if file.is_test(i + 1) {
                continue;
            }
            for tok in ["thread::spawn", "thread::scope", "thread::Builder"] {
                if token_at(line, tok).is_some() {
                    out.push(Finding {
                        rel: file.rel.clone(),
                        line: i + 1,
                        rule: self.name(),
                        msg: format!("`{tok}` outside fairem-par / core/fault — all threads go through the WorkerPool"),
                    });
                }
            }
        }
    }
}

/// (3) RNG hermeticity: all randomness flows from `fairem-rng`'s
/// seeded generators. External RNG crates and entropy taps are banned
/// everywhere, including tests — an unseeded draw anywhere breaks
/// replayability.
pub struct RngRule;

const RNG_ALLOW: &[&str] = &["crates/rng/"];

impl Rule for RngRule {
    fn name(&self) -> &'static str {
        "rng"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if path_in(&file.rel, RNG_ALLOW) {
            return;
        }
        for (i, line) in file.code.iter().enumerate() {
            for tok in [
                "rand::",
                "rand_core",
                "rand_chacha",
                "rand_distr",
                "getrandom",
                "thread_rng",
                "from_entropy",
                "OsRng",
                "proptest",
            ] {
                if token_at(line, tok).is_some() {
                    out.push(Finding {
                        rel: file.rel.clone(),
                        line: i + 1,
                        rule: self.name(),
                        msg: format!(
                            "`{tok}` — randomness comes only from fairem-rng seeded generators"
                        ),
                    });
                }
            }
        }
    }
}

/// (4) Ordering determinism: iterating a `HashMap`/`HashSet` yields a
/// different order every process run (SipHash keys), which leaks into
/// any Vec or report built from it. Iteration must be over a
/// `BTreeMap`/sorted keys, or carry a justified
/// `fairem: allow(hash_iter)` pragma explaining why order cannot
/// escape.
///
/// Detection is an in-file binding heuristic: names bound or typed as
/// `HashMap`/`HashSet` (lets, fields, params) are tracked, and
/// order-exposing calls on them (`iter`, `keys`, `values`, `drain`,
/// `into_iter`, `into_keys`, `into_values`, `for … in &name`) are
/// flagged. Cross-function flows are out of reach — the rule is a
/// tripwire, not a type checker.
pub struct HashIterRule;

const HASH_ITER_CALLS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

impl Rule for HashIterRule {
    fn name(&self) -> &'static str {
        "hash_iter"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let mut names: Vec<String> = Vec::new();
        for line in &file.code {
            for ty in ["HashMap", "HashSet"] {
                let mut from = 0usize;
                while let Some(off) = line.get(from..).and_then(|s| s.find(ty)) {
                    let at = from + off;
                    from = at + ty.len();
                    if let Some(name) = bound_name(&line[..at]) {
                        if !names.contains(&name) {
                            names.push(name);
                        }
                    }
                }
            }
        }
        if names.is_empty() {
            return;
        }
        // A tracked name re-bound to some *other* type elsewhere in
        // the file (a slice param shadowing a map field, say) is
        // ambiguous when used bare — for those, only dotted accesses
        // (`.name`, which can only reach the field) are flagged.
        let ambiguous: Vec<bool> = names
            .iter()
            .map(|name| {
                file.code.iter().any(|line| {
                    (token_at(line, &format!("{name}:")).is_some()
                        || token_at(line, &format!("let {name} =")).is_some()
                        || token_at(line, &format!("let mut {name} =")).is_some())
                        && !line.contains("HashMap")
                        && !line.contains("HashSet")
                })
            })
            .collect();
        for (i, line) in file.code.iter().enumerate() {
            if file.is_test(i + 1) {
                continue;
            }
            for (name, &ambig) in names.iter().zip(&ambiguous) {
                let probe = if ambig {
                    format!(".{name}")
                } else {
                    name.clone()
                };
                let hit = HASH_ITER_CALLS
                    .iter()
                    .any(|call| token_at(line, &format!("{probe}{call}")).is_some())
                    || (!ambig
                        && (token_at(line, &format!("in &{name}")).is_some()
                            || token_at(line, &format!("in &mut {name}")).is_some()
                            || token_at(line, &format!("in {name}")).is_some()))
                    || token_at(line, &format!("in &self.{name}")).is_some()
                    || token_at(line, &format!("in self.{name}")).is_some();
                if hit {
                    out.push(Finding {
                        rel: file.rel.clone(),
                        line: i + 1,
                        rule: self.name(),
                        msg: format!(
                            "iteration over hash-ordered `{name}` — use BTreeMap/sorted keys or justify with a pragma"
                        ),
                    });
                }
            }
        }
    }
}

/// Given the text left of a `HashMap`/`HashSet` token, recover the
/// name it binds or types: `let m: HashMap<…>`, `m = HashMap::new()`,
/// `field: HashMap<…>`, `fn f(m: &HashMap<…>)`.
fn bound_name(before: &str) -> Option<String> {
    let t = before.trim_end();
    let stem = if let Some(s) = t.strip_suffix('=') {
        // `name = HashMap::…`
        s.trim_end()
    } else {
        // `name: HashMap<…>`, `name: &HashMap`, `name: &mut HashMap`.
        let mut s = t;
        s = s.strip_suffix("&mut").unwrap_or(s).trim_end();
        s = s.strip_suffix('&').unwrap_or(s).trim_end();
        s.strip_suffix(':')?.trim_end()
    };
    let name: String = stem
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty()
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        || matches!(name.as_str(), "mut" | "let" | "pub" | "ref")
    {
        None
    } else {
        Some(name)
    }
}

/// (5) Panic policy: `panic!`/`todo!`/`unimplemented!`/`unreachable!`/
/// `.expect(` are banned outside test code. The suite's robustness
/// contract (DESIGN.md
/// §5) is that malformed input degrades, never aborts; a deliberate
/// contract panic carries a `fairem: allow(panic)` pragma naming the
/// documented `# Panics` invariant.
pub struct PanicRule;

impl Rule for PanicRule {
    fn name(&self) -> &'static str {
        "panic"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (i, line) in file.code.iter().enumerate() {
            if file.is_test(i + 1) {
                continue;
            }
            for tok in [
                "panic!",
                "todo!",
                "unimplemented!",
                "unreachable!",
                ".expect(",
            ] {
                if token_at(line, tok).is_some() {
                    out.push(Finding {
                        rel: file.rel.clone(),
                        line: i + 1,
                        rule: self.name(),
                        msg: format!("`{tok}` outside test code — degrade, return an error, or justify with a pragma"),
                    });
                }
            }
        }
    }
}

/// (7) Float ordering: `partial_cmp` is banned everywhere, tests
/// included. On floats it returns `None` for NaN, and every caller
/// papers over that with `unwrap_or`/`_ =>` arms whose behavior
/// depends on *which* operand was NaN — exactly the nondeterminism
/// that "Through the Fairness Lens" shows perturbing fairness
/// verdicts. `f64::total_cmp` is total, IEEE-754-ordered, and costs
/// the same; comparators must use it (or derive `Ord`). A sanctioned
/// non-float use carries a `fairem: allow(float_order)` pragma.
pub struct FloatOrderRule;

impl Rule for FloatOrderRule {
    fn name(&self) -> &'static str {
        "float_order"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (i, line) in file.code.iter().enumerate() {
            if token_at(line, "partial_cmp").is_some() {
                out.push(Finding {
                    rel: file.rel.clone(),
                    line: i + 1,
                    rule: self.name(),
                    msg: "`partial_cmp` is not a total order (NaN ⇒ None) — use `total_cmp` \
                          so sort results cannot depend on operand order"
                        .to_owned(),
                });
            }
        }
    }
}

/// (6) Unsafe hygiene: every `unsafe` is preceded (or accompanied) by
/// a `// SAFETY:` comment stating the invariant that makes it sound.
pub struct UnsafeRule;

impl Rule for UnsafeRule {
    fn name(&self) -> &'static str {
        "unsafe_comment"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (i, line) in file.code.iter().enumerate() {
            if token_at(line, "unsafe").is_none() {
                continue;
            }
            let mut ok = file.comments[i].contains("SAFETY:");
            // Walk up through contiguous comment/blank lines.
            let mut j = i;
            let mut budget = 5usize;
            while !ok && j > 0 && budget > 0 {
                j -= 1;
                budget -= 1;
                let code_blank = file.code[j].trim().is_empty();
                let comment = &file.comments[j];
                if comment.contains("SAFETY:") {
                    ok = true;
                } else if !code_blank {
                    break;
                }
            }
            if !ok {
                out.push(Finding {
                    rel: file.rel.clone(),
                    line: i + 1,
                    rule: self.name(),
                    msg: "`unsafe` without a preceding `// SAFETY:` comment".to_owned(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: &dyn Rule, rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel, src);
        let mut out = Vec::new();
        rule.check(&f, &mut out);
        out
    }

    #[test]
    fn clock_fires_outside_allowlist_only() {
        let src = "use std::time::Instant;\n";
        assert_eq!(run(&ClockRule, "crates/core/src/audit.rs", src).len(), 1);
        assert!(run(&ClockRule, "crates/par/src/pool.rs", src).is_empty());
        assert!(run(&ClockRule, "crates/bench/src/crit.rs", src).is_empty());
    }

    #[test]
    fn clock_allows_duration() {
        assert!(run(
            &ClockRule,
            "crates/core/src/audit.rs",
            "use std::time::Duration;\n"
        )
        .is_empty());
    }

    #[test]
    fn clock_skips_strings_comments_and_tests() {
        let src = "// Instant is banned here\nlet s = \"Instant\";\n#[cfg(test)]\nmod t { use std::time::Instant; }\n";
        assert!(run(&ClockRule, "crates/core/src/audit.rs", src).is_empty());
    }

    #[test]
    fn fs_fires_outside_allowlist_only() {
        let src = "let raw = std::fs::read_to_string(path)?;\n";
        assert_eq!(run(&FsRule, "crates/core/src/pipeline.rs", src).len(), 1);
        assert!(run(&FsRule, "crates/core/src/ckpt.rs", src).is_empty());
        assert!(run(&FsRule, "crates/csvio/src/csv.rs", src).is_empty());
        assert!(run(&FsRule, "src/cli.rs", src).is_empty());
        assert!(run(&FsRule, "crates/lint/src/driver.rs", src).is_empty());
        // …but the linter's own fixtures are NOT allowlisted.
        assert_eq!(
            run(&FsRule, "crates/lint/tests/fixtures/fs_violation.rs", src).len(),
            1
        );
    }

    #[test]
    fn fs_counts_one_strike_per_line_and_exempts_tests() {
        // `std::fs` and `fs::` both match this line; one finding.
        let src = "use std::fs;\nfn f() { fs::remove_file(p)?; }\n";
        assert_eq!(run(&FsRule, "crates/ml/src/tree.rs", src).len(), 2);
        let test_src = "#[cfg(test)]\nmod t { use std::fs; }\n";
        assert!(run(&FsRule, "crates/ml/src/tree.rs", test_src).is_empty());
        // Unrelated identifiers do not trip the token matcher.
        let clean = "let offs = offsets();\nlet x = self.fs_like;\n";
        assert!(run(&FsRule, "crates/ml/src/tree.rs", clean).is_empty());
    }

    #[test]
    fn thread_fires_outside_par() {
        let src = "std::thread::spawn(|| {});\n";
        assert_eq!(
            run(&ThreadRule, "crates/core/src/pipeline.rs", src).len(),
            1
        );
        assert!(run(&ThreadRule, "crates/par/src/pool.rs", src).is_empty());
    }

    #[test]
    fn rng_fires_even_in_tests_dir() {
        let src = "use rand::thread_rng;\n";
        let hits = run(&RngRule, "crates/core/tests/x.rs", src);
        assert!(!hits.is_empty());
    }

    #[test]
    fn rng_does_not_fire_on_fairem_rng() {
        let src = "use fairem_rng::Rng;\nlet x = fairem_rng::rngs::StdRng::seed_from_u64(1);\n";
        assert!(run(&RngRule, "crates/core/src/matcher.rs", src).is_empty());
    }

    #[test]
    fn hash_iter_tracks_let_bindings() {
        let src = "let mut m: HashMap<String, usize> = HashMap::new();\nfor (k, v) in &m { }\nlet ks: Vec<_> = m.keys().collect();\n";
        let hits = run(&HashIterRule, "crates/core/src/report.rs", src);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 3);
    }

    #[test]
    fn hash_iter_tracks_fields_and_params() {
        let src = "struct S { counts: HashMap<String, usize> }\nfn f(seen: &HashSet<u32>) {\n    for s in seen.iter() { }\n    let c = counts.values().sum();\n}\n";
        let hits = run(&HashIterRule, "crates/core/src/report.rs", src);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn hash_iter_allows_lookup_only_use() {
        let src = "let m: HashMap<String, usize> = HashMap::new();\nlet v = m.get(\"k\");\nif m.contains_key(\"k\") { }\n";
        assert!(run(&HashIterRule, "crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_exempts_tests() {
        let src = "fn live() { x.expect(\"boom\"); }\n#[cfg(test)]\nmod t { fn u() { panic!(\"fine\"); } }\n";
        let hits = run(&PanicRule, "crates/ml/src/tree.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn panic_rule_ignores_expect_err() {
        let src = "let e = r.expect_err;\n";
        assert!(run(&PanicRule, "crates/ml/src/tree.rs", src).is_empty());
    }

    #[test]
    fn float_order_fires_on_partial_cmp_even_in_tests() {
        let src = "fn rank(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n#[cfg(test)]\nmod t {\n    fn u(a: f64, b: f64) { let _ = a.partial_cmp(&b); }\n}\n";
        let hits = run(&FloatOrderRule, "crates/stats/src/desc.rs", src);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn float_order_allows_total_cmp() {
        let src = "fn rank(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.total_cmp(b));\n}\n";
        assert!(run(&FloatOrderRule, "crates/stats/src/desc.rs", src).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        assert_eq!(run(&UnsafeRule, "src/cli.rs", bad).len(), 1);
        let good = "// SAFETY: handler only performs an atomic store.\nunsafe { g() }\n";
        assert!(run(&UnsafeRule, "src/cli.rs", good).is_empty());
        let word = "// no job-queue lifetime unsafety here\nfn f() {}\n";
        assert!(run(&UnsafeRule, "crates/par/src/pool.rs", word).is_empty());
    }
}
