//! A lexed source file plus the structural facts rules need: which
//! lines are test code, and which lines carry suppression pragmas.

use crate::lexer::{lex, mask, Class};

/// Inline suppression: `// fairem: allow(<rule>) — <why>`.
///
/// The justification text after the closing paren is mandatory — a
/// pragma without one is itself a finding (rule `pragma`), so every
/// suppression in the tree records *why* the contract is waived. A
/// pragma covers its own line and, when it stands on a comment-only
/// line, the line below it.
#[derive(Debug)]
pub struct Pragma {
    /// 1-based line the pragma appears on.
    pub line: usize,
    /// Rule name inside `allow(…)`.
    pub rule: String,
    /// Whether non-empty justification text follows the paren.
    pub justified: bool,
    /// The pragma stands on a comment-only line (no code), so it
    /// covers the line below.
    pub own_line: bool,
}

impl Pragma {
    /// True when this pragma suppresses `rule` findings on `line`.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.justified
            && self.rule == rule
            && (self.line == line || (self.own_line && self.line + 1 == line))
    }
}

/// One `.rs` file, lexed and annotated for rule scanning.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (finding prefix).
    pub rel: String,
    /// Code projection, line by line (comments/literals blanked).
    pub code: Vec<String>,
    /// Comment projection, line by line (code/literals blanked).
    pub comments: Vec<String>,
    /// Whole-file code projection, **byte-aligned with the source**:
    /// masked bytes become single spaces and newlines survive, so an
    /// offset into this string is an offset into the original file.
    /// The item parser scans this for multi-line constructs.
    pub flat_code: String,
    /// Whole-file literal-text projection, byte-aligned likewise —
    /// the item parser reads string-literal call arguments out of it
    /// at offsets discovered in `flat_code`.
    pub flat_text: String,
    /// Byte offset where each line starts in the flat projections.
    pub line_starts: Vec<usize>,
    /// Lines inside a `#[cfg(test)]` item.
    pub is_test_line: Vec<bool>,
    /// File lives under a `tests/` directory (integration tests).
    pub in_tests_dir: bool,
    /// Suppression pragmas found in comments.
    pub pragmas: Vec<Pragma>,
}

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let classes = lex(src);
        let flat_code = mask(src, &classes, Class::Code);
        let flat_text = mask(src, &classes, Class::Text);
        let comment_text = mask(src, &classes, Class::Comment);
        let code: Vec<String> = flat_code.lines().map(str::to_owned).collect();
        let comments: Vec<String> = comment_text.lines().map(str::to_owned).collect();
        let mut line_starts = vec![0usize];
        for (i, b) in flat_code.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let is_test_line = test_lines(&code);
        let pragmas = find_pragmas(&comments, &code);
        // `tests/fixtures/` holds the linter's deliberately seeded
        // violations — those files are scanned as production code so
        // each rule provably fires.
        let in_tests_dir = rel.split('/').any(|seg| seg == "tests")
            && !rel.split('/').any(|seg| seg == "fixtures");
        SourceFile {
            rel: rel.to_owned(),
            code,
            comments,
            flat_code,
            flat_text,
            line_starts,
            is_test_line,
            in_tests_dir,
            pragmas,
        }
    }

    /// 1-based line holding byte `offset` of the flat projections.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// True when line `line` (1-based) is test code: a `tests/` file
    /// or inside a `#[cfg(test)]` region.
    pub fn is_test(&self, line: usize) -> bool {
        self.in_tests_dir || self.is_test_line.get(line - 1).copied().unwrap_or(false)
    }

    /// True when a justified pragma for `rule` covers `line`.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        self.pragmas.iter().any(|p| p.covers(rule, line))
    }
}

/// Mark every line covered by a `#[cfg(test)]` item.
///
/// After the attribute, the item either opens a brace block (a `mod`,
/// `fn`, `impl` — marked to the matching close) or ends at the first
/// top-level `;` (a `use` or declaration). Parens and brackets are
/// tracked so `fn f(x: T) {` finds the body brace, not one inside the
/// signature.
fn test_lines(code: &[String]) -> Vec<bool> {
    let mut marked = vec![false; code.len()];
    // Joined byte stream with a parallel byte→line table, so offsets
    // from the scan map straight back to line numbers.
    let mut joined: Vec<u8> = Vec::new();
    let mut line_of: Vec<usize> = Vec::new();
    for (ln, l) in code.iter().enumerate() {
        joined.extend_from_slice(l.as_bytes());
        joined.push(b'\n');
        line_of.extend(std::iter::repeat_n(ln, l.len() + 1));
    }
    let needle = b"#[cfg(test)]";
    let mut attr_at = 0usize;
    while attr_at + needle.len() <= joined.len() {
        if &joined[attr_at..attr_at + needle.len()] != needle.as_slice() {
            attr_at += 1;
            continue;
        }
        let mut idx = attr_at + needle.len();
        // Walk to the item's opening `{` or terminating `;`.
        let mut depth_paren = 0i32;
        let mut start = None;
        while idx < joined.len() {
            match joined[idx] {
                b'(' | b'[' => depth_paren += 1,
                b')' | b']' => depth_paren -= 1,
                b'{' if depth_paren == 0 => {
                    start = Some(idx);
                    break;
                }
                b';' if depth_paren == 0 => break,
                _ => {}
            }
            idx += 1;
        }
        let to = match start {
            Some(open) => {
                let mut depth = 0i32;
                let mut end = joined.len().saturating_sub(1);
                let mut j = open;
                while j < joined.len() {
                    match joined[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = j;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                end
            }
            None => idx.min(joined.len().saturating_sub(1)),
        };
        let from_ln = line_of.get(attr_at).copied().unwrap_or(0);
        let to_ln = line_of
            .get(to)
            .copied()
            .unwrap_or(code.len().saturating_sub(1));
        for m in marked.iter_mut().take(to_ln + 1).skip(from_ln) {
            *m = true;
        }
        attr_at = to + 1;
    }
    marked
}

/// Extract `fairem: allow(<rule>)` pragmas from comment lines.
fn find_pragmas(comments: &[String], code: &[String]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (ln, line) in comments.iter().enumerate() {
        let Some(at) = line.find("fairem: allow(") else {
            continue;
        };
        // A pragma starts the comment; prose *about* the pragma
        // syntax (doc comments quoting `fairem: allow(...)`) has
        // words before the marker and is not a suppression.
        if !line[..at]
            .trim_start()
            .trim_start_matches(['/', '!', '*'])
            .trim()
            .is_empty()
        {
            continue;
        }
        let rest = &line[at + "fairem: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_owned();
        // Prose about the pragma syntax (`allow(<rule>)`) is not a
        // pragma; only identifier-shaped contents count. A typo'd but
        // identifier-shaped rule name still surfaces as a `pragma`
        // finding downstream.
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
            continue;
        }
        let tail = rest[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':');
        let own_line = code.get(ln).map(|l| l.trim().is_empty()).unwrap_or(true);
        out.push(Pragma {
            line: ln + 1,
            rule,
            justified: !tail.trim().is_empty(),
            own_line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.expect(\"\"); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test(1));
        assert!(f.is_test(2));
        assert!(f.is_test(4));
        assert!(!f.is_test(6));
    }

    #[test]
    fn cfg_test_single_fn_only_covers_its_body() {
        let src = "#[cfg(test)]\nfn helper(a: usize) {\n    body();\n}\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_test(3));
        assert!(!f.is_test(5));
    }

    #[test]
    fn cfg_test_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse crate::thing;\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_test(2));
        assert!(!f.is_test(3));
    }

    #[test]
    fn tests_dir_exempts_whole_file_but_fixtures_do_not() {
        let t = SourceFile::parse("crates/par/tests/pool_api.rs", "fn f() {}\n");
        assert!(t.in_tests_dir);
        let fx = SourceFile::parse("crates/lint/tests/fixtures/panic.rs", "fn f() {}\n");
        assert!(!fx.in_tests_dir);
    }

    #[test]
    fn pragma_requires_justification() {
        let src = "x(); // fairem: allow(panic) — documented # Panics contract\ny(); // fairem: allow(panic)\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.suppressed("panic", 1));
        assert!(!f.suppressed("panic", 2));
        assert_eq!(f.pragmas.len(), 2);
        assert!(f.pragmas[0].justified);
        assert!(!f.pragmas[1].justified);
    }

    #[test]
    fn own_line_pragma_covers_the_next_line() {
        let src = "// fairem: allow(hash_iter) — keys sorted below\nfor k in m.keys() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.suppressed("hash_iter", 2));
        assert!(!f.suppressed("hash_iter", 3));
    }

    #[test]
    fn pragma_in_string_literal_is_not_a_pragma() {
        let src = "let s = \"fairem: allow(panic) — nope\";\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.pragmas.is_empty());
    }
}
