//! The item-graph layer: a lightweight per-file parser over the
//! byte-aligned code/text projections, producing an [`ItemIndex`] the
//! cross-file rules query.
//!
//! This is deliberately not a Rust parser. It recovers exactly the
//! item shapes the semantic rules need — `fn` spans, struct fields
//! holding `Mutex`/`RwLock`, lock acquisition order inside each
//! function, recorder call sites with their string-literal arguments,
//! `enum` variant lists, `const &str` declarations, `Upper::Upper`
//! path references, and `_ =>` wildcard arms — and nothing more.
//! `impl` headers and `use` declarations are skipped whole. Everything
//! works on the masked projections, so a `fn` inside a doc comment or
//! a metric name inside a test string can never confuse it.

use crate::source::SourceFile;

/// A function item with its 1-based line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    pub line: usize,
    pub end_line: usize,
}

/// A binding or struct field typed `Mutex<…>` / `RwLock<…>` (possibly
/// behind `Arc<…>` / `&`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockField {
    pub name: String,
    pub line: usize,
}

/// One nested lock acquisition observed inside a function: `then` was
/// acquired while a guard on `first` was still live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub first: String,
    pub then: String,
    pub line: usize,
    pub is_test: bool,
}

/// A recorder call site (`.incr(/.add(/.gauge(/.observe(/.time(/.span(`
/// on a recorder-shaped receiver, or `.bump(` carrying a string
/// literal (the serve counter helper; literal-free `bump` calls are
/// unrelated methods and not recorded). `name` is the string-literal
/// metric name, or `None` when the name argument is not a literal —
/// itself a finding under `metrics_registry`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricCall {
    pub method: String,
    pub name: Option<String>,
    pub line: usize,
    pub is_test: bool,
}

/// An `enum` with its variant names and declaration lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumItem {
    pub name: String,
    pub line: usize,
    pub variants: Vec<(String, usize)>,
}

/// A `const NAME: &str = "value";` declaration — the shape the
/// metric-name registry in `crates/obs/src/names.rs` is made of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrConst {
    pub name: String,
    pub value: String,
    pub line: usize,
}

/// An `Upper::Upper` path reference (`SuiteError::TimedOut`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRef {
    pub base: String,
    pub name: String,
    pub line: usize,
}

/// Everything the cross-file rules can ask about one file.
#[derive(Debug, Default)]
pub struct ItemIndex {
    pub fns: Vec<FnItem>,
    pub lock_fields: Vec<LockField>,
    pub lock_edges: Vec<LockEdge>,
    pub metric_calls: Vec<MetricCall>,
    pub enums: Vec<EnumItem>,
    pub str_consts: Vec<StrConst>,
    pub path_refs: Vec<PathRef>,
    /// `(line, is_test)` of every `_ =>` wildcard match arm.
    pub wildcards: Vec<(usize, bool)>,
}

fn is_ident(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Read the identifier ending at `end` (exclusive), scanning backward.
fn ident_before(b: &[u8], end: usize) -> Option<(usize, String)> {
    let mut start = end;
    while start > 0 && is_ident(b[start - 1]) {
        start -= 1;
    }
    if start == end || b[start].is_ascii_digit() {
        return None;
    }
    Some((start, String::from_utf8_lossy(&b[start..end]).into_owned()))
}

/// Read the identifier starting at `start`.
fn ident_at(b: &[u8], start: usize) -> Option<(usize, String)> {
    let mut end = start;
    while end < b.len() && is_ident(b[end]) {
        end += 1;
    }
    if end == start || b[start].is_ascii_digit() {
        return None;
    }
    Some((end, String::from_utf8_lossy(&b[start..end]).into_owned()))
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

fn skip_ws_back(b: &[u8], mut i: usize) -> usize {
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    i
}

/// `pat` occurs at `at` with identifier boundaries on both sides.
fn token_boundary(b: &[u8], at: usize, len: usize) -> bool {
    (at == 0 || !is_ident(b[at - 1])) && (at + len >= b.len() || !is_ident(b[at + len]))
}

/// The index of the first byte at or after `from` that is one of
/// `stops`, or the end of input.
fn skip_to(b: &[u8], from: usize, stops: &[u8]) -> usize {
    let mut j = from;
    while j < b.len() && !stops.contains(&b[j]) {
        j += 1;
    }
    j
}

/// Find the matching close brace for the open brace at `open`.
fn match_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len().saturating_sub(1)
}

/// Find the matching `)` for the `(` at `open`, or the end of input.
fn match_paren(b: &[u8], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len().saturating_sub(1)
}

/// The receiver identifier of a method call whose `.` sits at `dot`:
/// the trailing path segment, with one level of `()` stripped so
/// `pool.recorder().span(…)` resolves to `recorder`.
fn receiver_ident(b: &[u8], dot: usize) -> Option<String> {
    let mut i = skip_ws_back(b, dot);
    if i > 0 && b[i - 1] == b')' {
        // Walk back across the call's argument list.
        let close = i - 1;
        let mut depth = 0i32;
        let mut j = close;
        loop {
            match b[j] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        i = skip_ws_back(b, j);
    }
    ident_before(b, i).map(|(_, name)| name)
}

impl ItemIndex {
    pub fn parse(file: &SourceFile) -> ItemIndex {
        let mut idx = ItemIndex::default();
        let b = file.flat_code.as_bytes();
        let t = file.flat_text.as_bytes();

        idx.scan_items(file, b, t);
        idx.scan_line_shapes(file);
        idx
    }

    /// One linear pass over the flat code bytes for everything that
    /// needs offsets: fns (with lock-order scans of their bodies),
    /// enums, consts, metric calls, path refs, wildcards (skipping
    /// `impl` headers and `use` declarations).
    fn scan_items(&mut self, file: &SourceFile, b: &[u8], t: &[u8]) {
        let mut i = 0usize;
        while i < b.len() {
            let c = b[i];
            if c == b'f' && b[i..].starts_with(b"fn") && token_boundary(b, i, 2) {
                i = self.take_fn(file, b, i);
                continue;
            }
            // `impl` headers and `use` paths are skipped whole, so
            // nothing in them is read as an item or a path reference.
            if c == b'i' && b[i..].starts_with(b"impl") && token_boundary(b, i, 4) {
                i = skip_to(b, i + 4, b"{;");
                continue;
            }
            if c == b'u' && b[i..].starts_with(b"use") && token_boundary(b, i, 3) {
                i = skip_to(b, i + 3, b";");
                continue;
            }
            if c == b'e' && b[i..].starts_with(b"enum") && token_boundary(b, i, 4) {
                i = self.take_enum(file, b, i);
                continue;
            }
            if c == b'c' && b[i..].starts_with(b"const") && token_boundary(b, i, 5) {
                i = self.take_const(file, b, t, i);
                continue;
            }
            if c == b'.' {
                if let Some(next) = self.take_metric_call(file, b, t, i) {
                    i = next;
                    continue;
                }
            }
            if c == b':' && i + 1 < b.len() && b[i + 1] == b':' {
                self.take_path_ref(file, b, i);
                i += 2;
                continue;
            }
            if c == b'_'
                && token_boundary(b, i, 1)
                && b.get(skip_ws(b, i + 1)) == Some(&b'=')
                && b.get(skip_ws(b, i + 1) + 1) == Some(&b'>')
            {
                let line = file.line_of(i);
                self.wildcards.push((line, file.is_test(line)));
            }
            i += 1;
        }
    }

    /// Per-line shapes: struct fields / bindings typed `Mutex<…>` or
    /// `RwLock<…>`. The field name is the identifier before the
    /// nearest single `:` left of the type token (`::` path separators
    /// are skipped, so `b: std::sync::RwLock<…>` resolves to `b`).
    fn scan_line_shapes(&mut self, file: &SourceFile) {
        for (i, line) in file.code.iter().enumerate() {
            let lb = line.as_bytes();
            for ty in ["Mutex<", "RwLock<"] {
                let mut from = 0usize;
                while let Some(off) = line.get(from..).and_then(|s| s.find(ty)) {
                    let at = from + off;
                    from = at + ty.len();
                    if at > 0 && is_ident(lb[at - 1]) {
                        continue;
                    }
                    let mut colon = None;
                    for j in (0..at).rev() {
                        if lb[j] == b':' {
                            if (j > 0 && lb[j - 1] == b':') || lb.get(j + 1) == Some(&b':') {
                                continue;
                            }
                            colon = Some(j);
                            break;
                        }
                    }
                    let Some(cj) = colon else {
                        continue;
                    };
                    let end = skip_ws_back(lb, cj);
                    if let Some((_, name)) = ident_before(lb, end) {
                        if !matches!(name.as_str(), "mut" | "let" | "pub") {
                            self.lock_fields.push(LockField { name, line: i + 1 });
                        }
                    }
                }
            }
        }
    }

    /// `fn name(args) -> T { body }` — record the span and scan the
    /// body for nested lock acquisitions. Returns the offset to resume
    /// the outer scan at: just past the signature, so items *inside*
    /// the body (nested calls, path refs) are still seen by the outer
    /// loop; only the fn item itself is consumed.
    fn take_fn(&mut self, file: &SourceFile, b: &[u8], at: usize) -> usize {
        let mut i = skip_ws(b, at + 2);
        let Some((after, name)) = ident_at(b, i) else {
            return at + 2;
        };
        i = skip_ws(b, after);
        // Skip generics: `fn f<T: Trait>(…)`.
        if b.get(i) == Some(&b'<') {
            let mut depth = 0i32;
            while i < b.len() {
                match b[i] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            i = skip_ws(b, i);
        }
        if b.get(i) != Some(&b'(') {
            return at + 2;
        }
        let args_close = match_paren(b, i);
        // Walk to the body `{` or a declaration-only `;`.
        let mut j = args_close + 1;
        while j < b.len() && b[j] != b'{' && b[j] != b';' {
            j += 1;
        }
        let line = file.line_of(at);
        if j >= b.len() || b[j] == b';' {
            self.fns.push(FnItem {
                name,
                line,
                end_line: line,
            });
            return args_close + 1;
        }
        let close = match_brace(b, j);
        self.fns.push(FnItem {
            name,
            line,
            end_line: file.line_of(close),
        });
        self.scan_locks(file, b, j, close);
        args_close + 1
    }

    /// `enum Name { Variant, Variant { … }, Variant(…) }` — variants
    /// are the uppercase-initial identifiers at nesting depth 1.
    fn take_enum(&mut self, file: &SourceFile, b: &[u8], at: usize) -> usize {
        let i = skip_ws(b, at + 4);
        let Some((after, name)) = ident_at(b, i) else {
            return at + 4;
        };
        let mut j = after;
        while j < b.len() && b[j] != b'{' && b[j] != b';' {
            j += 1;
        }
        if j >= b.len() || b[j] == b';' {
            return j;
        }
        let close = match_brace(b, j);
        let mut variants: Vec<(String, usize)> = Vec::new();
        let mut depth = 0i32;
        let mut expect_variant = true;
        let mut k = j;
        while k <= close && k < b.len() {
            match b[k] {
                b'{' | b'(' | b'[' | b'<' => {
                    depth += 1;
                    k += 1;
                }
                b'}' | b')' | b']' | b'>' => {
                    depth -= 1;
                    k += 1;
                }
                b',' if depth == 1 => {
                    expect_variant = true;
                    k += 1;
                }
                c if depth == 1 && expect_variant && is_ident(c) => {
                    if let Some((end, ident)) = ident_at(b, k) {
                        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                            variants.push((ident, file.line_of(k)));
                            expect_variant = false;
                        }
                        k = end;
                    } else {
                        k += 1;
                    }
                }
                _ => {
                    k += 1;
                }
            }
        }
        self.enums.push(EnumItem {
            name,
            line: file.line_of(at),
            variants,
        });
        close + 1
    }

    /// `const NAME: &str = "value";` — the registry declaration shape.
    /// Anything else (`const N: usize`, slices) is skipped.
    fn take_const(&mut self, file: &SourceFile, b: &[u8], t: &[u8], at: usize) -> usize {
        let i = skip_ws(b, at + 5);
        let Some((after, name)) = ident_at(b, i) else {
            return at + 5;
        };
        let mut j = skip_ws(b, after);
        if b.get(j) != Some(&b':') {
            return after;
        }
        // Type text up to `=`.
        let ty_start = j + 1;
        while j < b.len() && b[j] != b'=' && b[j] != b';' {
            j += 1;
        }
        if j >= b.len() || b[j] == b';' {
            return j;
        }
        let ty = String::from_utf8_lossy(&b[ty_start..j]).into_owned();
        let ty: String = ty.split_whitespace().collect::<String>();
        if ty != "&str" && ty != "&'staticstr" {
            return after;
        }
        // The value literal lives in the text projection.
        let mut k = j + 1;
        while k < b.len() && b[k] != b';' {
            k += 1;
        }
        if let Some(value) = literal_in(t, j + 1, k) {
            self.str_consts.push(StrConst {
                name,
                value,
                line: file.line_of(at),
            });
        }
        k
    }

    /// A recorder call site. Returns the resume offset past the method
    /// name when this `.` started one, else `None`.
    fn take_metric_call(
        &mut self,
        file: &SourceFile,
        b: &[u8],
        t: &[u8],
        dot: usize,
    ) -> Option<usize> {
        let m = skip_ws(b, dot + 1);
        let (after, method) = ident_at(b, m)?;
        const METHODS: &[&str] = &["incr", "add", "gauge", "observe", "time", "span", "bump"];
        if !METHODS.contains(&method.as_str()) {
            return None;
        }
        let p = skip_ws(b, after);
        if b.get(p) != Some(&b'(') {
            return None;
        }
        let recv = receiver_ident(b, dot)?;
        // `bump(&stats.field, "name")` is the serve helper and may hang
        // off any receiver; the recorder methods only count on a
        // recorder-shaped one, so `store.add(…)` or `set.insert` peers
        // never trip the rule.
        let recorder_shaped = matches!(recv.as_str(), "recorder" | "rec" | "obs" | "observe");
        if method != "bump" && !recorder_shaped {
            return None;
        }
        let close = match_paren(b, p);
        let name = if method == "bump" {
            // The name is the first string literal anywhere in the args.
            // `bump` with no literal at all is some other method that
            // happens to share the name (e.g. a parser cursor advance),
            // not the serve counter helper — skip, don't flag.
            match literal_in(t, p + 1, close) {
                Some(lit) => Some(lit),
                None => return Some(after),
            }
        } else {
            // The name must be the literal *first argument*.
            let mut end = p + 1;
            let mut depth = 0i32;
            while end < close {
                match b[end] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            let code_arg = String::from_utf8_lossy(&b[p + 1..end]);
            if code_arg.trim().is_empty() {
                literal_in(t, p + 1, end)
            } else {
                None
            }
        };
        let line = file.line_of(dot);
        self.metric_calls.push(MetricCall {
            method,
            name,
            line,
            is_test: file.is_test(line),
        });
        Some(after)
    }

    fn take_path_ref(&mut self, file: &SourceFile, b: &[u8], colon: usize) {
        let base_end = skip_ws_back(b, colon);
        let Some((base_start, base)) = ident_before(b, base_end) else {
            return;
        };
        // `::foo` with a further `::` to the left is a nested path
        // (`std::sync::Mutex`) — the base segment still resolves, which
        // is fine: only uppercase-initial pairs are recorded.
        let name_start = skip_ws(b, colon + 2);
        let Some((_, name)) = ident_at(b, name_start) else {
            return;
        };
        let upper = |s: &str| s.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if upper(&base) && upper(&name) {
            self.path_refs.push(PathRef {
                base,
                name,
                line: file.line_of(base_start),
            });
        }
    }

    /// Forward scan of one fn body for lock acquisitions, tracking
    /// guard liveness to record nested-hold edges. Heuristic, but
    /// faithful to the idioms the workspace actually uses: named
    /// guards die at scope exit or `drop(name)`; `if let`/`match`
    /// guards die when their block closes; temporaries die at the end
    /// of their statement.
    fn scan_locks(&mut self, file: &SourceFile, b: &[u8], open: usize, close: usize) {
        struct Guard {
            lock: String,
            binding: Option<String>,
            /// Dies when brace depth drops below this.
            scope_depth: i32,
            /// Temporaries additionally die at this offset.
            dies_at: Option<usize>,
        }
        let mut live: Vec<Guard> = Vec::new();
        let mut depth = 1i32;
        let mut stmt_start = open + 1;
        let mut i = open + 1;
        while i < close {
            match b[i] {
                b'{' => {
                    depth += 1;
                    stmt_start = i + 1;
                }
                b'}' => {
                    depth -= 1;
                    live.retain(|g| g.scope_depth <= depth);
                    stmt_start = i + 1;
                }
                b';' => {
                    live.retain(|g| g.dies_at.map(|d| d > i).unwrap_or(true));
                    stmt_start = i + 1;
                }
                b'.' => {
                    if let Some((lock, after)) = acquisition_at(b, i) {
                        live.retain(|g| g.dies_at.map(|d| d > i).unwrap_or(true));
                        let line = file.line_of(i);
                        for g in &live {
                            self.lock_edges.push(LockEdge {
                                first: g.lock.clone(),
                                then: lock.clone(),
                                line,
                                is_test: file.is_test(line),
                            });
                        }
                        let stmt = String::from_utf8_lossy(&b[stmt_start..i]);
                        let named = stmt_token(&stmt, "let");
                        // Where does this statement end — `;` (plain
                        // binding / temporary) or `{` (an `if let` /
                        // `match` whose guard lives for the block)?
                        let mut j = after;
                        let mut pdepth = 0i32;
                        let mut ends_in_block = false;
                        while j < close {
                            match b[j] {
                                b'(' | b'[' => pdepth += 1,
                                b')' | b']' => pdepth -= 1,
                                b';' if pdepth == 0 => break,
                                b'{' if pdepth == 0 => {
                                    ends_in_block = true;
                                    break;
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        let guard = if ends_in_block {
                            Guard {
                                lock,
                                binding: None,
                                scope_depth: depth + 1,
                                dies_at: None,
                            }
                        } else if named {
                            Guard {
                                lock,
                                binding: binding_name(&stmt),
                                scope_depth: depth,
                                dies_at: None,
                            }
                        } else {
                            Guard {
                                lock,
                                binding: None,
                                scope_depth: depth,
                                dies_at: Some(j),
                            }
                        };
                        live.push(guard);
                        i = after;
                        continue;
                    }
                }
                b'd' if b[i..].starts_with(b"drop") && token_boundary(b, i, 4) => {
                    let p = skip_ws(b, i + 4);
                    if b.get(p) == Some(&b'(') {
                        let close_p = match_paren(b, p);
                        let arg = String::from_utf8_lossy(&b[p + 1..close_p]);
                        let arg = arg.trim();
                        let dropped: String = arg
                            .rsplit('.')
                            .next()
                            .unwrap_or(arg)
                            .trim()
                            .to_owned();
                        live.retain(|g| {
                            g.binding.as_deref() != Some(arg)
                                && g.binding.as_deref() != Some(dropped.as_str())
                        });
                        i = close_p + 1;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// `.lock()` / `.read()` / `.write()` with **empty** argument lists —
/// empty is what distinguishes lock acquisition from `io::Read::read`
/// and `io::Write::write`, which always take a buffer. Returns the
/// lock name (receiver tail identifier) and the offset past `()`.
fn acquisition_at(b: &[u8], dot: usize) -> Option<(String, usize)> {
    let m = skip_ws(b, dot + 1);
    let (after, method) = ident_at(b, m)?;
    if !matches!(method.as_str(), "lock" | "read" | "write") {
        return None;
    }
    let p = skip_ws(b, after);
    if b.get(p) != Some(&b'(') {
        return None;
    }
    let close = match_paren(b, p);
    if !b[p + 1..close].iter().all(|c| c.is_ascii_whitespace()) {
        return None;
    }
    let recv = receiver_ident(b, dot)?;
    Some((recv, close + 1))
}

/// Whole-word search for `word` in `text`.
fn stmt_token(text: &str, word: &str) -> bool {
    let b = text.as_bytes();
    let mut from = 0usize;
    while let Some(off) = text.get(from..).and_then(|s| s.find(word)) {
        let at = from + off;
        let pre = at == 0 || !is_ident(b[at - 1]);
        let post = at + word.len() >= b.len() || !is_ident(b[at + word.len()]);
        if pre && post {
            return true;
        }
        from = at + 1;
    }
    false
}

/// The binding introduced by a `let` statement prefix: the first
/// identifier after `let` / `let mut`. Pattern bindings (`let Ok(g)`)
/// yield the constructor name, which never matches a `drop(…)`
/// argument — those guards die by scope instead, which is correct for
/// the `if let` shape they belong to.
fn binding_name(stmt: &str) -> Option<String> {
    let at = stmt.find("let ")?;
    let rest = stmt[at + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// The first string literal inside `[from, to)` of the text
/// projection: the content between the first pair of `"` quotes.
fn literal_in(t: &[u8], from: usize, to: usize) -> Option<String> {
    let to = to.min(t.len());
    if from >= to {
        return None;
    }
    let open = (from..to).find(|&i| t[i] == b'"')?;
    let close = (open + 1..to).find(|&i| t[i] == b'"')?;
    Some(String::from_utf8_lossy(&t[open + 1..close]).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> ItemIndex {
        ItemIndex::parse(&SourceFile::parse("crates/x/src/lib.rs", src))
    }

    #[test]
    fn fns_are_indexed_with_spans() {
        let src = "use std::sync::Mutex;\n\
                   impl Widget {\n    fn poke<T: Clone>(&self, x: T) -> u32 {\n        1\n    }\n}\n\
                   fn free() {}\n";
        let idx = index(src);
        let poke = idx.fns.iter().find(|f| f.name == "poke").unwrap();
        assert_eq!((poke.line, poke.end_line), (3, 5));
        assert!(idx.fns.iter().any(|f| f.name == "free"));
    }

    #[test]
    fn lock_fields_and_nested_acquisitions() {
        let src = "struct S { a: Mutex<u32>, b: std::sync::RwLock<u32> }\n\
                   impl S {\n\
                   fn ab(&self) {\n    let ga = self.a.lock().unwrap();\n    let gb = self.b.write().unwrap();\n    *gb += *ga;\n}\n\
                   fn sequential(&self) {\n    { let g = self.a.lock().unwrap(); drop(g); }\n    let h = self.b.read().unwrap();\n    let _ = h;\n}\n\
                   }\n";
        let idx = index(src);
        let names: Vec<&str> = idx.lock_fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(idx.lock_edges.len(), 1, "{:?}", idx.lock_edges);
        assert_eq!(idx.lock_edges[0].first, "a");
        assert_eq!(idx.lock_edges[0].then, "b");
        assert_eq!(idx.lock_edges[0].line, 5);
    }

    #[test]
    fn dropped_guard_is_not_held() {
        let src = "fn f(s: &S) {\n    let cell = s.cell.lock().unwrap();\n    drop(cell);\n    let slots = s.slots.lock().unwrap();\n    let _ = slots;\n}\n";
        let idx = index(src);
        assert!(idx.lock_edges.is_empty(), "{:?}", idx.lock_edges);
    }

    #[test]
    fn if_let_guard_dies_with_its_block() {
        let src = "fn f(s: &S) {\n    if let Ok(g) = s.a.lock() {\n        g.touch();\n    }\n    let h = s.b.lock().unwrap();\n    let _ = h;\n}\n";
        let idx = index(src);
        assert!(idx.lock_edges.is_empty(), "{:?}", idx.lock_edges);
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        let src = "fn f(mut stream: TcpStream, buf: &mut [u8]) {\n    stream.read(buf).ok();\n    stream.write(buf).ok();\n}\n";
        let idx = index(src);
        assert!(idx.lock_edges.is_empty());
    }

    #[test]
    fn metric_calls_capture_literals_and_flag_non_literals() {
        let src = "fn f(recorder: &Recorder) {\n    recorder.incr(\"import.rows\");\n    recorder.gauge(name_of(), 1.0);\n    pool.recorder().span(\"train\");\n    store.add(\"w\", 1);\n    shared.bump(&stats.hits, \"serve.accepted\");\n}\n";
        let idx = index(src);
        let got: Vec<(String, Option<String>)> = idx
            .metric_calls
            .iter()
            .map(|c| (c.method.clone(), c.name.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("incr".into(), Some("import.rows".into())),
                ("gauge".into(), None),
                ("span".into(), Some("train".into())),
                ("bump".into(), Some("serve.accepted".into())),
            ]
        );
    }

    #[test]
    fn multi_line_receiver_chain_resolves() {
        let src = "fn f(recorder: &Recorder) {\n    recorder\n        .time(\"serve.request_secs\", || step());\n}\n";
        let idx = index(src);
        assert_eq!(idx.metric_calls.len(), 1);
        assert_eq!(idx.metric_calls[0].name.as_deref(), Some("serve.request_secs"));
        assert_eq!(idx.metric_calls[0].line, 3);
    }

    #[test]
    fn enums_consts_paths_wildcards() {
        let src = "pub enum SuiteError {\n    Io { path: String },\n    Config { detail: String },\n}\n\
                   pub const NAME: &str = \"import.rows\";\n\
                   fn map(e: &SuiteError) -> i32 {\n    match e {\n        SuiteError::Io { .. } => 2,\n        SuiteError::Bogus => 3,\n        _ => 0,\n    }\n}\n";
        let idx = index(src);
        assert_eq!(idx.enums.len(), 1);
        let vars: Vec<&str> = idx.enums[0].variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, ["Io", "Config"]);
        assert_eq!(idx.str_consts.len(), 1);
        assert_eq!(idx.str_consts[0].value, "import.rows");
        assert!(idx
            .path_refs
            .iter()
            .any(|p| p.base == "SuiteError" && p.name == "Bogus"));
        assert_eq!(idx.wildcards.len(), 1);
    }

    #[test]
    fn test_code_is_marked_on_calls_and_wildcards() {
        let src = "#[cfg(test)]\nmod t {\n    fn u(rec: &Recorder) { rec.incr(\"scratch\"); }\n}\n";
        let idx = index(src);
        assert_eq!(idx.metric_calls.len(), 1);
        assert!(idx.metric_calls[0].is_test);
    }
}
