//! A minimal JSON value model, emitter, and parser — the workspace's
//! one JSON substrate.
//!
//! Report rendering *produces* JSON (machine-readable audit artifacts,
//! checkpoints, serve replies, lint findings); the parser
//! ([`Json::parse`]) reads them back (checkpoint resume, lint's
//! `--validate-json`, round-trip tests). Object key order is
//! insertion order, which keeps emitted documents deterministic.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (NaN/inf serialize as `null`, matching common
    /// practice for JSON encoders).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Push a key/value pair onto an object. Panics if `self` is not an
    /// object (construction-time misuse, not a runtime condition).
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            // fairem: allow(panic) — documented construction-time misuse contract, not a runtime condition
            _ => panic!("Json::push on non-object"),
        }
    }

    /// Parse JSON text into a value.
    ///
    /// Standard JSON with two liberties matching the emitter: duplicate
    /// object keys are kept (insertion order), and numbers are `f64`.
    /// Arrays and objects nest at most 128 levels deep; deeper input is
    /// an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            chars: text.chars().peekable(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.chars.peek().is_some() {
            return Err(JsonError {
                pos: p.pos,
                message: "trailing characters".into(),
            });
        }
        Ok(v)
    }

    /// Look up a key in an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one that `f64`
    /// holds exactly (at most 2^53).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_num()?;
        (n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n)).then_some(n as usize)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Serialize to an indented (pretty) JSON string.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Json::parse`] with the character position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 0-based character offset of the failure.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deeply [`Json::parse`] lets arrays and objects nest. Far above
/// anything the suite writes (≤ 6 levels), and far below what the
/// recursive parser needs to overflow a 2 MiB thread stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            pos: self.pos,
            message: message.into(),
        })
    }

    fn consume(&mut self, c: char) -> Result<(), JsonError> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => self.fail(format!("expected {c:?}, found {got:?}")),
            None => self.fail(format!("expected {c:?}, found end of input")),
        }
    }

    fn literal(&mut self, rest: &str, value: Json) -> Result<Json, JsonError> {
        for c in rest.chars() {
            self.consume(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.chars.peek() {
            Some('n') => {
                self.bump();
                self.literal("ull", Json::Null)
            }
            Some('t') => {
                self.bump();
                self.literal("rue", Json::Bool(true))
            }
            Some('f') => {
                self.bump();
                self.literal("alse", Json::Bool(false))
            }
            Some('"') => self.string().map(Json::Str),
            Some('[') => self.nested(Self::array),
            Some('{') => self.nested(Self::object),
            Some(c) if *c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => {
                let c = *c;
                self.fail(format!("unexpected character {c:?}"))
            }
            None => self.fail("unexpected end of input"),
        }
    }

    /// Parse one array or object a level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return self.fail(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.bump().ok_or(JsonError {
                pos: self.pos,
                message: "truncated \\u escape".into(),
            })?;
            let digit = d.to_digit(16).ok_or(JsonError {
                pos: self.pos,
                message: format!("bad hex digit {d:?}"),
            })?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    /// The character of a `\u` escape whose `\u` is consumed: a UTF-16
    /// surrogate pair decodes to one character, and a lone surrogate is
    /// an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) {
            if self.bump() != Some('\\') || self.bump() != Some('u') {
                return self.fail("lone high surrogate");
            }
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return self.fail("bad low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        // Only a lone low surrogate is not a scalar value here.
        char::from_u32(code).map_or_else(|| self.fail("lone low surrogate"), Ok)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.fail("unterminated string"),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => out.push(self.unicode_escape()?),
                    Some(other) => return self.fail(format!("bad escape \\{other}")),
                    None => return self.fail("unterminated escape"),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let mut text = String::new();
        if self.chars.peek() == Some(&'-') {
            text.push('-');
            self.bump();
        }
        while let Some(&c) = self.chars.peek() {
            if !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-')) {
                break;
            }
            text.push(c);
            self.bump();
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            pos: self.pos,
            message: format!("bad number {text:?}"),
        })
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.consume('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.consume('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.bump();
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(pairs)),
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object() {
        let j = Json::obj([
            ("name", "cn".into()),
            ("disparity", 0.418.into()),
            ("unfair", true.into()),
            ("n", Json::Num(42.0)),
            ("note", Json::Null),
        ]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"name":"cn","disparity":0.418,"unfair":true,"n":42,"note":null}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn arrays_and_nesting() {
        let j = Json::arr([Json::Num(1.0), Json::arr([]), Json::obj([])]);
        assert_eq!(j.to_string_compact(), "[1,[],{}]");
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn pretty_is_indented_and_stable() {
        let j = Json::obj([("a", Json::arr([Json::Num(1.0)]))]);
        let p = j.to_string_pretty();
        assert!(p.contains("\n  \"a\": [\n    1\n  ]\n"), "{p}");
    }

    #[test]
    fn push_builds_incrementally() {
        let mut j = Json::obj([]);
        j.push("k", Json::Bool(false));
        assert_eq!(j.to_string_compact(), r#"{"k":false}"#);
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let j = Json::obj([
            ("name", "cn".into()),
            ("disparity", 0.418.into()),
            ("unfair", true.into()),
            (
                "nested",
                Json::arr([Json::Null, Json::Num(-2.5), Json::obj([])]),
            ),
        ]);
        let back = Json::parse(&j.to_string_compact()).unwrap();
        assert_eq!(back, j);
        let back = Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let j = Json::parse(r#"{"k": "a\"b\\c\nd\u0041"}"#).unwrap();
        assert_eq!(j.get("k").unwrap().as_str().unwrap(), "a\"b\\c\ndA");
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(Json::parse("-12.5e2").unwrap().as_num().unwrap(), -1250.0);
        assert_eq!(Json::parse("0").unwrap().as_num().unwrap(), 0.0);
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = Json::parse("[1, 2").unwrap_err();
        assert!(e.message.contains("expected"), "{e}");
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert!(e.pos > 0);
        assert!(Json::parse("").is_err());
        assert!(Json::parse("true false")
            .unwrap_err()
            .message
            .contains("trailing"));
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn accessors_navigate_objects() {
        let j = Json::parse(r#"{"a": {"b": [1, "x"]}}"#).unwrap();
        let inner = j.get("a").unwrap();
        assert!(inner.get("b").is_some());
        assert!(j.get("missing").is_none());
        assert!(j.as_num().is_none());
    }

    #[test]
    fn accessors_read_integers_bools_and_arrays() {
        let j = Json::parse(r#"{"n": 42, "f": 0.5, "neg": -1, "b": true, "a": [1, 2]}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_usize), Some(42));
        assert_eq!(j.get("f").and_then(Json::as_usize), None);
        assert_eq!(j.get("neg").and_then(Json::as_usize), None);
        assert_eq!(
            j.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(j.get("n").and_then(Json::as_arr), None);
        assert_eq!(Json::Num(9_007_199_254_740_994.0).as_usize(), None);
    }

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj([
            ("format", Json::Str("fairem-lint/2".into())),
            ("n", Json::Num(42.0)),
            (
                "findings",
                Json::arr([Json::obj([
                    ("file", Json::Str("a/b.rs".into())),
                    ("ok", Json::Bool(false)),
                    ("none", Json::Null),
                ])]),
            ),
        ]);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("quote \" slash \\ nl \n tab \t ctl \u{0001} é".into());
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""é 😀""#).unwrap(), Json::Str("é 😀".into()));
        assert_eq!(
            Json::parse(r#""\u00e9 \ud83d\ude00""#).unwrap(),
            Json::Str("é 😀".into())
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
        ] {
            assert!(Json::parse(lone).is_err(), "{lone} should not parse");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"x", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn integers_render_without_exponent_noise() {
        assert_eq!(Json::Num(7.0).to_string_compact(), "7");
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
        assert_eq!(Json::Num(4e15).to_string_compact(), "4000000000000000");
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // Far past any stack: still a structured error.
        assert!(Json::parse(&nest(300_000)).is_err());
        let objects = "{\"a\":".repeat(300_000);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_on_array_panics() {
        let mut j = Json::arr([]);
        j.push("k", Json::Null);
    }
}
