//! Completed span records and the deterministic tree renderer.
//!
//! Spans are collected into shared storage as they close, from whatever
//! thread ran them; parent links are explicit ids, never thread-local
//! guesses, so a span opened on the main thread and children opened on
//! pool workers stitch into one tree. Rendering orders siblings by
//! `(name, id)` — the same tree for any worker count, mirroring the
//! pool's chunk-index stitching (timings vary; structure does not).

/// Identifier of a live or completed span (unique within one recorder).
pub type SpanId = u64;

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// Ran to completion.
    Ok,
    /// Cut cooperatively by a budget expiry or cancellation — the span
    /// a `fairem-par` `Interrupt` record points at.
    Cut,
    /// Ended by an escaped (contained) panic.
    Panicked,
}

impl SpanStatus {
    /// Stable lowercase label used in snapshots and trace output.
    pub fn label(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Cut => "cut",
            SpanStatus::Panicked => "panicked",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the recorder.
    pub id: SpanId,
    /// Parent span id, if any.
    pub parent: Option<SpanId>,
    /// Span name (e.g. `"train.DTMatcher"`).
    pub name: String,
    /// Wall-clock duration in seconds.
    pub secs: f64,
    /// How the span ended.
    pub status: SpanStatus,
    /// Free-form annotation (e.g. an interrupt's elapsed/progress text).
    pub note: Option<String>,
}

/// Render completed spans as an indented tree, siblings ordered by
/// `(name, id)` so the structure is identical for any worker count.
/// Orphans (a parent that never closed, e.g. cut mid-flight) render as
/// roots.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    let known: std::collections::HashSet<SpanId> = spans.iter().map(|s| s.id).collect();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    let mut children: std::collections::HashMap<SpanId, Vec<&SpanRecord>> =
        std::collections::HashMap::new();
    for s in spans {
        match s.parent {
            Some(p) if known.contains(&p) => children.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }
    let order =
        |v: &mut Vec<&SpanRecord>| v.sort_by(|a, b| a.name.cmp(&b.name).then(a.id.cmp(&b.id)));
    order(&mut roots);
    for v in children.values_mut() {
        order(v);
    }
    fn emit(
        s: &SpanRecord,
        depth: usize,
        children: &std::collections::HashMap<SpanId, Vec<&SpanRecord>>,
        out: &mut String,
    ) {
        let indent = "  ".repeat(depth);
        let status = match s.status {
            SpanStatus::Ok => String::new(),
            other => format!("  [{}]", other.label()),
        };
        let note = s
            .note
            .as_deref()
            .map(|n| format!("  ({n})"))
            .unwrap_or_default();
        out.push_str(&format!(
            "{indent}{:<w$} {:>10.3}ms{status}{note}\n",
            s.name,
            s.secs * 1e3,
            w = 28usize.saturating_sub(indent.len()),
        ));
        for c in children.get(&s.id).into_iter().flatten() {
            emit(c, depth + 1, children, out);
        }
    }
    for r in &roots {
        emit(r, 0, &children, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            secs: 0.001 * id as f64,
            status: SpanStatus::Ok,
            note: None,
        }
    }

    #[test]
    fn tree_orders_siblings_by_name_not_id() {
        let spans = vec![
            span(1, None, "train"),
            span(3, Some(1), "train.b"),
            span(2, Some(1), "train.a"),
        ];
        let t = render_tree(&spans);
        let a = t.find("train.a").expect("a rendered");
        let b = t.find("train.b").expect("b rendered");
        assert!(a < b, "{t}");
    }

    #[test]
    fn orphaned_children_render_as_roots() {
        let spans = vec![span(5, Some(99), "stranded")];
        let t = render_tree(&spans);
        assert!(t.starts_with("stranded"), "{t}");
    }

    #[test]
    fn statuses_and_notes_are_rendered() {
        let mut s = span(1, None, "score");
        s.status = SpanStatus::Cut;
        s.note = Some("timed out after 1s".into());
        let t = render_tree(&[s]);
        assert!(t.contains("[cut]"), "{t}");
        assert!(t.contains("(timed out after 1s)"), "{t}");
    }
}
