//! Point-in-time snapshot of a recorder, with hand-rolled JSON
//! emission (the crate stays dependency-free; consumers validate with
//! `fairem-csvio`'s parser or any external tool).
//!
//! Snapshot schema (`schema` field pins the version):
//!
//! ```json
//! {
//!   "schema": "fairem-obs/1",
//!   "counters": {"name": 3},
//!   "gauges": {"name": 12.0},
//!   "histograms": {"name": {"count": 2, "sum": ..., "mean": ...,
//!                            "min": ..., "max": ...,
//!                            "p50": ..., "p95": ..., "p99": ...}},
//!   "spans": [{"id": 0, "parent": null, "name": "train",
//!              "secs": 0.012, "status": "ok", "note": null}]
//! }
//! ```
//!
//! Non-finite numbers serialize as `null` (JSON has no NaN).

use crate::metrics::HistogramSummary;
use crate::span::{render_tree, SpanRecord};

/// Everything a recorder has seen, frozen. Maps are name-sorted and
/// spans id-sorted, so two snapshots of equal state serialize equally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last write wins), name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Completed spans, id-sorted.
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Total seconds across all completed spans with this exact name.
    pub fn span_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs)
            .sum()
    }

    /// Per-stage totals: root spans (no parent) aggregated by name, in
    /// first-seen (id) order — the per-stage wall-time table benches and
    /// the check gate print.
    pub fn stage_totals(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            if !totals.contains_key(&s.name) {
                order.push(s.name.clone());
            }
            *totals.entry(s.name.clone()).or_insert(0.0) += s.secs;
        }
        order
            .into_iter()
            .map(|n| {
                let t = totals.get(&n).copied().unwrap_or(0.0);
                (n, t)
            })
            .collect()
    }

    /// The span tree, rendered for `--trace` output (see
    /// [`render_tree`]).
    pub fn render_spans(&self) -> String {
        render_tree(&self.spans)
    }

    /// Serialize to the `fairem-obs/1` JSON schema (pretty-printed,
    /// stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fairem-obs/1\",\n");
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            push_sep(&mut out, i, 4);
            out.push_str(&format!("{}: {v}", quote(k)));
        }
        close_obj(&mut out, self.counters.is_empty(), 2);
        out.push_str(",\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            push_sep(&mut out, i, 4);
            out.push_str(&format!("{}: {}", quote(k), num(*v)));
        }
        close_obj(&mut out, self.gauges.is_empty(), 2);
        out.push_str(",\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            push_sep(&mut out, i, 4);
            out.push_str(&format!(
                "{}: {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                quote(k),
                h.count,
                num(h.sum),
                num(h.mean),
                num(h.min),
                num(h.max),
                num(h.p50),
                num(h.p95),
                num(h.p99),
            ));
        }
        close_obj(&mut out, self.histograms.is_empty(), 2);
        out.push_str(",\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            push_sep(&mut out, i, 4);
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let note = s.note.as_deref().map_or_else(|| "null".to_owned(), quote);
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"secs\": {}, \"status\": {}, \"note\": {note}}}",
                s.id,
                quote(&s.name),
                num(s.secs),
                quote(s.status.label()),
            ));
        }
        if self.spans.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

fn push_sep(out: &mut String, i: usize, indent: usize) {
    if i > 0 {
        out.push(',');
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
}

fn close_obj(out: &mut String, empty: bool, indent: usize) {
    if empty {
        out.push('}');
    } else {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
        out.push('}');
    }
}

/// JSON number: finite floats print via Rust's shortest-round-trip
/// `Display` (never exponent-free-invalid), non-finite becomes `null`.
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    let s = format!("{v}");
    // Rust prints integral floats as "1" — valid JSON either way, but
    // keep a decimal point so readers type them as floats.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Minimal JSON string escape (quotes, backslash, control chars).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStatus;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("import.quarantined".to_owned(), 2)],
            gauges: vec![("pairs".to_owned(), 128.0)],
            histograms: vec![(
                "par.chunk_secs".to_owned(),
                HistogramSummary {
                    count: 4,
                    sum: 0.004,
                    mean: 0.001,
                    min: 0.001,
                    max: 0.001,
                    p50: 0.001,
                    p95: 0.001,
                    p99: 0.001,
                },
            )],
            spans: vec![
                SpanRecord {
                    id: 0,
                    parent: None,
                    name: "train".to_owned(),
                    secs: 0.5,
                    status: SpanStatus::Ok,
                    note: None,
                },
                SpanRecord {
                    id: 1,
                    parent: Some(0),
                    name: "train.\"DT\"".to_owned(),
                    secs: 0.25,
                    status: SpanStatus::Cut,
                    note: Some("timed out after 0.2s".to_owned()),
                },
            ],
        }
    }

    #[test]
    fn json_has_schema_and_all_sections() {
        let j = sample().to_json();
        for needle in [
            "\"schema\": \"fairem-obs/1\"",
            "\"counters\"",
            "\"import.quarantined\": 2",
            "\"gauges\"",
            "\"histograms\"",
            "\"p99\"",
            "\"spans\"",
            "\"status\": \"cut\"",
            "\"parent\": 0",
            "\\\"DT\\\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }

    #[test]
    fn empty_snapshot_serializes_to_empty_sections() {
        let j = Snapshot::default().to_json();
        assert!(j.contains("\"counters\": {}"), "{j}");
        assert!(j.contains("\"spans\": []"), "{j}");
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        let mut s = Snapshot::default();
        s.gauges.push(("bad".to_owned(), f64::NAN));
        assert!(s.to_json().contains("\"bad\": null"));
    }

    #[test]
    fn stage_totals_aggregate_roots_in_first_seen_order() {
        let s = sample();
        assert_eq!(s.stage_totals(), vec![("train".to_owned(), 0.5)]);
        assert_eq!(s.span_total("train.\"DT\""), 0.25);
    }
}
