//! Harness-side spans. The traced run wraps each call the benchmark
//! makes into a layer's public API in a span (name, start, end,
//! parent, op id). Nothing is traced inside the program. Spans stay in
//! memory and are rendered when the run ends.

use std::collections::BTreeMap;

use crate::clock::now_ns;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `features.matrix`.
    pub name: &'static str,
    /// Start, nanoseconds since process start.
    pub start: u64,
    /// End, nanoseconds since process start.
    pub end: u64,
    /// Index of the enclosing span, `None` for an op root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u32,
}

impl Span {
    /// Wall time covered.
    pub fn total(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Name of the root span wrapping one replayed op.
pub const OP: &str = "op";

/// An in-memory span recorder with an open-span stack.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    off: bool,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A tracer that records nothing and never reads the clock: the
    /// same replay code runs untraced under it.
    pub fn disabled() -> Tracer {
        Tracer {
            off: true,
            ..Tracer::default()
        }
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span under the innermost open one and return its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        if self.off {
            return usize::MAX;
        }
        if self.stack.is_empty() && name == OP {
            self.op += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        idx
    }

    /// Close the innermost open span (which must be `idx`).
    pub fn close(&mut self, idx: usize) {
        if self.off {
            return;
        }
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close in LIFO order");
        self.spans[idx].end = now_ns();
        self.stack.pop();
    }

    /// Time `f` as a span named `name`.
    pub fn enter<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Record an already-finished child of the innermost open span
    /// (for calls the program makes back into harness code, such as a
    /// harness-owned [`fairem_core::Blocker`]).
    pub fn record_child(&mut self, name: &'static str, start: u64, end: u64) {
        if self.off {
            return;
        }
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op: self.op,
        });
    }

    /// Wall time of every op root span, in milliseconds.
    pub fn op_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == OP)
            .map(|s| s.total() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor).min(s.end);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.total().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed total time, nanoseconds.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Aggregate self and total time by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.self_ns += own;
        e.total_ns += s.total();
        e.count += 1;
    }
    out
}

/// Share of op wall time covered by layer self times: one minus the
/// op roots' own self time over their total, in percent.
pub fn coverage_pct(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut root_self, mut root_total) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(selfs) {
        if s.parent.is_none() && s.name == OP {
            root_self += own;
            root_total += s.total();
        }
    }
    if root_total == 0 {
        return 0.0;
    }
    100.0 * (1.0 - root_self as f64 / root_total as f64)
}

/// Render the spans of op `op` as an indented tree with total and self
/// milliseconds.
pub fn render_op(spans: &[Span], op: u32) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        if s.op != op {
            continue;
        }
        let mut depth = 0;
        let mut p = s.parent;
        while let Some(q) = p {
            depth += 1;
            p = spans[q].parent;
        }
        out.push_str(&format!(
            "{:indent$}{:<28} total {:>10.3} ms  self {:>10.3} ms\n",
            "",
            s.name,
            s.total() as f64 / 1e6,
            selfs[i] as f64 / 1e6,
            indent = 2 * depth
        ));
    }
    out
}
