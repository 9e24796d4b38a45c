//! The [`Recorder`] handle and RAII [`Span`] guard.
//!
//! A recorder is a cheap-clone handle over shared storage. The disabled
//! recorder (the default everywhere) holds no storage at all: every
//! operation returns immediately without locking, allocating, or —
//! critically — reading the clock, so a metrics-off run is bit-for-bit
//! the run before observability existed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::Histogram;
use crate::snapshot::Snapshot;
use crate::span::{SpanId, SpanRecord, SpanStatus};

/// Shared storage behind an enabled recorder. Plain mutex-protected
/// BTreeMaps: the suite records per *stage* and per *matcher*, not per
/// pair, so contention is negligible and deterministic iteration order
/// comes free.
#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<std::collections::BTreeMap<String, u64>>,
    gauges: Mutex<std::collections::BTreeMap<String, f64>>,
    histograms: Mutex<std::collections::BTreeMap<String, Histogram>>,
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU64,
}

/// A metrics/tracing handle threaded through the suite (SuiteBuilder →
/// pool → stages). Clones share storage. [`Recorder::disabled`] — the
/// `Default` — is inert: no locks, no clock reads, no allocation.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The inert recorder: every operation is a no-op and never touches
    /// the clock, so runs carrying it are bit-for-bit identical to runs
    /// without observability compiled in at all.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recording handle with fresh shared storage.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Is this handle actually recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the named monotonic counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            if let Ok(mut c) = inner.counters.lock() {
                *c.entry(name.to_owned()).or_insert(0) += delta;
            }
        }
    }

    /// Increment the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set the named gauge (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            if let Ok(mut g) = inner.gauges.lock() {
                g.insert(name.to_owned(), value);
            }
        }
    }

    /// Record `value` into the named histogram (created on first use
    /// with the [`Histogram::durations`] ladder).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            if let Ok(mut h) = inner.histograms.lock() {
                h.entry(name.to_owned())
                    .or_insert_with(Histogram::durations)
                    .record(value);
            }
        }
    }

    /// Run `f`, recording its wall-clock duration (seconds) into the
    /// named histogram. The disabled recorder runs `f` untouched — no
    /// clock reads — so timing call sites stay on the inert-by-default
    /// contract. This is the per-request latency primitive: servers wrap
    /// each request handler in `time("serve.request_secs", …)`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if self.inner.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.observe(name, start.elapsed().as_secs_f64());
        out
    }

    /// Open a root span. Disabled recorders return an inert guard that
    /// never reads the clock.
    pub fn span(&self, name: &str) -> Span {
        self.open(name, None)
    }

    fn open(&self, name: &str, parent: Option<SpanId>) -> Span {
        match &self.inner {
            None => Span {
                rec: Recorder::disabled(),
                id: None,
                parent: None,
                name: String::new(),
                start: None,
                state: Mutex::new((SpanStatus::Ok, None)),
            },
            Some(inner) => Span {
                rec: self.clone(),
                id: Some(inner.next_span.fetch_add(1, Ordering::Relaxed)),
                parent,
                name: name.to_owned(),
                start: Some(Instant::now()),
                state: Mutex::new((SpanStatus::Ok, None)),
            },
        }
    }

    /// A deterministic point-in-time snapshot of everything recorded so
    /// far. Spans are sorted by id; maps iterate in name order.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .map(|c| c.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default();
        let gauges = inner
            .gauges
            .lock()
            .map(|g| g.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default();
        let histograms = inner
            .histograms
            .lock()
            .map(|h| h.iter().map(|(k, v)| (k.clone(), v.summarize())).collect())
            .unwrap_or_default();
        let mut spans: Vec<SpanRecord> = inner.spans.lock().map(|s| s.clone()).unwrap_or_default();
        spans.sort_by_key(|s| s.id);
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

/// An RAII span guard: created by [`Recorder::span`] / [`Span::child`],
/// it measures wall-clock time from open to drop and pushes a
/// [`SpanRecord`] into the recorder when it closes. Status and note are
/// interior-mutable so a shared `&Span` (e.g. a stage span borrowed by
/// pool workers opening children) stays `Sync`.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    id: Option<SpanId>,
    parent: Option<SpanId>,
    name: String,
    start: Option<Instant>,
    state: Mutex<(SpanStatus, Option<String>)>,
}

impl Span {
    /// This span's id (None for inert spans) — stored in child records
    /// as the parent link.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Open a child span. Works from any thread: the parent link is the
    /// explicit id, not a thread-local, so fan-out children stitch under
    /// their stage span deterministically.
    pub fn child(&self, name: &str) -> Span {
        self.rec.open(name, self.id)
    }

    /// Set how this span ended (default: [`SpanStatus::Ok`]).
    pub fn set_status(&self, status: SpanStatus) {
        if self.id.is_some() {
            if let Ok(mut s) = self.state.lock() {
                s.0 = status;
            }
        }
    }

    /// Attach a free-form annotation (e.g. the interrupt's elapsed and
    /// progress) to the record this span will close into.
    pub fn note(&self, note: impl Into<String>) {
        if self.id.is_some() {
            if let Ok(mut s) = self.state.lock() {
                s.1 = Some(note.into());
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let (Some(id), Some(start), Some(inner)) = (self.id, self.start, &self.rec.inner) else {
            return;
        };
        let secs = start.elapsed().as_secs_f64();
        let (status, note) = self
            .state
            .lock()
            .map(|s| s.clone())
            .unwrap_or((SpanStatus::Ok, None));
        if let Ok(mut spans) = inner.spans.lock() {
            spans.push(SpanRecord {
                id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                secs,
                status,
                note,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        rec.incr("x");
        rec.gauge("g", 1.0);
        rec.observe("h", 0.5);
        let span = rec.span("root");
        assert_eq!(span.id(), None);
        drop(span);
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let rec = Recorder::enabled();
        rec.incr("runs");
        rec.add("runs", 2);
        rec.gauge("pairs", 10.0);
        rec.gauge("pairs", 12.0);
        rec.observe("lat", 0.001);
        rec.observe("lat", 0.002);
        let snap = rec.snapshot();
        assert_eq!(snap.counters, vec![("runs".to_owned(), 3)]);
        assert_eq!(snap.gauges, vec![("pairs".to_owned(), 12.0)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 2);
    }

    #[test]
    fn time_records_into_a_histogram_and_passes_the_result_through() {
        let rec = Recorder::enabled();
        let out = rec.time("req.lat", || 41 + 1);
        assert_eq!(out, 42);
        rec.time("req.lat", || ());
        let snap = rec.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "req.lat");
        assert_eq!(snap.histograms[0].1.count, 2);

        // Disabled: the closure still runs, nothing is recorded.
        let off = Recorder::disabled();
        assert_eq!(off.time("req.lat", || 7), 7);
        assert!(off.snapshot().histograms.is_empty());
    }

    #[test]
    fn spans_nest_by_explicit_parent_links_across_threads() {
        let rec = Recorder::enabled();
        {
            let stage = rec.span("train");
            std::thread::scope(|scope| {
                for name in ["train.b", "train.a"] {
                    let stage = &stage;
                    scope.spawn(move || {
                        let child = stage.child(name);
                        child.note("done");
                    });
                }
            });
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let root = snap.spans.iter().find(|s| s.name == "train").expect("root");
        assert_eq!(root.parent, None);
        for c in snap.spans.iter().filter(|s| s.name != "train") {
            assert_eq!(c.parent, Some(root.id), "{}", c.name);
            assert_eq!(c.note.as_deref(), Some("done"));
        }
    }

    #[test]
    fn status_survives_to_the_record() {
        let rec = Recorder::enabled();
        {
            let s = rec.span("score");
            s.set_status(SpanStatus::Cut);
            s.note("timed out after 2s");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans[0].status, SpanStatus::Cut);
        assert_eq!(snap.spans[0].note.as_deref(), Some("timed out after 2s"));
    }

    #[test]
    fn clones_share_storage() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.incr("shared");
        assert_eq!(rec.snapshot().counters, vec![("shared".to_owned(), 1)]);
    }
}
