//! Span records, the per-request trace context, and the guard types that
//! time spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Span id of every trace's root span.
pub(crate) const ROOT_SPAN_ID: u64 = 1;

/// A typed attribute value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A float (non-finite renders as JSON `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    /// Renders the value as a JSON literal.
    pub(crate) fn to_json(&self) -> String {
        match self {
            AttrValue::Str(s) => crate::json_string(s),
            AttrValue::U64(n) => n.to_string(),
            AttrValue::F64(x) => crate::fmt_f64(*x),
            AttrValue::Bool(b) => b.to_string(),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::U64(n)
    }
}
impl From<usize> for AttrValue {
    fn from(n: usize) -> Self {
        AttrValue::U64(n as u64)
    }
}
impl From<u16> for AttrValue {
    fn from(n: u16) -> Self {
        AttrValue::U64(u64::from(n))
    }
}
impl From<f64> for AttrValue {
    fn from(x: f64) -> Self {
        AttrValue::F64(x)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// One finished span, in trace-relative microseconds.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id, unique within the trace; the root is id 1.
    pub id: u64,
    /// Parent span id (`0` for the root: no parent).
    pub parent: u64,
    /// Span name (e.g. `"queue-wait"`, `"pass:fuse"`).
    pub name: String,
    /// Start offset from the trace base, microseconds.
    pub start_us: u64,
    /// End offset from the trace base, microseconds (`>= start_us`).
    pub end_us: u64,
    /// Label of the thread the span ended on (its name, or the
    /// `ThreadId` debug form for unnamed threads).
    pub thread: String,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e3
    }
}

pub(crate) struct TraceInner {
    pub(crate) id: u64,
    pub(crate) name: String,
    pub(crate) base: Instant,
    pub(crate) started_at: SystemTime,
    pub(crate) sampled: bool,
    next_span: AtomicU64,
    pub(crate) records: Mutex<Vec<SpanRecord>>,
    pub(crate) root_attrs: Mutex<Vec<(&'static str, AttrValue)>>,
}

/// The per-request trace context: request id plus the record collector.
/// Cloning is an `Arc` bump; clones (and the [`SpanHandle`]s derived
/// from them) may cross threads freely.
#[derive(Clone)]
pub struct TraceCtx {
    pub(crate) inner: Arc<TraceInner>,
}

impl TraceCtx {
    pub(crate) fn new(id: u64, name: &str, base: Instant, sampled: bool) -> TraceCtx {
        TraceCtx {
            inner: Arc::new(TraceInner {
                id,
                name: name.to_string(),
                base,
                started_at: SystemTime::now(),
                sampled,
                next_span: AtomicU64::new(ROOT_SPAN_ID + 1),
                records: Mutex::new(Vec::new()),
                root_attrs: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The trace (request) id assigned by the [`crate::Tracer`].
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The trace name (e.g. `"POST /v1/compile"`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// A handle to the root span, for creating children.
    pub fn root(&self) -> SpanHandle {
        SpanHandle {
            ctx: self.clone(),
            id: ROOT_SPAN_ID,
        }
    }

    /// Attaches an attribute to the root span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.inner
            .root_attrs
            .lock()
            .expect("trace attrs poisoned")
            .push((key, value.into()));
    }

    /// Microseconds from the trace base to `at` (0 when `at` precedes
    /// the base).
    pub(crate) fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.inner.base).as_micros() as u64
    }

    fn next_span_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn push(&self, record: SpanRecord) {
        self.inner
            .records
            .lock()
            .expect("trace records poisoned")
            .push(record);
    }
}

fn thread_label() -> String {
    let t = std::thread::current();
    match t.name() {
        Some(n) => n.to_string(),
        None => format!("{:?}", t.id()),
    }
}

/// A lightweight, cloneable, `Send + Sync` reference to one span inside
/// a trace — the thing to pass across layer and thread boundaries so
/// downstream work can attach child spans.
#[derive(Clone)]
pub struct SpanHandle {
    ctx: TraceCtx,
    id: u64,
}

impl SpanHandle {
    /// Starts a child span now; it ends (and publishes its record) when
    /// the returned guard drops.
    pub fn child(&self, name: &str) -> Span {
        self.child_from(name, Instant::now())
    }

    /// [`SpanHandle::child`] for a span that started at an earlier
    /// `start` (clamped to the trace base), e.g. where the span before it
    /// ended.
    pub fn child_from(&self, name: &str, start: Instant) -> Span {
        let id = self.ctx.next_span_id();
        Span {
            ctx: self.ctx.clone(),
            id,
            parent: self.id,
            name: name.to_string(),
            start_us: self.ctx.offset_us(start),
            fixed_end_us: None,
            attrs: Vec::new(),
        }
    }

    /// Records a child span for *already elapsed* work between two
    /// timestamps (attributes can still be added before the guard
    /// drops). Timestamps before the trace base clamp to the base.
    pub fn child_at(&self, name: &str, start: Instant, end: Instant) -> Span {
        let mut span = self.child_from(name, start);
        span.fixed_end_us = Some(self.ctx.offset_us(end));
        span
    }
}

/// A live span: a guard that buffers its own record locally and
/// publishes it with a single lock push when dropped (or explicitly
/// [`Span::end`]ed).
pub struct Span {
    ctx: TraceCtx,
    id: u64,
    parent: u64,
    name: String,
    start_us: u64,
    /// Set by `child_at` and `end_at`: the end offset is fixed, not
    /// "drop time" (clamped to `start_us` on publish).
    fixed_end_us: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Attaches a typed attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attrs.push((key, value.into()));
    }

    /// A handle to *this* span, for creating children (possibly on
    /// other threads while this guard is still open).
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            ctx: self.ctx.clone(),
            id: self.id,
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}

    /// Ends the span at `end` rather than now, so a trace can finish at
    /// the same instant ([`crate::Tracer::finish_at`]).
    pub fn end_at(mut self, end: Instant) {
        self.fixed_end_us = Some(self.ctx.offset_us(end));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_us = self
            .fixed_end_us
            .unwrap_or_else(|| self.ctx.offset_us(Instant::now()))
            .max(self.start_us);
        self.ctx.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            end_us,
            thread: thread_label(),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ctx() -> TraceCtx {
        TraceCtx::new(7, "test", Instant::now(), true)
    }

    #[test]
    fn spans_record_nesting_and_attrs() {
        let c = ctx();
        let root = c.root();
        {
            let mut outer = root.child("outer");
            outer.attr("k", "v");
            outer.attr("n", 3u64);
            let inner = outer.handle().child("inner");
            inner.end();
        }
        let records = c.inner.records.lock().unwrap();
        assert_eq!(records.len(), 2);
        // Publication order is end order: inner first.
        let inner = &records[0];
        let outer = &records[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, ROOT_SPAN_ID);
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.end_us <= outer.end_us);
        assert_eq!(
            outer.attrs,
            vec![
                ("k", AttrValue::Str("v".to_string())),
                ("n", AttrValue::U64(3)),
            ]
        );
    }

    #[test]
    fn child_at_records_past_intervals_and_clamps_to_base() {
        let base = Instant::now();
        let c = TraceCtx::new(1, "t", base, true);
        let before = base.checked_sub(Duration::from_millis(5)).unwrap_or(base);
        let end = base + Duration::from_micros(1500);
        c.root().child_at("past", before, end).end();
        let records = c.inner.records.lock().unwrap();
        assert_eq!(records[0].start_us, 0, "pre-base start clamps to 0");
        assert_eq!(records[0].end_us, 1500);
        assert!((records[0].duration_ms() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn handles_work_across_threads() {
        let c = ctx();
        let root = c.root();
        let span = root.child("parent");
        let h = span.handle();
        std::thread::scope(|s| {
            for i in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    let mut child = h.child("worker");
                    child.attr("i", i as u64);
                });
            }
        });
        drop(span);
        let records = c.inner.records.lock().unwrap();
        assert_eq!(records.len(), 5);
        let parent_id = records.iter().find(|r| r.name == "parent").unwrap().id;
        assert_eq!(
            records.iter().filter(|r| r.parent == parent_id).count(),
            4,
            "all cross-thread children attach to the handle's span"
        );
    }

    #[test]
    fn attr_values_render_as_json() {
        assert_eq!(AttrValue::from("x").to_json(), "\"x\"");
        assert_eq!(AttrValue::from(3u64).to_json(), "3");
        assert_eq!(AttrValue::from(true).to_json(), "true");
        assert_eq!(AttrValue::from(0.5).to_json(), "0.5");
        assert_eq!(AttrValue::from(f64::NAN).to_json(), "null");
    }
}
