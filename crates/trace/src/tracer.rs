//! The process-wide [`Tracer`]: sampling, slow-request retention, and
//! the ring buffer of recent traces.

use crate::span::{SpanRecord, TraceCtx, ROOT_SPAN_ID};
use crate::tree::SpanNode;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Tracer configuration.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Master switch; `false` makes [`Tracer::begin`] return `None` and
    /// every downstream span site a no-op.
    pub enabled: bool,
    /// Sampling rate: `1` records every request, `n > 1` records one in
    /// `n` on average (seeded, deterministic), `0` records none — slow
    /// requests are still retained either way.
    pub sample_every: u64,
    /// Seed for the sampling decision stream (fixed seed ⇒ identical
    /// keep/drop sequence run to run).
    pub seed: u64,
    /// Ring-buffer capacity: how many finished traces are retained for
    /// `GET /debug/traces` (minimum 1).
    pub ring: usize,
    /// Slow-request threshold in milliseconds: traces at or above it are
    /// always retained and flagged [`TraceSummary::slow`] (the server
    /// counts them). `0` disables the threshold.
    pub slow_ms: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            sample_every: 1,
            seed: 0x5eed_7ace,
            ring: 64,
            slow_ms: 250.0,
        }
    }
}

/// A completed, retained trace.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// The request id.
    pub id: u64,
    /// The trace name (e.g. `"POST /v1/compile"`).
    pub name: String,
    /// Wall time from trace base to finish, milliseconds.
    pub duration_ms: f64,
    /// Whether the trace crossed the slow threshold.
    pub slow: bool,
    /// Whether the sampler selected this trace (slow outliers are
    /// retained even when it did not).
    pub sampled: bool,
    /// Unix epoch milliseconds at [`Tracer::begin`] (wall clock; span
    /// offsets stay monotonic).
    pub started_unix_ms: u64,
    /// Every span, sorted by `(start_us, id)`; the root has id 1.
    pub records: Vec<SpanRecord>,
}

impl FinishedTrace {
    /// Builds the nested span tree (root node) with own-time computed.
    pub fn tree(&self) -> SpanNode {
        SpanNode::build(&self.records)
    }

    /// Renders the self-describing JSON object (one `GET /debug/traces`
    /// array element).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\": {}, \"name\": {}, \"started_unix_ms\": {}, \
             \"duration_ms\": {}, \"slow\": {}, \"sampled\": {}, \"spans\": {}}}",
            self.id,
            crate::json_string(&self.name),
            self.started_unix_ms,
            crate::fmt_f64(self.duration_ms),
            self.slow,
            self.sampled,
            self.tree().to_json(),
        )
    }
}

/// What [`Tracer::finish`] observed about one trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceSummary {
    /// The request id.
    pub id: u64,
    /// Root duration in milliseconds.
    pub duration_ms: f64,
    /// Whether the trace crossed the slow threshold.
    pub slow: bool,
    /// Whether the trace was kept in the ring.
    pub retained: bool,
}

/// The process-wide trace collector: hands out [`TraceCtx`]s, decides
/// sampling, and retains finished traces in a bounded ring (newest
/// first on read), always keeping slow outliers.
pub struct Tracer {
    cfg: TraceConfig,
    next_id: AtomicU64,
    /// xorshift64 state behind the sampling decisions.
    rng: Mutex<u64>,
    ring: Mutex<VecDeque<Arc<FinishedTrace>>>,
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            // A zero xorshift seed would be a fixed point; displace it.
            rng: Mutex::new(cfg.seed | 1),
            next_id: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::new()),
            cfg,
        }
    }

    /// Starts a trace with base time "now". `None` when tracing is
    /// disabled.
    pub fn begin(&self, name: &str) -> Option<TraceCtx> {
        self.begin_at(name, Instant::now())
    }

    /// Starts a trace whose base is an *earlier* timestamp (e.g. when
    /// the request was admitted to the queue), so pre-handling time is
    /// inside the trace.
    pub fn begin_at(&self, name: &str, base: Instant) -> Option<TraceCtx> {
        if !self.cfg.enabled {
            return None;
        }
        let sampled = match self.cfg.sample_every {
            0 => false,
            1 => true,
            n => {
                let mut state = self.rng.lock().expect("tracer rng poisoned");
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                x.is_multiple_of(n)
            }
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Some(TraceCtx::new(id, name, base, sampled))
    }

    /// Finishes a trace: closes the root span, computes the duration,
    /// and retains the trace in the ring when it was sampled or crossed
    /// the slow threshold.
    ///
    /// Call with the last clone of the context after every span guard
    /// has dropped; spans still open at finish are not recorded.
    pub fn finish(&self, ctx: TraceCtx) -> TraceSummary {
        self.finish_at(ctx, Instant::now())
    }

    /// [`Tracer::finish`] with the root span ending at `end` rather than
    /// now, so the trace can end exactly where its last span does
    /// ([`crate::Span::end_at`]).
    //
    // By-value on purpose: finishing ends the trace, so the caller must
    // relinquish its context (straggler clones could only write records
    // into a drained buffer).
    #[allow(clippy::needless_pass_by_value)]
    pub fn finish_at(&self, ctx: TraceCtx, end: Instant) -> TraceSummary {
        let end_us = ctx.offset_us(end);
        let duration_ms = end_us as f64 / 1e3;
        let slow = self.cfg.slow_ms > 0.0 && duration_ms >= self.cfg.slow_ms;
        let retained = ctx.inner.sampled || slow;
        let summary = TraceSummary {
            id: ctx.id(),
            duration_ms,
            slow,
            retained,
        };
        if !retained {
            return summary;
        }
        let mut records = std::mem::take(
            &mut *ctx.inner.records.lock().expect("trace records poisoned"),
        );
        records.push(SpanRecord {
            id: ROOT_SPAN_ID,
            parent: 0,
            name: ctx.inner.name.clone(),
            start_us: 0,
            end_us,
            thread: String::new(),
            attrs: std::mem::take(
                &mut *ctx.inner.root_attrs.lock().expect("trace attrs poisoned"),
            ),
        });
        records.sort_by_key(|r| (r.start_us, r.id));
        let started_unix_ms = ctx
            .inner
            .started_at
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let finished = Arc::new(FinishedTrace {
            id: ctx.id(),
            name: ctx.inner.name.clone(),
            duration_ms,
            slow,
            sampled: ctx.inner.sampled,
            started_unix_ms,
            records,
        });
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() >= self.cfg.ring.max(1) {
            ring.pop_front();
        }
        ring.push_back(finished);
        summary
    }

    /// The retained traces, newest first.
    pub fn recent(&self) -> Vec<Arc<FinishedTrace>> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .rev()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish_trivial(t: &Tracer, name: &str) -> Option<TraceSummary> {
        t.begin(name).map(|ctx| {
            ctx.root().child("work").end();
            t.finish(ctx)
        })
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        });
        assert!(t.begin("x").is_none());
        assert!(t.recent().is_empty());
    }

    #[test]
    fn sample_all_retains_in_order_newest_first() {
        let t = Tracer::new(TraceConfig {
            ring: 8,
            slow_ms: 0.0,
            ..TraceConfig::default()
        });
        for i in 0..3 {
            let s = finish_trivial(&t, &format!("req-{i}")).unwrap();
            assert!(!s.slow, "no threshold, nothing is slow");
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].name, "req-2", "newest first");
        assert_eq!(recent[2].name, "req-0");
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = Tracer::new(TraceConfig {
            ring: 4,
            slow_ms: 0.0,
            ..TraceConfig::default()
        });
        for i in 0..10 {
            let s = finish_trivial(&t, &format!("req-{i}")).unwrap();
            assert!(s.retained, "every sampled trace enters the ring");
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 4, "ring capacity bounds retention");
        let names: Vec<&str> = recent.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["req-9", "req-8", "req-7", "req-6"]);
    }

    #[test]
    fn sampling_is_deterministic_under_a_fixed_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let t = Tracer::new(TraceConfig {
                sample_every: 3,
                seed,
                ring: 64,
                slow_ms: 0.0,
                ..TraceConfig::default()
            });
            (0..48)
                .map(|i| {
                    finish_trivial(&t, &format!("r{i}")).unwrap().retained
                })
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same keep/drop sequence");
        let kept = a.iter().filter(|&&k| k).count();
        assert!(
            kept > 4 && kept < 44,
            "1-in-3 sampling keeps some and drops some, kept {kept}"
        );
        let c = run(1234567);
        assert_ne!(a, c, "different seed, different sequence");
    }

    #[test]
    fn slow_requests_are_retained_even_when_not_sampled() {
        let t = Tracer::new(TraceConfig {
            sample_every: 0, // sample nothing
            ring: 8,
            slow_ms: 0.000001, // everything is "slow"
            ..TraceConfig::default()
        });
        let ctx = t.begin("slowpoke").unwrap();
        ctx.root().child("work").end();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s = t.finish(ctx);
        assert!(s.slow && s.retained);
        let recent = t.recent();
        assert_eq!(recent.len(), 1);
        assert!(recent[0].slow);
        assert!(!recent[0].sampled);
    }

    #[test]
    fn unsampled_fast_requests_are_dropped() {
        let t = Tracer::new(TraceConfig {
            sample_every: 0,
            slow_ms: 1e9, // nothing is slow
            ..TraceConfig::default()
        });
        let s = finish_trivial(&t, "fast").unwrap();
        assert!(!s.slow && !s.retained);
        assert!(t.recent().is_empty());
    }

    #[test]
    fn finished_trace_json_is_self_describing() {
        let t = Tracer::new(TraceConfig {
            slow_ms: 0.0,
            ..TraceConfig::default()
        });
        let ctx = t.begin("POST /v1/compile").unwrap();
        ctx.attr("status", 200u64);
        {
            let mut s = ctx.root().child("handle");
            s.attr("endpoint", "compile");
        }
        t.finish(ctx);
        let json = t.recent()[0].to_json();
        for needle in [
            "\"trace_id\": 1",
            "\"name\": \"POST /v1/compile\"",
            "\"duration_ms\":",
            "\"spans\": {",
            "\"own_ms\":",
            "\"children\": [",
            "\"handle\"",
            "\"endpoint\": \"compile\"",
            "\"status\": 200",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
