//! **trace** — dependency-free structured tracing for the serving stack.
//!
//! One request produces one [`TraceCtx`]: a tree of timed [`Span`]s with
//! typed attributes, collected into a single buffer behind one short
//! mutex push per span (spans buffer their own record and publish it on
//! drop, so hot paths never hold a lock while working). The process-wide
//! [`Tracer`] decides which requests are recorded (seeded deterministic
//! sampling), keeps the N most recent finished traces in a ring buffer,
//! and *always* retains requests slower than a configurable threshold —
//! the outliers are exactly the traces worth keeping.
//!
//! # Span model
//!
//! * Every trace has a root span covering the whole request; children
//!   nest arbitrarily deep and may be created on any thread via a
//!   cloned [`SpanHandle`] (handles are `Send + Sync`).
//! * Time is monotonic ([`std::time::Instant`]) relative to the trace
//!   base, stored in microseconds. A span's *own* time is its duration
//!   minus the summed durations of its direct children (clamped at 0) —
//!   the flamegraph self-time.
//! * Spans carry typed attributes ([`AttrValue`]): strings, integers,
//!   floats, booleans.
//! * Already-elapsed work can be recorded after the fact with
//!   [`SpanHandle::child_at`] (e.g. queue wait measured between two
//!   timestamps, or a pass duration absorbed from an existing stats
//!   struct). [`SpanHandle::child_from`], [`Span::end_at`] and
//!   [`Tracer::finish_at`] take the same explicit instants, so spans can
//!   abut exactly and a trace can end where its last span does.
//!
//! # Exports
//!
//! A finished trace renders two ways:
//!
//! * [`FinishedTrace::to_json`] — a self-describing JSON tree (the
//!   server's `GET /debug/traces` body items);
//! * [`chrome_trace_json`] — the chrome://tracing `trace_event` array
//!   format, loadable directly in Perfetto or `chrome://tracing` as a
//!   flamegraph (`"ph": "X"` complete events plus thread-name metadata).
//!
//! Tracing is observation-only by construction: nothing in this crate
//! touches the traced computation's inputs or outputs, so compiled
//! artifacts are bit-identical with tracing on or off (the workspace's
//! differential fuzzer runs its server path with tracing enabled to
//! prove it).

mod chrome;
mod span;
mod tracer;
mod tree;

pub use chrome::chrome_trace_json;
pub use span::{AttrValue, Span, SpanHandle, SpanRecord, TraceCtx};
pub use tracer::{FinishedTrace, TraceConfig, TraceSummary, Tracer};
pub use tree::SpanNode;

/// Escapes `raw` as a JSON string literal, quotes included. The one
/// escaper of every JSON writer in this crate, `engine` (batch reports,
/// `EngineStats`) and `server`; `lint` and `verify` do not depend on this
/// crate and keep their own copies.
pub fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for ch in raw.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Inf). Shared like [`json_string`].
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn fmt_f64_nulls_non_finite() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }
}
