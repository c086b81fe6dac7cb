//! [`Phase`]: the one measurement of an engine phase, for its span and
//! the engine's totals alike.
//!
//! Only leaf phases get one: [`prof::alloc::phase_start`] resets the
//! thread's peak watermark, and at one worker thread the pool runs its
//! jobs inline, so a guard around the whole `synthesis` phase would be
//! reset by its own jobs.

use prof::{AllocDelta, AllocSnapshot, WorkKind, WorkSnapshot};
use trace::{AttrValue, Span, SpanHandle};

/// A leaf phase (lower, one synthesize job, splice, verify) running on
/// the calling thread: its span when traced, and the thread's work and
/// allocation counters at its start.
pub(crate) struct Phase {
    span: Option<Span>,
    work0: WorkSnapshot,
    alloc0: AllocSnapshot,
}

impl Phase {
    /// Opens `name` under `parent` and lets `attrs` label it, then reads
    /// the counters, so labelling is not charged to the phase.
    pub(crate) fn start(
        parent: Option<&SpanHandle>,
        name: &str,
        attrs: impl FnOnce(&mut Span),
    ) -> Phase {
        let span = parent.map(|p| {
            let mut s = p.child(name);
            attrs(&mut s);
            s
        });
        Phase {
            span,
            work0: prof::work::snapshot(),
            alloc0: prof::alloc::phase_start(),
        }
    }

    /// A handle to the phase's span, for child spans.
    pub(crate) fn handle(&self) -> Option<SpanHandle> {
        self.span.as_ref().map(Span::handle)
    }

    /// Attaches an attribute to the phase's span, if it has one.
    pub(crate) fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(s) = self.span.as_mut() {
            s.attr(key, value);
        }
    }

    /// Ends the phase: attaches every nonzero work counter, and the
    /// allocation counts when anything was allocated, to the span, and
    /// returns the deltas.
    pub(crate) fn end(self) -> (WorkSnapshot, AllocDelta) {
        let work = prof::work::snapshot().since(&self.work0);
        let alloc = prof::alloc::delta_since(&self.alloc0);
        if let Some(mut s) = self.span {
            for kind in WorkKind::ALL.into_iter().filter(|&k| work.get(k) > 0) {
                s.attr(kind.label(), work.get(kind));
            }
            if alloc.allocs > 0 {
                s.attr("allocs", alloc.allocs);
                s.attr("alloc_bytes", alloc.bytes);
                s.attr("alloc_peak_bytes", alloc.peak_bytes);
            }
        }
        (work, alloc)
    }
}
