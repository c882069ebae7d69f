//! Stage guards: one region timed for a histogram and a span from one
//! clock read at each end, and no clock read when both are no-ops.

use std::time::Instant;

use crate::metrics::{duration_ns, Histogram};
use crate::trace::{Span, TraceId, Tracer};

/// RAII guard timing one region into a histogram and its own span,
/// which nests like any [`Span`] and must drop on the same thread.
#[derive(Debug)]
pub struct Stage<'h> {
    histogram: &'h Histogram,
    span: Span,
    start: Option<Instant>,
}

impl<'h> Stage<'h> {
    /// Starts timing region `name` into `histogram` and a `tracer` span.
    #[must_use]
    #[inline]
    pub fn start(name: &'static str, histogram: &'h Histogram, tracer: &Tracer) -> Self {
        Self::root(name, histogram, tracer, None)
    }

    /// As [`Stage::start`], but on an idle thread the span roots its
    /// trace under the caller-minted `trace` id, when one is given
    /// ([`Tracer::root_span`]).
    #[must_use]
    #[inline]
    pub fn root(
        name: &'static str,
        histogram: &'h Histogram,
        tracer: &Tracer,
        trace: Option<TraceId>,
    ) -> Self {
        let start = (histogram.is_live() || tracer.is_live()).then(Instant::now);
        let span = tracer.start_at(name, trace, start);
        Stage {
            histogram,
            span,
            start,
        }
    }

    /// The stage's span (inert without a live tracer).
    #[inline]
    pub fn span(&mut self) -> &mut Span {
        &mut self.span
    }
}

impl Drop for Stage<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            self.histogram.record_ns(duration_ns(end - start));
            self.span.end_at(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use crate::registry::MetricsRegistry;

    #[test]
    fn noop_histogram_and_noop_tracer_read_no_clock() {
        let histogram = Histogram::noop();
        let mut stage = Stage::start("idle", &histogram, &Tracer::noop());
        assert!(stage.start.is_none(), "no clock read at start");
        assert!(!stage.span().is_recording());
        drop(stage);
        assert_eq!(histogram.snapshot().count, 0);
    }

    #[test]
    fn a_live_histogram_alone_times_without_a_span() {
        let histogram = MetricsRegistry::new().histogram("stage_ns", &[]);
        let mut stage = Stage::start("timed", &histogram, &Tracer::noop());
        assert!(stage.start.is_some());
        assert!(!stage.span().is_recording());
        drop(stage);
        assert_eq!(histogram.snapshot().count, 1);
    }

    #[test]
    fn histogram_and_span_share_both_clock_reads() {
        let recorder = FlightRecorder::new();
        let tracer = recorder.tracer();
        let histogram = MetricsRegistry::new().histogram("stage_ns", &[]);
        let trace = TraceId::next();
        {
            let mut root = Stage::root("request", &histogram, &tracer, Some(trace));
            root.span().attr_u64("bytes", 8);
            drop(Stage::start("inner", &histogram, &tracer));
        }
        let records = recorder.records();
        let root = records.iter().find(|r| r.name == "request").expect("root");
        let inner = records.iter().find(|r| r.name == "inner").expect("child");
        assert_eq!(root.trace, trace);
        assert_eq!(inner.parent, Some(root.span), "stages nest like spans");
        let snap = histogram.snapshot();
        assert_eq!(snap.count, 2);
        // The histogram recorded exactly the two span durations.
        let spans_ns = duration_ns(root.duration) + duration_ns(inner.duration);
        assert_eq!(snap.sum, spans_ns);
    }
}
