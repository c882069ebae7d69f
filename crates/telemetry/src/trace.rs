//! Request tracing: cheap span guards with trace/span identity.
//!
//! The serve path needs *causality*, not just aggregates: when p99
//! spikes, the question is where one slow request spent its time across
//! coalescer → service → engine worker → DRAM harvest. This module
//! provides the identity and guard layer:
//!
//! * [`TraceId`] / [`SpanId`] — process-unique identifiers. A
//!   [`TraceId`] doubles as the `X-Drange-Request-Id` value the HTTP
//!   server echoes to clients.
//! * [`Tracer`] — a cheap cloneable handle, live when attached to a
//!   [`crate::recorder::FlightRecorder`] and noop otherwise. A noop
//!   tracer mirrors the noop-metrics pattern exactly: starting a span
//!   reads no clock, touches no thread-local, allocates nothing.
//! * [`Span`] — an RAII guard recording start/end/duration plus typed
//!   [`AttrValue`] attributes and point [`SpanEvent`]s. Spans nest via
//!   a thread-local context stack: a span started while another span on
//!   the same thread is active becomes its child; a span started on an
//!   idle thread roots a new trace.
//!
//! Finished spans collect in a thread-local buffer; when the root span
//! of a trace ends, the whole trace is offered to the flight recorder
//! in one ring-buffer transaction (the sampling decision — keep, or
//! drop as below-threshold — is made there, per trace, never per
//! span). Cross-thread causality is by annotation, not context
//! propagation: engine workers run their own per-batch traces and tag
//! them with the trace id of the request they are unblocking (see
//! `drange_core::engine`), so no trace context travels with the bits
//! into the pool.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::recorder::RecorderCore;
use crate::sync_shim::Arc;

/// Identifier of one end-to-end trace (one request, one harvest batch).
///
/// Nonzero, process-unique, and cheap to mint even without a recorder
/// attached — the HTTP server allocates one per request so the
/// `X-Drange-Request-Id` header exists whether or not tracing is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

/// Identifier of one span within a trace. Nonzero and process-unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

/// Global id well: a counter fed through splitmix64 so ids look
/// uniform without a per-id clock or RNG dependency.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn next_nonzero_id() -> u64 {
    loop {
        let raw = splitmix64(NEXT_ID.fetch_add(1, Ordering::Relaxed));
        if raw != 0 {
            return raw;
        }
    }
}

impl TraceId {
    /// Mints a fresh process-unique trace id.
    #[must_use]
    pub fn next() -> Self {
        TraceId(next_nonzero_id())
    }

    /// The raw id value (nonzero).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a trace id from its raw value; `None` for zero (the
    /// "no trace" sentinel used by cross-thread annotation cells).
    #[must_use]
    pub fn from_u64(raw: u64) -> Option<Self> {
        (raw != 0).then_some(TraceId(raw))
    }
}

impl SpanId {
    /// The raw id value (nonzero).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (byte counts, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, ratios).
    F64(f64),
    /// Boolean flag (degraded, coalesced).
    Bool(bool),
    /// Free-form text (statuses, peer addresses).
    Str(String),
}

/// A point-in-time event annotated onto a span (e.g. a lifecycle
/// quarantine observed mid-batch).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// When the event happened.
    pub at: Instant,
    /// Event name.
    pub name: &'static str,
    /// Optional magnitude (e.g. number of cells quarantined).
    pub value: Option<u64>,
}

/// One finished span, as stored in the flight recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span within the same trace (`None` for the root).
    pub parent: Option<SpanId>,
    /// Static span name (e.g. `"http.request"`).
    pub name: &'static str,
    /// Small dense id of the recording thread (stable per thread).
    pub thread: u64,
    /// Start instant (converted to recorder-relative time at export).
    pub start: Instant,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Point events, in insertion order.
    pub events: Vec<SpanEvent>,
}

/// Small dense per-thread ids for trace export (`tid` in the Chrome
/// trace-event format wants small integers, not 64-bit hashes).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);

    /// Stack of (trace, span) contexts for the current thread; the top
    /// is the parent of the next span started here.
    static CONTEXT: RefCell<Vec<(TraceId, SpanId)>> = const { RefCell::new(Vec::new()) };

    /// Finished spans of the trace currently active on this thread,
    /// buffered until its root span ends.
    static TRACE_BUF: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

/// Spans buffered per trace beyond this are dropped (and counted by
/// the recorder) — a backstop against span leaks in a loop, sized well
/// above any legitimate request tree.
pub(crate) const MAX_SPANS_PER_TRACE: usize = 512;

fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Handle that starts spans. Clone freely; clones share the recorder.
///
/// The default (and [`Tracer::noop`]) tracer is detached: every span it
/// returns is inert and costs a branch — no clock read, no allocation,
/// no thread-local traffic — mirroring [`crate::metrics::Counter`]'s
/// noop mode so instrumented hot paths stay near-zero-cost until a
/// recorder is attached.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Option<Arc<RecorderCore>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("live", &self.core.is_some())
            .finish()
    }
}

impl Tracer {
    /// A detached tracer: spans are inert.
    #[must_use]
    pub fn noop() -> Self {
        Tracer { core: None }
    }

    pub(crate) fn attached(core: Arc<RecorderCore>) -> Self {
        Tracer { core: Some(core) }
    }

    /// Whether spans from this tracer record anywhere.
    #[must_use]
    #[inline]
    pub fn is_live(&self) -> bool {
        self.core.is_some()
    }

    /// Reads the clock only when the tracer is live — for timing a
    /// region that is later attached via [`Span::child_since`] (the
    /// same `Option<Instant>` shape as [`crate::Histogram::start`]).
    #[must_use]
    pub fn clock(&self) -> Option<Instant> {
        self.core.as_ref().map(|_| Instant::now())
    }

    /// The trace id active on the *current thread*, if any. Used to
    /// stamp cross-thread causality annotations (e.g. the engine's
    /// demand-trace cell).
    #[must_use]
    pub fn current_trace() -> Option<TraceId> {
        CONTEXT.with(|ctx| ctx.borrow().last().map(|&(t, _)| t))
    }

    /// Starts a span. With an active span on this thread it becomes a
    /// child in the same trace; on an idle thread it roots a new trace
    /// with a fresh [`TraceId`].
    #[must_use]
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        self.start_at(name, None, self.clock())
    }

    /// Starts a root span under a caller-minted trace id (the HTTP
    /// server mints the id up front so `X-Drange-Request-Id` exists
    /// even when tracing is off). Only such roots are ranked in the
    /// recorder's slowest-requests table. Behaves as [`Tracer::span`]
    /// when a context is already active on this thread.
    #[must_use]
    #[inline]
    pub fn root_span(&self, name: &'static str, trace: TraceId) -> Span {
        self.start_at(name, Some(trace), self.clock())
    }

    /// Starts a span at an instant the caller already read (`None`, or
    /// a noop tracer, gives an inert span).
    #[inline]
    pub(crate) fn start_at(
        &self,
        name: &'static str,
        root_trace: Option<TraceId>,
        start: Option<Instant>,
    ) -> Span {
        let (Some(core), Some(start)) = (&self.core, start) else {
            return Span {
                inner: None,
                _not_send: PhantomData,
            };
        };
        let span = SpanId(next_nonzero_id());
        let (trace, parent) = CONTEXT.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let (trace, parent) = match ctx.last() {
                Some(&(trace, active)) => (trace, Some(active)),
                None => (root_trace.unwrap_or_else(TraceId::next), None),
            };
            ctx.push((trace, span));
            (trace, parent)
        });
        Span {
            inner: Some(Box::new(SpanInner {
                core: Arc::clone(core),
                request: parent.is_none() && root_trace.is_some(),
                rec: SpanRecord {
                    trace,
                    span,
                    parent,
                    name,
                    thread: thread_id(),
                    start,
                    duration: Duration::ZERO,
                    attrs: Vec::new(),
                    events: Vec::new(),
                },
            })),
            _not_send: PhantomData,
        }
    }
}

struct SpanInner {
    core: Arc<RecorderCore>,
    /// A root opened under a caller-minted id: a request, ranked in
    /// the slowest-requests table.
    request: bool,
    rec: SpanRecord,
}

/// RAII span guard: duration runs from creation to drop.
///
/// Thread-affine by construction (`!Send`): nesting is tracked on a
/// thread-local stack, so a guard must be dropped on the thread that
/// started it. All mutators are no-ops on an inert span.
///
/// The live state is boxed so the noop guard is a null-pointer-sized
/// `None` — constructing and dropping one moves eight bytes, which is
/// what keeps uninstrumented servers inside the overhead budget
/// (`telemetry_overhead` bench, span-noop column).
pub struct Span {
    inner: Option<Box<SpanInner>>,
    _not_send: PhantomData<*const ()>,
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(s) => f
                .debug_struct("Span")
                .field("trace", &s.rec.trace)
                .field("span", &s.rec.span)
                .field("name", &s.rec.name)
                .finish(),
            None => f.write_str("Span(noop)"),
        }
    }
}

impl Span {
    /// Whether this span records anywhere (false for noop spans).
    #[must_use]
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace this span belongs to (`None` for noop spans).
    #[must_use]
    #[inline]
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|s| s.rec.trace)
    }

    /// This span's id (`None` for noop spans).
    #[must_use]
    #[inline]
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|s| s.rec.span)
    }

    #[inline]
    fn push_attr(&mut self, key: &'static str, value: AttrValue) {
        if let Some(s) = &mut self.inner {
            s.rec.attrs.push((key, value));
        }
    }

    /// Attaches an unsigned-integer attribute.
    #[inline]
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        self.push_attr(key, AttrValue::U64(value));
    }

    /// Attaches a signed-integer attribute.
    #[inline]
    pub fn attr_i64(&mut self, key: &'static str, value: i64) {
        self.push_attr(key, AttrValue::I64(value));
    }

    /// Attaches a floating-point attribute.
    #[inline]
    pub fn attr_f64(&mut self, key: &'static str, value: f64) {
        self.push_attr(key, AttrValue::F64(value));
    }

    /// Attaches a boolean attribute.
    #[inline]
    pub fn attr_bool(&mut self, key: &'static str, value: bool) {
        self.push_attr(key, AttrValue::Bool(value));
    }

    /// Attaches a string attribute. The value is only materialized on
    /// recording spans, so passing `&format!`-free borrows stays free
    /// in noop mode.
    #[inline]
    pub fn attr_str(&mut self, key: &'static str, value: &str) {
        if self.inner.is_some() {
            self.push_attr(key, AttrValue::Str(value.to_string()));
        }
    }

    /// Annotates a point event (rendered as an instant in the Chrome
    /// export).
    #[inline]
    pub fn event(&mut self, name: &'static str) {
        self.event_inner(name, None);
    }

    /// Annotates a point event with a magnitude.
    #[inline]
    pub fn event_u64(&mut self, name: &'static str, value: u64) {
        self.event_inner(name, Some(value));
    }

    #[inline]
    fn event_inner(&mut self, name: &'static str, value: Option<u64>) {
        if let Some(s) = &mut self.inner {
            s.rec.events.push(SpanEvent {
                at: Instant::now(),
                name,
                value,
            });
        }
    }

    /// Ends the span at an instant the caller already read.
    pub(crate) fn end_at(&mut self, end: Instant) {
        let Some(mut s) = self.inner.take() else {
            return;
        };
        s.rec.duration = end.saturating_duration_since(s.rec.start);
        CONTEXT.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            // Pop *this* span if it is the top of the stack. Out-of-
            // order drops (a child outliving its parent) pop down to
            // and including this span so the stack cannot leak.
            while let Some(&(_, top)) = ctx.last() {
                ctx.pop();
                if top == s.rec.span {
                    break;
                }
            }
        });
        let is_root = s.rec.parent.is_none();
        let root_duration = s.rec.duration;
        let overflowed = !buffer_record(s.rec);
        if overflowed {
            s.core.count_overflow(1);
        }
        if is_root {
            let spans = TRACE_BUF.with(|buf| std::mem::take(&mut *buf.borrow_mut()));
            s.core.finish_trace(spans, root_duration, s.request);
        }
    }

    /// Records an already-elapsed region as a *completed child* of this
    /// span, from `start` (obtained via [`Tracer::clock`]) to now.
    /// Covers regions that end before a span guard can exist — e.g.
    /// HTTP head parsing, which finishes before the request's root span
    /// is created.
    #[inline]
    pub fn child_since(&self, name: &'static str, start: Option<Instant>) {
        let (Some(s), Some(start)) = (&self.inner, start) else {
            return;
        };
        buffer_record(SpanRecord {
            trace: s.rec.trace,
            span: SpanId(next_nonzero_id()),
            parent: Some(s.rec.span),
            name,
            thread: thread_id(),
            start,
            duration: start.elapsed(),
            attrs: Vec::new(),
            events: Vec::new(),
        });
    }
}

/// Buffers one finished (non-root) span record for the thread's active
/// trace, bounded by [`MAX_SPANS_PER_TRACE`]. Returns whether the
/// record was kept.
fn buffer_record(rec: SpanRecord) -> bool {
    TRACE_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() >= MAX_SPANS_PER_TRACE {
            return false;
        }
        buf.push(rec);
        true
    })
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.end_at(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;

    #[test]
    fn ids_are_nonzero_unique_and_hex() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert_ne!(a.as_u64(), 0);
        assert_eq!(a.to_string().len(), 16);
        assert_eq!(TraceId::from_u64(a.as_u64()), Some(a));
        assert_eq!(TraceId::from_u64(0), None);
    }

    #[test]
    fn noop_spans_are_inert() {
        let tracer = Tracer::noop();
        assert!(!tracer.is_live());
        assert!(tracer.clock().is_none());
        let mut span = tracer.span("noop");
        assert!(!span.is_recording());
        assert!(span.trace_id().is_none());
        span.attr_u64("bytes", 64);
        span.event("nothing");
        drop(span);
        assert!(Tracer::current_trace().is_none());
    }

    #[test]
    fn nesting_follows_the_thread_context() {
        let recorder = FlightRecorder::new();
        let tracer = recorder.tracer();
        let root_trace;
        {
            let root = tracer.span("root");
            root_trace = root.trace_id().expect("live root");
            assert_eq!(Tracer::current_trace(), Some(root_trace));
            {
                let child = tracer.span("child");
                assert_eq!(child.trace_id(), Some(root_trace));
                let grandchild = tracer.span("grandchild");
                assert_eq!(grandchild.trace_id(), Some(root_trace));
            }
        }
        assert!(Tracer::current_trace().is_none());
        let spans = recorder.records();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        let child = spans.iter().find(|s| s.name == "child").expect("child");
        let grand = spans
            .iter()
            .find(|s| s.name == "grandchild")
            .expect("grandchild");
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.span));
        assert_eq!(grand.parent, Some(child.span));
        assert!(spans.iter().all(|s| s.trace == root_trace));
    }

    #[test]
    fn root_span_uses_the_caller_minted_id() {
        let recorder = FlightRecorder::new();
        let tracer = recorder.tracer();
        let id = TraceId::next();
        drop(tracer.root_span("http.request", id));
        let spans = recorder.records();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace, id);
    }

    #[test]
    fn attrs_events_and_retro_children_record() {
        let recorder = FlightRecorder::new();
        let tracer = recorder.tracer();
        let t0 = tracer.clock();
        assert!(t0.is_some());
        {
            let mut span = tracer.span("work");
            span.attr_u64("bytes", 64);
            span.attr_str("status", "ok");
            span.attr_bool("degraded", false);
            span.event_u64("lifecycle.quarantine", 3);
            span.child_since("parse", t0);
        }
        let spans = recorder.records();
        assert_eq!(spans.len(), 2);
        let parse = spans.iter().find(|s| s.name == "parse").expect("parse");
        let work = spans.iter().find(|s| s.name == "work").expect("work");
        assert_eq!(parse.parent, Some(work.span));
        assert_eq!(work.attrs[0], ("bytes", AttrValue::U64(64)));
        assert_eq!(work.events.len(), 1);
        assert_eq!(work.events[0].value, Some(3));
    }

    #[test]
    fn sibling_traces_on_other_threads_stay_separate() {
        let recorder = FlightRecorder::new();
        let tracer = recorder.tracer();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    let mut span = tracer.span("engine.batch");
                    span.attr_u64("worker", i);
                    span.trace_id().expect("live").as_u64()
                })
            })
            .collect();
        let mut ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "each thread roots its own trace");
        assert_eq!(recorder.records().len(), 4);
    }
}
