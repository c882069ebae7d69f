//! The flight recorder: a bounded in-memory ring of finished spans.
//!
//! Traces land here whole (one ring transaction per trace, performed
//! when the root span ends — see [`crate::trace`]), oldest spans are
//! overwritten first, and every loss is counted, so the recorder can
//! run always-on in production: memory is fixed, overhead is one mutex
//! acquisition per *trace* (not per span), and `/debug/trace` always
//! answers with the most recent history.
//!
//! Two exporters read the ring:
//!
//! * [`FlightRecorder::render_chrome_trace`] — Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto `Open trace file`).
//! * [`FlightRecorder::render_slow_table`] — a human `slowest-N`
//!   table of request roots (roots opened under a caller-minted id,
//!   [`Tracer::root_span`]), cheapest triage first.
//!
//! A latency-threshold sampler bounds steady-state cost further: with
//! [`RecorderConfig::latency_threshold`] set, only traces whose root
//! span meets the threshold are kept, plus an unconditional 1-in-N
//! floor ([`RecorderConfig::sample_one_in`]) so the ring never goes
//! completely dark between incidents. Sampled-out and overwritten
//! spans are counted in the recorder's own cells, which
//! [`FlightRecorder::stats`] reads and a registry built with
//! [`MetricsRegistry::with_recorder`] exports as `drange_trace_*`
//! metrics.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use crate::metrics::{fmt_ns, Counter};
use crate::registry::{MetricKind, MetricsRegistry};
use crate::sync_shim::{Arc, AtomicU64, Mutex};
use crate::trace::{AttrValue, SpanRecord, TraceId, Tracer};

/// Flight-recorder tuning. The defaults (4096 spans, keep every trace)
/// suit debugging sessions; production servers set a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// Ring capacity in spans; the oldest spans are overwritten first.
    pub capacity: usize,
    /// Request roots kept for the slowest-requests table (roots
    /// opened under a caller-minted id; other roots are not ranked).
    pub slow_capacity: usize,
    /// Keep only traces whose root span lasted at least this long
    /// (`None`: keep every trace).
    pub latency_threshold: Option<Duration>,
    /// With a threshold set, still keep every Nth below-threshold
    /// trace (0 disables the floor entirely).
    pub sample_one_in: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 4096,
            slow_capacity: 16,
            latency_threshold: None,
            sample_one_in: 0,
        }
    }
}

/// Point-in-time recorder accounting, read from the same cells the
/// `drange_trace_*` metrics export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Spans currently held in the ring.
    pub ring_spans: usize,
    /// Spans accepted into the ring, ever.
    pub recorded_spans: u64,
    /// Spans overwritten (ring full) or discarded (per-trace cap).
    pub dropped_spans: u64,
    /// Whole traces discarded by the latency-threshold sampler.
    pub sampled_out_traces: u64,
}

/// One slowest-requests exemplar: the root span of a kept request
/// trace.
#[derive(Debug, Clone)]
struct SlowEntry {
    trace: TraceId,
    name: &'static str,
    duration: Duration,
    spans: usize,
    attrs: Vec<(&'static str, AttrValue)>,
}

struct RingState {
    ring: VecDeque<SpanRecord>,
    slowest: Vec<SlowEntry>,
    sample_tick: u64,
}

/// Shared recorder internals; [`Tracer`]s hold an `Arc` to this.
pub(crate) struct RecorderCore {
    epoch: Instant,
    config: RecorderConfig,
    state: Mutex<RingState>,
    /// Spans accepted into the ring, ever.
    recorded: Counter,
    /// Spans overwritten (ring full) or discarded (per-trace cap).
    dropped: Counter,
    /// Whole traces discarded by the latency-threshold sampler.
    sampled_out: Counter,
}

/// Locks a recorder's ring state, riding through poisoning (a panicked
/// exporter must not disable tracing). A macro, not a method: the
/// guard type differs between the std and loom mutexes.
macro_rules! lock_state {
    ($core:expr) => {
        $core.state.lock().unwrap_or_else(PoisonError::into_inner)
    };
}

impl RecorderCore {
    /// Counts spans lost to the per-trace buffer cap.
    pub(crate) fn count_overflow(&self, n: u64) {
        self.dropped.add(n);
    }

    /// Accepts one finished trace: applies the sampling policy, then
    /// pushes every span into the ring (overwriting the oldest) and,
    /// for a `request` trace (rooted under a caller-minted id), updates
    /// the slowest-requests exemplars.
    pub(crate) fn finish_trace(
        &self,
        spans: Vec<SpanRecord>,
        root_duration: Duration,
        request: bool,
    ) {
        if spans.is_empty() {
            return;
        }
        let mut state = lock_state!(self);
        let keep = match self.config.latency_threshold {
            None => true,
            Some(threshold) => {
                if root_duration >= threshold {
                    true
                } else {
                    state.sample_tick += 1;
                    self.config.sample_one_in > 0
                        && state.sample_tick.is_multiple_of(self.config.sample_one_in)
                }
            }
        };
        if !keep {
            self.sampled_out.inc();
            return;
        }
        let span_count = spans.len();
        let root = spans.iter().rfind(|s| s.parent.is_none());
        if let Some(root) = root.filter(|_| request) {
            let entry = SlowEntry {
                trace: root.trace,
                name: root.name,
                duration: root.duration,
                spans: span_count,
                attrs: root.attrs.clone(),
            };
            let slowest = &mut state.slowest;
            let pos = slowest
                .binary_search_by(|e| entry.duration.cmp(&e.duration))
                .unwrap_or_else(|p| p);
            if pos < self.config.slow_capacity {
                slowest.insert(pos, entry);
                slowest.truncate(self.config.slow_capacity);
            }
        }
        let mut accepted = 0u64;
        let mut overwritten = 0u64;
        for rec in spans {
            if self.config.capacity == 0 {
                overwritten += 1;
                continue;
            }
            if state.ring.len() >= self.config.capacity {
                state.ring.pop_front();
                overwritten += 1;
            }
            state.ring.push_back(rec);
            accepted += 1;
        }
        self.recorded.add(accepted);
        self.dropped.add(overwritten);
    }
}

/// A bounded, always-on span store with Chrome-trace and slow-table
/// exporters. Cheap to share (`Arc` inside).
#[derive(Clone)]
pub struct FlightRecorder {
    core: Arc<RecorderCore>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("FlightRecorder")
            .field("config", &self.core.config)
            .field("stats", &stats)
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default configuration (keep everything,
    /// 4096-span ring).
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::with_config(RecorderConfig::default())
    }

    /// A recorder with explicit tuning.
    #[must_use]
    pub fn with_config(config: RecorderConfig) -> Self {
        FlightRecorder {
            core: Arc::new(RecorderCore {
                epoch: Instant::now(),
                config,
                state: Mutex::new(RingState {
                    ring: VecDeque::new(),
                    slowest: Vec::new(),
                    sample_tick: 0,
                }),
                recorded: Counter::live(Arc::new(AtomicU64::new(0))),
                dropped: Counter::live(Arc::new(AtomicU64::new(0))),
                sampled_out: Counter::live(Arc::new(AtomicU64::new(0))),
            }),
        }
    }

    /// A live [`Tracer`] recording into this ring.
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        Tracer::attached(Arc::clone(&self.core))
    }

    /// Exports the recorder's loss accounting cells on `registry`
    /// (`drange_trace_spans_recorded_total`,
    /// `drange_trace_spans_dropped_total`,
    /// `drange_trace_traces_sampled_out_total`); see
    /// [`MetricsRegistry::with_recorder`].
    pub(crate) fn export(&self, registry: &MetricsRegistry) {
        for (name, cell) in [
            ("drange_trace_spans_recorded_total", &self.core.recorded),
            ("drange_trace_spans_dropped_total", &self.core.dropped),
            (
                "drange_trace_traces_sampled_out_total",
                &self.core.sampled_out,
            ),
        ] {
            let cell = cell.clone();
            registry.export(MetricKind::Counter, name, &[], move || cell.get());
        }
    }

    /// Current accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            ring_spans: lock_state!(self.core).ring.len(),
            recorded_spans: self.core.recorded.get(),
            dropped_spans: self.core.dropped.get(),
            sampled_out_traces: self.core.sampled_out.get(),
        }
    }

    /// Copies the ring contents, oldest span first (tests and ad-hoc
    /// exporters).
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        lock_state!(self.core).ring.iter().cloned().collect()
    }

    /// Renders the most recent `last_n` spans (all, if `None`) as
    /// Chrome trace-event JSON: load via `chrome://tracing` or
    /// Perfetto. Timestamps are microseconds since the recorder was
    /// created; span attributes and the trace/span/parent ids ride in
    /// `args`.
    #[must_use]
    pub fn render_chrome_trace(&self, last_n: Option<usize>) -> String {
        let state = lock_state!(self.core);
        let total = state.ring.len();
        let skip = last_n.map_or(0, |n| total.saturating_sub(n));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for rec in state.ring.iter().skip(skip) {
            let ts = self.rel_us(rec.start);
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"drange\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{}\",\"span\":\"{}\"",
                escape_json(rec.name),
                ts,
                rec.duration.as_secs_f64() * 1e6,
                rec.thread,
                rec.trace,
                rec.span,
            );
            if let Some(parent) = rec.parent {
                let _ = write!(out, ",\"parent\":\"{parent}\"");
            }
            for (key, value) in &rec.attrs {
                let _ = write!(out, ",\"{}\":{}", escape_json(key), json_attr(value));
            }
            out.push_str("}}");
            for event in &rec.events {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"cat\":\"drange\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{}\"",
                    escape_json(event.name),
                    self.rel_us(event.at),
                    rec.thread,
                    rec.trace,
                );
                if let Some(v) = event.value {
                    let _ = write!(out, ",\"value\":{v}");
                }
                out.push_str("}}");
            }
        }
        out.push_str("]}");
        out
    }

    /// Renders the slowest kept request roots as a text table, slowest
    /// first.
    #[must_use]
    pub fn render_slow_table(&self) -> String {
        let state = lock_state!(self.core);
        let mut out = String::from("rank  duration    spans  trace             root\n");
        for (i, entry) in state.slowest.iter().enumerate() {
            let dur_ns = u64::try_from(entry.duration.as_nanos()).unwrap_or(u64::MAX);
            let _ = write!(
                out,
                "{:<5} {:<11} {:<6} {}  {}",
                i + 1,
                fmt_ns(dur_ns),
                entry.spans,
                entry.trace,
                entry.name,
            );
            for (key, value) in &entry.attrs {
                let _ = write!(out, " {key}={}", fmt_attr(value));
            }
            out.push('\n');
        }
        out
    }

    /// Microseconds between the recorder epoch and `at` (0 for
    /// instants that predate the epoch).
    fn rel_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.core.epoch).as_secs_f64() * 1e6
    }
}

/// Renders an attribute value as a JSON literal.
fn json_attr(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => v.to_string(),
        AttrValue::Bool(v) => v.to_string(),
        AttrValue::Str(v) => format!("\"{}\"", escape_json(v)),
    }
}

/// Renders an attribute value for the plain-text slow table.
fn fmt_attr(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => v.to_string(),
        AttrValue::Bool(v) => v.to_string(),
        AttrValue::Str(v) => v.clone(),
    }
}

/// Escapes a string for embedding in a JSON document.
fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_trace(recorder: &FlightRecorder, name: &'static str, children: usize) -> TraceId {
        let tracer = recorder.tracer();
        let id = TraceId::next();
        {
            let mut root = tracer.root_span(name, id);
            root.attr_u64("bytes", 64);
            for _ in 0..children {
                drop(tracer.span("child"));
            }
        }
        id
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let recorder = FlightRecorder::with_config(RecorderConfig {
            capacity: 4,
            ..RecorderConfig::default()
        });
        for _ in 0..3 {
            record_trace(&recorder, "req", 1); // 2 spans per trace
        }
        let stats = recorder.stats();
        assert_eq!(stats.ring_spans, 4);
        assert_eq!(stats.recorded_spans, 6);
        assert_eq!(stats.dropped_spans, 2);
        let records = recorder.records();
        assert_eq!(records.len(), 4);
    }

    #[test]
    fn sampler_keeps_slow_traces_and_the_one_in_n_floor() {
        let recorder = FlightRecorder::with_config(RecorderConfig {
            latency_threshold: Some(Duration::from_secs(3600)),
            sample_one_in: 4,
            ..RecorderConfig::default()
        });
        for _ in 0..8 {
            record_trace(&recorder, "fast", 0);
        }
        let stats = recorder.stats();
        // Every 4th below-threshold trace survives the floor.
        assert_eq!(stats.recorded_spans, 2);
        assert_eq!(stats.sampled_out_traces, 6);

        let keep_all = FlightRecorder::with_config(RecorderConfig {
            latency_threshold: Some(Duration::ZERO),
            sample_one_in: 0,
            ..RecorderConfig::default()
        });
        record_trace(&keep_all, "any", 0);
        assert_eq!(keep_all.stats().recorded_spans, 1);
    }

    #[test]
    fn sampler_without_floor_goes_dark_below_threshold() {
        let recorder = FlightRecorder::with_config(RecorderConfig {
            latency_threshold: Some(Duration::from_secs(3600)),
            sample_one_in: 0,
            ..RecorderConfig::default()
        });
        for _ in 0..5 {
            record_trace(&recorder, "fast", 0);
        }
        assert_eq!(recorder.stats().recorded_spans, 0);
        assert_eq!(recorder.stats().sampled_out_traces, 5);
    }

    #[test]
    fn chrome_export_shape_and_last_n() {
        let recorder = FlightRecorder::new();
        record_trace(&recorder, "req\"a", 2);
        let json = recorder.render_chrome_trace(None);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"req\\\"a\""), "{json}");
        assert!(json.contains("\"bytes\":64"));
        assert!(json.contains("\"parent\":\""));
        // last_n limits to the most recent spans.
        let limited = recorder.render_chrome_trace(Some(1));
        assert_eq!(limited.matches("\"ph\":\"X\"").count(), 1);
    }

    /// Each character JSON requires escaped, checked in isolation so a
    /// regression in one cannot hide behind the others.
    #[test]
    fn json_escapes_each_required_character() {
        assert_eq!(escape_json(r"C:\temp"), r"C:\\temp");
        assert_eq!(escape_json("say \"hi\""), r#"say \"hi\""#);
        assert_eq!(escape_json("line1\nline2"), r"line1\nline2");
        assert_eq!(escape_json("a\tb"), r"a\tb");
        assert_eq!(escape_json("a\u{1}b"), r"a\u0001b");
        assert_eq!(escape_json("plain é"), "plain é");
    }

    #[test]
    fn events_render_as_instants() {
        let recorder = FlightRecorder::new();
        let tracer = recorder.tracer();
        {
            let mut span = tracer.span("batch");
            span.event_u64("lifecycle.quarantine", 2);
        }
        let json = recorder.render_chrome_trace(None);
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"lifecycle.quarantine\""));
        assert!(json.contains("\"value\":2"));
    }

    #[test]
    fn slow_table_ranks_by_duration() {
        let recorder = FlightRecorder::with_config(RecorderConfig {
            slow_capacity: 2,
            ..RecorderConfig::default()
        });
        let tracer = recorder.tracer();
        // Sleeping for distinct durations would be flaky; record real
        // roots, then replay them with synthetic durations far above
        // anything the real recordings could have taken.
        for (name, ms) in [("a", 10_000u64), ("b", 30_000), ("c", 20_000)] {
            {
                let mut span = tracer.span(name);
                span.attr_str("peer", "127.0.0.1");
            }
            let mut rec = recorder.records().pop().expect("span recorded");
            rec.duration = Duration::from_millis(ms);
            recorder
                .core
                .finish_trace(vec![rec], Duration::from_millis(ms), true);
        }
        let table = recorder.render_slow_table();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("rank"));
        assert!(lines[1].contains("b peer="), "{table}");
        assert!(lines[2].contains("c peer="), "{table}");
        assert_eq!(lines.len(), 3, "slow_capacity bounds the table: {table}");
        assert!(table.contains("peer=127.0.0.1"));
    }

    #[test]
    fn slow_table_ranks_request_roots_only() {
        let recorder = FlightRecorder::with_config(RecorderConfig {
            slow_capacity: 2,
            ..RecorderConfig::default()
        });
        let tracer = recorder.tracer();
        let request = record_trace(&recorder, "serve.request", 0);
        let request_took = recorder.records()[0].duration;
        // Flood with plain roots (the engine's per-batch traces), each
        // slower than the request: none may displace it.
        for _ in 0..4 {
            let _batch = tracer.span("engine.batch");
            std::thread::sleep(request_took + Duration::from_millis(1));
        }
        let table = recorder.render_slow_table();
        assert_eq!(table.lines().count(), 2, "header + the request: {table}");
        assert!(
            table.contains(&format!("{request}  serve.request")),
            "{table}"
        );
        assert!(!table.contains("engine.batch"), "{table}");
        // Plain roots still land in the ring.
        let batches = recorder
            .records()
            .iter()
            .filter(|r| r.name == "engine.batch")
            .count();
        assert_eq!(batches, 4);
    }

    #[test]
    fn stats_and_the_exported_series_read_the_same_cells() {
        let recorder = FlightRecorder::with_config(RecorderConfig {
            capacity: 1,
            ..RecorderConfig::default()
        });
        record_trace(&recorder, "req", 1); // 2 recorded, 1 overwritten
        let registry = MetricsRegistry::with_recorder(recorder.clone());
        record_trace(&recorder, "req", 0);
        let stats = recorder.stats();
        assert_eq!((stats.recorded_spans, stats.dropped_spans), (3, 2));
        let text = registry.render_prometheus();
        assert!(
            text.contains("drange_trace_spans_recorded_total 3"),
            "{text}"
        );
        assert!(
            text.contains("drange_trace_spans_dropped_total 2"),
            "{text}"
        );
        assert!(
            text.contains("drange_trace_traces_sampled_out_total 0"),
            "{text}"
        );
    }

    #[test]
    fn recorder_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlightRecorder>();
        assert_send_sync::<Tracer>();
    }
}
