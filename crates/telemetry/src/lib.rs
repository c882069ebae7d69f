//! # drange-telemetry — lock-free metrics for the harvesting engine
//!
//! The paper's headline claims are throughput and latency numbers;
//! running D-RaNGe as a service means being able to *see* them live.
//! This crate is the observability substrate for the workspace:
//!
//! * **Metric primitives** ([`Counter`], [`Gauge`], [`Histogram`]) —
//!   plain atomics on the hot path, no locks, no allocation. A
//!   [`Histogram`] uses log2 buckets (1 ns … ~9 min plus an overflow
//!   bucket) and snapshots to p50/p95/p99/max estimates.
//! * **Registry** ([`MetricsRegistry`]) — a cheap cloneable handle that
//!   maps (name, labels) to shared cells. Registration takes a mutex;
//!   the returned handles never do.
//! * **No-op mode** — every handle has a [`Counter::noop`]-style
//!   default that discards writes and (for histograms) skips the clock
//!   read entirely, so instrumented code is near-zero-cost when no
//!   registry is attached. `cargo run -p drange-bench --release --bin
//!   telemetry_overhead` measures the difference.
//! * **Export** — Prometheus text format
//!   ([`MetricsRegistry::render_prometheus`]).
//! * **Tracing** — [`Tracer`]/[`Span`] request spans with the same
//!   noop-by-default cost model, draining into a bounded
//!   [`FlightRecorder`] ring with Chrome trace-event JSON and
//!   slowest-requests exporters (see [`trace`] and [`recorder`]); a
//!   [`Stage`] times one region into a histogram and a span at once.
//!
//! ## Example
//!
//! ```rust
//! use drange_telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let served = registry.counter("drange_served_bits_total", &[]);
//! let latency = registry.histogram("drange_take_bits_latency_ns", &[]);
//!
//! let t0 = latency.start();          // Some(Instant) — the handle is live
//! served.add(4096);
//! latency.observe_since(t0);
//!
//! println!("{}", registry.render_prometheus());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod stage;
mod sync_shim;
pub mod trace;

pub use export::render_prometheus;
pub use metrics::{
    bucket_bound, bucket_index, fmt_ns, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use recorder::{FlightRecorder, RecorderConfig, RecorderStats};
pub use registry::{MetricKind, MetricSample, MetricValue, MetricsRegistry};
pub use stage::Stage;
pub use trace::{AttrValue, Span, SpanEvent, SpanId, SpanRecord, TraceId, Tracer};
