//! The metrics registry: names and labels map to shared atomic cells.
//!
//! A [`MetricsRegistry`] is a cheap cloneable handle (`Arc` inside);
//! clone it into every thread that registers or exports metrics. The
//! registry's interior mutex guards *registration and snapshots only* —
//! the [`Counter`]/[`Gauge`]/[`Histogram`] handles returned by the
//! `counter`/`gauge`/`histogram` methods operate on lock-free atomics
//! and never contend with each other or with exports.
//!
//! A component that reads its own counters for `stats()` exports them
//! ([`MetricsRegistry::export`]) rather than copying them: one event,
//! one cell. Built with [`MetricsRegistry::with_recorder`], the
//! registry also carries a [`FlightRecorder`] and hands out its tracer.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::PoisonError;

use crate::metrics::{Counter, Gauge, Histogram, HistogramCore, HistogramSnapshot};
use crate::recorder::FlightRecorder;
use crate::sync_shim::{Arc, AtomicU64, Mutex, MutexGuard, Ordering};
use crate::trace::Tracer;

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing counter.
    Counter,
    /// Settable gauge.
    Gauge,
    /// Log2-bucketed latency histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    #[must_use]
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One time series: a metric name plus its sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

/// Reads a cell its owner keeps (see [`MetricsRegistry::export`]).
type Reader = Arc<dyn Fn() -> u64 + Send + Sync>;

/// The cells behind one series. A counter or gauge reads as the sum of
/// the registry's own cell and every exported owner cell, so components
/// meeting on one series (two engines, one registry) add up.
#[derive(Clone, Default)]
struct Cells {
    own: Option<Arc<AtomicU64>>,
    exported: Vec<Reader>,
    histogram: Option<Arc<HistogramCore>>,
}

impl Cells {
    fn own(&mut self) -> Arc<AtomicU64> {
        Arc::clone(self.own.get_or_insert_with(|| Arc::new(AtomicU64::new(0))))
    }

    fn value(&self, kind: MetricKind) -> MetricValue {
        let own = self.own.as_ref().map_or(0, |c| c.load(Ordering::Relaxed));
        let sum = (self.exported.iter()).fold(own, |sum, reader| sum.saturating_add(reader()));
        match (kind, &self.histogram) {
            (MetricKind::Counter, _) => MetricValue::Counter(sum),
            (MetricKind::Gauge, _) => MetricValue::Gauge(sum),
            (MetricKind::Histogram, h) => MetricValue::Histogram(
                h.as_ref()
                    .map_or_else(HistogramSnapshot::empty, |h| h.snapshot()),
            ),
        }
    }
}

impl fmt::Debug for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cells")
            .field("own", &self.own)
            .field("exported", &self.exported.len())
            .field("histogram", &self.histogram)
            .finish()
    }
}

/// Storage tables. The `kinds` map is checked first and is the single
/// source of truth for name→kind.
#[derive(Debug, Default)]
struct Tables {
    /// name -> kind; one metric name has exactly one kind across all
    /// label sets.
    kinds: BTreeMap<String, MetricKind>,
    /// (name, labels) -> cells. BTreeMap ordering makes exports
    /// deterministic.
    series: BTreeMap<SeriesKey, Cells>,
}

/// A point-in-time value of one series, produced by
/// [`MetricsRegistry::samples`].
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// The value part of a [`MetricSample`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The kind this value belongs to.
    #[must_use]
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// A shared, cloneable metrics registry, optionally carrying a
/// [`FlightRecorder`].
///
/// Registering the same name + label set twice returns a handle to the
/// same cell, so independent components can meet on a series without
/// coordination. Label pairs are sorted by key at registration, making
/// label order irrelevant.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    tables: Arc<Mutex<Tables>>,
    recorder: Option<FlightRecorder>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    assert!(!name.is_empty(), "metric name must be nonempty");
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

impl MetricsRegistry {
    /// An empty registry without a flight recorder: its
    /// [`MetricsRegistry::tracer`] is a no-op.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// An empty registry carrying `recorder`: components built on it
    /// trace into its ring, and its loss counters export here as the
    /// `drange_trace_*` series.
    #[must_use]
    pub fn with_recorder(recorder: FlightRecorder) -> Self {
        let registry = MetricsRegistry {
            recorder: Some(recorder.clone()),
            ..MetricsRegistry::default()
        };
        recorder.export(&registry);
        registry
    }

    /// The flight recorder this registry carries, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// The recorder's live tracer, or a no-op one when the registry
    /// carries no recorder.
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        self.recorder
            .as_ref()
            .map_or_else(Tracer::noop, FlightRecorder::tracer)
    }

    fn lock(&self) -> MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `with` on the cells of series (`name`, `labels`), creating
    /// them on first use; panics on a kind conflict.
    fn cells<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        with: impl FnOnce(&mut Cells) -> T,
    ) -> T {
        let key = key(name, labels);
        let mut tables = self.lock();
        let existing = *tables.kinds.entry(name.to_string()).or_insert(kind);
        assert!(
            existing == kind,
            "metric {name} already registered as {existing:?}, not {kind:?}"
        );
        with(tables.series.entry(key).or_default())
    }

    /// Registers (or re-opens) a counter series and returns a live
    /// handle to it.
    ///
    /// # Panics
    ///
    /// Panics when `name` is empty or already registered with a
    /// different kind.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter::live(self.cells(name, labels, MetricKind::Counter, Cells::own))
    }

    /// Registers (or re-opens) a gauge series and returns a live handle
    /// to it.
    ///
    /// # Panics
    ///
    /// Panics when `name` is empty or already registered with a
    /// different kind.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge::live(self.cells(name, labels, MetricKind::Gauge, Cells::own))
    }

    /// Registers (or re-opens) a histogram series and returns a live
    /// handle to it.
    ///
    /// # Panics
    ///
    /// Panics when `name` is empty or already registered with a
    /// different kind.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let core = self.cells(name, labels, MetricKind::Histogram, |cells| {
            Arc::clone(
                cells
                    .histogram
                    .get_or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        });
        Histogram::live(core)
    }

    /// Exports a counter or gauge its owner keeps: every export reads
    /// `reader()` into the series, so the owner's cell stays the one
    /// source of truth.
    ///
    /// # Panics
    ///
    /// Panics for a histogram `kind`, an empty `name`, or a `name`
    /// already registered with a different kind.
    pub fn export(
        &self,
        kind: MetricKind,
        name: &str,
        labels: &[(&str, &str)],
        reader: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        assert!(kind != MetricKind::Histogram, "histograms are not exported");
        let reader: Reader = Arc::new(reader);
        self.cells(name, labels, kind, |c| c.exported.push(reader));
    }

    /// Number of registered series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().series.len()
    }

    /// Whether no series are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples every series in deterministic (name, labels) order. The
    /// cells are read after the registry lock is released: an exported
    /// reader may take its owner's lock, which must not nest inside it.
    #[must_use]
    pub fn samples(&self) -> Vec<MetricSample> {
        let series: Vec<(SeriesKey, MetricKind, Cells)> = {
            let tables = self.lock();
            (tables.series.iter())
                .filter_map(|(key, cells)| {
                    let kind = *tables.kinds.get(&key.name)?;
                    Some((key.clone(), kind, cells.clone()))
                })
                .collect()
        };
        series
            .into_iter()
            .map(|(key, kind, cells)| MetricSample {
                value: cells.value(kind),
                name: key.name,
                labels: key.labels,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_series_shares_the_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("bits_total", &[("worker", "0")]);
        let b = reg.counter("bits_total", &[("worker", "0")]);
        a.add(5);
        b.add(7);
        assert_eq!(a.get(), 12);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("worker", "0")]);
        let b = reg.counter("x", &[("worker", "1")]);
        a.inc();
        assert_eq!(b.get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", &[]);
        let _ = reg.gauge("x", &[("other", "labels")]);
    }

    #[test]
    fn registry_clones_share_series() {
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        let c = reg.counter("shared", &[]);
        c.add(3);
        assert_eq!(clone.counter("shared", &[]).get(), 3);
    }

    #[test]
    fn samples_are_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.gauge("b_gauge", &[]).set(9);
        reg.counter("a_counter", &[]).inc();
        reg.histogram("c_hist", &[]).record_ns(4);
        let samples = reg.samples();
        let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a_counter", "b_gauge", "c_hist"]);
        assert!(matches!(samples[0].value, MetricValue::Counter(1)));
        assert!(matches!(samples[1].value, MetricValue::Gauge(9)));
        match &samples[2].value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn exported_cells_are_read_at_export_time_and_sum_per_series() {
        let reg = MetricsRegistry::new();
        let owned = Arc::new(AtomicU64::new(5));
        let reader = Arc::clone(&owned);
        let w = [("worker", "0")];
        reg.export(MetricKind::Counter, "owned_total", &w, move || {
            reader.load(Ordering::Relaxed)
        });
        // A second owner on the same series, and a registry cell too.
        reg.export(MetricKind::Counter, "owned_total", &w, || 2);
        reg.counter("owned_total", &w).add(1);
        reg.export(MetricKind::Gauge, "owned_level", &[], || 9);
        owned.store(40, Ordering::Relaxed);
        let text = reg.render_prometheus();
        assert!(text.contains("owned_total{worker=\"0\"} 43"), "{text}");
        assert!(text.contains("owned_level 9"), "{text}");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn exports_keep_one_kind_per_name() {
        let reg = MetricsRegistry::new();
        reg.export(MetricKind::Gauge, "x", &[], || 0);
        reg.export(MetricKind::Counter, "x", &[], || 0);
    }

    #[test]
    fn the_tracer_is_live_only_with_a_recorder() {
        assert!(!MetricsRegistry::new().tracer().is_live());
        assert!(MetricsRegistry::new().recorder().is_none());
        let reg = MetricsRegistry::with_recorder(FlightRecorder::new());
        assert!(reg.tracer().is_live());
        assert!(
            reg.clone().recorder().is_some(),
            "clones carry the recorder"
        );
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
    }
}
