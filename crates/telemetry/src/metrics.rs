//! The lock-free metric primitives: counters, gauges, and log2-bucketed
//! latency histograms.
//!
//! Every handle is either **live** (backed by an atomic cell shared with
//! a [`crate::MetricsRegistry`]) or a **no-op** (the default): a no-op
//! handle's hot-path methods compile down to one branch on an `Option`
//! discriminant and never touch the clock, so instrumented code costs
//! near nothing when no registry is attached. Handles are `Clone`
//! (cloning a live handle shares the cell) and `Send + Sync`.

use std::time::{Duration, Instant};

use crate::sync_shim::{Arc, AtomicU64, Ordering};

/// Number of finite histogram buckets. Bucket `i` counts values `v`
/// (nanoseconds, by convention) with `2^(i-1) < v <= 2^i`; bucket 0
/// counts `v <= 1`. The last finite bound is `2^39` ns (~9.2 minutes);
/// larger values land in the overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Upper bound (inclusive) of finite bucket `index`, in the histogram's
/// value unit (nanoseconds by convention).
///
/// # Panics
///
/// Panics when `index >= HISTOGRAM_BUCKETS`.
#[must_use]
pub fn bucket_bound(index: usize) -> u64 {
    assert!(
        index < HISTOGRAM_BUCKETS,
        "bucket index {index} out of range"
    );
    1u64 << index
}

/// Index of the finite bucket a value falls into, or `None` for the
/// overflow bucket.
#[must_use]
pub fn bucket_index(value: u64) -> Option<usize> {
    if value <= 1 {
        return Some(0);
    }
    // ceil(log2(value)) for value >= 2.
    let index = 64 - (value - 1).leading_zeros() as usize;
    (index < HISTOGRAM_BUCKETS).then_some(index)
}

/// A monotonically increasing counter.
///
/// The default value ([`Counter::noop`]) discards all increments; live
/// handles come from [`crate::MetricsRegistry::counter`].
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that discards every increment.
    #[must_use]
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Counter { cell: Some(cell) }
    }

    /// Whether this handle is backed by a registry cell.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a value that can be set, raised, and lowered.
///
/// Stored as a `u64` (bit counts, occupancy, rates); `sub` saturates at
/// zero. The default value ([`Gauge::noop`]) discards all writes.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A handle that discards every write.
    #[must_use]
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Gauge { cell: Some(cell) }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Lowers the gauge by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.cell {
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
        }
    }

    /// Current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared histogram storage: log2 buckets plus count/sum/max, all
/// lock-free atomics.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        match bucket_index(value) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A log2-bucketed latency histogram.
///
/// Values are nanoseconds by convention (the quantile helpers and the
/// exporters assume it). The default value ([`Histogram::noop`])
/// discards all observations and — critically for hot paths — never
/// reads the clock: [`Histogram::start`] returns `None` so the
/// `Instant::now()` call is skipped entirely.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A handle that discards every observation and never reads the
    /// clock.
    #[must_use]
    pub fn noop() -> Self {
        Histogram { core: None }
    }

    pub(crate) fn live(core: Arc<HistogramCore>) -> Self {
        Histogram { core: Some(core) }
    }

    /// Whether this handle is backed by a registry cell.
    #[must_use]
    #[inline]
    pub fn is_live(&self) -> bool {
        self.core.is_some()
    }

    /// Records one value (nanoseconds).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(core) = &self.core {
            core.record(ns);
        }
    }

    /// Starts a stage timer: `Some(now)` for a live histogram, `None`
    /// (no clock read) for a no-op one. Pair with
    /// [`Histogram::observe_since`].
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.core.as_ref().map(|_| Instant::now())
    }

    /// Records the time elapsed since [`Histogram::start`]; does
    /// nothing when either side is no-op.
    #[inline]
    pub fn observe_since(&self, start: Option<Instant>) {
        if let (Some(core), Some(t0)) = (&self.core, start) {
            core.record(duration_ns(t0.elapsed()));
        }
    }

    /// A point-in-time snapshot (empty for a no-op handle).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |c| c.snapshot())
    }
}

/// A point-in-time copy of a histogram's buckets and summary stats.
///
/// Bucket reads are individually atomic but the set is not read as one
/// transaction; a snapshot taken while writers run may be off by the
/// handful of observations that landed mid-copy — fine for monitoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`HISTOGRAM_BUCKETS` entries,
    /// bucket `i` bounded by [`bucket_bound`]`(i)`).
    pub buckets: Vec<u64>,
    /// Observations beyond the last finite bucket bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, ns.
    pub sum: u64,
    /// Largest observed value, ns.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The all-zero snapshot.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0 < q <= 1`), in ns:
    /// the bound of the first bucket at which the cumulative count
    /// reaches `ceil(q * count)`. Returns 0 for an empty histogram and
    /// [`HistogramSnapshot::max`] when the quantile lands in the
    /// overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q <= 1.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0,1], got {q}");
        if self.count == 0 {
            return 0;
        }
        let target = saturating_f64_to_u64((q * self.count as f64).ceil()).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_bound(i);
            }
        }
        self.max
    }

    /// Median upper-bound estimate, ns.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper-bound estimate, ns.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper-bound estimate, ns.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean observed value, ns (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another snapshot into this one (bucket-wise sum; used for
    /// cross-label aggregation in summaries). All additions saturate:
    /// two near-ceiling snapshots merge to pinned values instead of
    /// wrapping (release) or panicking (debug).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A duration in whole nanoseconds, saturating at `u64::MAX` (~584
/// years).
pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Explicitly saturating `f64 → u64` conversion for bucket/quantile
/// targets: NaN and negatives map to 0, anything at or above `2^64`
/// maps to `u64::MAX`. Rust's `as` cast has saturated since 1.45, but
/// spelling the boundary cases out keeps them testable and keeps the
/// hot quantile path free of `#[allow(clippy::cast_*)]` waivers.
fn saturating_f64_to_u64(v: f64) -> u64 {
    if v.is_nan() || v <= 0.0 {
        0
    } else if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        // In (0, 2^64): exact-range cast, no sign loss or truncation
        // beyond the intended float→int floor.
        v as u64
    }
}

/// Formats a nanosecond quantity with a human unit (`ns`, `µs`, `ms`,
/// `s`), two significant decimals.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), Some(0));
        assert_eq!(bucket_index(1), Some(0));
        assert_eq!(bucket_index(2), Some(1));
        assert_eq!(bucket_index(3), Some(2));
        assert_eq!(bucket_index(4), Some(2));
        assert_eq!(bucket_index(5), Some(3));
        // Every power of two sits in its own bucket...
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(1u64 << i), Some(i), "2^{i}");
            // ...and the next value spills into the following bucket.
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_index((1u64 << i) + 1), Some(i + 1), "2^{i}+1");
            }
        }
    }

    #[test]
    fn bucket_overflow() {
        let last = bucket_bound(HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(last), Some(HISTOGRAM_BUCKETS - 1));
        assert_eq!(bucket_index(last + 1), None);
        assert_eq!(bucket_index(u64::MAX), None);
    }

    #[test]
    fn counter_noop_and_live() {
        let noop = Counter::noop();
        noop.inc();
        noop.add(100);
        assert_eq!(noop.get(), 0);
        assert!(!noop.is_live());

        let live = Counter::live(Arc::new(AtomicU64::new(0)));
        live.inc();
        live.add(41);
        assert_eq!(live.get(), 42);
        let clone = live.clone();
        clone.inc();
        assert_eq!(live.get(), 43, "clones share the cell");
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::live(Arc::new(AtomicU64::new(0)));
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        let noop = Gauge::noop();
        noop.set(7);
        assert_eq!(noop.get(), 0);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::live(Arc::new(HistogramCore::new()));
        for v in [0, 1, 2, 3, 1000, u64::MAX] {
            h.record_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[10], 1, "1000 <= 1024 = 2^10");
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p95(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
        let noop = Histogram::noop();
        assert_eq!(noop.snapshot(), s);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::live(Arc::new(HistogramCore::new()));
        // 99 observations of 100ns (bucket bound 128), one of ~1ms.
        for _ in 0..99 {
            h.record_ns(100);
        }
        h.record_ns(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.p50(), 128);
        assert_eq!(s.p95(), 128);
        assert_eq!(s.p99(), 128);
        assert_eq!(s.quantile(1.0), 1 << 20, "1e6 <= 2^20");
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn quantile_in_overflow_returns_max() {
        let h = Histogram::live(Arc::new(HistogramCore::new()));
        h.record_ns(u64::MAX - 5);
        let s = h.snapshot();
        assert_eq!(s.p50(), u64::MAX - 5);
    }

    #[test]
    fn noop_timer_skips_the_clock() {
        let noop = Histogram::noop();
        assert!(noop.start().is_none());
        noop.observe_since(None);
        assert_eq!(noop.snapshot().count, 0);

        let live = Histogram::live(Arc::new(HistogramCore::new()));
        let t0 = live.start();
        assert!(t0.is_some());
        live.observe_since(t0);
        assert_eq!(live.snapshot().count, 1);
    }

    #[test]
    fn merge_sums_bucketwise() {
        let a = Histogram::live(Arc::new(HistogramCore::new()));
        let b = Histogram::live(Arc::new(HistogramCore::new()));
        a.record_ns(4);
        b.record_ns(4);
        b.record_ns(1 << 50);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.buckets[2], 2);
        assert_eq!(m.overflow, 1);
        assert_eq!(m.max, 1 << 50);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let h = Histogram::live(Arc::new(HistogramCore::new()));
        for v in [1, 700, 1 << 45] {
            h.record_ns(v);
        }
        let full = h.snapshot();

        let mut into_full = full.clone();
        into_full.merge(&HistogramSnapshot::empty());
        assert_eq!(into_full, full, "merging an empty snapshot changes nothing");

        let mut into_empty = HistogramSnapshot::empty();
        into_empty.merge(&full);
        assert_eq!(into_empty, full, "merging into empty copies everything");

        let mut both_empty = HistogramSnapshot::empty();
        both_empty.merge(&HistogramSnapshot::empty());
        assert_eq!(both_empty, HistogramSnapshot::empty());
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = HistogramSnapshot::empty();
        a.buckets[0] = u64::MAX - 1;
        a.overflow = u64::MAX;
        a.count = u64::MAX;
        a.sum = u64::MAX - 10;
        a.max = 5;
        let mut b = HistogramSnapshot::empty();
        b.buckets[0] = 100;
        b.overflow = 1;
        b.count = 100;
        b.sum = 100;
        b.max = 7;
        a.merge(&b);
        assert_eq!(a.buckets[0], u64::MAX);
        assert_eq!(a.overflow, u64::MAX);
        assert_eq!(a.count, u64::MAX);
        assert_eq!(a.sum, u64::MAX);
        assert_eq!(a.max, 7);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1]")]
    fn quantile_rejects_zero() {
        let _ = HistogramSnapshot::empty().quantile(0.0);
    }

    #[test]
    fn quantile_one_reports_the_top_occupied_bucket() {
        let h = Histogram::live(Arc::new(HistogramCore::new()));
        h.record_ns(1);
        let top = bucket_bound(HISTOGRAM_BUCKETS - 1);
        h.record_ns(top);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1, "exact bound is finite");
        assert_eq!(s.quantile(1.0), top);
        // The smallest valid quantile reports the bottom bucket.
        assert_eq!(s.quantile(f64::MIN_POSITIVE), bucket_bound(0));
    }

    #[test]
    fn saturating_cast_boundaries() {
        // Negative and NaN inputs clamp to zero rather than wrapping.
        assert_eq!(saturating_f64_to_u64(-1.0), 0);
        assert_eq!(saturating_f64_to_u64(-1e300), 0);
        assert_eq!(saturating_f64_to_u64(f64::NEG_INFINITY), 0);
        assert_eq!(saturating_f64_to_u64(f64::NAN), 0);
        // Values beyond u64 range clamp to u64::MAX.
        assert_eq!(saturating_f64_to_u64(1e300), u64::MAX);
        assert_eq!(saturating_f64_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(saturating_f64_to_u64(u64::MAX as f64), u64::MAX);
        // In-range values floor as usual.
        assert_eq!(saturating_f64_to_u64(0.0), 0);
        assert_eq!(saturating_f64_to_u64(0.9), 0);
        assert_eq!(saturating_f64_to_u64(1.0), 1);
        assert_eq!(saturating_f64_to_u64(4096.7), 4096);
    }

    #[test]
    fn quantile_target_saturates_at_huge_counts() {
        // A snapshot whose count is at the u64 ceiling: q * count
        // rounds above 2^64 in f64, which must clamp instead of wrap.
        let mut s = HistogramSnapshot::empty();
        s.count = u64::MAX;
        s.buckets[0] = u64::MAX;
        assert_eq!(s.quantile(1.0), bucket_bound(0));
        assert_eq!(s.quantile(0.999), bucket_bound(0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1]")]
    fn quantile_rejects_nan() {
        let _ = HistogramSnapshot::empty().quantile(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1]")]
    fn quantile_rejects_negative() {
        let _ = HistogramSnapshot::empty().quantile(-0.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1]")]
    fn quantile_rejects_above_one() {
        let _ = HistogramSnapshot::empty().quantile(1.5);
    }

    #[test]
    fn values_past_the_last_bucket_overflow() {
        // > max-bucket inputs: beyond the last finite bound they land
        // in the overflow bucket and quantiles fall back to max.
        let h = Histogram::live(Arc::new(HistogramCore::new()));
        let past_last = bucket_bound(HISTOGRAM_BUCKETS - 1) + 1;
        h.record_ns(past_last);
        let s = h.snapshot();
        assert_eq!(s.overflow, 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 0);
        assert_eq!(s.p50(), past_last, "overflow quantile reports max");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn fmt_ns_unit_boundaries() {
        // Each unit switches exactly at its power of 1000.
        assert_eq!(fmt_ns(1_000), "1.00µs");
        assert_eq!(fmt_ns(999_999), "1000.00µs", "stays µs below the cutover");
        assert_eq!(fmt_ns(1_000_000), "1.00ms");
        assert_eq!(
            fmt_ns(999_999_999),
            "1000.00ms",
            "stays ms below the cutover"
        );
        assert_eq!(fmt_ns(1_000_000_000), "1.00s");
        // The extreme top end still formats (as seconds).
        assert!(fmt_ns(u64::MAX).ends_with('s'));
    }

    #[test]
    fn handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
    }
}
