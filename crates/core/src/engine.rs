//! Concurrent multi-channel harvesting engine — the parallelism story
//! of Sections 6.2–6.3 turned into a running system.
//!
//! The paper's headline throughput rests on two levels of parallelism:
//! bank-level interleaving *within* a channel (Algorithm 2's
//! phase-interleaved command stream, already modeled by [`DRange`]) and
//! channel-level scaling *across* independent channels
//! ([`crate::throughput::scale_to_channels`]). This module supplies the
//! channel level: `N` worker threads, each owning its own memory
//! controller and [`DRange`] instance (one per simulated channel),
//! continuously harvest health-screened bit batches and push them
//! straight into one shared pool that many client threads drain
//! concurrently — the single queue of screened bits that the §6.3
//! firmware keeps for applications. The pool is a [`ScreenedQueue`],
//! which takes only [`Screened`](crate::health::Screened) batches, and
//! only [`HealthMonitor::screen`] builds one: a publish that skips the
//! screen does not compile.
//!
//! ## Topology
//!
//! ```text
//!  worker 0 (DRange + HealthMonitor) ──┐
//!  worker 1 (DRange + HealthMonitor) ──┤    push      Mutex<Pool>: ScreenedQueue
//!  ...                                 ├────────────▶  + WatermarkGate + demand
//!  worker N-1                        ──┘  (Screened)          │
//!                                          take_bits() ◀──────┘  (many clients)
//! ```
//!
//! The engine spawns one thread per source and no other. A published
//! batch takes exactly one shared lock, the pool mutex; the hysteresis
//! gate that decides whether workers keep filling lives under that
//! mutex, next to the bits it measures.
//!
//! Bits travel packed end to end: a worker harvests one [`BitBlock`]
//! (64 bits per `u64` word) per batch and splices it into the pool
//! word by word — the worker→pool transfer copies words,
//! never individual bools. Clients unpack only at the API boundary
//! ([`take_bits`]) or not at all ([`take_bytes`] emits the pool words
//! big-endian).
//!
//! [`take_bits`]: HarvestEngine::take_bits
//! [`take_bytes`]: HarvestEngine::take_bytes
//!
//! Backpressure: after each publish the worker asks the gate, under
//! the pool mutex, whether to keep filling. The gate pauses at
//! [`EngineConfig::queue_capacity`] and resumes once clients have
//! drained the pool to [`EngineConfig::low_watermark`]; a paused worker
//! parks before harvesting its next batch, so the pool overshoots its
//! capacity by at most one batch per worker and an idle engine consumes
//! no CPU at all. The gate is bypassed while blocked clients want more
//! bits than the pool holds (the demand bypass) and during shutdown.
//! Every blocking wait is notification-driven (a plain condvar wait
//! woken by the state change it is waiting for, never a timeout poll).
//! Every batch is screened by a per-worker [`HealthMonitor`] before it
//! is published; rejected batches are discarded and counted, and a
//! worker that rejects more than
//! [`EngineConfig::max_consecutive_rejects`] batches *in a row* (the
//! counter persists across requests and resets only on an accepted
//! batch) records an [`DrangeError::Unhealthy`] error and retires.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dram_sim::{DeviceConfig, FaultStats, SenseCacheStats};
use drange_telemetry::{Gauge, Histogram, MetricKind, MetricsRegistry, Stage, TraceId, Tracer};
use memctrl::MemoryController;

use crate::bits::BitBlock;
use crate::error::{DrangeError, Result};
use crate::health::{HealthMonitor, ScreenedQueue, TripCounts};
use crate::identify::RngCellCatalog;
use crate::lifecycle::{LifecycleStats, ResilientDRange};
use crate::sampler::{DRange, DRangeConfig};
use crate::sync::{BitLedger, Condvar, CounterCell, Flag, LiveCount, Mutex, WatermarkGate};

/// A source of raw random-bit batches that a worker thread can own.
///
/// [`DRange`] is the canonical implementation (one batch = one pass of
/// the Algorithm 2 core loop); tests inject scripted sources to
/// exercise the engine without the simulation cost.
pub trait HarvestSource: Send + 'static {
    /// Harvests one batch of raw (unscreened) bits, packed 64 to a
    /// word.
    ///
    /// # Errors
    ///
    /// Propagates device/controller failures; an erroring source
    /// retires its worker.
    fn harvest_batch(&mut self) -> Result<BitBlock>;

    /// Cumulative device time this source has consumed, in picoseconds
    /// (0 when the source has no notion of device time).
    fn device_time_ps(&self) -> u64 {
        0
    }

    /// Cumulative sensing-cache counters of the underlying device, when
    /// the source has one (`None` for scripted test sources).
    fn sense_cache_stats(&self) -> Option<SenseCacheStats> {
        None
    }

    /// Snapshot of the source's cell-lifecycle counters, when it runs
    /// one (`None` for plain samplers and scripted test sources).
    fn lifecycle_stats(&self) -> Option<LifecycleStats> {
        None
    }

    /// Cumulative injected-fault counters of the underlying device,
    /// when the source has one (`None` for scripted test sources).
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }
}

impl HarvestSource for DRange {
    fn harvest_batch(&mut self) -> Result<BitBlock> {
        self.harvest_block()
    }

    fn device_time_ps(&self) -> u64 {
        self.stats().device_time_ps
    }

    fn sense_cache_stats(&self) -> Option<SenseCacheStats> {
        Some(DRange::sense_cache_stats(self))
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.controller().device().fault_stats())
    }
}

impl HarvestSource for ResilientDRange {
    fn harvest_batch(&mut self) -> Result<BitBlock> {
        self.next_batch()
    }

    fn device_time_ps(&self) -> u64 {
        self.generator().stats().device_time_ps
    }

    fn sense_cache_stats(&self) -> Option<SenseCacheStats> {
        Some(self.generator().sense_cache_stats())
    }

    fn lifecycle_stats(&self) -> Option<LifecycleStats> {
        Some(ResilientDRange::lifecycle_stats(self))
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(ResilientDRange::fault_stats(self))
    }
}

/// Configuration of the harvesting engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Bits the shared pool aims to keep ready: workers pause once the
    /// pool holds this many. A soft bound — each worker may land one
    /// batch past it, and blocked clients' demand lifts it.
    pub queue_capacity: usize,
    /// Paused workers resume filling once the pool drops to or below
    /// this many bits.
    pub low_watermark: usize,
    /// Claimed min-entropy for the per-worker health monitors
    /// (bits/bit).
    pub min_entropy: f64,
    /// A worker that rejects more than this many batches consecutively
    /// (no accepted batch in between) records an unhealthy-source error
    /// and retires.
    pub max_consecutive_rejects: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 1 << 16,
            low_watermark: 1 << 12,
            min_entropy: 0.95,
            max_consecutive_rejects: 1000,
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(DrangeError::InvalidSpec(
                "queue capacity must be nonzero".into(),
            ));
        }
        if self.low_watermark > self.queue_capacity {
            return Err(DrangeError::InvalidSpec(format!(
                "low watermark {} exceeds capacity {}",
                self.low_watermark, self.queue_capacity
            )));
        }
        if !(0.0..=1.0).contains(&self.min_entropy) || self.min_entropy == 0.0 {
            return Err(DrangeError::InvalidSpec(
                "min_entropy must be in (0,1]".into(),
            ));
        }
        if self.max_consecutive_rejects == 0 {
            return Err(DrangeError::InvalidSpec(
                "max_consecutive_rejects must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// Counters one worker thread maintains: shared lock-free cells (see
/// [`crate::sync`]) that harvesting bumps, stats snapshots read without
/// blocking, and a registry, when the engine has one, exports as is.
#[derive(Debug, Default)]
struct WorkerCounters {
    harvested_bits: CounterCell,
    discarded_bits: CounterCell,
    repetition_trips: CounterCell,
    adaptive_trips: CounterCell,
    batches: CounterCell,
    device_time_ps: CounterCell,
    cache_skip_reads: CounterCell,
    cache_hit_reads: CounterCell,
    cache_resolve_reads: CounterCell,
    cache_bulk_cells: CounterCell,
    cache_bulk_lane_cells: CounterCell,
    /// Latest lifecycle snapshot (sources without a lifecycle leave it
    /// `None`). Snapshots are whole structs, so they live behind a
    /// mutex rather than in counter cells; workers only ever `lock`
    /// briefly to store, stats readers to load.
    lifecycle: Mutex<Option<LifecycleStats>>,
    /// Latest injected-fault snapshot, same protocol.
    faults: Mutex<Option<FaultStats>>,
}

impl WorkerCounters {
    fn lifecycle(&self) -> LifecycleStats {
        self.lifecycle.lock().unwrap_or_default()
    }

    fn faults(&self) -> FaultStats {
        self.faults.lock().unwrap_or_default()
    }

    /// A point-in-time copy of the cells.
    fn snapshot(&self, worker: usize) -> WorkerStats {
        let repetition_trips = self.repetition_trips.get();
        let adaptive_trips = self.adaptive_trips.get();
        WorkerStats {
            worker,
            harvested_bits: self.harvested_bits.get(),
            discarded_bits: self.discarded_bits.get(),
            health_trips: repetition_trips + adaptive_trips,
            repetition_trips,
            adaptive_trips,
            batches: self.batches.get(),
            device_time_ps: self.device_time_ps.get(),
            cache_skip_reads: self.cache_skip_reads.get(),
            cache_hit_reads: self.cache_hit_reads.get(),
            cache_resolve_reads: self.cache_resolve_reads.get(),
            cache_bulk_cells: self.cache_bulk_cells.get(),
            cache_bulk_lane_cells: self.cache_bulk_lane_cells.get(),
            lifecycle: *self.lifecycle.lock(),
            faults: *self.faults.lock(),
        }
    }

    /// Exports the cells and snapshots on `reg` under the `worker`
    /// label: the registry reads them at export time, so `stats()` and
    /// `/metrics` cannot disagree.
    fn export(self: &Arc<Self>, reg: &MetricsRegistry, worker: &str) {
        let export = |kind, name: &str, label: &[(&str, &str)], reader: Reader| {
            let labels: Vec<_> = label.iter().copied().chain([("worker", worker)]).collect();
            let cells = Arc::clone(self);
            reg.export(kind, name, &labels, move || reader(&cells));
        };
        let counter = |name, label, reader| export(MetricKind::Counter, name, label, reader);
        let gauge = |name, label, reader| export(MetricKind::Gauge, name, label, reader);
        counter("drange_worker_harvested_bits_total", &[], |c| {
            c.harvested_bits.get()
        });
        counter("drange_worker_discarded_bits_total", &[], |c| {
            c.discarded_bits.get()
        });
        counter("drange_worker_batches_total", &[], |c| c.batches.get());
        let trips = "drange_health_trips_total";
        counter(trips, &[("test", "repetition")], |c| {
            c.repetition_trips.get()
        });
        counter(trips, &[("test", "adaptive")], |c| c.adaptive_trips.get());
        let reads = "drange_cache_reads_total";
        counter(reads, &[("kind", "skip")], |c| c.cache_skip_reads.get());
        counter(reads, &[("kind", "hit")], |c| c.cache_hit_reads.get());
        counter(reads, &[("kind", "resolve")], |c| {
            c.cache_resolve_reads.get()
        });
        gauge("drange_worker_throughput_bps", &[], |c| {
            bits_per_second(c.harvested_bits.get(), c.device_time_ps.get()) as u64
        });
        let cells = "drange_lifecycle_cells";
        gauge(cells, &[("state", "live")], |c| c.lifecycle().live_cells);
        gauge(cells, &[("state", "quarantined")], |c| {
            c.lifecycle().quarantined_cells
        });
        gauge(cells, &[("state", "retired")], |c| {
            c.lifecycle().retired_cells
        });
        gauge("drange_degraded", &[], |c| {
            u64::from(c.lifecycle().degraded)
        });
        let events = "drange_lifecycle_events_total";
        counter(events, &[("event", "quarantine")], |c| {
            c.lifecycle().quarantine_events
        });
        counter(events, &[("event", "reinstate")], |c| {
            c.lifecycle().reinstated_cells
        });
        counter(events, &[("event", "promote")], |c| {
            c.lifecycle().promoted_words
        });
        counter(events, &[("event", "recharacterize")], |c| {
            c.lifecycle().recharacterizations
        });
        let faults = "drange_injected_faults_total";
        counter(faults, &[("kind", "temperature")], |c| {
            c.faults().temperature_events
        });
        counter(faults, &[("kind", "noise")], |c| {
            c.faults().noise_bias_events
        });
        counter(faults, &[("kind", "aging")], |c| c.faults().cells_aged);
        counter(faults, &[("kind", "stuck")], |c| c.faults().cells_stuck);
    }
}

/// Reads one exported quantity from a worker's cells.
type Reader = fn(&WorkerCounters) -> u64;

/// The stage histograms one worker times its batches into. They are
/// registry-created, so without a registry they are no-ops and the
/// stage guards read no clock.
#[derive(Debug, Default)]
struct StageHistograms {
    harvest: Histogram,
    health: Histogram,
    publish: Histogram,
}

/// Client-side telemetry handles held by the engine itself (no-ops
/// without a registry).
#[derive(Debug, Clone, Default)]
struct EngineTelemetry {
    take_bits_ns: Histogram,
    pool_wait_ns: Histogram,
    pool_waiters: Gauge,
}

impl EngineTelemetry {
    fn new(registry: Option<&MetricsRegistry>) -> Self {
        let Some(reg) = registry else {
            return EngineTelemetry::default();
        };
        EngineTelemetry {
            take_bits_ns: reg.histogram("drange_take_bits_latency_ns", &[]),
            pool_wait_ns: reg.histogram("drange_pool_wait_ns", &[]),
            pool_waiters: reg.gauge("drange_pool_waiters", &[]),
        }
    }
}

/// Bits per second of device time (0.0 without device time).
fn bits_per_second(bits: u64, device_time_ps: u64) -> f64 {
    ratio(bits, device_time_ps) * 1e12
}

/// `part / whole`, 0.0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The shared pool and the gate that decides whether workers keep
/// filling it, behind one mutex.
#[derive(Debug)]
struct Pool {
    bits: ScreenedQueue,
    /// Hysteresis between the low watermark and the capacity.
    gate: WatermarkGate,
    /// Bits wanted by clients currently blocked in `drain_pool`. While
    /// it exceeds the pooled bits the workers bypass the gate: a paused
    /// gate reopens only at the low watermark, so a request for more
    /// than the pool holds would otherwise leave the client and the
    /// workers waiting on each other forever (found by the loom model
    /// `oversized_request_is_served_via_demand_bypass`).
    demand: u64,
}

impl Pool {
    /// Advances the gate and returns whether workers may publish more:
    /// the gate admits, or blocked clients want more than is pooled.
    fn admits(&mut self) -> bool {
        let queued = self.bits.len();
        self.gate.admit(queued) || (queued as u64) < self.demand
    }
}

/// State shared between workers and clients.
#[derive(Debug)]
struct Shared {
    pool: Mutex<Pool>,
    /// Signaled when bits are added to the pool or the engine winds down.
    bits_available: Condvar,
    /// Signaled when clients drain the pool or publish demand (what a
    /// paused worker's gate waits on), and on shutdown.
    space_available: Condvar,
    shutdown: Flag,
    live_workers: LiveCount,
    /// Bits accepted by health screening but not yet in the pool.
    in_flight_bits: BitLedger,
    /// Raw [`TraceId`] of the most recent request blocked on the pool
    /// (0: none). Advisory, best-effort: workers stamp it onto their
    /// per-batch trace spans (`serving_trace`), so a slow request's
    /// flight recording shows *which* harvest work was unblocking it.
    demand_trace: CounterCell,
    served_bits: CounterCell,
    first_error: Mutex<Option<DrangeError>>,
}

/// A point-in-time snapshot of one worker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker (simulated channel) index.
    pub worker: usize,
    /// Raw bits harvested by this worker.
    pub harvested_bits: u64,
    /// Bits discarded by this worker's health screening (including any
    /// undeliverable batch dropped during shutdown).
    pub discarded_bits: u64,
    /// Health-test firings observed by this worker (both tests).
    pub health_trips: u64,
    /// Repetition-count-test firings alone (stuck-source signal).
    pub repetition_trips: u64,
    /// Adaptive-proportion-test firings alone (bias signal).
    pub adaptive_trips: u64,
    /// Batches harvested.
    pub batches: u64,
    /// Device time consumed by this worker's channel, ps.
    pub device_time_ps: u64,
    /// Sensing READs answered entirely by the skip mask on this
    /// worker's channel (0 for sources without a sensing cache).
    pub cache_skip_reads: u64,
    /// Sensing READs served from memoized probabilities.
    pub cache_hit_reads: u64,
    /// Sensing READs that re-resolved per-cell probabilities.
    pub cache_resolve_reads: u64,
    /// Marginal cells resolved through the bulk SoA kernel on this
    /// worker's channel.
    pub cache_bulk_cells: u64,
    /// Of those, cells resolved in full four-wide vector lanes (the
    /// rest went through the scalar remainder loop).
    pub cache_bulk_lane_cells: u64,
    /// Latest cell-lifecycle snapshot (`None` for sources without a
    /// lifecycle).
    pub lifecycle: Option<LifecycleStats>,
    /// Latest injected-fault snapshot (`None` for sources without a
    /// fault-capable device).
    pub faults: Option<FaultStats>,
}

impl WorkerStats {
    /// Harvest throughput of this channel in bits per second of
    /// *device* time (0.0 when the source reports no device time).
    pub fn throughput_bps(&self) -> f64 {
        bits_per_second(self.harvested_bits, self.device_time_ps)
    }

    /// Fraction of this channel's sensing READs answered from memoized
    /// cache state (0.0 when the source reports no cache activity).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_skip_reads + self.cache_hit_reads;
        ratio(hits, hits + self.cache_resolve_reads)
    }

    /// Fraction of this channel's bulk-resolved cells that went through
    /// full vector lanes rather than the scalar remainder loop (0.0
    /// with no bulk activity).
    pub fn lane_utilization(&self) -> f64 {
        ratio(self.cache_bulk_lane_cells, self.cache_bulk_cells)
    }
}

/// A point-in-time snapshot of engine-level statistics, aggregated from
/// the per-worker health monitors and the shared pool.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Raw bits harvested across all workers.
    pub harvested_bits: u64,
    /// Bits rejected by health screening across all workers.
    pub discarded_bits: u64,
    /// Health-test firings across all workers (both tests).
    pub health_trips: u64,
    /// Repetition-count-test firings across all workers.
    pub repetition_trips: u64,
    /// Adaptive-proportion-test firings across all workers.
    pub adaptive_trips: u64,
    /// Bits currently queued in the shared pool.
    pub queued_bits: usize,
    /// Bits handed to clients.
    pub served_bits: u64,
    /// Bits screened but not yet pushed into the pool (held by workers
    /// on their way to the pool lock; 0 after shutdown).
    pub in_flight_bits: u64,
    /// Sensing READs answered by skip masks, across all workers.
    pub cache_skip_reads: u64,
    /// Sensing READs served from memoized probabilities, all workers.
    pub cache_hit_reads: u64,
    /// Sensing READs that re-resolved probabilities, all workers.
    pub cache_resolve_reads: u64,
    /// Marginal cells resolved through the bulk SoA kernel, all
    /// workers.
    pub cache_bulk_cells: u64,
    /// Of those, cells resolved in full four-wide vector lanes.
    pub cache_bulk_lane_cells: u64,
    /// Cell-lifecycle counters merged across all lifecycle-running
    /// workers (`None` when no worker runs one).
    pub lifecycle: Option<LifecycleStats>,
    /// Injected-fault counters merged across all fault-capable workers
    /// (`None` when no worker reports them).
    pub faults: Option<FaultStats>,
    /// Per-worker (per-channel) breakdowns.
    pub workers: Vec<WorkerStats>,
}

impl EngineStats {
    /// Fraction of sensing READs across all workers answered from
    /// memoized cache state (0.0 with no cache activity).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_skip_reads + self.cache_hit_reads;
        ratio(hits, hits + self.cache_resolve_reads)
    }

    /// Fraction of bulk-resolved cells across all workers that went
    /// through full vector lanes (0.0 with no bulk activity).
    pub fn lane_utilization(&self) -> f64 {
        ratio(self.cache_bulk_lane_cells, self.cache_bulk_cells)
    }

    /// Sum of the per-channel device-time throughputs — the engine
    /// analogue of [`crate::throughput::scale_to_channels`]: channels
    /// are independent, so aggregate harvest rate is the sum of the
    /// per-channel rates.
    pub fn aggregate_device_bps(&self) -> f64 {
        self.workers.iter().map(WorkerStats::throughput_bps).sum()
    }

    /// Whether any lifecycle-running channel reports degraded (reduced
    /// but honest) throughput. Always `false` for engines without a
    /// cell lifecycle.
    pub fn is_degraded(&self) -> bool {
        self.lifecycle.is_some_and(|l| l.degraded)
    }
}

/// The concurrent harvesting engine.
///
/// Spawned over a set of [`HarvestSource`]s (one worker thread each),
/// it keeps a shared pool of health-screened bits topped up between the
/// configured watermarks; any number of client threads may call
/// [`HarvestEngine::take_bits`] / [`HarvestEngine::take_bytes`]
/// concurrently. Dropping the engine (or calling
/// [`HarvestEngine::shutdown`]) joins every thread.
#[derive(Debug)]
pub struct HarvestEngine {
    config: EngineConfig,
    shared: Arc<Shared>,
    counters: Vec<Arc<WorkerCounters>>,
    telemetry: EngineTelemetry,
    tracer: Tracer,
    registry: Option<MetricsRegistry>,
    workers: Vec<JoinHandle<()>>,
}

impl HarvestEngine {
    /// Spawns one worker thread per source.
    ///
    /// With a `registry` the engine exports its counters there (see
    /// the `DESIGN.md` Observability section for the series), times its
    /// stages into registry histograms, and traces through the
    /// registry's tracer (`engine.batch` with `harvest`/`health`/
    /// `publish` children on each worker, `engine.pool_drain` on client
    /// threads) when the registry carries a flight recorder. Without
    /// one it still counts for [`HarvestEngine::stats`], but exports
    /// nothing and reads no clock.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] for an empty source list or
    /// inconsistent watermarks, and [`DrangeError::Engine`] when the OS
    /// refuses to spawn a thread.
    pub fn spawn<S: HarvestSource>(
        sources: Vec<S>,
        config: EngineConfig,
        registry: Option<&MetricsRegistry>,
    ) -> Result<Self> {
        config.validate()?;
        if sources.is_empty() {
            return Err(DrangeError::InvalidSpec(
                "the engine needs at least one harvest source".into(),
            ));
        }
        let tracer = registry.map_or_else(Tracer::noop, MetricsRegistry::tracer);
        let shared = Arc::new(Shared {
            pool: Mutex::new(Pool {
                bits: ScreenedQueue::default(),
                gate: WatermarkGate::new(config.low_watermark, config.queue_capacity),
                demand: 0,
            }),
            bits_available: Condvar::new(),
            space_available: Condvar::new(),
            shutdown: Flag::new(),
            live_workers: LiveCount::new(sources.len()),
            in_flight_bits: BitLedger::new(),
            demand_trace: CounterCell::new(),
            served_bits: CounterCell::new(),
            first_error: Mutex::new(None),
        });
        if let Some(reg) = registry {
            let cells = Arc::clone(&shared);
            reg.export(
                MetricKind::Counter,
                "drange_served_bits_total",
                &[],
                move || cells.served_bits.get(),
            );
            let cells = Arc::clone(&shared);
            reg.export(MetricKind::Gauge, "drange_pool_bits", &[], move || {
                cells.pool.lock().bits.len() as u64
            });
        }
        let mut counters = Vec::with_capacity(sources.len());
        let mut workers = Vec::with_capacity(sources.len());
        for (index, source) in sources.into_iter().enumerate() {
            let ctr = Arc::new(WorkerCounters::default());
            let worker = index.to_string();
            if let Some(reg) = registry {
                ctr.export(reg, &worker);
            }
            counters.push(Arc::clone(&ctr));
            let stage = |stage: &str| {
                registry.map_or_else(Histogram::noop, |reg| {
                    let labels = [("stage", stage), ("worker", worker.as_str())];
                    reg.histogram("drange_stage_latency_ns", &labels)
                })
            };
            let stages = StageHistograms {
                harvest: stage("harvest"),
                health: stage("health"),
                publish: stage("publish"),
            };
            let handle = std::thread::Builder::new()
                .name(format!("drange-worker-{index}"))
                .spawn({
                    let shared = Arc::clone(&shared);
                    let min_entropy = config.min_entropy;
                    let max_rejects = config.max_consecutive_rejects;
                    let tracer = tracer.clone();
                    move || {
                        worker_loop(
                            index,
                            source,
                            &shared,
                            &ctr,
                            &stages,
                            &tracer,
                            min_entropy,
                            max_rejects,
                        );
                    }
                })
                .map_err(|e| DrangeError::Engine(format!("spawning worker {index}: {e}")))?;
            workers.push(handle);
        }
        Ok(HarvestEngine {
            config,
            shared,
            counters,
            telemetry: EngineTelemetry::new(registry),
            tracer,
            registry: registry.cloned(),
            workers,
        })
    }

    /// The registry the engine exports into, if it was given one.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of worker threads the engine was spawned with.
    pub fn workers(&self) -> usize {
        self.counters.len()
    }

    /// Bits currently queued in the shared pool.
    pub fn queued_bits(&self) -> usize {
        self.shared.pool.lock().bits.len()
    }

    /// Cumulative RCT/APT health-trip counts summed over all workers.
    ///
    /// A cheap read of the workers' lock-free counter cells — unlike
    /// [`HarvestEngine::stats`] it allocates nothing, so the DRBG tier
    /// can consult it on every reseed decision
    /// ([`crate::drbg::SeedSource`]).
    pub fn health_trip_counts(&self) -> TripCounts {
        let mut trips = TripCounts::default();
        for counters in &self.counters {
            trips.repetition += counters.repetition_trips.get();
            trips.adaptive += counters.adaptive_trips.get();
        }
        trips
    }

    /// Bits discarded by health screening across all workers — a read
    /// of the workers' counter cells, without the pool lock.
    pub fn discarded_bits(&self) -> u64 {
        self.counters.iter().map(|c| c.discarded_bits.get()).sum()
    }

    /// Cell-lifecycle counters merged across the lifecycle-running
    /// workers (`None` when no worker runs one). Locks only the
    /// workers' lifecycle cells.
    pub fn lifecycle(&self) -> Option<LifecycleStats> {
        self.counters
            .iter()
            .filter_map(|c| *c.lifecycle.lock())
            .reduce(LifecycleStats::merge)
    }

    /// Whether any lifecycle-running worker reports degraded (reduced
    /// but honest) throughput — [`EngineStats::is_degraded`] without
    /// building the snapshot. Always `false` for engines without a cell
    /// lifecycle.
    pub fn is_degraded(&self) -> bool {
        self.lifecycle().is_some_and(|l| l.degraded)
    }

    /// The first error any worker recorded, if one has.
    pub fn first_error(&self) -> Option<DrangeError> {
        self.shared.first_error.lock().clone()
    }

    /// Blocks until `bits` screened random bits are available and
    /// removes them from the pool.
    ///
    /// Callable from any number of threads concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] when `bits` exceeds the
    /// pool capacity, the first worker error when all workers have
    /// retired, and [`DrangeError::Engine`] when the engine stops
    /// before the request can be served.
    pub fn take_bits(&self, bits: usize) -> Result<Vec<bool>> {
        untimed(self.drain_pool(bits, None, |pool| pool.pop_bools(bits)))
    }

    /// Blocks until `bits` bits are pooled, then removes them with
    /// `drain` under the pool lock; `Ok(None)` when `deadline` passes
    /// first. All client-facing accessors funnel through here so the
    /// waiting/demand/accounting protocol, the served-bit count and the
    /// drain's latency histogram and span exist exactly once.
    ///
    /// The wait is notification-driven: workers notify
    /// `bits_available` after every publish, and every terminal
    /// transition (shutdown, worker retirement) notifies through a lock
    /// barrier — so a plain, untimed wait cannot miss a wakeup and no
    /// polling interval is needed (see `tests/loom_engine.rs`).
    fn drain_pool<T>(
        &self,
        bits: usize,
        deadline: Option<Instant>,
        drain: impl FnOnce(&mut ScreenedQueue) -> T,
    ) -> Result<Option<T>> {
        if bits > self.config.queue_capacity {
            return Err(DrangeError::InvalidSpec(format!(
                "request of {bits} bits exceeds pool capacity {}",
                self.config.queue_capacity
            )));
        }
        // With a recorder attached the span nests under the calling
        // request's trace and its duration is the request's pool-wait
        // share; without a registry the stage reads no clock.
        let mut stage = Stage::start(
            "engine.pool_drain",
            &self.telemetry.take_bits_ns,
            &self.tracer,
        );
        stage.span().attr_u64("bits", bits as u64);
        let mut pool = self.shared.pool.lock();
        // `wait_t0` stays None until (unless) the request actually has
        // to block, so the fast path never reads the clock.
        let mut wait_t0 = None;
        let mut waiting = false;
        let mut expired = false;
        // `Err(())`: the engine stopped; the error is built after the
        // pool lock is released (it takes the `first_error` lock).
        let outcome = loop {
            if pool.bits.len() >= bits {
                break Ok(Some(drain(&mut pool.bits)));
            }
            if self.shared.shutdown.is_raised() || self.shared.live_workers.all_retired() {
                break Err(());
            }
            if expired {
                // The deadline passed and the re-check above still came
                // up short.
                stage.span().attr_bool("timed_out", true);
                break Ok(None);
            }
            if !waiting {
                waiting = true;
                stage.span().event("blocked");
                // Publish the unmet request so workers bypass the gate
                // until it is served. The demand lives under the pool
                // mutex, where the workers' gate check reads it, so
                // this notify cannot land in a worker's check-to-park
                // window.
                pool.demand += bits as u64;
                // Advertise which trace is now blocked on the pool so
                // harvest-side spans can link back to it.
                if let Some(trace) = Tracer::current_trace() {
                    self.shared.demand_trace.set(trace.as_u64());
                }
                self.shared.space_available.notify_all();
                wait_t0 = self.telemetry.pool_wait_ns.start();
                self.telemetry.pool_waiters.add(1);
            }
            match deadline {
                None => pool = self.shared.bits_available.wait(pool),
                Some(d) => {
                    // One more pass through the checks after a timeout:
                    // a publish may have raced the deadline.
                    (pool, expired) = self.shared.bits_available.wait_until(pool, d);
                }
            }
        };
        if waiting {
            // Retired on every exit, so the gate bypass never outlives
            // the request.
            pool.demand = pool.demand.saturating_sub(bits as u64);
            if pool.demand == 0 {
                self.shared.demand_trace.set(0);
            }
        }
        drop(pool);
        if waiting {
            self.telemetry.pool_waiters.sub(1);
            self.telemetry.pool_wait_ns.observe_since(wait_t0);
        }
        match outcome {
            Ok(Some(out)) => {
                self.shared.served_bits.add(bits as u64);
                self.shared.space_available.notify_all();
                Ok(Some(out))
            }
            Ok(None) => Ok(None),
            Err(()) => Err(self.first_error().unwrap_or_else(|| {
                DrangeError::Engine("engine stopped before the request could be served".into())
            })),
        }
    }

    /// Blocks until `bytes` screened random bytes are available
    /// (MSB-first bit packing, matching the firmware service).
    ///
    /// # Errors
    ///
    /// As [`HarvestEngine::take_bits`]; additionally rejects byte
    /// counts whose bit count overflows `usize`.
    pub fn take_bytes(&self, bytes: usize) -> Result<Vec<u8>> {
        untimed(self.take_bytes_inner(bytes, None))
    }

    /// As [`HarvestEngine::take_bytes`], but gives up and returns
    /// `Ok(None)` once `deadline` passes without enough screened bits
    /// pooled. On timeout the request's demand is retired, so the
    /// workers' gate bypass does not outlive it.
    ///
    /// # Errors
    ///
    /// As [`HarvestEngine::take_bytes`].
    pub fn take_bytes_deadline(&self, bytes: usize, deadline: Instant) -> Result<Option<Vec<u8>>> {
        self.take_bytes_inner(bytes, Some(deadline))
    }

    fn take_bytes_inner(&self, bytes: usize, deadline: Option<Instant>) -> Result<Option<Vec<u8>>> {
        let bits = bytes.checked_mul(8).ok_or_else(|| {
            DrangeError::InvalidSpec(format!("request of {bytes} bytes overflows bit count"))
        })?;
        // Drain straight from the packed pool: whole words big-endian
        // while at least 8 bytes remain, then byte-sized pops — the
        // same MSB-first packing `take_bits` + manual packing produced.
        self.drain_pool(bits, deadline, |pool| {
            let mut out = Vec::with_capacity(bytes);
            while out.len() + 8 <= bytes {
                match pool.pop_word() {
                    Some(w) => out.extend_from_slice(&w.to_be_bytes()),
                    None => break,
                }
            }
            while out.len() < bytes {
                match pool.pop_byte() {
                    Some(b) => out.push(b),
                    None => break,
                }
            }
            out
        })
    }

    /// Snapshot of the engine statistics.
    pub fn stats(&self) -> EngineStats {
        let workers: Vec<WorkerStats> = self
            .counters
            .iter()
            .enumerate()
            .map(|(worker, c)| c.snapshot(worker))
            .collect();
        EngineStats {
            harvested_bits: workers.iter().map(|w| w.harvested_bits).sum(),
            discarded_bits: workers.iter().map(|w| w.discarded_bits).sum(),
            health_trips: workers.iter().map(|w| w.health_trips).sum(),
            repetition_trips: workers.iter().map(|w| w.repetition_trips).sum(),
            adaptive_trips: workers.iter().map(|w| w.adaptive_trips).sum(),
            queued_bits: self.queued_bits(),
            served_bits: self.shared.served_bits.get(),
            in_flight_bits: self.shared.in_flight_bits.outstanding(),
            cache_skip_reads: workers.iter().map(|w| w.cache_skip_reads).sum(),
            cache_hit_reads: workers.iter().map(|w| w.cache_hit_reads).sum(),
            cache_resolve_reads: workers.iter().map(|w| w.cache_resolve_reads).sum(),
            cache_bulk_cells: workers.iter().map(|w| w.cache_bulk_cells).sum(),
            cache_bulk_lane_cells: workers.iter().map(|w| w.cache_bulk_lane_cells).sum(),
            lifecycle: workers
                .iter()
                .filter_map(|w| w.lifecycle)
                .reduce(LifecycleStats::merge),
            faults: workers
                .iter()
                .filter_map(|w| w.faults)
                .reduce(FaultStats::merge),
            workers,
        }
    }

    /// Stops harvesting, joins every worker, and returns the final
    /// statistics. After the join, no bits are in flight: everything
    /// harvested is queued, served, or discarded.
    pub fn shutdown(mut self) -> EngineStats {
        self.halt();
        self.stats()
    }

    /// Idempotent stop-and-join.
    fn halt(&mut self) {
        self.shared.shutdown.raise();
        // Lock barrier: a client or a paused worker that checked the
        // shutdown flag just before it was raised still holds the pool
        // mutex until it parks, so acquiring (and releasing) the mutex
        // here orders these notifies after that park — without it the
        // wakeup lands in the check-to-park window and is lost: with no
        // timeout polls that is a real deadlock, not a latency blip,
        // and the timeout-free loom model catches it (see
        // tests/loom_engine.rs).
        drop(self.shared.pool.lock());
        self.shared.bits_available.notify_all();
        self.shared.space_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HarvestEngine {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Unwraps an untimed drain. Without a deadline `drain_pool` only
/// returns on success or error, but the no-panic policy forbids
/// asserting so.
fn untimed<T>(out: Result<Option<T>>) -> Result<T> {
    out?.ok_or_else(|| DrangeError::Engine("untimed pool drain reported a timeout".into()))
}

/// Body of one worker thread: harvest, screen, publish, repeat.
#[allow(clippy::too_many_arguments)]
fn worker_loop<S: HarvestSource>(
    index: usize,
    source: S,
    shared: &Shared,
    counters: &WorkerCounters,
    stages: &StageHistograms,
    tracer: &Tracer,
    min_entropy: f64,
    max_rejects: u32,
) {
    let error = worker_run(
        index,
        source,
        shared,
        counters,
        stages,
        tracer,
        min_entropy,
        max_rejects,
    );
    if let Some(e) = error {
        let mut slot = shared.first_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }
    // Wake pool waiters so they observe the worker count. The lock
    // barrier orders the notify after any in-progress predicate check
    // parks (see `HarvestEngine::halt`).
    shared.live_workers.retire();
    drop(shared.pool.lock());
    shared.bits_available.notify_all();
}

#[allow(clippy::too_many_arguments)]
fn worker_run<S: HarvestSource>(
    worker: usize,
    mut source: S,
    shared: &Shared,
    counters: &WorkerCounters,
    stages: &StageHistograms,
    tracer: &Tracer,
    min_entropy: f64,
    max_rejects: u32,
) -> Option<DrangeError> {
    let mut health = HealthMonitor::new(min_entropy);
    let mut consecutive_rejects = 0u32;
    // Sensing-cache counters are cumulative on the device; diff against
    // the previous snapshot so the shared counters stay additive.
    let mut last_cache = SenseCacheStats::default();
    // The gate's verdict at this worker's last publish. A paused worker
    // parks here, before harvesting, until clients drain the pool to
    // the low watermark, blocked clients want more than is pooled, or
    // the engine shuts down. Every one of those transitions notifies
    // `space_available` after changing state under the pool mutex.
    let mut admitted = true;
    loop {
        if !admitted {
            let mut pool = shared.pool.lock();
            while !pool.admits() && !shared.shutdown.is_raised() {
                pool = shared.space_available.wait(pool);
            }
            admitted = true;
        }
        if shared.shutdown.is_raised() {
            return None;
        }
        // Each batch is its own root trace on this thread. Requests
        // blocked on the pool advertise their trace id through
        // `demand_trace`; stamping it here links harvest work to the
        // request it unblocks without moving contexts across threads.
        let mut batch_span = tracer.span("engine.batch");
        if batch_span.is_recording() {
            batch_span.attr_u64("worker", worker as u64);
            if let Some(serving) = TraceId::from_u64(shared.demand_trace.get()) {
                batch_span.attr_str("serving_trace", &format!("{serving}"));
            }
        }
        let harvested = {
            let _stage = Stage::start("engine.harvest", &stages.harvest, tracer);
            source.harvest_batch()
        };
        let batch = match harvested {
            Ok(b) => b,
            Err(e) => return Some(e),
        };
        let bits = batch.len() as u64;
        counters.device_time_ps.set(source.device_time_ps());
        counters.batches.add(1);
        counters.harvested_bits.add(bits);
        if let Some(cache) = source.sense_cache_stats() {
            let skip = cache
                .skip_word_reads
                .saturating_sub(last_cache.skip_word_reads);
            let hit = cache.hit_reads.saturating_sub(last_cache.hit_reads);
            let resolve = cache.resolve_reads.saturating_sub(last_cache.resolve_reads);
            counters.cache_skip_reads.add(skip);
            counters.cache_hit_reads.add(hit);
            counters.cache_resolve_reads.add(resolve);
            counters
                .cache_bulk_cells
                .add(cache.bulk_cells.saturating_sub(last_cache.bulk_cells));
            counters.cache_bulk_lane_cells.add(
                cache
                    .bulk_lane_cells
                    .saturating_sub(last_cache.bulk_lane_cells),
            );
            last_cache = cache;
            if batch_span.is_recording() {
                batch_span.attr_u64("cache_skip", skip);
                batch_span.attr_u64("cache_hit", hit);
                batch_span.attr_u64("cache_resolve", resolve);
            }
        }
        if let Some(lc) = source.lifecycle_stats() {
            // The snapshot is the one copy `stats()` and the exported
            // lifecycle series read; the diff against the previous one
            // only feeds span events.
            let prev = counters.lifecycle.lock().replace(lc).unwrap_or_default();
            let quarantined = lc.quarantine_events.saturating_sub(prev.quarantine_events);
            let reinstated = lc.reinstated_cells.saturating_sub(prev.reinstated_cells);
            if quarantined > 0 {
                batch_span.event_u64("lifecycle.quarantine", quarantined);
            }
            if reinstated > 0 {
                batch_span.event_u64("lifecycle.reinstate", reinstated);
            }
        }
        if let Some(faults) = source.fault_stats() {
            *counters.faults.lock() = Some(faults);
        }
        let screened = {
            let _stage = Stage::start("engine.health", &stages.health, tracer);
            health.screen(batch)
        };
        let screened = match screened {
            Ok(screened) => screened,
            Err(trips) => {
                batch_span.event_u64("health.reject", trips.total());
                counters.repetition_trips.add(trips.repetition);
                counters.adaptive_trips.add(trips.adaptive);
                counters.discarded_bits.add(bits);
                // The guard is persistent worker state: it spans request
                // boundaries and resets only when a batch is accepted.
                consecutive_rejects += 1;
                if consecutive_rejects > max_rejects {
                    return Some(DrangeError::Unhealthy(format!(
                        "more than {max_rejects} consecutive batches failed health screening"
                    )));
                }
                continue;
            }
        };
        consecutive_rejects = 0;
        batch_span.attr_u64("bits", bits);
        shared.in_flight_bits.publish(bits);
        let _stage = Stage::start("engine.publish", &stages.publish, tracer);
        // The one shared lock a batch takes: splice it into the pool
        // and ask the gate, in the same critical section, whether to
        // keep filling. The pool is unbounded, so a batch harvested
        // while shutdown was being raised still lands, and every
        // screened bit ends up queued or served.
        {
            let mut pool = shared.pool.lock();
            pool.bits.push(screened);
            admitted = pool.admits();
        }
        shared.in_flight_bits.retire(bits);
        shared.bits_available.notify_all();
    }
}

/// Builds one [`DRange`] per simulated channel from a base device
/// configuration: every channel shares the manufacturing seed (so one
/// RNG-cell catalog applies to all of them) but derives an independent
/// thermal-noise stream, mirroring the paper's independent-channel
/// scaling. With an OS-seeded base configuration the channels are
/// independent by construction. A caller that wants per-channel DRAM
/// command counts attaches each controller to its registry through
/// [`DRange::controller_mut`].
///
/// # Errors
///
/// Propagates [`DRange::new`] errors (e.g. an empty catalog).
pub fn channel_sources(
    base: &DeviceConfig,
    catalog: &RngCellCatalog,
    config: &DRangeConfig,
    channels: usize,
) -> Result<Vec<DRange>> {
    (0..channels)
        .map(|channel| {
            let device = base.clone().with_noise_seed_offset(channel as u64);
            let ctrl = MemoryController::from_config(device);
            DRange::new(ctrl, catalog, config.clone())
        })
        .collect()
}

/// As [`channel_sources`], but wrapping every channel's sampler in the
/// self-healing cell lifecycle ([`ResilientDRange`]); with a
/// `registry`, each channel's controller and lifecycle report there,
/// labeled by channel.
/// When `schedule` is given, each channel gets its own clone of the
/// environmental fault schedule — all channels experience the same
/// scripted environment, as boards in one enclosure would.
///
/// # Errors
///
/// As [`channel_sources`]; additionally rejects invalid lifecycle
/// configurations.
pub fn resilient_channel_sources(
    base: &DeviceConfig,
    catalog: &RngCellCatalog,
    config: &DRangeConfig,
    lifecycle: &crate::lifecycle::LifecycleConfig,
    schedule: Option<&dram_sim::EnvSchedule>,
    channels: usize,
    registry: Option<&MetricsRegistry>,
) -> Result<Vec<ResilientDRange>> {
    (0..channels)
        .map(|channel| {
            let device = base.clone().with_noise_seed_offset(channel as u64);
            let mut ctrl = MemoryController::from_config(device);
            if let Some(reg) = registry {
                ctrl.attach_telemetry(reg, &channel.to_string());
            }
            let mut source = ResilientDRange::new(ctrl, catalog, config.clone(), *lifecycle)?;
            if let Some(reg) = registry {
                source.attach_telemetry(reg, &channel.to_string());
            }
            if let Some(s) = schedule {
                source = source.with_schedule(s.clone());
            }
            Ok(source)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Deterministic healthy source: splitmix64-derived bits.
    #[derive(Debug)]
    struct PrngSource {
        state: u64,
        batch: usize,
    }

    impl PrngSource {
        fn new(seed: u64, batch: usize) -> Self {
            PrngSource { state: seed, batch }
        }

        fn next_bit(&mut self) -> bool {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 1
        }
    }

    impl HarvestSource for PrngSource {
        fn harvest_batch(&mut self) -> Result<BitBlock> {
            Ok((0..self.batch).map(|_| self.next_bit()).collect())
        }
    }

    /// A stuck source: every batch is all-zero, so health screening
    /// rejects every batch.
    #[derive(Debug)]
    struct StuckSource {
        batch: usize,
    }

    impl HarvestSource for StuckSource {
        fn harvest_batch(&mut self) -> Result<BitBlock> {
            Ok((0..self.batch).map(|_| false).collect())
        }
    }

    /// Unhealthy in stretches: `reject_run` all-zero batches, then one
    /// healthy batch, repeating.
    #[derive(Debug)]
    struct StretchSource {
        healthy: PrngSource,
        reject_run: u32,
        position: u32,
    }

    impl HarvestSource for StretchSource {
        fn harvest_batch(&mut self) -> Result<BitBlock> {
            self.position = (self.position + 1) % (self.reject_run + 1);
            if self.position == 0 {
                // Lead with a one so the zero-run of the preceding
                // rejected stretch cannot spill into this batch's
                // repetition count.
                let mut bits: Vec<bool> = (0..self.healthy.batch)
                    .map(|_| self.healthy.next_bit())
                    .collect();
                bits[0] = true;
                Ok(BitBlock::from_bools(&bits))
            } else {
                Ok((0..self.healthy.batch).map(|_| false).collect())
            }
        }
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            queue_capacity: 1 << 12,
            low_watermark: 1 << 8,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HarvestEngine>();
        assert_send_sync::<EngineStats>();
    }

    #[test]
    fn serves_bits_and_bytes() {
        let engine =
            HarvestEngine::spawn(vec![PrngSource::new(7, 128)], small_config(), None).unwrap();
        let bits = engine.take_bits(100).unwrap();
        assert_eq!(bits.len(), 100);
        let bytes = engine.take_bytes(32).unwrap();
        assert_eq!(bytes.len(), 32);
        let stats = engine.shutdown();
        assert!(stats.harvested_bits >= 100 + 256);
        assert_eq!(stats.served_bits, 100 + 256);
    }

    #[test]
    fn accounting_balances_after_shutdown() {
        let sources = (0..3).map(|i| PrngSource::new(11 + i, 64)).collect();
        let engine = HarvestEngine::spawn(sources, small_config(), None).unwrap();
        for _ in 0..10 {
            let _ = engine.take_bits(200).unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(
            stats.in_flight_bits, 0,
            "graceful shutdown leaves nothing in flight"
        );
        assert_eq!(
            stats.harvested_bits,
            stats.queued_bits as u64 + stats.served_bits + stats.discarded_bits,
            "{stats:?}"
        );
        assert_eq!(stats.served_bits, 2000);
    }

    #[test]
    fn backpressure_bounds_the_pool() {
        let config = EngineConfig {
            queue_capacity: 1 << 10,
            low_watermark: 1 << 6,
            ..EngineConfig::default()
        };
        let batch = 64usize;
        let workers = 2usize;
        let sources = (0..workers as u64)
            .map(|i| PrngSource::new(3 + i, batch))
            .collect();
        let engine = HarvestEngine::spawn(sources, config, None).unwrap();
        // Let the engine idle-fill, then check the pool respects its
        // capacity plus at most one batch per worker.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.queued_bits() < config.queue_capacity && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        let bound = config.queue_capacity + workers * batch;
        let queued = engine.queued_bits();
        assert!(
            queued <= bound,
            "pool {queued} exceeds capacity {} + one batch per worker",
            config.queue_capacity
        );
        let stats = engine.shutdown();
        // Idle harvesting stopped: a paused worker parks before it
        // harvests again, so nothing was harvested beyond what the pool
        // holds.
        assert!(
            stats.harvested_bits <= bound as u64,
            "{} > {bound}",
            stats.harvested_bits
        );
    }

    #[test]
    fn permanently_unhealthy_source_errors_instead_of_spinning() {
        let config = EngineConfig {
            max_consecutive_rejects: 50,
            ..small_config()
        };
        let engine = HarvestEngine::spawn(vec![StuckSource { batch: 64 }], config, None).unwrap();
        let err = engine.take_bits(64).unwrap_err();
        assert!(matches!(err, DrangeError::Unhealthy(_)), "got {err:?}");
        let stats = engine.shutdown();
        assert_eq!(stats.harvested_bits, stats.discarded_bits);
        assert!(stats.health_trips > 0);
    }

    #[test]
    fn rejection_guard_resets_on_accepted_batch() {
        // 10-batch unhealthy stretches separated by single healthy
        // batches: the persistent counter resets on every acceptance,
        // so the engine keeps serving rather than erroring — without
        // the reset, ten periods would blow far past the limit. The
        // limit leaves a wide margin because an adaptive-proportion
        // window can straddle from a rejected zero-stretch into a
        // healthy batch and occasionally reject it too.
        let config = EngineConfig {
            max_consecutive_rejects: 100,
            ..small_config()
        };
        let source = StretchSource {
            healthy: PrngSource::new(5, 256),
            reject_run: 10,
            position: 0,
        };
        let engine = HarvestEngine::spawn(vec![source], config, None).unwrap();
        let bits = engine.take_bits(1024).unwrap();
        assert_eq!(bits.len(), 1024);
        // The runtime twin of `ScreenedQueue`'s type: every batch is 256
        // bits, so each 256-bit chunk served is one accepted batch, led
        // by its planted one. A rejected all-zero batch that reached the
        // pool would show up here as a chunk of zeros.
        for (i, chunk) in bits.chunks(256).enumerate() {
            assert!(chunk[0], "chunk {i} does not start a healthy batch");
            assert!(chunk.iter().any(|&b| b), "chunk {i} is all zero");
        }
        assert!(engine.first_error().is_none(), "{:?}", engine.first_error());
        let stats = engine.shutdown();
        assert!(
            stats.discarded_bits > 0,
            "unhealthy stretches were screened out"
        );
    }

    #[test]
    fn erroring_source_propagates_to_clients() {
        #[derive(Debug)]
        struct FailingSource;
        impl HarvestSource for FailingSource {
            fn harvest_batch(&mut self) -> Result<BitBlock> {
                Err(DrangeError::Engine("synthetic device fault".into()))
            }
        }
        let engine = HarvestEngine::spawn(vec![FailingSource], small_config(), None).unwrap();
        let err = engine.take_bits(8).unwrap_err();
        assert!(matches!(err, DrangeError::Engine(_)), "got {err:?}");
    }

    #[test]
    fn oversized_take_rejected() {
        let engine =
            HarvestEngine::spawn(vec![PrngSource::new(1, 32)], small_config(), None).unwrap();
        assert!(engine.take_bits(1 << 20).is_err());
        assert!(
            engine.take_bytes(usize::MAX / 4).is_err(),
            "bit count overflow"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad_watermarks = EngineConfig {
            queue_capacity: 10,
            low_watermark: 100,
            ..EngineConfig::default()
        };
        assert!(HarvestEngine::spawn(vec![PrngSource::new(1, 32)], bad_watermarks, None).is_err());
        let no_sources: Vec<PrngSource> = Vec::new();
        assert!(HarvestEngine::spawn(no_sources, EngineConfig::default(), None).is_err());
    }

    #[test]
    fn telemetry_records_stages_counters_and_pool() {
        let registry = MetricsRegistry::new();
        let engine = HarvestEngine::spawn(
            vec![PrngSource::new(42, 128)],
            small_config(),
            Some(&registry),
        )
        .unwrap();
        let _ = engine.take_bits(512).unwrap();
        let stats = engine.shutdown();

        let text = registry.render_prometheus();
        for series in [
            "drange_stage_latency_ns_count{stage=\"harvest\",worker=\"0\"}",
            "drange_stage_latency_ns_count{stage=\"health\",worker=\"0\"}",
            "drange_stage_latency_ns_count{stage=\"publish\",worker=\"0\"}",
            "drange_take_bits_latency_ns_count",
            "drange_pool_bits",
            "drange_health_trips_total{test=\"adaptive\",worker=\"0\"}",
            "drange_health_trips_total{test=\"repetition\",worker=\"0\"}",
            "drange_cache_reads_total{kind=\"hit\",worker=\"0\"}",
            "drange_cache_reads_total{kind=\"skip\",worker=\"0\"}",
            "drange_cache_reads_total{kind=\"resolve\",worker=\"0\"}",
        ] {
            assert!(text.contains(series), "missing series {series} in:\n{text}");
        }
        // Counters mirror the atomic stats exactly.
        let find = |name: &str, labels: &[(&str, &str)]| -> u64 {
            registry
                .samples()
                .into_iter()
                .find(|s| {
                    s.name == name
                        && s.labels
                            == labels
                                .iter()
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                                .collect::<Vec<_>>()
                })
                .and_then(|s| match s.value {
                    drange_telemetry::MetricValue::Counter(v) => Some(v),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(
            find("drange_worker_harvested_bits_total", &[("worker", "0")]),
            stats.harvested_bits
        );
        assert_eq!(find("drange_served_bits_total", &[]), stats.served_bits);
        assert_eq!(
            stats.repetition_trips + stats.adaptive_trips,
            stats.health_trips
        );
    }

    #[test]
    fn spawn_without_registry_keeps_telemetry_noop() {
        let engine =
            HarvestEngine::spawn(vec![PrngSource::new(9, 64)], small_config(), None).unwrap();
        assert!(!engine.telemetry.take_bits_ns.is_live());
        assert!(
            engine.telemetry.take_bits_ns.start().is_none(),
            "noop skips the clock"
        );
        let _ = engine.take_bits(32).unwrap();
        engine.shutdown();
    }

    #[test]
    fn unhealthy_trips_are_split_by_test_in_stats() {
        let config = EngineConfig {
            max_consecutive_rejects: 50,
            ..small_config()
        };
        let engine = HarvestEngine::spawn(vec![StuckSource { batch: 64 }], config, None).unwrap();
        let _ = engine.take_bits(64).unwrap_err();
        let stats = engine.shutdown();
        assert_eq!(
            stats.repetition_trips + stats.adaptive_trips,
            stats.health_trips
        );
        assert!(
            stats.repetition_trips > 0,
            "stuck source must fire the RCT: {stats:?}"
        );
        assert_eq!(stats.workers[0].repetition_trips, stats.repetition_trips);
        assert_eq!(stats.workers[0].adaptive_trips, stats.adaptive_trips);
    }

    #[test]
    fn cache_stats_flow_into_worker_and_engine_stats() {
        /// Healthy source that reports synthetic cumulative cache
        /// counters: 6 skips, 3 hits, 1 resolve per batch (hit rate
        /// 0.9), so the worker's per-batch diffing is checkable.
        #[derive(Debug)]
        struct CachedPrngSource {
            inner: PrngSource,
            stats: SenseCacheStats,
        }
        impl HarvestSource for CachedPrngSource {
            fn harvest_batch(&mut self) -> Result<BitBlock> {
                self.stats.skip_word_reads += 6;
                self.stats.hit_reads += 3;
                self.stats.resolve_reads += 1;
                self.stats.bulk_cells += 10;
                self.stats.bulk_lane_cells += 8;
                self.inner.harvest_batch()
            }
            fn sense_cache_stats(&self) -> Option<SenseCacheStats> {
                Some(self.stats)
            }
        }
        let source = CachedPrngSource {
            inner: PrngSource::new(21, 128),
            stats: SenseCacheStats::default(),
        };
        let engine = HarvestEngine::spawn(vec![source], small_config(), None).unwrap();
        let _ = engine.take_bits(256).unwrap();
        let stats = engine.shutdown();
        let w = stats.workers[0];
        assert!(w.batches > 0);
        assert_eq!(w.cache_skip_reads, 6 * w.batches);
        assert_eq!(w.cache_hit_reads, 3 * w.batches);
        assert_eq!(w.cache_resolve_reads, w.batches);
        assert_eq!(w.cache_bulk_cells, 10 * w.batches);
        assert_eq!(w.cache_bulk_lane_cells, 8 * w.batches);
        assert_eq!(stats.cache_skip_reads, w.cache_skip_reads);
        assert_eq!(stats.cache_hit_reads, w.cache_hit_reads);
        assert_eq!(stats.cache_resolve_reads, w.cache_resolve_reads);
        assert_eq!(stats.cache_bulk_cells, w.cache_bulk_cells);
        assert_eq!(stats.cache_bulk_lane_cells, w.cache_bulk_lane_cells);
        assert!((w.lane_utilization() - 0.8).abs() < 1e-12);
        assert!((stats.lane_utilization() - 0.8).abs() < 1e-12);
        assert!((w.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert!((stats.cache_hit_rate() - 0.9).abs() < 1e-12);
        // A stats snapshot with no cache activity reports a 0.0 rate.
        let inactive = WorkerStats {
            cache_skip_reads: 0,
            cache_hit_reads: 0,
            cache_resolve_reads: 0,
            ..w
        };
        assert_eq!(inactive.cache_hit_rate(), 0.0);
    }

    #[test]
    fn lifecycle_and_fault_stats_flow_into_engine_stats() {
        /// Healthy source reporting scripted lifecycle + fault
        /// snapshots (cumulative event counters tick once per batch),
        /// toggleable so one worker can run without them.
        #[derive(Debug)]
        struct LifecycleSource {
            inner: PrngSource,
            batches: u64,
            enabled: bool,
        }
        impl HarvestSource for LifecycleSource {
            fn harvest_batch(&mut self) -> Result<BitBlock> {
                self.batches += 1;
                self.inner.harvest_batch()
            }
            fn lifecycle_stats(&self) -> Option<LifecycleStats> {
                self.enabled.then_some(LifecycleStats {
                    live_cells: 100,
                    quarantined_cells: 3,
                    retired_cells: 1,
                    quarantine_events: self.batches,
                    reinstated_cells: 0,
                    promoted_words: 1,
                    recharacterizations: 2,
                    degraded: true,
                })
            }
            fn fault_stats(&self) -> Option<FaultStats> {
                self.enabled.then_some(FaultStats {
                    temperature_events: self.batches,
                    ..FaultStats::default()
                })
            }
        }
        let registry = MetricsRegistry::new();
        let sources = vec![
            LifecycleSource {
                inner: PrngSource::new(31, 128),
                batches: 0,
                enabled: true,
            },
            LifecycleSource {
                inner: PrngSource::new(32, 128),
                batches: 0,
                enabled: false,
            },
        ];
        let engine = HarvestEngine::spawn(sources, small_config(), Some(&registry)).unwrap();
        let _ = engine.take_bits(512).unwrap();
        let stats = engine.shutdown();
        // Aggregation covers exactly the lifecycle-running worker.
        assert!(stats.is_degraded());
        let lc = stats.lifecycle.expect("worker 0 runs a lifecycle");
        assert_eq!(lc.live_cells, 100);
        assert_eq!(lc.quarantined_cells, 3);
        assert_eq!(lc.quarantine_events, stats.workers[0].batches);
        assert!(stats.workers[1].lifecycle.is_none());
        let faults = stats.faults.expect("worker 0 reports fault counters");
        assert_eq!(faults.temperature_events, stats.workers[0].batches);
        // The diffed telemetry counters and snapshot gauges export the
        // same numbers under the documented series names.
        let text = registry.render_prometheus();
        for series in [
            "drange_lifecycle_cells{state=\"live\",worker=\"0\"}",
            "drange_lifecycle_cells{state=\"quarantined\",worker=\"0\"}",
            "drange_lifecycle_cells{state=\"retired\",worker=\"0\"}",
            "drange_degraded{worker=\"0\"}",
            "drange_lifecycle_events_total{event=\"quarantine\",worker=\"0\"}",
            "drange_lifecycle_events_total{event=\"recharacterize\",worker=\"0\"}",
            "drange_injected_faults_total{kind=\"temperature\",worker=\"0\"}",
        ] {
            assert!(text.contains(series), "missing series {series} in:\n{text}");
        }
        // An engine of plain sources reports no lifecycle at all.
        let plain =
            HarvestEngine::spawn(vec![PrngSource::new(33, 64)], small_config(), None).unwrap();
        let _ = plain.take_bits(64).unwrap();
        let stats = plain.shutdown();
        assert!(stats.lifecycle.is_none());
        assert!(stats.faults.is_none());
        assert!(!stats.is_degraded());
    }

    #[test]
    fn concurrent_clients_each_get_full_buffers() {
        let sources = (0..2).map(|i| PrngSource::new(100 + i, 128)).collect();
        let engine =
            Arc::new(HarvestEngine::spawn::<PrngSource>(sources, small_config(), None).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut total = 0usize;
                for i in 0..8 {
                    let n = 16 + (t * 8 + i) % 32;
                    let bytes = engine.take_bytes(n).unwrap();
                    assert_eq!(bytes.len(), n);
                    total += n;
                }
                total
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let engine = Arc::try_unwrap(engine).expect("all clients done");
        let stats = engine.shutdown();
        assert_eq!(stats.served_bits, total as u64 * 8);
    }
}
