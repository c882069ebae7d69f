//! The full-system integration of Section 6.3: a firmware-style
//! randomness service with a REQUEST/RECEIVE interface over the
//! concurrent harvesting engine.
//!
//! Applications `request` random bytes and later collect them with
//! `wait_receive`. The service is a thin adapter over the engine's one
//! queue of screened bits: `request` records an id and its byte count,
//! and the first `wait_receive` on that id claims it and draws the
//! bytes from the pool, blocking while the workers harvest. Refilling
//! is continuous and happens off the request path — the engine's
//! worker threads (one per simulated channel) keep the pool topped up
//! between the low watermark and the queue capacity, and per-worker
//! health monitors discard output that fails the online tests (the
//! paper's firmware routine, "whenever an application requests random
//! samples and there is available DRAM bandwidth", generalized to a
//! multi-channel system).

use std::collections::HashMap;

use drange_telemetry::{Counter, Histogram, MetricsRegistry, Stage, Tracer};

use crate::drbg::{DrbgConfig, DrbgFarm, DrbgStats};
use crate::engine::{EngineConfig, EngineStats, HarvestEngine, HarvestSource};
use crate::error::{DrangeError, Result};
use crate::sync::{Mutex, SequenceCounter};

/// Identifier of a filed randomness request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

/// Configuration of the randomness service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Bits kept ready in the firmware queue.
    pub queue_capacity: usize,
    /// Refill when the queue drops below this many bits.
    pub low_watermark: usize,
    /// Claimed min-entropy for the health monitors (bits/bit).
    pub min_entropy: f64,
    /// Conditioning tier behind [`RandomnessService::generate_fast`]:
    /// `Some` builds a per-shard ChaCha20 DRBG farm over the engine
    /// (the `fast` QoS tier, DESIGN.md §5k), `None` disables it — fast
    /// generates then fail with [`DrangeError::InvalidSpec`] while the
    /// raw REQUEST/RECEIVE (`true`) tier is unaffected.
    pub drbg: Option<DrbgConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1 << 16,
            low_watermark: 1 << 12,
            min_entropy: 0.95,
            drbg: Some(DrbgConfig::default()),
        }
    }
}

/// Telemetry handles for the request front-end. All handles are no-ops
/// when the service was built without a registry.
#[derive(Debug, Clone, Default)]
struct ServiceTelemetry {
    requests: Counter,
    request_bytes: Counter,
    completed: Counter,
    wait_receive_ns: Histogram,
}

impl ServiceTelemetry {
    fn new(registry: Option<&MetricsRegistry>) -> Self {
        let Some(reg) = registry else {
            return ServiceTelemetry::default();
        };
        ServiceTelemetry {
            requests: reg.counter("drange_requests_total", &[]),
            request_bytes: reg.counter("drange_request_bytes_total", &[]),
            completed: reg.counter("drange_requests_completed_total", &[]),
            wait_receive_ns: reg.histogram("drange_wait_receive_latency_ns", &[]),
        }
    }
}

/// The firmware randomness service (REQUEST/RECEIVE over the
/// multi-channel harvesting engine).
///
/// All methods take `&self`: share the service between client threads
/// by reference (it is `Sync`) or in an `Arc`.
#[derive(Debug)]
pub struct RandomnessService {
    engine: HarvestEngine,
    /// Filed requests not yet claimed by a `wait_receive`: id → bytes.
    filed: Mutex<HashMap<RequestId, usize>>,
    next_id: SequenceCounter,
    config: ServiceConfig,
    telemetry: ServiceTelemetry,
    tracer: Tracer,
    /// The conditioning tier (`fast` QoS), when configured.
    drbg: Option<DrbgFarm>,
}

impl RandomnessService {
    /// Builds the service over one harvesting worker per source —
    /// typically one [`crate::DRange`] per simulated channel (see
    /// [`crate::engine::channel_sources`]).
    ///
    /// With a `registry`, the service, its engine and its DRBG farm
    /// export their metrics there and trace through its tracer (live
    /// when it carries a flight recorder); with `None` they still count
    /// for `stats()`, but export nothing and read no clock.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] for inconsistent watermarks,
    /// an empty source list, or a DRBG reseed larger than the pool can
    /// ever hold (every fast generate would fail); propagates engine
    /// spawn failures.
    pub fn with_sources_telemetry<S: HarvestSource>(
        sources: Vec<S>,
        config: ServiceConfig,
        registry: Option<&MetricsRegistry>,
    ) -> Result<Self> {
        if let Some(drbg) = &config.drbg {
            if drbg.seed_bytes.saturating_mul(8) > config.queue_capacity {
                return Err(DrangeError::InvalidSpec(format!(
                    "a drbg seed of {} bytes exceeds the pool capacity of {} bits",
                    drbg.seed_bytes, config.queue_capacity
                )));
            }
        }
        let engine = HarvestEngine::spawn(
            sources,
            EngineConfig {
                queue_capacity: config.queue_capacity,
                low_watermark: config.low_watermark,
                min_entropy: config.min_entropy,
                ..EngineConfig::default()
            },
            registry,
        )?;
        let drbg = match config.drbg {
            Some(drbg_config) => Some(DrbgFarm::new(drbg_config, engine.workers(), registry)?),
            None => None,
        };
        Ok(RandomnessService {
            engine,
            filed: Mutex::new(HashMap::new()),
            next_id: SequenceCounter::new(),
            config,
            telemetry: ServiceTelemetry::new(registry),
            tracer: registry.map_or_else(Tracer::noop, MetricsRegistry::tracer),
            drbg,
        })
    }

    /// Files a request for `bytes` random bytes, returning its id. No
    /// bits move until a [`RandomnessService::wait_receive`] claims the
    /// id.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] when a single request
    /// exceeds the queue capacity or its bit count overflows.
    pub fn request(&self, bytes: usize) -> Result<RequestId> {
        let bits = bytes.checked_mul(8).ok_or_else(|| {
            DrangeError::InvalidSpec(format!(
                "request of {bytes} bytes overflows the bit accounting"
            ))
        })?;
        if bits > self.config.queue_capacity {
            return Err(DrangeError::InvalidSpec(format!(
                "request of {bytes} bytes exceeds queue capacity"
            )));
        }
        let id = RequestId(self.next_id.next());
        let mut span = self.tracer.span("service.request");
        if span.is_recording() {
            span.attr_u64("bytes", bytes as u64);
            span.attr_u64("request_id", id.0);
        }
        self.telemetry.requests.inc();
        self.telemetry.request_bytes.add(bytes as u64);
        self.filed.lock().insert(id, bytes);
        Ok(id)
    }

    /// Claims a filed request and returns its bytes, blocking until the
    /// engine's pool can supply them. The first call on an id claims
    /// it, whatever the outcome: an engine error consumes the id too.
    /// A zero-byte request completes at once without touching the
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. a persistently unhealthy source
    /// retiring the last worker), and returns
    /// [`DrangeError::InvalidSpec`] for an id that was never filed on
    /// this service or was already claimed.
    pub fn wait_receive(&self, id: RequestId) -> Result<Vec<u8>> {
        // The wait stage covers the engine call, so the engine's
        // `engine.pool_drain` span nests under it through the
        // thread-local context.
        let mut stage = Stage::start(
            "service.wait",
            &self.telemetry.wait_receive_ns,
            &self.tracer,
        );
        stage.span().attr_u64("request_id", id.0);
        let claimed = self.filed.lock().remove(&id);
        let out = match claimed {
            None => Err(DrangeError::InvalidSpec(
                "unknown or already-received request id".into(),
            )),
            Some(0) => Ok(Vec::new()),
            Some(bytes) => self.engine.take_bytes(bytes),
        };
        drop(stage);
        if out.is_ok() {
            self.telemetry.completed.inc();
        }
        out
    }

    /// Serves `bytes` of conditioned output from the DRBG tier — the
    /// `fast` QoS path (DESIGN.md §5k). Synchronous and lock-light:
    /// one round-robin shard mutex, no request id, no engine wait
    /// unless the picked shard is due a reseed.
    ///
    /// A zero-byte request completes immediately without minting a
    /// DRBG generate (no shard is touched, no reseed can trigger, and
    /// `drange_drbg_generates_total` does not move) — the fast-tier
    /// analogue of [`RandomnessService::wait_receive`]'s zero-byte
    /// path.
    ///
    /// # Errors
    ///
    /// [`DrangeError::InvalidSpec`] when the service was built with
    /// [`ServiceConfig::drbg`] `None` or the request exceeds
    /// [`DrbgConfig::max_generate_bytes`]; [`DrangeError::Unhealthy`] /
    /// [`DrangeError::Engine`] when the shard needs its first seed and
    /// the reseed is blocked by a health trip or starved by the pool.
    pub fn generate_fast(&self, bytes: usize) -> Result<Vec<u8>> {
        if bytes == 0 {
            return Ok(Vec::new());
        }
        self.farm()?.generate(&self.engine, bytes)
    }

    /// As [`RandomnessService::generate_fast`], with prediction
    /// resistance: the serving shard absorbs fresh pool entropy
    /// immediately before generating, or the call fails.
    ///
    /// # Errors
    ///
    /// As [`RandomnessService::generate_fast`], plus
    /// [`DrangeError::Unhealthy`] when the forced reseed is blocked by
    /// a health trip and [`DrangeError::Engine`] when it starves.
    pub fn generate_fast_pr(&self, bytes: usize) -> Result<Vec<u8>> {
        if bytes == 0 {
            return Ok(Vec::new());
        }
        self.farm()?.generate_pr(&self.engine, bytes)
    }

    /// Whether the conditioning tier is configured (fast generates can
    /// be served).
    pub fn conditioning_enabled(&self) -> bool {
        self.drbg.is_some()
    }

    /// Aggregated DRBG-farm statistics, or `None` when the
    /// conditioning tier is disabled.
    pub fn drbg_stats(&self) -> Option<DrbgStats> {
        self.drbg.as_ref().map(DrbgFarm::stats)
    }

    fn farm(&self) -> Result<&DrbgFarm> {
        self.drbg.as_ref().ok_or_else(|| {
            DrangeError::InvalidSpec(
                "the conditioning tier is disabled (ServiceConfig::drbg is None)".into(),
            )
        })
    }

    /// Bits currently queued and ready to serve.
    pub fn queued_bits(&self) -> usize {
        self.engine.queued_bits()
    }

    /// Bits discarded by the health monitors.
    pub fn discarded_bits(&self) -> u64 {
        self.engine.discarded_bits()
    }

    /// Ids filed and not yet claimed by a
    /// [`RandomnessService::wait_receive`]. A front-end that files a
    /// request per connection can assert this returns to zero when its
    /// clients disconnect: a nonzero steady-state value means request
    /// ids are leaking.
    pub fn outstanding_requests(&self) -> usize {
        self.filed.lock().len()
    }

    /// Engine-level statistics (harvested/discarded/queued bits and
    /// per-channel throughput).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The underlying harvesting engine.
    pub fn engine(&self) -> &HarvestEngine {
        &self.engine
    }

    /// The tracer this service emits spans into: its registry's
    /// ([`Tracer::noop`] unless the registry carries a flight
    /// recorder).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether any harvest worker currently reports a degraded RNG-cell
    /// population (live cells below the configured fraction of the
    /// initial catalog). Always `false` for sources without a lifecycle
    /// manager.
    pub fn is_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// Aggregated RNG-cell lifecycle statistics across all workers, or
    /// `None` when no source reports lifecycle state.
    pub fn lifecycle(&self) -> Option<crate::lifecycle::LifecycleStats> {
        self.engine.lifecycle()
    }

    /// Stops harvesting, joins the engine's threads, and returns the
    /// final statistics. Dropping the service performs the same join
    /// implicitly.
    pub fn shutdown(self) -> EngineStats {
        self.engine.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitBlock;
    use crate::identify::{IdentifySpec, RngCellCatalog};
    use crate::profiler::{ProfileSpec, Profiler};
    use crate::sampler::{DRange, DRangeConfig};
    use dram_sim::{DeviceConfig, Manufacturer};
    use memctrl::MemoryController;
    use std::time::Duration;

    fn fresh_ctrl() -> MemoryController {
        MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(42)
                .with_noise_seed(777),
        )
    }

    /// Profiling and identification are deterministic for fixed seeds,
    /// so the catalog is built once and shared across tests.
    fn catalog() -> &'static RngCellCatalog {
        static CATALOG: std::sync::OnceLock<RngCellCatalog> = std::sync::OnceLock::new();
        CATALOG.get_or_init(|| {
            let mut ctrl = fresh_ctrl();
            let profile = Profiler::new(&mut ctrl)
                .run(
                    ProfileSpec {
                        banks: (0..8).collect(),
                        rows: 0..128,
                        cols: 0..16,
                        ..ProfileSpec::default()
                    }
                    .with_iterations(25),
                )
                .unwrap();
            RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default()).unwrap()
        })
    }

    fn generator() -> DRange {
        DRange::new(fresh_ctrl(), catalog(), DRangeConfig::default()).unwrap()
    }

    fn service_over<S: HarvestSource>(source: S, config: ServiceConfig) -> RandomnessService {
        RandomnessService::with_sources_telemetry(vec![source], config, None).unwrap()
    }

    fn service() -> RandomnessService {
        service_over(generator(), ServiceConfig::default())
    }

    /// A stuck source whose batches always fail health screening.
    #[derive(Debug)]
    struct StuckSource;

    impl HarvestSource for StuckSource {
        fn harvest_batch(&mut self) -> Result<BitBlock> {
            Ok((0..64).map(|_| false).collect())
        }
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RandomnessService>();
    }

    #[test]
    fn request_receive_round_trip() {
        let s = service();
        let id1 = s.request(32).unwrap();
        let id2 = s.request(16).unwrap();
        assert_eq!(s.outstanding_requests(), 2);
        let k2 = s.wait_receive(id2).unwrap();
        let k1 = s.wait_receive(id1).unwrap();
        assert_eq!(k1.len(), 32);
        assert_eq!(k2.len(), 16);
        assert_eq!(s.outstanding_requests(), 0);
        assert!(s.wait_receive(id1).is_err(), "a request is consumed once");
    }

    #[test]
    fn queue_prefills_to_watermark() {
        let s = service();
        // The engine refills continuously, without any request filed.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while s.queued_bits() < ServiceConfig::default().low_watermark {
            assert!(
                std::time::Instant::now() < deadline,
                "queue never reached watermark"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn healthy_source_discards_nothing() {
        // A small pool keeps the background prefill short: the
        // zero-discard assertion then covers a bounded, seed-fixed
        // stretch of the stream rather than racing a 64 Kibit fill.
        let s = service_over(
            generator(),
            ServiceConfig {
                queue_capacity: 2048,
                low_watermark: 256,
                ..Default::default()
            },
        );
        let id = s.request(64).unwrap();
        assert_eq!(s.wait_receive(id).unwrap().len(), 64);
        assert_eq!(s.discarded_bits(), 0);
    }

    #[test]
    fn degraded_mode_surfaces_through_the_service() {
        // A plain DRange source carries no lifecycle manager.
        let plain = service();
        assert!(!plain.is_degraded());
        assert!(plain.lifecycle().is_none());

        // A resilient source reports lifecycle statistics once its
        // worker has completed a batch.
        let resilient = crate::lifecycle::ResilientDRange::new(
            fresh_ctrl(),
            catalog(),
            DRangeConfig::default(),
            crate::lifecycle::LifecycleConfig::default(),
        )
        .unwrap();
        let s = service_over(
            resilient,
            ServiceConfig {
                queue_capacity: 2048,
                low_watermark: 256,
                ..Default::default()
            },
        );
        let id = s.request(16).unwrap();
        assert_eq!(s.wait_receive(id).unwrap().len(), 16);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let lc = loop {
            if let Some(lc) = s.lifecycle() {
                break lc;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker never published lifecycle statistics"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(lc.live_cells > 0);
        assert!(!s.is_degraded(), "a fault-free run must not degrade");
    }

    #[test]
    fn distinct_requests_get_distinct_bytes() {
        let s = service();
        let a = s.request(16).unwrap();
        let b = s.request(16).unwrap();
        assert_ne!(s.wait_receive(a).unwrap(), s.wait_receive(b).unwrap());
    }

    #[test]
    fn oversized_request_rejected() {
        let s = service();
        assert!(s.request(1 << 20).is_err());
    }

    #[test]
    fn overflowing_request_rejected() {
        // `bytes * 8` would wrap in release mode (and panic in debug);
        // the capacity check must reject it via checked arithmetic.
        let s = service();
        assert!(s.request(usize::MAX / 4).is_err());
        assert!(
            s.request(usize::MAX / 8 + 1).is_err(),
            "wraps to a tiny bit count"
        );
    }

    #[test]
    fn bad_config_rejected() {
        let bad = [
            ServiceConfig {
                queue_capacity: 10,
                low_watermark: 100,
                drbg: None,
                ..Default::default()
            },
            // The default DRBG reseeds 256 bits at a time from a pool
            // that holds 128.
            ServiceConfig {
                queue_capacity: 128,
                low_watermark: 8,
                ..Default::default()
            },
        ];
        for config in bad {
            let out = RandomnessService::with_sources_telemetry(vec![generator()], config, None);
            assert!(
                matches!(out, Err(DrangeError::InvalidSpec(_))),
                "{config:?} must be rejected"
            );
        }
    }

    #[test]
    fn permanently_unhealthy_source_errors_instead_of_spinning() {
        // The consecutive-rejection guard is persistent worker state:
        // it spans request boundaries and trips even though each
        // individual request never sees 1000 rejections itself.
        let s = service_over(StuckSource, ServiceConfig::default());
        let id = s.request(16).unwrap();
        let err = s.wait_receive(id).unwrap_err();
        assert!(matches!(err, DrangeError::Unhealthy(_)), "got {err:?}");
        // The failed wait consumed the id: nothing leaks.
        assert_eq!(s.outstanding_requests(), 0);
    }

    /// Deterministic healthy source (splitmix64 bits), cheap enough for
    /// telemetry assertions without the simulator.
    #[derive(Debug)]
    struct PrngSource {
        state: u64,
    }

    impl HarvestSource for PrngSource {
        fn harvest_batch(&mut self) -> Result<BitBlock> {
            Ok((0..128)
                .map(|_| {
                    self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = self.state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    (z ^ (z >> 31)) & 1 == 1
                })
                .collect())
        }
    }

    #[test]
    fn telemetry_counts_requests_and_completions() {
        let registry = MetricsRegistry::new();
        let s = RandomnessService::with_sources_telemetry(
            vec![PrngSource { state: 31 }],
            ServiceConfig {
                queue_capacity: 2048,
                low_watermark: 256,
                ..Default::default()
            },
            Some(&registry),
        )
        .unwrap();
        let a = s.request(16).unwrap();
        let b = s.request(48).unwrap();
        assert_eq!(s.wait_receive(a).unwrap().len(), 16);
        assert_eq!(s.wait_receive(b).unwrap().len(), 48);
        let text = registry.render_prometheus();
        assert!(text.contains("drange_requests_total 2"), "{text}");
        assert!(text.contains("drange_request_bytes_total 64"), "{text}");
        assert!(text.contains("drange_requests_completed_total 2"), "{text}");
        assert!(
            text.contains("drange_wait_receive_latency_ns_count 2"),
            "{text}"
        );
        // The engine's metrics ride along on the same registry.
        assert!(text.contains("drange_stage_latency_ns"), "{text}");
        s.shutdown();
    }

    #[test]
    fn traced_service_records_nested_request_spans() {
        use drange_telemetry::{FlightRecorder, RecorderConfig};
        let recorder = FlightRecorder::with_config(RecorderConfig::default());
        let registry = MetricsRegistry::with_recorder(recorder.clone());
        let s = RandomnessService::with_sources_telemetry(
            vec![PrngSource { state: 11 }],
            ServiceConfig {
                queue_capacity: 2048,
                low_watermark: 256,
                ..Default::default()
            },
            Some(&registry),
        )
        .unwrap();
        let id = s.request(64).unwrap();
        assert_eq!(s.wait_receive(id).unwrap().len(), 64);
        s.shutdown();

        let records = recorder.records();
        let find = |name: &str| records.iter().find(|r| r.name == name);
        let request = find("service.request").expect("service.request span");
        let wait = find("service.wait").expect("service.wait span");
        let drain = find("engine.pool_drain").expect("engine.pool_drain span");
        assert_eq!(
            drain.parent,
            Some(wait.span),
            "pool drain nests under the wait"
        );
        assert_eq!(drain.trace, wait.trace, "one trace per request");
        assert!(request.parent.is_none() && wait.parent.is_none());
        // The harvest threads record their own root traces with
        // harvest/health/publish children.
        let batch = find("engine.batch").expect("engine.batch span");
        assert!(records
            .iter()
            .any(|r| r.name == "engine.harvest" && r.trace == batch.trace));
    }

    #[test]
    fn wait_receive_blocks_until_ready() {
        let s = service();
        let id = s.request(24).unwrap();
        let bytes = s.wait_receive(id).unwrap();
        assert_eq!(bytes.len(), 24);
        assert!(s.wait_receive(id).is_err(), "an id is consumed once");
    }

    fn small_prng_service() -> RandomnessService {
        service_over(
            PrngSource { state: 7 },
            ServiceConfig {
                queue_capacity: 2048,
                low_watermark: 256,
                ..Default::default()
            },
        )
    }

    #[test]
    fn zero_byte_request_completes_immediately() {
        let s = small_prng_service();
        let id = s.request(0).unwrap();
        assert_eq!(s.outstanding_requests(), 1);
        assert_eq!(s.wait_receive(id).unwrap(), Vec::<u8>::new());
        assert_eq!(s.outstanding_requests(), 0);
        assert_eq!(s.stats().served_bits, 0, "the pool is never touched");
    }

    /// The fast-tier analog of the zero-byte contract: a zero-byte
    /// fast request completes immediately and never mints a DRBG
    /// generate — the shard is untouched, no instantiation reseed, no
    /// pool draw.
    #[test]
    fn zero_byte_fast_request_mints_no_generate() {
        let s = small_prng_service();
        assert!(s.conditioning_enabled());
        assert_eq!(s.generate_fast(0).unwrap(), Vec::<u8>::new());
        assert_eq!(s.generate_fast_pr(0).unwrap(), Vec::<u8>::new());
        let stats = s.drbg_stats().expect("conditioning on by default");
        assert_eq!(stats.generates, 0, "no generate minted");
        assert_eq!(stats.reseeds, 0, "no instantiation triggered");
        assert_eq!(stats.entropy_credited_bits, 0, "no pool draw");
        // A real request after the zero-byte ones instantiates lazily.
        let out = s.generate_fast(16).unwrap();
        assert_eq!(out.len(), 16);
        let stats = s.drbg_stats().unwrap();
        assert_eq!(stats.generates, 1);
        assert_eq!(stats.reseeds, 1);
    }

    /// The fast tier serves through the same service even when raw
    /// requests are queued, and a disabled tier is an explicit
    /// `InvalidSpec`, never a panic.
    #[test]
    fn fast_tier_disabled_is_an_explicit_error() {
        let s = service_over(
            PrngSource { state: 11 },
            ServiceConfig {
                queue_capacity: 2048,
                low_watermark: 256,
                drbg: None,
                ..Default::default()
            },
        );
        assert!(!s.conditioning_enabled());
        assert!(s.drbg_stats().is_none());
        let err = s.generate_fast(16).unwrap_err();
        assert!(
            matches!(err, DrangeError::InvalidSpec(_)),
            "expected InvalidSpec, got {err:?}"
        );
        // Zero-byte short-circuits before the farm lookup even when
        // the tier is disabled.
        assert_eq!(s.generate_fast(0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let s = small_prng_service();
        let other = small_prng_service();
        // `other` files an id `s` never saw.
        let foreign = other.request(8).unwrap();
        assert!(s.wait_receive(foreign).is_err(), "never filed here");
        assert_eq!(other.wait_receive(foreign).unwrap().len(), 8);
    }

    /// Alternates a stuck (all-zero) batch with a healthy one, so the
    /// health monitors keep tripping while the pool still fills.
    #[derive(Debug)]
    struct FlakySource {
        healthy: PrngSource,
        stuck_next: bool,
    }

    impl HarvestSource for FlakySource {
        fn harvest_batch(&mut self) -> Result<BitBlock> {
            self.stuck_next = !self.stuck_next;
            if self.stuck_next {
                return Ok((0..128).map(|_| false).collect());
            }
            // Lead with a one so the stuck run cannot spill over.
            let mut bits: Vec<bool> = self.healthy.harvest_batch()?.iter().collect();
            bits[0] = true;
            Ok(BitBlock::from_bools(&bits))
        }
    }

    /// The value of the Prometheus sample `series` (name plus label
    /// block, exactly as rendered).
    fn sample(text: &str, series: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {series} in:\n{text}"))
    }

    #[test]
    fn drbg_stats_equal_the_exported_series() {
        let registry = MetricsRegistry::new();
        let s = RandomnessService::with_sources_telemetry(
            vec![FlakySource {
                healthy: PrngSource { state: 5 },
                stuck_next: false,
            }],
            ServiceConfig {
                queue_capacity: 2048,
                low_watermark: 256,
                drbg: Some(DrbgConfig {
                    shards: 1,
                    reseed_interval: 1,
                    ..DrbgConfig::default()
                }),
                ..Default::default()
            },
            Some(&registry),
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while s.queued_bits() < 1024 {
            assert!(std::time::Instant::now() < deadline, "pool never filled");
            std::thread::sleep(Duration::from_millis(5));
        }
        s.generate_fast(32).unwrap(); // instantiates: the trip baseline
        let trips = s.engine().health_trip_counts().total();
        // Drain until the worker harvests (and trips) again, so the
        // next interval reseed sees trips it must refuse.
        while s.engine().health_trip_counts().total() == trips {
            assert!(std::time::Instant::now() < deadline, "no new trips");
            let id = s.request(64).unwrap();
            s.wait_receive(id).unwrap();
        }
        for _ in 0..3 {
            assert_eq!(s.generate_fast(32).unwrap().len(), 32);
        }
        let stats = s.drbg_stats().unwrap();
        assert!(stats.reseeds_blocked_health >= 1, "{stats:?}");
        let text = registry.render_prometheus();
        assert_eq!(
            sample(&text, "drange_drbg_generates_total"),
            stats.generates
        );
        assert_eq!(stats.generates, 4);
        assert_eq!(sample(&text, "drange_drbg_reseeds_total"), stats.reseeds);
        assert_eq!(
            sample(&text, "drange_drbg_reseeds_blocked_total{cause=\"health\"}"),
            stats.reseeds_blocked_health
        );
        assert_eq!(
            sample(
                &text,
                "drange_drbg_reseeds_blocked_total{cause=\"starved\"}"
            ),
            stats.reseeds_blocked_starved
        );
        assert_eq!(
            sample(&text, "drange_drbg_entropy_credits_total"),
            stats.entropy_credited_bits
        );
        assert_eq!(sample(&text, "drange_drbg_output_bytes_total"), 4 * 32);
        assert_eq!(sample(&text, "drange_drbg_generate_latency_ns_count"), 4);
        s.shutdown();
    }
}
