//! The cryptographic conditioning tier: a per-shard ChaCha20 DRBG
//! continuously reseeded from the harvest pool (DESIGN.md §5k).
//!
//! Raw harvest throughput is bounded by the device (hundreds of Mb/s
//! device-time across all workers), so user-facing throughput was
//! hard-coupled to harvest throughput. This module decouples them the
//! way SP 800-90A deployments do: the engine's health-screened pool
//! becomes the *seed* source for a farm of ChaCha20-based DRBGs (one
//! shard per engine worker by default), and the serve path's `fast`
//! QoS tier reads keystream instead of raw pool bits — Gb/s-class
//! output from Mb/s of true entropy.
//!
//! ## Construction
//!
//! Each shard is a fast-key-erasure ChaCha20 generator: every
//! generate derives `32 + n` bytes of keystream, returns `n` to the
//! caller, and *replaces its own key* with the first 32 bytes, so a
//! later state compromise cannot reconstruct earlier output
//! (backtracking resistance). Reseeds ratchet the key once more and
//! XOR in [`DrbgConfig::seed_bytes`] fresh bytes drawn from the
//! engine pool via [`SeedSource::draw_seed`].
//!
//! ## Entropy credits and health gating
//!
//! Every seed byte comes from the engine pool, a
//! [`crate::health::ScreenedQueue`] that only accepts
//! [`crate::health::Screened`] batches: bits that passed a worker's
//! [`crate::health::HealthMonitor::screen`]. The per-shard
//! [`CreditLedger`] credits exactly those bits and spends them against
//! generated output, making "how far ahead of the harvester is the fast
//! tier running" a first-class metric
//! (`drange_drbg_entropy_credits_total`).
//!
//! A tripped health monitor blocks *reseeding*, never serving: when
//! [`SeedSource::trip_counts`] moved since the shard's last reseed
//! decision, the reseed is refused (`drange_drbg_reseeds_blocked_total
//! {cause="health"}`) and the shard keeps generating from its current
//! key. Only operations that *require* fresh entropy — first
//! instantiation and prediction-resistant generates — turn a blocked
//! reseed into an error.

pub mod chacha;
mod credit;

use std::sync::Arc;
use std::time::Duration;

use drange_telemetry::{Histogram, MetricKind, MetricsRegistry, Span, Stage, Tracer};

use crate::engine::HarvestEngine;
use crate::error::{DrangeError, Result};
use crate::health::TripCounts;
use crate::sync::{deadline_after, CounterCell, Mutex, SequenceCounter};

pub use credit::CreditLedger;

/// The all-zero ChaCha20 nonce. Safe here because the key changes on
/// every generate (fast key erasure): a `(key, nonce)` pair is never
/// reused for more than one keystream.
const ZERO_NONCE: [u8; 12] = [0u8; 12];

/// Where a DRBG shard draws reseed entropy and reads health state.
///
/// [`HarvestEngine`] is the production implementation: seeds come from
/// the shared pool (post health screening, post watermark accounting)
/// and trip counts from the workers' RCT/APT monitors. Tests substitute
/// scripted sources to pin the reseed policy deterministically.
pub trait SeedSource {
    /// Draws `bytes` health-screened bytes for a reseed, waiting at
    /// most `timeout`. `Ok(None)` means the pool could not supply the
    /// seed in time (starvation, not failure).
    ///
    /// # Errors
    ///
    /// Propagates source failures (e.g. the engine wound down).
    fn draw_seed(&self, bytes: usize, timeout: Duration) -> Result<Option<Vec<u8>>>;

    /// Cumulative RCT/APT trip counts across the source's health
    /// monitors. A count that moved between two reseed decisions marks
    /// the interval as suspect and blocks the reseed.
    fn trip_counts(&self) -> TripCounts;
}

impl SeedSource for HarvestEngine {
    fn draw_seed(&self, bytes: usize, timeout: Duration) -> Result<Option<Vec<u8>>> {
        self.take_bytes_deadline(bytes, deadline_after(timeout))
    }

    fn trip_counts(&self) -> TripCounts {
        self.health_trip_counts()
    }
}

/// Tuning knobs for the DRBG farm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrbgConfig {
    /// Number of independent DRBG shards; `0` means one per engine
    /// worker (the value passed as the farm's shard hint).
    pub shards: usize,
    /// Generates a shard serves between automatic reseeds. A soft
    /// target: when the reseed is blocked (health trip) or starved
    /// (pool timeout), the shard keeps serving and retries on the next
    /// generate.
    pub reseed_interval: u64,
    /// Fresh pool bytes drawn per reseed.
    pub seed_bytes: usize,
    /// Longest a generate may wait on the pool for reseed entropy
    /// before the reseed counts as starved.
    pub reseed_timeout: Duration,
    /// Largest single generate; beyond it is an [`DrangeError::InvalidSpec`].
    /// Also keeps a single keystream far below the ChaCha20 counter
    /// bound ([`chacha::MAX_STREAM_BYTES`]).
    pub max_generate_bytes: usize,
}

impl Default for DrbgConfig {
    fn default() -> Self {
        DrbgConfig {
            shards: 0,
            reseed_interval: 1024,
            seed_bytes: 32,
            reseed_timeout: Duration::from_millis(100),
            max_generate_bytes: 64 * 1024,
        }
    }
}

impl DrbgConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] for a zero reseed interval,
    /// a seed smaller than the 16-byte floor or larger than 4 KiB, or
    /// a zero generate cap.
    pub fn validate(&self) -> Result<()> {
        if self.reseed_interval == 0 {
            return Err(DrangeError::InvalidSpec(
                "drbg reseed_interval must be at least 1".into(),
            ));
        }
        if !(16..=4096).contains(&self.seed_bytes) {
            return Err(DrangeError::InvalidSpec(format!(
                "drbg seed_bytes must be in 16..=4096, got {}",
                self.seed_bytes
            )));
        }
        if self.max_generate_bytes == 0 {
            return Err(DrangeError::InvalidSpec(
                "drbg max_generate_bytes must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// One shard's mutable state, owned by the shard mutex.
struct ShardState {
    /// The current ChaCha20 key; replaced on every generate (fast key
    /// erasure) and ratcheted+XORed on reseed.
    key: [u8; 32],
    /// Whether the shard has ever absorbed a successful seed. An
    /// uninstantiated shard refuses to generate.
    instantiated: bool,
    /// Generates since the last successful reseed.
    since_reseed: u64,
    /// Entropy-credit ledger for this shard.
    credit: CreditLedger,
    /// Total trip count observed at the last reseed decision; `None`
    /// until the first decision establishes the baseline.
    last_trips: Option<u64>,
}

impl std::fmt::Debug for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key is deliberately redacted: shard state rides inside
        // `RandomnessService`'s Debug output.
        f.debug_struct("ShardState")
            .field("instantiated", &self.instantiated)
            .field("since_reseed", &self.since_reseed)
            .field("credit", &self.credit)
            .finish_non_exhaustive()
    }
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            key: [0u8; 32],
            instantiated: false,
            since_reseed: 0,
            credit: CreditLedger::new(),
            last_trips: None,
        }
    }

    /// One ratchet-and-absorb step: the key advances through the block
    /// function (erasing the old key) and XORs in up to 32 seed bytes.
    fn absorb(&mut self, chunk: &[u8]) {
        let block = chacha::block(&self.key, 0, &ZERO_NONCE);
        let mut next = [0u8; 32];
        next.copy_from_slice(&block[..32]);
        for (k, b) in next.iter_mut().zip(chunk.iter()) {
            *k ^= *b;
        }
        self.key = next;
    }
}

/// The farm's event counts: one cell each, bumped under the shard lock
/// of the event, read by [`DrbgFarm::stats`] and exported as is by the
/// registry the farm was built with.
#[derive(Debug, Default)]
struct DrbgCounters {
    generates: CounterCell,
    output_bytes: CounterCell,
    reseeds: CounterCell,
    blocked_health: CounterCell,
    blocked_starved: CounterCell,
    entropy_credits: CounterCell,
}

impl DrbgCounters {
    /// Exports the cells as the `drange_drbg_*` series.
    fn export(self: &Arc<Self>, reg: &MetricsRegistry) {
        let counter = |name: &str, labels: &[(&str, &str)], reader: fn(&DrbgCounters) -> u64| {
            let cells = Arc::clone(self);
            reg.export(MetricKind::Counter, name, labels, move || reader(&cells));
        };
        counter("drange_drbg_generates_total", &[], |c| c.generates.get());
        counter("drange_drbg_output_bytes_total", &[], |c| {
            c.output_bytes.get()
        });
        counter("drange_drbg_reseeds_total", &[], |c| c.reseeds.get());
        let blocked = "drange_drbg_reseeds_blocked_total";
        counter(blocked, &[("cause", "health")], |c| c.blocked_health.get());
        counter(blocked, &[("cause", "starved")], |c| {
            c.blocked_starved.get()
        });
        counter("drange_drbg_entropy_credits_total", &[], |c| {
            c.entropy_credits.get()
        });
    }
}

/// Aggregated farm statistics (summed over shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrbgStats {
    /// Independent DRBG shards in the farm.
    pub shards: usize,
    /// Shards that have absorbed at least one seed.
    pub instantiated: usize,
    /// Total generates served.
    pub generates: u64,
    /// Successful reseeds (instantiations included).
    pub reseeds: u64,
    /// Reseeds refused because health trip counts moved.
    pub reseeds_blocked_health: u64,
    /// Reseeds that timed out on the pool.
    pub reseeds_blocked_starved: u64,
    /// Health-screened bits credited by reseeds.
    pub entropy_credited_bits: u64,
    /// Output bits covered by entropy credit.
    pub entropy_spent_bits: u64,
}

/// A farm of per-shard ChaCha20 DRBGs over one seed source.
///
/// All methods take `&self`; generates on different shards proceed in
/// parallel (round-robin shard pick, one mutex per shard). The farm
/// holds no reference to its seed source — callers pass it per
/// operation, so the farm can live inside
/// [`crate::service::RandomnessService`] next to the engine it feeds
/// from.
#[derive(Debug)]
pub struct DrbgFarm {
    shards: Vec<Mutex<ShardState>>,
    cursor: SequenceCounter,
    config: DrbgConfig,
    counters: Arc<DrbgCounters>,
    generate_ns: Histogram,
    tracer: Tracer,
}

impl DrbgFarm {
    /// Builds a farm with `config`, resolving `shards == 0` to
    /// `shard_hint` (the engine's worker count). With a registry the
    /// farm exports its `drange_drbg_*` series there, times generates
    /// into its latency histogram, and traces through its tracer.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] for invalid knobs (see
    /// [`DrbgConfig::validate`]).
    pub fn new(
        config: DrbgConfig,
        shard_hint: usize,
        registry: Option<&MetricsRegistry>,
    ) -> Result<Self> {
        config.validate()?;
        let count = if config.shards == 0 {
            shard_hint.max(1)
        } else {
            config.shards
        };
        let counters = Arc::new(DrbgCounters::default());
        if let Some(reg) = registry {
            counters.export(reg);
        }
        Ok(DrbgFarm {
            shards: (0..count).map(|_| Mutex::new(ShardState::new())).collect(),
            cursor: SequenceCounter::new(),
            config,
            counters,
            generate_ns: registry.map_or_else(Histogram::noop, |reg| {
                reg.histogram("drange_drbg_generate_latency_ns", &[])
            }),
            tracer: registry.map_or_else(Tracer::noop, MetricsRegistry::tracer),
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The farm configuration.
    #[must_use]
    pub fn config(&self) -> &DrbgConfig {
        &self.config
    }

    /// Generates `bytes` of conditioned output from the next shard.
    ///
    /// A zero-byte request returns immediately without touching any
    /// shard: it mints no generate, triggers no reseed, and leaves the
    /// `drange_drbg_generates_total` counter untouched (the QoS-split
    /// analogue of [`crate::service::RandomnessService::request`]'s
    /// zero-byte fast path).
    ///
    /// # Errors
    ///
    /// [`DrangeError::InvalidSpec`] beyond
    /// [`DrbgConfig::max_generate_bytes`]; [`DrangeError::Unhealthy`] /
    /// [`DrangeError::Engine`] when the shard was never instantiated
    /// and its first seed is blocked or starved.
    pub fn generate(&self, source: &impl SeedSource, bytes: usize) -> Result<Vec<u8>> {
        self.generate_inner(source, bytes, false)
    }

    /// As [`DrbgFarm::generate`], with prediction resistance: the
    /// shard *must* absorb fresh pool entropy immediately before
    /// producing output.
    ///
    /// # Errors
    ///
    /// As [`DrbgFarm::generate`], plus [`DrangeError::Unhealthy`] when
    /// the forced reseed is blocked by a health trip and
    /// [`DrangeError::Engine`] when it starves on the pool.
    pub fn generate_pr(&self, source: &impl SeedSource, bytes: usize) -> Result<Vec<u8>> {
        self.generate_inner(source, bytes, true)
    }

    fn generate_inner(
        &self,
        source: &impl SeedSource,
        bytes: usize,
        prediction_resistance: bool,
    ) -> Result<Vec<u8>> {
        if bytes == 0 {
            return Ok(Vec::new());
        }
        if bytes > self.config.max_generate_bytes {
            return Err(DrangeError::InvalidSpec(format!(
                "generate of {bytes} bytes exceeds the per-call cap of {}",
                self.config.max_generate_bytes
            )));
        }
        let mut stage = Stage::start("drbg.generate", &self.generate_ns, &self.tracer);
        let span = stage.span();
        let index = (self.cursor.next() as usize) % self.shards.len();
        if span.is_recording() {
            span.attr_u64("bytes", bytes as u64);
            span.attr_u64("shard", index as u64);
            span.attr_bool("prediction_resistance", prediction_resistance);
        }
        // Indexing is in bounds by the modulo above; the lint-safe
        // spelling avoids a panic site regardless.
        let Some(shard) = self.shards.get(index) else {
            return Err(DrangeError::Engine("drbg farm has no shards".into()));
        };
        let mut state = shard.lock();
        let must_reseed = !state.instantiated || prediction_resistance;
        if must_reseed || state.since_reseed >= self.config.reseed_interval {
            self.reseed_shard(&mut state, source, must_reseed, span)?;
        }
        // Fast key erasure: one keystream covers the next key and the
        // caller's output; the old key is gone before the output
        // leaves the shard.
        let mut keystream = vec![0u8; 32 + bytes];
        chacha::keystream(&state.key, 0, &ZERO_NONCE, &mut keystream);
        state.key.copy_from_slice(&keystream[..32]);
        state.since_reseed += 1;
        self.counters.generates.add(1);
        self.counters.output_bytes.add(bytes as u64);
        let covered = state.credit.spend(bytes as u64 * 8);
        if span.is_recording() {
            span.attr_u64("credit_covered_bits", covered);
        }
        Ok(keystream.split_off(32))
    }

    /// One reseed decision for a locked shard. When `required` is
    /// false (an interval-driven background reseed), every failure
    /// mode degrades to "keep serving, retry next generate"; when true
    /// (instantiation or prediction resistance), failures are errors.
    fn reseed_shard(
        &self,
        state: &mut ShardState,
        source: &impl SeedSource,
        required: bool,
        parent: &mut Span,
    ) -> Result<()> {
        let mut span = self.tracer.span("drbg.reseed");
        span.attr_bool("required", required);
        let trips = source.trip_counts().total();
        if let Some(last) = state.last_trips {
            if trips != last {
                // The interval since the previous decision saw RCT/APT
                // trips: refuse this reseed. The baseline advances, so
                // a later quiet interval unblocks automatically.
                state.last_trips = Some(trips);
                self.counters.blocked_health.add(1);
                span.attr_bool("blocked_health", true);
                parent.event("drbg.reseed_blocked");
                return if required {
                    Err(DrangeError::Unhealthy(format!(
                        "drbg reseed blocked: health monitors tripped ({} new trips)",
                        trips.saturating_sub(last)
                    )))
                } else {
                    Ok(())
                };
            }
        }
        state.last_trips = Some(trips);
        match source.draw_seed(self.config.seed_bytes, self.config.reseed_timeout) {
            Ok(Some(seed)) => {
                for chunk in seed.chunks(32) {
                    state.absorb(chunk);
                }
                let bits = seed.len() as u64 * 8;
                state.credit.credit(bits);
                state.since_reseed = 0;
                state.instantiated = true;
                self.counters.reseeds.add(1);
                self.counters.entropy_credits.add(bits);
                span.attr_u64("credited_bits", bits);
                Ok(())
            }
            Ok(None) => {
                self.counters.blocked_starved.add(1);
                span.attr_bool("starved", true);
                if required {
                    Err(DrangeError::Engine(format!(
                        "drbg reseed starved: pool supplied no {} byte seed within {:?}",
                        self.config.seed_bytes, self.config.reseed_timeout
                    )))
                } else {
                    Ok(())
                }
            }
            Err(e) => {
                self.counters.blocked_starved.add(1);
                span.attr_bool("starved", true);
                if required {
                    Err(e)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Aggregated statistics across all shards.
    ///
    /// Spent entropy is summed under the shard locks *before* the credit
    /// cell is read, and credit is added under the shard lock before it
    /// covers a spend, so a snapshot never shows spent above credited.
    pub fn stats(&self) -> DrbgStats {
        let mut instantiated = 0;
        let mut entropy_spent_bits = 0;
        for shard in &self.shards {
            let s = shard.lock();
            instantiated += usize::from(s.instantiated);
            entropy_spent_bits += s.credit.total_spent();
        }
        let c = &self.counters;
        DrbgStats {
            shards: self.shards.len(),
            instantiated,
            generates: c.generates.get(),
            reseeds: c.reseeds.get(),
            reseeds_blocked_health: c.blocked_health.get(),
            reseeds_blocked_starved: c.blocked_starved.get(),
            entropy_credited_bits: c.entropy_credits.get(),
            entropy_spent_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A scripted seed source: the test controls trip counts and pool
    /// availability per call.
    struct ScriptedSeed {
        trips: Cell<u64>,
        starve: Cell<bool>,
        drawn_bits: Cell<u64>,
        next_byte: Cell<u8>,
    }

    impl ScriptedSeed {
        fn new() -> Self {
            ScriptedSeed {
                trips: Cell::new(0),
                starve: Cell::new(false),
                drawn_bits: Cell::new(0),
                next_byte: Cell::new(1),
            }
        }
    }

    impl SeedSource for ScriptedSeed {
        fn draw_seed(&self, bytes: usize, _timeout: Duration) -> Result<Option<Vec<u8>>> {
            if self.starve.get() {
                return Ok(None);
            }
            self.drawn_bits
                .set(self.drawn_bits.get() + bytes as u64 * 8);
            let b = self.next_byte.get();
            self.next_byte.set(b.wrapping_add(1));
            Ok(Some(vec![b; bytes]))
        }

        fn trip_counts(&self) -> TripCounts {
            TripCounts {
                repetition: self.trips.get(),
                adaptive: 0,
            }
        }
    }

    fn farm(shards: usize, interval: u64) -> DrbgFarm {
        DrbgFarm::new(
            DrbgConfig {
                shards,
                reseed_interval: interval,
                ..DrbgConfig::default()
            },
            1,
            None,
        )
        .unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        for bad in [
            DrbgConfig {
                reseed_interval: 0,
                ..DrbgConfig::default()
            },
            DrbgConfig {
                seed_bytes: 8,
                ..DrbgConfig::default()
            },
            DrbgConfig {
                seed_bytes: 8192,
                ..DrbgConfig::default()
            },
            DrbgConfig {
                max_generate_bytes: 0,
                ..DrbgConfig::default()
            },
        ] {
            assert!(DrbgFarm::new(bad, 1, None).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shard_count_resolves_from_hint() {
        assert_eq!(farm(0, 16).shards(), 1);
        assert_eq!(farm(3, 16).shards(), 3);
        let hinted = DrbgFarm::new(DrbgConfig::default(), 5, None).unwrap();
        assert_eq!(hinted.shards(), 5);
    }

    #[test]
    fn generates_are_distinct_and_sized() {
        let f = farm(2, 1024);
        let src = ScriptedSeed::new();
        let a = f.generate(&src, 48).unwrap();
        let b = f.generate(&src, 48).unwrap();
        assert_eq!(a.len(), 48);
        assert_eq!(b.len(), 48);
        assert_ne!(a, b, "distinct shards / ratcheted keys differ");
        let c = f.generate(&src, 48).unwrap();
        assert_ne!(a, c, "the ratchet changes the key every generate");
    }

    #[test]
    fn zero_byte_generate_mints_nothing() {
        let f = farm(1, 1024);
        let src = ScriptedSeed::new();
        assert_eq!(f.generate(&src, 0).unwrap(), Vec::<u8>::new());
        let stats = f.stats();
        assert_eq!(stats.generates, 0, "no generate minted");
        assert_eq!(stats.reseeds, 0, "no instantiation triggered");
        assert_eq!(src.drawn_bits.get(), 0, "no pool bytes drawn");
    }

    #[test]
    fn oversized_generate_rejected() {
        let f = farm(1, 1024);
        let src = ScriptedSeed::new();
        let cap = f.config().max_generate_bytes;
        assert!(f.generate(&src, cap + 1).is_err());
        assert!(f.generate(&src, cap).is_ok());
    }

    #[test]
    fn interval_reseed_draws_fresh_entropy() {
        let f = farm(1, 4);
        let src = ScriptedSeed::new();
        for _ in 0..4 {
            f.generate(&src, 8).unwrap();
        }
        assert_eq!(f.stats().reseeds, 1, "instantiation only");
        // The 5th generate crosses the interval.
        f.generate(&src, 8).unwrap();
        assert_eq!(f.stats().reseeds, 2);
    }

    #[test]
    fn prediction_resistance_forces_reseed_every_generate() {
        let f = farm(1, 1 << 20);
        let src = ScriptedSeed::new();
        f.generate_pr(&src, 8).unwrap();
        f.generate_pr(&src, 8).unwrap();
        f.generate_pr(&src, 8).unwrap();
        assert_eq!(f.stats().reseeds, 3);
    }

    #[test]
    fn health_trip_blocks_reseed_but_not_serving() {
        let f = farm(1, 2);
        let src = ScriptedSeed::new();
        f.generate(&src, 8).unwrap(); // instantiates, baseline trips = 0
        src.trips.set(1);
        f.generate(&src, 8).unwrap(); // interval reached at next one
        let out = f.generate(&src, 8).unwrap(); // reseed due, blocked, still serves
        assert_eq!(out.len(), 8);
        let stats = f.stats();
        assert_eq!(stats.reseeds, 1, "no reseed absorbed while tripped");
        assert_eq!(stats.reseeds_blocked_health, 1);
        // A quiet interval unblocks: the baseline advanced to 1.
        f.generate(&src, 8).unwrap();
        assert!(f.stats().reseeds >= 2, "quiet interval reseeds again");
    }

    #[test]
    fn health_trip_fails_prediction_resistance() {
        let f = farm(1, 1 << 20);
        let src = ScriptedSeed::new();
        f.generate(&src, 8).unwrap();
        src.trips.set(3);
        let err = f.generate_pr(&src, 8).unwrap_err();
        assert!(matches!(err, DrangeError::Unhealthy(_)), "{err:?}");
        // Plain generates keep serving through the trip.
        assert_eq!(f.generate(&src, 8).unwrap().len(), 8);
    }

    #[test]
    fn starved_pool_fails_instantiation_but_not_serving() {
        let f = farm(1, 4);
        let src = ScriptedSeed::new();
        src.starve.set(true);
        let err = f.generate(&src, 8).unwrap_err();
        assert!(matches!(err, DrangeError::Engine(_)), "{err:?}");
        // Once the pool recovers, the shard instantiates...
        src.starve.set(false);
        f.generate(&src, 8).unwrap();
        // ...and a later starved interval-reseed degrades gracefully.
        src.starve.set(true);
        for _ in 0..8 {
            assert_eq!(f.generate(&src, 8).unwrap().len(), 8);
        }
        assert!(f.stats().reseeds_blocked_starved >= 1);
    }

    #[test]
    fn credits_track_drawn_bits_exactly() {
        let f = farm(1, 2);
        let src = ScriptedSeed::new();
        for _ in 0..20 {
            f.generate(&src, 16).unwrap();
        }
        let stats = f.stats();
        assert_eq!(
            stats.entropy_credited_bits,
            src.drawn_bits.get(),
            "credits equal health-screened bits drawn"
        );
        assert!(stats.entropy_spent_bits <= stats.entropy_credited_bits);
    }

    #[test]
    fn telemetry_registers_drbg_series() {
        let registry = MetricsRegistry::new();
        let f = DrbgFarm::new(DrbgConfig::default(), 1, Some(&registry)).unwrap();
        let src = ScriptedSeed::new();
        f.generate(&src, 64).unwrap();
        let text = registry.render_prometheus();
        assert!(text.contains("drange_drbg_generates_total 1"), "{text}");
        assert!(text.contains("drange_drbg_reseeds_total 1"), "{text}");
        assert!(
            text.contains("drange_drbg_entropy_credits_total 256"),
            "{text}"
        );
        assert!(
            text.contains("drange_drbg_generate_latency_ns_count 1"),
            "{text}"
        );
        assert!(text.contains("drange_drbg_reseeds_blocked_total"), "{text}");
    }

    #[test]
    fn spans_record_generate_and_reseed() {
        use drange_telemetry::{FlightRecorder, RecorderConfig};
        let recorder = FlightRecorder::with_config(RecorderConfig::default());
        let registry = MetricsRegistry::with_recorder(recorder.clone());
        let f = DrbgFarm::new(DrbgConfig::default(), 1, Some(&registry)).unwrap();
        let src = ScriptedSeed::new();
        f.generate(&src, 32).unwrap();
        let records = recorder.records();
        assert!(
            records.iter().any(|r| r.name == "drbg.generate"),
            "{records:?}"
        );
        assert!(
            records.iter().any(|r| r.name == "drbg.reseed"),
            "{records:?}"
        );
    }
}
