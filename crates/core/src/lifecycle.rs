//! Self-healing RNG-cell lifecycle.
//!
//! The paper's RNG-cell catalog is built once per temperature
//! (Section 6.1), but a deployed device drifts: temperature moves the
//! failure probabilities (Section 5.3), cells age, and some get stuck.
//! [`ResilientDRange`] wraps a [`DRange`] sampler with a per-cell
//! health lifecycle so the generator *degrades honestly* instead of
//! silently emitting biased bits:
//!
//! ```text
//!            trip (stuck run / bias window)
//!   Active ────────────────────────────────▶ Quarantined
//!     ▲                                          │ backoff expires
//!     │ re-characterization passes               ▼
//!     └──────────────────────────────── re-characterize (identify-
//!                                        style reads + symbol test)
//!                                            │ fails max_strikes times
//!                                            ▼
//!                                         Retired ──▶ promote spare
//!                                                     catalog word
//! ```
//!
//! - **Attribution**: one harvest batch is one Algorithm 2 pass, so
//!   batch bit `k` maps to the `k`-th cell of
//!   [`DRange::active_cells`]. A per-cell monitor (run-length +
//!   windowed-bias, per-cell analogues of the SP 800-90B engine-level
//!   tests in [`crate::health`]) attributes misbehavior to individual
//!   cells instead of discarding whole batches.
//! - **Quarantine**: a tripped cell is benched
//!   ([`DRange::suspend_cell`]) with an escalating backoff; throughput
//!   drops but the published stream stays unbiased.
//! - **Re-characterization**: after the backoff, the cell is re-read
//!   `recheck_reads` times through the same batched read as
//!   identification ([`crate::identify`], both through
//!   [`MemoryController::induce`]) and must pass the same
//!   symbol-uniformity criterion to be reinstated; repeated failures
//!   retire it permanently and promote the densest unused catalog word
//!   into the freed plan slot ([`DRange::promote_word`]).
//! - **Degradation**: when the live-cell count falls below
//!   [`LifecycleConfig::degraded_fraction`] of the initial plan, the
//!   [`LifecycleStats::degraded`] flag raises — reduced but honest
//!   throughput, surfaced through the engine and service layers.
//!
//! An optional [`EnvSchedule`] is stepped once per batch (configurable)
//! so chaos tests and the nightly CI tier can drive temperature shocks,
//! aging, and stuck-at faults through the same code path production
//! would experience.

use std::collections::{HashMap, HashSet};

use dram_sim::{CellAddr, EnvSchedule, FaultStats, WordAddr};
use drange_telemetry::{Histogram, MetricsRegistry};
use memctrl::MemoryController;

use crate::bits::BitBlock;
use crate::entropy::symbols_uniform;
use crate::error::{DrangeError, Result};
use crate::identify::RngCellCatalog;
use crate::sampler::{DRange, DRangeConfig};

/// Tuning knobs of the cell lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleConfig {
    /// A cell emitting this many identical bits in a row trips its
    /// monitor (per-cell analogue of the repetition-count test).
    pub stuck_run_cutoff: u32,
    /// Bits per bias-evaluation window of the per-cell monitor.
    pub bias_window: u32,
    /// A window whose ones-fraction leaves `0.5 ± bias_tolerance`
    /// trips the monitor (per-cell analogue of the adaptive-proportion
    /// test).
    pub bias_tolerance: f64,
    /// Reads per re-characterization (the paper identifies with 1000).
    pub recheck_reads: usize,
    /// Batches a first-strike quarantine lasts; each further strike
    /// doubles it.
    pub backoff_batches: u64,
    /// Strikes (initial trip + failed re-characterizations) after
    /// which a cell is permanently retired.
    pub max_strikes: u32,
    /// The degraded flag raises when live cells drop below this
    /// fraction of the initial plan.
    pub degraded_fraction: f64,
    /// Apply one environment-schedule step every this many batches.
    pub schedule_every: u64,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            stuck_run_cutoff: 48,
            bias_window: 128,
            bias_tolerance: 0.35,
            recheck_reads: 1000,
            backoff_batches: 8,
            max_strikes: 3,
            degraded_fraction: 0.5,
            schedule_every: 1,
        }
    }
}

impl LifecycleConfig {
    fn validate(&self) -> Result<()> {
        if self.stuck_run_cutoff < 2 {
            return Err(DrangeError::InvalidSpec(
                "stuck_run_cutoff must be at least 2".into(),
            ));
        }
        if self.bias_window < 8 {
            return Err(DrangeError::InvalidSpec(
                "bias_window must be at least 8".into(),
            ));
        }
        if !(self.bias_tolerance > 0.0 && self.bias_tolerance < 0.5) {
            return Err(DrangeError::InvalidSpec(
                "bias_tolerance must be in (0, 0.5)".into(),
            ));
        }
        if self.recheck_reads < 64 {
            return Err(DrangeError::InvalidSpec(
                "recheck_reads must be at least 64 for symbol statistics".into(),
            ));
        }
        if self.backoff_batches == 0 || self.schedule_every == 0 {
            return Err(DrangeError::InvalidSpec(
                "backoff_batches and schedule_every must be nonzero".into(),
            ));
        }
        if self.max_strikes == 0 {
            return Err(DrangeError::InvalidSpec(
                "max_strikes must be nonzero".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.degraded_fraction) {
            return Err(DrangeError::InvalidSpec(
                "degraded_fraction must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// Per-cell trip detector: run-length plus windowed bias.
#[derive(Debug, Clone, Copy, Default)]
struct CellMonitor {
    run_value: bool,
    run_len: u32,
    window_ones: u32,
    window_len: u32,
}

impl CellMonitor {
    /// Feeds one harvested bit; returns whether the cell tripped.
    fn observe(&mut self, bit: bool, cfg: &LifecycleConfig) -> bool {
        if bit == self.run_value {
            self.run_len += 1;
        } else {
            self.run_value = bit;
            self.run_len = 1;
        }
        if self.run_len >= cfg.stuck_run_cutoff {
            *self = CellMonitor::default();
            return true;
        }
        self.window_len += 1;
        self.window_ones += u32::from(bit);
        if self.window_len == cfg.bias_window {
            let ones = f64::from(self.window_ones) / f64::from(self.window_len);
            self.window_len = 0;
            self.window_ones = 0;
            if (ones - 0.5).abs() > cfg.bias_tolerance {
                *self = CellMonitor::default();
                return true;
            }
        }
        false
    }
}

/// Lifecycle state of a cell that is not actively harvesting. Live
/// cells carry no state entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    /// Benched until `release_at`, then re-characterized.
    Quarantined { strikes: u32, release_at: u64 },
    /// Permanently removed from the plan.
    Retired,
}

/// A point-in-time snapshot of the lifecycle counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleStats {
    /// Cells actively harvesting right now.
    pub live_cells: u64,
    /// Cells currently benched awaiting re-characterization.
    pub quarantined_cells: u64,
    /// Cells permanently retired.
    pub retired_cells: u64,
    /// Quarantine entries so far (a cell re-quarantined counts again).
    pub quarantine_events: u64,
    /// Re-characterizations that reinstated their cell.
    pub reinstated_cells: u64,
    /// Spare catalog words promoted into the plan.
    pub promoted_words: u64,
    /// Re-characterization runs completed (pass or fail).
    pub recharacterizations: u64,
    /// Whether live cells dropped below the configured fraction of the
    /// initial plan (reduced but honest throughput).
    pub degraded: bool,
}

impl LifecycleStats {
    /// Field-wise sum of two snapshots (`degraded` ORs) — aggregating
    /// per-channel lifecycles into an engine total.
    #[must_use]
    pub fn merge(self, other: LifecycleStats) -> LifecycleStats {
        LifecycleStats {
            live_cells: self.live_cells + other.live_cells,
            quarantined_cells: self.quarantined_cells + other.quarantined_cells,
            retired_cells: self.retired_cells + other.retired_cells,
            quarantine_events: self.quarantine_events + other.quarantine_events,
            reinstated_cells: self.reinstated_cells + other.reinstated_cells,
            promoted_words: self.promoted_words + other.promoted_words,
            recharacterizations: self.recharacterizations + other.recharacterizations,
            degraded: self.degraded || other.degraded,
        }
    }
}

/// A [`DRange`] sampler wrapped with the self-healing cell lifecycle
/// (and optionally an environmental fault schedule).
#[derive(Debug)]
pub struct ResilientDRange {
    inner: DRange,
    config: LifecycleConfig,
    schedule: Option<EnvSchedule>,
    monitors: HashMap<CellAddr, CellMonitor>,
    states: HashMap<CellAddr, CellState>,
    /// Unused catalog words, densest first, awaiting promotion.
    spares: Vec<(WordAddr, Vec<usize>)>,
    /// Symbol width and tolerance of the catalog's identification
    /// criterion, reused verbatim by re-characterization.
    symbol_bits: usize,
    tolerance: f64,
    initial_cells: usize,
    batches: u64,
    quarantine_events: u64,
    reinstated: u64,
    retired: u64,
    promoted: u64,
    recharacterizations: u64,
    recheck_ns: Histogram,
}

impl ResilientDRange {
    /// Builds the underlying [`DRange`] sampler and arms the lifecycle.
    /// Catalog words that did not make the sampling plan are kept as
    /// promotion spares (densest first).
    ///
    /// # Errors
    ///
    /// Propagates [`DRange::new`] errors and rejects invalid lifecycle
    /// configurations with [`DrangeError::InvalidSpec`].
    pub fn new(
        ctrl: MemoryController,
        catalog: &RngCellCatalog,
        sampler: DRangeConfig,
        lifecycle: LifecycleConfig,
    ) -> Result<Self> {
        lifecycle.validate()?;
        let inner = DRange::new(ctrl, catalog, sampler)?;
        let planned: HashSet<WordAddr> = inner.planned_word_addrs().into_iter().collect();
        let mut spares: Vec<(WordAddr, Vec<usize>)> = catalog
            .words()
            .iter()
            .filter(|(addr, _)| !planned.contains(addr))
            .map(|(addr, bits)| (*addr, bits.clone()))
            .collect();
        spares.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let initial_cells = inner.bits_per_iteration();
        Ok(ResilientDRange {
            inner,
            config: lifecycle,
            schedule: None,
            monitors: HashMap::new(),
            states: HashMap::new(),
            spares,
            symbol_bits: catalog.spec().symbol_bits,
            tolerance: catalog.spec().tolerance,
            initial_cells,
            batches: 0,
            quarantine_events: 0,
            reinstated: 0,
            retired: 0,
            promoted: 0,
            recharacterizations: 0,
            recheck_ns: Histogram::noop(),
        })
    }

    /// Attaches an environmental fault schedule, stepped every
    /// [`LifecycleConfig::schedule_every`] batches.
    #[must_use]
    pub fn with_schedule(mut self, schedule: EnvSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Registers the re-characterization latency histogram
    /// (`drange_recharacterize_latency_ns`, labeled by channel).
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry, channel: &str) {
        self.recheck_ns =
            registry.histogram("drange_recharacterize_latency_ns", &[("channel", channel)]);
    }

    /// Borrow of the wrapped sampler.
    pub fn generator(&self) -> &DRange {
        &self.inner
    }

    /// The lifecycle configuration.
    pub fn lifecycle_config(&self) -> &LifecycleConfig {
        &self.config
    }

    /// Batches harvested so far (the lifecycle's clock).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Snapshot of the lifecycle counters.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        let live = self.inner.bits_per_iteration() as u64;
        let quarantined = self
            .states
            .values()
            .filter(|s| matches!(s, CellState::Quarantined { .. }))
            .count() as u64;
        LifecycleStats {
            live_cells: live,
            quarantined_cells: quarantined,
            retired_cells: self.retired,
            quarantine_events: self.quarantine_events,
            reinstated_cells: self.reinstated,
            promoted_words: self.promoted,
            recharacterizations: self.recharacterizations,
            degraded: (live as f64) < self.config.degraded_fraction * self.initial_cells as f64,
        }
    }

    /// Injected-fault counters of the underlying device.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.controller().device().fault_stats()
    }

    /// One lifecycle-managed harvest batch: step the environment,
    /// re-characterize cells whose backoff expired, run one Algorithm 2
    /// pass, and feed every harvested bit to its cell's monitor
    /// (quarantining trippers).
    ///
    /// When every active cell is benched, the lifecycle fast-forwards
    /// its batch clock to the earliest quarantine release and
    /// re-characterizes instead of spinning on empty passes.
    ///
    /// # Errors
    ///
    /// Propagates controller/device errors and returns
    /// [`DrangeError::NoRngCells`] once every cell has been permanently
    /// retired.
    pub fn next_batch(&mut self) -> Result<BitBlock> {
        self.step_environment()?;
        self.release_due()?;
        self.ensure_active()?;
        let order = self.inner.active_cells();
        let block = self.inner.harvest_block()?;
        self.batches += 1;
        self.observe(&order, &block);
        Ok(block)
    }

    fn step_environment(&mut self) -> Result<()> {
        if let Some(schedule) = self.schedule.as_mut() {
            if self.batches.is_multiple_of(self.config.schedule_every) {
                let _ = schedule.step(self.inner.controller_mut().device_mut())?;
            }
        }
        Ok(())
    }

    /// Re-characterizes every quarantined cell whose backoff expired.
    fn release_due(&mut self) -> Result<()> {
        let mut due: Vec<CellAddr> = self
            .states
            .iter()
            .filter_map(|(cell, state)| match state {
                CellState::Quarantined { release_at, .. } if *release_at <= self.batches => {
                    Some(*cell)
                }
                _ => None,
            })
            .collect();
        due.sort_unstable();
        for cell in due {
            self.recheck(cell)?;
        }
        Ok(())
    }

    /// Fast-forwards past fully-benched stretches so a caller never
    /// busy-loops on empty batches.
    fn ensure_active(&mut self) -> Result<()> {
        while self.inner.bits_per_iteration() == 0 {
            let earliest = self
                .states
                .values()
                .filter_map(|state| match state {
                    CellState::Quarantined { release_at, .. } => Some(*release_at),
                    CellState::Retired => None,
                })
                .min();
            match earliest {
                Some(release_at) => {
                    self.batches = self.batches.max(release_at);
                    self.release_due()?;
                }
                None => {
                    return Err(DrangeError::NoRngCells(
                        "every RNG cell has been permanently retired".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    fn observe(&mut self, order: &[CellAddr], block: &BitBlock) {
        let cfg = self.config;
        let mut tripped: Vec<CellAddr> = Vec::new();
        for (cell, bit) in order.iter().zip(block.iter()) {
            let monitor = self.monitors.entry(*cell).or_default();
            if monitor.observe(bit, &cfg) {
                tripped.push(*cell);
            }
        }
        for cell in tripped {
            self.quarantine(cell);
        }
    }

    fn quarantine(&mut self, cell: CellAddr) {
        if !self.inner.suspend_cell(cell) {
            return;
        }
        self.monitors.remove(&cell);
        self.states.insert(
            cell,
            CellState::Quarantined {
                strikes: 1,
                release_at: self.batches + self.config.backoff_batches,
            },
        );
        self.quarantine_events += 1;
    }

    /// Re-characterizes one quarantined cell: identification's batched
    /// read ([`MemoryController::induce`]: refresh → reduced-tRCD ACT →
    /// READ → restore → PRE, harvesting the failure indicator) followed
    /// by the catalog's symbol-uniformity criterion. Reinstates on a
    /// pass; escalates the strike count (doubling the backoff) on a
    /// failure, retiring the cell — and promoting a spare word — at
    /// `max_strikes`.
    fn recheck(&mut self, cell: CellAddr) -> Result<()> {
        let strikes = match self.states.get(&cell) {
            Some(CellState::Quarantined { strikes, .. }) => *strikes,
            _ => return Ok(()),
        };
        let t0 = self.recheck_ns.start();
        let passed = self.sample_cell(cell)?;
        self.recheck_ns.observe_since(t0);
        self.recharacterizations += 1;
        if passed {
            self.inner.resume_cell(cell);
            self.states.remove(&cell);
            self.monitors.insert(cell, CellMonitor::default());
            self.reinstated += 1;
        } else if strikes + 1 >= self.config.max_strikes {
            self.inner.retire_cell(cell);
            self.states.insert(cell, CellState::Retired);
            self.retired += 1;
            self.try_promote_spare();
        } else {
            let backoff = self
                .config
                .backoff_batches
                .saturating_mul(1u64 << (strikes.min(32) as u64));
            self.states.insert(
                cell,
                CellState::Quarantined {
                    strikes: strikes + 1,
                    release_at: self.batches + backoff,
                },
            );
        }
        Ok(())
    }

    fn sample_cell(&mut self, cell: CellAddr) -> Result<bool> {
        let trcd_ns = self.inner.config().trcd_ns;
        let pattern = self.inner.config().pattern;
        let reads = self.config.recheck_reads;
        let ctrl = self.inner.controller_mut();
        ctrl.try_set_trcd_ns(trcd_ns)?;
        let mut stream = Vec::with_capacity(reads);
        let sampled = ctrl.induce(&[cell.word()], pattern, reads, |_, diff| {
            stream.push((diff >> cell.bit) & 1 == 1);
        });
        ctrl.reset_trcd();
        sampled?;
        Ok(symbols_uniform(&stream, self.symbol_bits, self.tolerance))
    }

    /// Promotes the densest spare word the current plan can accept (if
    /// any); spares whose bank is full today stay available for later.
    fn try_promote_spare(&mut self) {
        for i in 0..self.spares.len() {
            let (addr, bits) = self.spares[i].clone();
            if self.inner.promote_word(addr, &bits).is_ok() {
                self.spares.remove(i);
                self.promoted += 1;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{IdentifySpec, RngCellCatalog};
    use crate::profiler::{ProfileSpec, Profiler};
    use dram_sim::{DeviceConfig, Manufacturer};

    fn fresh_ctrl() -> MemoryController {
        MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(42)
                .with_noise_seed(4242),
        )
    }

    fn catalog() -> &'static RngCellCatalog {
        static CATALOG: std::sync::OnceLock<RngCellCatalog> = std::sync::OnceLock::new();
        CATALOG.get_or_init(|| {
            let mut ctrl = fresh_ctrl();
            let profile = Profiler::new(&mut ctrl)
                .run(
                    ProfileSpec {
                        banks: (0..8).collect(),
                        rows: 0..256,
                        cols: 0..16,
                        ..ProfileSpec::default()
                    }
                    .with_iterations(30),
                )
                .unwrap();
            RngCellCatalog::identify(
                &mut ctrl,
                &profile,
                IdentifySpec {
                    reads: 1000,
                    ..IdentifySpec::default()
                },
            )
            .unwrap()
        })
    }

    /// Fast-tripping test config. The run cutoff stays at 24 — low
    /// enough that a stuck cell trips in 24 batches, high enough that
    /// an honest fair-coin cell essentially never does (P ≈ 2⁻²³ per
    /// bit; ~10⁻³ expected false trips across a whole test run).
    fn quick_lifecycle() -> LifecycleConfig {
        LifecycleConfig {
            stuck_run_cutoff: 24,
            bias_window: 64,
            backoff_batches: 16,
            max_strikes: 2,
            ..LifecycleConfig::default()
        }
    }

    fn resilient(lifecycle: LifecycleConfig) -> ResilientDRange {
        ResilientDRange::new(fresh_ctrl(), catalog(), DRangeConfig::default(), lifecycle).unwrap()
    }

    #[test]
    fn healthy_cells_stay_live() {
        let mut r = resilient(LifecycleConfig::default());
        for _ in 0..32 {
            let _ = r.next_batch().unwrap();
        }
        let stats = r.lifecycle_stats();
        assert_eq!(stats.quarantine_events, 0, "{stats:?}");
        assert_eq!(
            stats.live_cells as usize,
            r.generator().bits_per_iteration()
        );
        assert!(!stats.degraded);
    }

    #[test]
    fn stuck_cell_is_quarantined_then_retired() {
        let mut r = resilient(quick_lifecycle());
        let victim = r.generator().active_cells()[0];
        r.inner
            .controller_mut()
            .device_mut()
            .set_stuck(victim, true)
            .unwrap();
        // The constant failure indicator trips the run-length monitor
        // at exactly `stuck_run_cutoff` batches; the 16-batch backoff
        // leaves a window to observe the quarantined state.
        for _ in 0..28 {
            let _ = r.next_batch().unwrap();
        }
        let stats = r.lifecycle_stats();
        assert_eq!(stats.quarantine_events, 1, "{stats:?}");
        assert_eq!(stats.quarantined_cells, 1);
        assert!(!r.generator().active_cells().contains(&victim));
        // Still stuck at every recheck: strikes escalate to retirement.
        for _ in 0..28 {
            let _ = r.next_batch().unwrap();
        }
        let stats = r.lifecycle_stats();
        assert_eq!(stats.retired_cells, 1, "{stats:?}");
        assert_eq!(stats.quarantined_cells, 0);
        assert!(stats.recharacterizations >= 1);
        assert_eq!(stats.reinstated_cells, 0);
    }

    #[test]
    fn transient_fault_cells_are_reinstated() {
        // Escalating backoffs give transient faults time to clear
        // before retirement.
        let mut r = resilient(LifecycleConfig {
            stuck_run_cutoff: 24,
            bias_window: 64,
            backoff_batches: 4,
            max_strikes: 10,
            ..LifecycleConfig::default()
        });
        let baseline = r.lifecycle_stats().live_cells;
        let victims: Vec<CellAddr> = r.generator().active_cells()[..5].to_vec();
        for &cell in &victims {
            r.inner
                .controller_mut()
                .device_mut()
                .set_stuck(cell, true)
                .unwrap();
        }
        for _ in 0..26 {
            let _ = r.next_batch().unwrap();
        }
        let faulted = r.lifecycle_stats();
        assert!(faulted.quarantine_events >= 5, "{faulted:?}");
        assert!(faulted.live_cells < baseline);
        // Fault clears: backed-off cells re-characterize against the
        // healthy device and return to service.
        for &cell in &victims {
            r.inner
                .controller_mut()
                .device_mut()
                .clear_stuck(cell)
                .unwrap();
        }
        while r.lifecycle_stats().reinstated_cells < 5 {
            let _ = r.next_batch().unwrap();
            assert!(
                r.batches() < 10_000,
                "victims never reinstated: {:?}",
                r.lifecycle_stats()
            );
        }
        let healed = r.lifecycle_stats();
        assert_eq!(healed.retired_cells, 0, "{healed:?}");
        assert_eq!(healed.live_cells, baseline);
    }

    #[test]
    fn degraded_flag_tracks_live_fraction() {
        let mut r = resilient(quick_lifecycle());
        assert!(!r.lifecycle_stats().degraded);
        // Bench everything by hand: the snapshot must flip to degraded.
        for cell in r.generator().active_cells() {
            assert!(r.inner.suspend_cell(cell));
        }
        assert!(r.lifecycle_stats().degraded);
        assert_eq!(r.lifecycle_stats().live_cells, 0);
    }

    #[test]
    fn fully_benched_plan_fast_forwards_instead_of_spinning() {
        let mut r = resilient(quick_lifecycle());
        // Break every cell in the whole catalog — spares included, or
        // retirement would promote healthy spare words and the
        // generator would self-heal instead of dying. Rechecks must
        // fail while stuck, so retirement eventually empties the plan
        // and next_batch reports NoRngCells instead of hanging.
        for (addr, bits) in catalog().words() {
            for &bit in bits {
                r.inner
                    .controller_mut()
                    .device_mut()
                    .set_stuck(addr.cell(bit), true)
                    .unwrap();
            }
        }
        let err = loop {
            match r.next_batch() {
                Ok(_) => {}
                Err(e) => break e,
            }
            assert!(
                r.batches() < 100_000,
                "lifecycle failed to converge: {:?}",
                r.lifecycle_stats()
            );
        };
        assert!(matches!(err, DrangeError::NoRngCells(_)), "got {err:?}");
        let stats = r.lifecycle_stats();
        assert_eq!(stats.live_cells, 0);
        // Promoted spare words also tripped and retired, so the retired
        // total covers at least the initially planned population.
        assert!(stats.retired_cells as usize >= r.initial_cells);
    }

    #[test]
    fn retiring_a_full_word_promotes_a_spare() {
        // Plan only the best bank: every other catalog word is a spare.
        let mut r = ResilientDRange::new(
            fresh_ctrl(),
            catalog(),
            DRangeConfig {
                banks: Some(1),
                ..DRangeConfig::default()
            },
            quick_lifecycle(),
        )
        .unwrap();
        assert!(!r.spares.is_empty(), "unplanned catalog words are spares");
        for cell in r.generator().active_cells() {
            r.inner
                .controller_mut()
                .device_mut()
                .set_stuck(cell, true)
                .unwrap();
        }
        // Run until the first promotion lands (retirements free slots
        // and pull spare words in).
        while r.lifecycle_stats().promoted_words == 0 {
            r.next_batch().unwrap();
            assert!(
                r.batches() < 100_000,
                "no promotion: {:?}",
                r.lifecycle_stats()
            );
        }
        let stats = r.lifecycle_stats();
        assert!(stats.retired_cells > 0);
        assert!(stats.live_cells > 0, "promoted cells harvest");
    }

    #[test]
    fn schedule_steps_reach_the_device() {
        let schedule = EnvSchedule::new(7).shock(20.0).hold(3).ramp(-20.0, 4);
        let mut r = resilient(LifecycleConfig::default()).with_schedule(schedule);
        let t0 = r.generator().controller().device().temperature();
        let _ = r.next_batch().unwrap();
        let t1 = r.generator().controller().device().temperature();
        assert!((t1.degrees() - t0.degrees() - 20.0).abs() < 1e-9);
        assert_eq!(r.fault_stats().temperature_events, 1);
        for _ in 0..7 {
            let _ = r.next_batch().unwrap();
        }
        let t_end = r.generator().controller().device().temperature();
        assert!(
            (t_end.degrees() - t0.degrees()).abs() < 1e-9,
            "ramp returned to baseline: {t_end:?}"
        );
    }

    #[test]
    fn recharacterization_latency_is_recorded() {
        let registry = MetricsRegistry::new();
        let mut r = resilient(quick_lifecycle());
        r.attach_telemetry(&registry, "0");
        let victim = r.generator().active_cells()[0];
        r.inner
            .controller_mut()
            .device_mut()
            .set_stuck(victim, true)
            .unwrap();
        for _ in 0..44 {
            let _ = r.next_batch().unwrap();
        }
        assert!(r.lifecycle_stats().recharacterizations >= 1);
        let text = registry.render_prometheus();
        assert!(
            text.contains("drange_recharacterize_latency_ns_count{channel=\"0\"}"),
            "missing histogram in:\n{text}"
        );
    }

    #[test]
    fn stats_merge_sums_and_ors() {
        let a = LifecycleStats {
            live_cells: 10,
            quarantined_cells: 2,
            retired_cells: 1,
            quarantine_events: 5,
            reinstated_cells: 2,
            promoted_words: 1,
            recharacterizations: 4,
            degraded: false,
        };
        let b = LifecycleStats {
            live_cells: 7,
            degraded: true,
            ..LifecycleStats::default()
        };
        let m = a.merge(b);
        assert_eq!(m.live_cells, 17);
        assert_eq!(m.quarantine_events, 5);
        assert!(m.degraded);
        assert_eq!(
            LifecycleStats::default().merge(LifecycleStats::default()),
            LifecycleStats::default()
        );
    }

    #[test]
    fn invalid_lifecycle_configs_rejected() {
        for bad in [
            LifecycleConfig {
                stuck_run_cutoff: 1,
                ..LifecycleConfig::default()
            },
            LifecycleConfig {
                bias_tolerance: 0.5,
                ..LifecycleConfig::default()
            },
            LifecycleConfig {
                recheck_reads: 10,
                ..LifecycleConfig::default()
            },
            LifecycleConfig {
                backoff_batches: 0,
                ..LifecycleConfig::default()
            },
            LifecycleConfig {
                max_strikes: 0,
                ..LifecycleConfig::default()
            },
            LifecycleConfig {
                degraded_fraction: 1.5,
                ..LifecycleConfig::default()
            },
        ] {
            assert!(
                ResilientDRange::new(fresh_ctrl(), catalog(), DRangeConfig::default(), bad)
                    .is_err(),
                "{bad:?} must be rejected"
            );
        }
    }
}
