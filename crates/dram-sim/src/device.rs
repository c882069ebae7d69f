//! The DRAM device model: data storage, bank protocol state, and the
//! activation-failure read path.
//!
//! ## Failure model
//!
//! A READ issued `tRCD` after ACT samples the bitline before it is fully
//! amplified. The normalized bitline overdrive above the read threshold
//! ("margin") of a cell is
//!
//! ```text
//! margin = settle(tRCD) · strength(bitline) · (1 − α·rowdist) − θ
//!        + charge_pref ± coupling(neighbors) + tempco·(45 − T)·sens + ε
//! ```
//!
//! and the sensed value is wrong with probability `Φ(−margin / σ_noise)`.
//! A failed sense is *restored into the cell* (the sense amplifier writes
//! back what it sensed), which is why the paper's Algorithm 2 rewrites
//! the original data after every sample.
//!
//! Failures only affect the first word read after an activation
//! (Section 5.1: "activation failures occur only within the first cache
//! line accessed immediately following an activation"); subsequent reads
//! of the open row are clean.

use crate::data_pattern::DataPattern;
use crate::entropy::{NoiseSource, OsNoise, SeededNoise};
use crate::error::{DramError, Result};
use crate::faults::{AgedCell, FaultStats, StuckWord};
use crate::geometry::{CellAddr, Geometry, WordAddr};
use crate::manufacturer::{Manufacturer, PhysicsProfile};
use crate::math::phi;
use crate::probit::fast_phi;
use crate::sense_cache::{
    FastCell, ReadMemo, ResolveArena, SenseCache, SenseCacheStats, WordState,
};
use crate::temperature::Celsius;
use crate::timing::{DramStandard, TimingParams};
use crate::variation::{cell_latents, CellLatents, VariationMap};

/// Margin above which the slow (per-cell, noise-sampled) path is skipped
/// entirely: at 0.16 V over threshold with σ = 0.02 V, the failure
/// probability is below 10⁻¹⁵ even with extreme per-cell offsets.
const SLOW_PATH_CUTOFF_V: f64 = 0.16;

/// Configuration for building a [`DramDevice`].
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    manufacturer: Manufacturer,
    geometry: Option<Geometry>,
    standard: DramStandard,
    seed: u64,
    noise_seed: Option<u64>,
}

impl DeviceConfig {
    /// Starts a configuration for a device from the given manufacturer
    /// with default geometry, physics, LPDDR4 timing, and OS-seeded
    /// noise.
    pub fn new(manufacturer: Manufacturer) -> Self {
        DeviceConfig {
            manufacturer,
            geometry: None,
            standard: DramStandard::Lpddr4,
            seed: 0,
            noise_seed: None,
        }
    }

    /// Sets the manufacturing seed (process variation). Devices with
    /// different seeds are "different chips" from the same manufacturer.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses a deterministic noise source (reproducible experiments).
    /// Without this, noise is OS-seeded — the true-randomness stand-in.
    pub fn with_noise_seed(mut self, seed: u64) -> Self {
        self.noise_seed = Some(seed);
        self
    }

    /// Overrides the geometry. `subarray_rows` is still taken from the
    /// manufacturer profile unless a custom profile is also supplied.
    pub fn with_geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = Some(geometry);
        self
    }

    /// Selects the DRAM standard (timing preset).
    pub fn with_standard(mut self, standard: DramStandard) -> Self {
        self.standard = standard;
        self
    }

    /// The manufacturer this configuration targets.
    pub fn manufacturer(&self) -> Manufacturer {
        self.manufacturer
    }

    /// The configured manufacturing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// When a deterministic noise seed is configured, offsets it so that
    /// derived devices (e.g. one per channel) get independent but still
    /// reproducible noise streams. A no-op for OS-seeded noise.
    pub fn with_noise_seed_offset(mut self, offset: u64) -> Self {
        if let Some(s) = self.noise_seed {
            self.noise_seed = Some(s.wrapping_add(offset.wrapping_mul(0x9E37_79B9)));
        }
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<usize>,
    /// True if no column of the open row has been accessed yet — the
    /// window in which activation failures can occur.
    fresh: bool,
}

/// A simulated DRAM device (one rank's worth of banks).
pub struct DramDevice {
    manufacturer: Manufacturer,
    geometry: Geometry,
    profile: PhysicsProfile,
    standard: DramStandard,
    timing: TimingParams,
    seed: u64,
    temperature: Celsius,
    variation: VariationMap,
    /// Stored data: `data[bank][row * cols + col]`, low `word_bits` used.
    data: Vec<Vec<u64>>,
    banks: Vec<BankState>,
    noise: Box<dyn NoiseSource>,
    /// Memoized per-word bit classification for the sensing hot path.
    cache: SenseCache,
    /// Reusable gather/scatter buffers for [`DramDevice::resolve_run`].
    arena: ResolveArena,
    /// Whether READs sense through the cache (default) or the original
    /// per-cell slow path (the equivalence oracle).
    sense_fast: bool,
    /// Per-(bank, row) activation counts: `act_counts[bank * rows + row]`.
    /// Feeds activation-driven aging wear.
    act_counts: Vec<u64>,
    /// Injected environmental faults (aging, stuck-at, voltage noise).
    faults: FaultState,
}

/// The device's injected-fault state. Margin-affecting members
/// (`margin_bias_v`, aging wear) may only change through methods that
/// bump the sensing cache's resolve epoch.
#[derive(Debug, Default)]
struct FaultState {
    /// Global transient margin bias in volts (voltage-noise bursts).
    margin_bias_v: f64,
    /// Activation-driven aging records, per cell.
    aging: std::collections::HashMap<CellAddr, AgedCell>,
    /// Stuck-at masks, per word.
    stuck: std::collections::HashMap<WordAddr, StuckWord>,
    /// Cumulative injection counters.
    stats: FaultStats,
}

impl std::fmt::Debug for DramDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramDevice")
            .field("manufacturer", &self.manufacturer)
            .field("geometry", &self.geometry)
            .field("standard", &self.standard)
            .field("temperature", &self.temperature)
            .finish_non_exhaustive()
    }
}

impl DramDevice {
    /// Builds the device: materializes process variation and zero-fills
    /// the array.
    ///
    /// # Panics
    ///
    /// Panics if the (possibly overridden) geometry is invalid; use
    /// [`Geometry::validate`] beforehand when geometry comes from
    /// untrusted input.
    pub fn build(config: DeviceConfig) -> Self {
        let profile = config.manufacturer.profile();
        let mut geometry = config
            .geometry
            .unwrap_or_else(|| Geometry::lpddr4_compact(profile.subarray_rows));
        if config.geometry.is_none() {
            geometry.subarray_rows = profile.subarray_rows.min(geometry.rows);
        }
        // xtask:allow(no-panic) -- documented constructor contract; validate geometry beforehand for untrusted input
        geometry.validate().expect("invalid device geometry");
        let variation = VariationMap::build(config.seed, geometry, &profile);
        let data = vec![vec![0u64; geometry.rows * geometry.cols]; geometry.banks];
        let banks = vec![
            BankState {
                open_row: None,
                fresh: false
            };
            geometry.banks
        ];
        let noise: Box<dyn NoiseSource> = match config.noise_seed {
            Some(s) => Box::new(SeededNoise::new(s)),
            None => Box::new(OsNoise::new()),
        };
        DramDevice {
            manufacturer: config.manufacturer,
            geometry,
            profile,
            standard: config.standard,
            timing: TimingParams::for_standard(config.standard),
            seed: config.seed,
            temperature: Celsius::DEFAULT,
            variation,
            data,
            banks,
            noise,
            cache: SenseCache::default(),
            arena: ResolveArena::default(),
            sense_fast: true,
            act_counts: vec![0u64; geometry.banks * geometry.rows],
            faults: FaultState::default(),
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The physics profile in effect.
    pub fn profile(&self) -> &PhysicsProfile {
        &self.profile
    }

    /// The manufacturer of this device.
    pub fn manufacturer(&self) -> Manufacturer {
        self.manufacturer
    }

    /// The DRAM standard (timing preset family).
    pub fn standard(&self) -> DramStandard {
        self.standard
    }

    /// Datasheet timing parameters for this device.
    pub fn timing(&self) -> TimingParams {
        self.timing
    }

    /// The manufacturing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current device temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Sets the device temperature (the thermal chamber knob).
    ///
    /// Invalidates every memoized sensing probability: the margin's
    /// temperature term changes, the bit classification (which is
    /// temperature-independent) does not.
    pub fn set_temperature(&mut self, t: Celsius) {
        if t.degrees().to_bits() != self.temperature.degrees().to_bits() {
            self.cache.invalidate_resolved();
        }
        self.temperature = t;
    }

    /// Selects the sensing implementation: `true` (default) senses
    /// through the sense-cache fast path, `false` runs the original
    /// per-cell slow path.
    ///
    /// Both consume the device's noise stream identically, so the
    /// toggle exists for equivalence testing and benchmarking, not
    /// correctness.
    pub fn set_sense_fast_path(&mut self, fast: bool) {
        self.sense_fast = fast;
    }

    /// Snapshot of the sensing-cache effectiveness counters.
    pub fn sense_cache_stats(&self) -> SenseCacheStats {
        self.cache.stats
    }

    /// Timing-register hook: tells the device a new tRCD is in effect.
    ///
    /// Values at or above the fail guard never reach the sensing path
    /// and are ignored; a *changed* sub-guard value re-keys the
    /// classification epoch. Each READ also carries its tRCD and the
    /// cache double-checks it per word, so this hook is the explicit
    /// invalidation path, not the only one.
    pub fn notify_timing_change(&mut self, trcd_ns: f64) {
        if trcd_ns < self.profile.fail_guard_ns {
            self.cache.rekey_trcd(trcd_ns.to_bits());
        }
    }

    /// The process-variation map (analysis/tests).
    pub fn variation(&self) -> &VariationMap {
        &self.variation
    }

    fn check_bank(&self, bank: usize) -> Result<()> {
        if bank >= self.geometry.banks {
            return Err(DramError::BankOutOfRange {
                bank,
                banks: self.geometry.banks,
            });
        }
        Ok(())
    }

    /// Checks that `(bank, row, col)` addresses a word of this device.
    ///
    /// # Errors
    ///
    /// [`DramError::BankOutOfRange`], [`DramError::RowOutOfRange`] or
    /// [`DramError::ColOutOfRange`] for the first index out of range.
    pub fn check_addr(&self, bank: usize, row: usize, col: usize) -> Result<()> {
        self.check_bank(bank)?;
        if row >= self.geometry.rows {
            return Err(DramError::RowOutOfRange {
                row,
                rows: self.geometry.rows,
            });
        }
        if col >= self.geometry.cols {
            return Err(DramError::ColOutOfRange {
                col,
                cols: self.geometry.cols,
            });
        }
        Ok(())
    }

    #[inline]
    fn word_mask(&self) -> u64 {
        if self.geometry.word_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.geometry.word_bits) - 1
        }
    }

    // ------------------------------------------------------------------
    // Direct (out-of-band) data access, used for test setup and analysis.
    // ------------------------------------------------------------------

    /// Reads a stored word directly, bypassing the command protocol.
    ///
    /// # Errors
    ///
    /// Returns an addressing error if the address is outside geometry.
    pub fn peek(&self, addr: WordAddr) -> Result<u64> {
        self.check_addr(addr.bank, addr.row, addr.col)?;
        Ok(self.data[addr.bank][addr.row * self.geometry.cols + addr.col])
    }

    /// Writes a stored word directly, bypassing the command protocol.
    ///
    /// # Errors
    ///
    /// Returns an addressing error if the address is outside geometry.
    pub fn poke(&mut self, addr: WordAddr, value: u64) -> Result<()> {
        self.check_addr(addr.bank, addr.row, addr.col)?;
        let mask = self.word_mask();
        self.data[addr.bank][addr.row * self.geometry.cols + addr.col] = value & mask;
        Ok(())
    }

    /// The stored bit of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside geometry.
    pub fn stored_bit(&self, cell: CellAddr) -> bool {
        // xtask:allow(no-panic) -- documented # Panics contract of this accessor
        let w = self.peek(cell.word()).expect("cell address out of range");
        (w >> cell.bit) & 1 == 1
    }

    /// Fills one row with a data pattern (direct access).
    pub fn fill_row(&mut self, bank: usize, row: usize, pattern: DataPattern) {
        for col in 0..self.geometry.cols {
            let w = pattern.word(row, col, self.geometry.word_bits);
            self.poke(WordAddr::new(bank, row, col), w)
                // xtask:allow(no-panic) -- col iterates the device's own geometry, always in range
                .expect("fill_row in range");
        }
    }

    /// Fills an entire bank with a data pattern (direct access).
    pub fn fill_bank(&mut self, bank: usize, pattern: DataPattern) {
        for row in 0..self.geometry.rows {
            self.fill_row(bank, row, pattern);
        }
    }

    /// Fills the whole device with a data pattern (direct access).
    pub fn fill_device(&mut self, pattern: DataPattern) {
        for bank in 0..self.geometry.banks {
            self.fill_bank(bank, pattern);
        }
    }

    // ------------------------------------------------------------------
    // Command protocol.
    // ------------------------------------------------------------------

    /// ACT: opens a row in a bank and arms the activation-failure window.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankAlreadyOpen`] if the bank has an open row
    /// and addressing errors for out-of-range banks/rows.
    pub fn activate(&mut self, bank: usize, row: usize) -> Result<()> {
        self.check_addr(bank, row, 0)?;
        let state = &mut self.banks[bank];
        if let Some(open) = state.open_row {
            return Err(DramError::BankAlreadyOpen {
                bank,
                open_row: open,
            });
        }
        state.open_row = Some(row);
        state.fresh = true;
        self.act_counts[bank * self.geometry.rows + row] += 1;
        Ok(())
    }

    /// PRE: closes the open row of a bank.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotOpen`] if no row is open.
    pub fn precharge(&mut self, bank: usize) -> Result<()> {
        self.check_bank(bank)?;
        let state = &mut self.banks[bank];
        if state.open_row.is_none() {
            return Err(DramError::BankNotOpen { bank });
        }
        state.open_row = None;
        state.fresh = false;
        Ok(())
    }

    /// The row currently open in a bank, if any.
    pub fn open_row(&self, bank: usize) -> Option<usize> {
        self.banks.get(bank).and_then(|s| s.open_row)
    }

    /// READ: senses one word of the open row, applying the
    /// activation-failure path when this is the first access after ACT
    /// and `trcd_ns` is below the amplification the cell needs.
    ///
    /// A failed sense corrupts the stored cell (restore writes back the
    /// sensed value).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotOpen`] / [`DramError::WrongOpenRow`]
    /// for protocol violations and addressing errors for bad indices.
    pub fn read(&mut self, bank: usize, row: usize, col: usize, trcd_ns: f64) -> Result<u64> {
        self.check_addr(bank, row, col)?;
        let state = self.banks[bank];
        let open = state.open_row.ok_or(DramError::BankNotOpen { bank })?;
        if open != row {
            return Err(DramError::WrongOpenRow {
                bank,
                requested: row,
                open_row: open,
            });
        }
        let idx = row * self.geometry.cols + col;
        let stored = self.data[bank][idx];
        if !state.fresh {
            return Ok(self.apply_stuck(bank, row, col, stored));
        }
        self.banks[bank].fresh = false;
        if trcd_ns >= self.profile.fail_guard_ns {
            // Within the guard-banded operating region: datasheet-
            // compliant (and near-compliant) reads are always correct.
            // The paper observes failures only for tRCD in 6-13 ns.
            return Ok(self.apply_stuck(bank, row, col, stored));
        }
        let sensed = if self.sense_fast {
            self.sense_word_fast(bank, row, col, stored, trcd_ns)
        } else {
            self.sense_word(bank, row, col, stored, trcd_ns)
        };
        // Stuck bits override whatever the sense amplifiers latched;
        // applied after sensing so the noise-stream consumption (and
        // the fast/slow path equivalence) is unperturbed. The override
        // flows into the restore below, corrupting the stored word just
        // like a natural activation failure.
        let sensed = self.apply_stuck(bank, row, col, sensed);
        if sensed != stored {
            // Restoration writes the (wrong) sensed value back. The
            // sense cache needs no explicit hook: every non-skip sense
            // re-reads the live coupling context, and when Algorithm 2
            // rewrites the original data the context round-trips, so
            // the memoized probabilities become valid again for free.
            self.data[bank][idx] = sensed;
        }
        Ok(sensed)
    }

    /// WRITE: stores one word into the open row.
    ///
    /// # Errors
    ///
    /// Same protocol and addressing errors as [`DramDevice::read`].
    pub fn write(&mut self, bank: usize, row: usize, col: usize, value: u64) -> Result<()> {
        self.check_addr(bank, row, col)?;
        let state = self.banks[bank];
        let open = state.open_row.ok_or(DramError::BankNotOpen { bank })?;
        if open != row {
            return Err(DramError::WrongOpenRow {
                bank,
                requested: row,
                open_row: open,
            });
        }
        // A column write drives the sense amplifiers directly; the
        // failure window is gone afterwards.
        self.banks[bank].fresh = false;
        let mask = self.word_mask();
        self.data[bank][idx_of(&self.geometry, row, col)] = value & mask;
        Ok(())
    }

    /// Algorithm 1's inner sequence, batched: `rounds` times over
    /// `words` in order, refresh the word's row (ACT + PRE), ACT it
    /// again, READ the word at `trcd_ns`, WRITE `pattern`'s word back
    /// when the read differs from it, and PRE. `on_read(i, mask)`
    /// receives each read of `words[i]` as its failure mask (sensed XOR
    /// `pattern`'s word). Returns the number of restoring WRITEs.
    ///
    /// The result is bit-identical to issuing those commands one by one
    /// through [`DramDevice::activate`], [`DramDevice::read`],
    /// [`DramDevice::write`] and [`DramDevice::precharge`]: the same
    /// noise draws in the same order, the same stored data, activation
    /// counts, fault counters and sense-cache counters. A word's first
    /// read goes through the READ path; each restore puts its coupling
    /// context back, so every later read whose context still matches
    /// the resolved snapshot books the hit the READ path would book and
    /// draws straight from the memoized probabilities; a read whose
    /// context moved goes through the READ path again.
    ///
    /// # Errors
    ///
    /// Addressing errors for an out-of-range word and
    /// [`DramError::BankAlreadyOpen`] for a word whose bank has an open
    /// row. On error nothing is read, written or drawn.
    pub fn induce<F: FnMut(usize, u64)>(
        &mut self,
        words: &[WordAddr],
        pattern: DataPattern,
        trcd_ns: f64,
        rounds: usize,
        mut on_read: F,
    ) -> Result<u64> {
        for w in words {
            self.check_addr(w.bank, w.row, w.col)?;
            if let Some(open_row) = self.banks[w.bank].open_row {
                return Err(DramError::BankAlreadyOpen {
                    bank: w.bank,
                    open_row,
                });
            }
        }
        let g = self.geometry;
        let mask = self.word_mask();
        let expected: Vec<u64> = words
            .iter()
            .map(|w| pattern.word(w.row, w.col, g.word_bits))
            .collect();
        let sensing = trcd_ns < self.profile.fail_guard_ns;
        let trcd_bits = trcd_ns.to_bits();
        let mut memos = vec![ReadMemo::Cold; words.len()];
        let (mut ps, mut bits) = (Vec::new(), Vec::new());
        let mut writes = 0u64;
        for _ in 0..rounds {
            for (i, w) in words.iter().enumerate() {
                let (bank, row, col) = (w.bank, w.row, w.col);
                // The refresh ACT and the inducing ACT.
                self.act_counts[bank * g.rows + row] += 2;
                let idx = idx_of(&g, row, col);
                let stored = self.data[bank][idx];
                let got = if sensing {
                    let sensed = if !self.sense_fast {
                        self.sense_word(bank, row, col, stored, trcd_ns)
                    } else {
                        match memos[i] {
                            ReadMemo::Skip => {
                                self.cache.stats.skip_word_reads += 1;
                                stored
                            }
                            ReadMemo::Resolved { ctx, off, len }
                                if ctx == ctx_of_parts(&self.data, &g, bank, row, col, stored) =>
                            {
                                self.cache.stats.hit_reads += 1;
                                let (off, len) = (off as usize, len as usize);
                                let mut flips = self.noise.bernoulli_run(&ps[off..off + len]);
                                let mut sensed = stored;
                                while flips != 0 {
                                    sensed ^= 1u64 << bits[off + flips.trailing_zeros() as usize];
                                    flips &= flips - 1;
                                }
                                sensed
                            }
                            _ => {
                                let sensed = self.sense_word_fast(bank, row, col, stored, trcd_ns);
                                memos[i] = self.cache.memo_of(*w, trcd_bits, &mut ps, &mut bits);
                                sensed
                            }
                        }
                    };
                    // As in `read`: stuck bits override, a failed sense
                    // is restored into the cell.
                    let sensed = self.apply_stuck(bank, row, col, sensed);
                    if sensed != stored {
                        self.data[bank][idx] = sensed;
                    }
                    sensed
                } else {
                    self.apply_stuck(bank, row, col, stored)
                };
                if got != expected[i] {
                    self.data[bank][idx] = expected[i] & mask;
                    writes += 1;
                }
                on_read(i, got ^ expected[i]);
            }
        }
        Ok(writes)
    }

    // ------------------------------------------------------------------
    // Failure physics.
    // ------------------------------------------------------------------

    /// Senses a word with the failure model applied.
    fn sense_word(
        &mut self,
        bank: usize,
        row: usize,
        col: usize,
        stored: u64,
        trcd_ns: f64,
    ) -> u64 {
        let g = self.profile.settle(trcd_ns);
        let sub = self.geometry.subarray_of(row);
        let d = self.geometry.row_in_subarray(row) as f64 / self.geometry.subarray_rows as f64;
        let row_factor = 1.0 - self.profile.row_alpha * d;
        let mut sensed = stored;
        for bit in 0..self.geometry.word_bits {
            let bl = self.geometry.bitline_of(col, bit);
            let s = self.variation.strength(bank, sub, bl);
            let base = g * s * row_factor - self.profile.theta_v;
            if base > SLOW_PATH_CUTOFF_V {
                continue;
            }
            let cell = CellAddr::new(bank, row, col, bit);
            let margin = self.cell_margin(cell, base, stored);
            let p_fail = phi(-margin * self.profile.inv_sigma);
            if self.noise.bernoulli(p_fail) {
                sensed ^= 1u64 << bit;
            }
        }
        sensed
    }

    /// Senses a word through the sense cache: one map lookup plus a
    /// skip-mask test in the common case, memoized latents and
    /// probabilities otherwise. Draws from the noise stream in the same
    /// order (and, up to the [`crate::probit`] error bound, with the
    /// same probabilities) as [`DramDevice::sense_word`].
    fn sense_word_fast(
        &mut self,
        bank: usize,
        row: usize,
        col: usize,
        stored: u64,
        trcd_ns: f64,
    ) -> u64 {
        // Steady-state attempt on disjoint field borrows (cache, noise,
        // and data never alias): a classified, resolved, context-clean
        // word needs no classification and no Φ work, so the whole read
        // is a table or map probe, a context compare, and the noise
        // draws — with no cache detach. Falls through to the detached
        // slow path on any staleness.
        {
            let cache = &mut self.cache;
            let noise = &mut self.noise;
            // Dense hot-run table first: Algorithm 2 READs the run in
            // order, so the cursor compare answers the common case
            // without touching the word map's scattered buckets and
            // heap buffers. Every staleness check the map path does is
            // replayed against the table's snapshots.
            if cache.hot_valid
                && cache.hot_class_epoch == cache.class_epoch
                && cache.hot_trcd_bits == trcd_ns.to_bits()
                && !cache.hot.is_empty()
            {
                let addr = WordAddr::new(bank, row, col);
                let n = cache.hot.len();
                let cur = cache.hot_cursor;
                let found = if cache.hot[cur].addr == addr {
                    Some(cur)
                } else {
                    cache.hot.iter().position(|h| h.addr == addr)
                };
                if let Some(k) = found {
                    cache.hot_cursor = if k + 1 == n { 0 } else { k + 1 };
                    let hw = &mut cache.hot[k];
                    if hw.usable {
                        if hw.len == 0 {
                            cache.stats.skip_word_reads += 1;
                            return stored;
                        }
                        let ctx = ctx_of_parts(&self.data, &self.geometry, bank, row, col, stored);
                        if hw.resolve_epoch == cache.resolve_epoch && hw.ctx == ctx {
                            if hw.prefetched {
                                hw.prefetched = false;
                                cache.stats.resolve_reads += 1;
                            } else {
                                cache.stats.hit_reads += 1;
                            }
                            let off = hw.off as usize;
                            let len = hw.len as usize;
                            let mut sensed = stored;
                            let mut mask = noise.bernoulli_run(&cache.hot_ps[off..off + len]);
                            while mask != 0 {
                                let j = mask.trailing_zeros() as usize;
                                sensed ^= 1u64 << cache.hot_bit_pool[off + j];
                                mask &= mask - 1;
                            }
                            return sensed;
                        }
                    }
                }
            }
            if let Some(state) = cache.words.get_mut(&WordAddr::new(bank, row, col)) {
                if state.classified
                    && state.class_epoch == cache.class_epoch
                    && state.trcd_bits == trcd_ns.to_bits()
                {
                    if state.active.is_empty() {
                        cache.stats.skip_word_reads += 1;
                        return stored;
                    }
                    let ctx = ctx_of_parts(&self.data, &self.geometry, bank, row, col, stored);
                    if state.resolved
                        && state.resolve_epoch == cache.resolve_epoch
                        && state.ctx == ctx
                    {
                        if state.prefetched {
                            // First consumption of a bulk-prefetched
                            // resolution books as a resolve — see
                            // `sense_word_cached`.
                            state.prefetched = false;
                            cache.stats.resolve_reads += 1;
                        } else {
                            cache.stats.hit_reads += 1;
                        }
                        let mut sensed = stored;
                        let mut mask = noise.bernoulli_run(&state.ps);
                        while mask != 0 {
                            let k = mask.trailing_zeros() as usize;
                            sensed ^= 1u64 << state.hot_bits[k];
                            mask &= mask - 1;
                        }
                        return sensed;
                    }
                }
            }
        }
        // Detach the cache so its word states can be borrowed mutably
        // alongside the device's data/profile/variation/noise fields.
        let mut cache = std::mem::take(&mut self.cache);
        let sensed = self.sense_word_cached(&mut cache, bank, row, col, stored, trcd_ns);
        self.cache = cache;
        sensed
    }

    /// Ensures a word's classification matches the current tRCD and
    /// classification epoch, recomputing it when stale. Replicates
    /// [`DramDevice::sense_word`]'s per-bit prefix so `base` is
    /// computed by the identical expression tree. Returns whether a
    /// (re)classification ran (the caller books the stats).
    #[allow(clippy::too_many_arguments)]
    fn ensure_classified(
        &self,
        state: &mut WordState,
        bank: usize,
        row: usize,
        col: usize,
        trcd_bits: u64,
        trcd_ns: f64,
        class_epoch: u32,
    ) -> bool {
        if state.classified && state.class_epoch == class_epoch && state.trcd_bits == trcd_bits {
            return false;
        }
        let g = self.profile.settle(trcd_ns);
        let sub = self.geometry.subarray_of(row);
        let d = self.geometry.row_in_subarray(row) as f64 / self.geometry.subarray_rows as f64;
        let row_factor = 1.0 - self.profile.row_alpha * d;
        state.skip_mask = 0;
        state.active.clear();
        state.hot_bits.clear();
        for bit in 0..self.geometry.word_bits {
            let bl = self.geometry.bitline_of(col, bit);
            let s = self.variation.strength(bank, sub, bl);
            let base = g * s * row_factor - self.profile.theta_v;
            if base > SLOW_PATH_CUTOFF_V {
                state.skip_mask |= 1u64 << bit;
            } else {
                let cell = CellAddr::new(bank, row, col, bit);
                let lat = cell_latents(self.seed, &self.profile, cell);
                state.active.push(FastCell { bit, base, lat });
                state.hot_bits.push(bit as u8);
            }
        }
        state.ps.clear();
        state.ps.resize(state.active.len(), 0.0);
        state.classified = true;
        state.class_epoch = class_epoch;
        state.trcd_bits = trcd_bits;
        state.resolved = false;
        state.prefetched = false;
        true
    }

    /// Coupling-context snapshot of a word: the margins of its cells
    /// depend only on the stored word itself and its column neighbors
    /// (bitline b±1 leaves the word only at bits 0 and word_bits−1).
    /// Missing neighbors use a constant sentinel.
    fn ctx_of(&self, bank: usize, row: usize, col: usize, stored: u64) -> [u64; 3] {
        ctx_of_parts(&self.data, &self.geometry, bank, row, col, stored)
    }

    fn sense_word_cached(
        &mut self,
        cache: &mut SenseCache,
        bank: usize,
        row: usize,
        col: usize,
        stored: u64,
        trcd_ns: f64,
    ) -> u64 {
        let trcd_bits = trcd_ns.to_bits();
        let state = cache
            .words
            .entry(WordAddr::new(bank, row, col))
            .or_default();
        if self.ensure_classified(state, bank, row, col, trcd_bits, trcd_ns, cache.class_epoch) {
            cache.stats.classified_words += 1;
        }
        if state.active.is_empty() {
            // Every bit always-correct at this tRCD: the whole-word
            // common case is this one mask-backed early return.
            cache.stats.skip_word_reads += 1;
            return stored;
        }
        let ctx = self.ctx_of(bank, row, col, stored);
        if !state.resolved || state.resolve_epoch != cache.resolve_epoch || state.ctx != ctx {
            for k in 0..state.active.len() {
                let fc = &state.active[k];
                let cell = CellAddr::new(bank, row, col, fc.bit);
                let margin = self.cell_margin_with(cell, fc.base, stored, &fc.lat);
                state.ps[k] = fast_phi(-margin * self.profile.inv_sigma);
            }
            state.resolved = true;
            state.resolve_epoch = cache.resolve_epoch;
            state.ctx = ctx;
            state.prefetched = false;
            cache.stats.resolve_reads += 1;
            // The map resolution just diverged from any hot-table
            // snapshot of this word; retire that entry so the table
            // never serves (or books) a superseded resolution.
            if cache.hot_valid {
                let addr = WordAddr::new(bank, row, col);
                if let Some(h) = cache.hot.iter_mut().find(|h| h.addr == addr) {
                    h.usable = false;
                }
            }
        } else if state.prefetched {
            // First consumption of a bulk-prefetched resolution: the Φ
            // work ran in resolve_run instead of here, so this READ
            // books as a resolve — counter-for-counter identical to
            // the non-prefetching fast path.
            state.prefetched = false;
            cache.stats.resolve_reads += 1;
        } else {
            cache.stats.hit_reads += 1;
        }
        // One virtual dispatch for the whole word's draws; the mask
        // comes back in `ps` order, i.e. ascending bit order — the
        // exact sequence the per-cell loop used to draw.
        let mut sensed = stored;
        let mut mask = self.noise.bernoulli_run(&state.ps);
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            sensed ^= 1u64 << state.hot_bits[k];
            mask &= mask - 1;
        }
        sensed
    }

    /// Bulk-prefetches the stochastic-cell resolutions for a run of
    /// words — the Algorithm 2 plan of the next sampling pass — by
    /// gathering every stale word's cell margins into a
    /// structure-of-arrays arena and evaluating Φ with the four-lane
    /// probit kernel ([`crate::probit::fast_phi4`]).
    ///
    /// Purely an acceleration hint: READs re-validate the epochs and
    /// the coupling context regardless, the lane kernel is
    /// bit-identical to the scalar one, and the prefetch consumes no
    /// noise (Φ is deterministic), so the output stream and the cache
    /// counters are exactly those of the non-prefetching fast path.
    /// No-op when the fast path is disabled, when `trcd_ns` is inside
    /// the guard band (such READs never sense), and when the previous
    /// run covered the same words under the same tRCD and epochs (the
    /// steady-state hot streak). Out-of-range addresses are skipped.
    pub fn resolve_run(&mut self, words: &[WordAddr], trcd_ns: f64) {
        if !self.sense_fast || trcd_ns >= self.profile.fail_guard_ns {
            return;
        }
        let trcd_bits = trcd_ns.to_bits();
        let mut cache = std::mem::take(&mut self.cache);
        if cache.run_valid
            && cache.run_trcd_bits == trcd_bits
            && cache.run_class_epoch == cache.class_epoch
            && cache.run_resolve_epoch == cache.resolve_epoch
            && cache.run_words == words
        {
            self.cache = cache;
            return;
        }
        let mut arena = std::mem::take(&mut self.arena);
        arena.clear();
        for &addr in words {
            let (bank, row, col) = (addr.bank, addr.row, addr.col);
            if self.check_addr(bank, row, col).is_err() {
                continue;
            }
            let state = cache.words.entry(addr).or_default();
            if self.ensure_classified(state, bank, row, col, trcd_bits, trcd_ns, cache.class_epoch)
            {
                cache.stats.classified_words += 1;
            }
            if state.active.is_empty() {
                continue;
            }
            let stored = self.data[bank][idx_of(&self.geometry, row, col)];
            let ctx = self.ctx_of(bank, row, col, stored);
            if state.resolved && state.resolve_epoch == cache.resolve_epoch && state.ctx == ctx {
                continue;
            }
            arena.spans.push((addr, ctx, state.active.len() as u32));
            for fc in &state.active {
                let cell = CellAddr::new(bank, row, col, fc.bit);
                let margin = self.cell_margin_with(cell, fc.base, stored, &fc.lat);
                arena.args.push(-margin * self.profile.inv_sigma);
            }
        }
        cache.resolve_words(&mut arena);
        cache.build_hot_table(words, trcd_bits);
        cache.run_words.clear();
        cache.run_words.extend_from_slice(words);
        cache.run_trcd_bits = trcd_bits;
        cache.run_class_epoch = cache.class_epoch;
        cache.run_resolve_epoch = cache.resolve_epoch;
        cache.run_valid = true;
        self.arena = arena;
        self.cache = cache;
    }

    /// Adds the per-cell margin terms to a precomputed `base` margin.
    ///
    /// `row_word` is the stored word containing the cell (used for
    /// neighbor coupling within the word); neighbors in adjacent words
    /// are fetched from the array.
    fn cell_margin(&self, cell: CellAddr, base: f64, row_word: u64) -> f64 {
        let lat = cell_latents(self.seed, &self.profile, cell);
        self.cell_margin_with(cell, base, row_word, &lat)
    }

    /// [`DramDevice::cell_margin`] with the latents supplied by the
    /// caller — the single margin expression both sensing paths share,
    /// so cached and freshly-derived latents produce bit-identical
    /// margins.
    fn cell_margin_with(&self, cell: CellAddr, base: f64, row_word: u64, lat: &CellLatents) -> f64 {
        let anti = cell.row % 2 == 1;
        let stored = (row_word >> cell.bit) & 1 == 1;
        let my_charge = stored ^ anti;

        // Charge-orientation preference: sensing a high-charge cell is
        // easier or harder depending on the (per-cell, per-manufacturer)
        // preference sign.
        let charge_term = if my_charge {
            -lat.charge_pref_v
        } else {
            lat.charge_pref_v
        };

        // Adjacent-bitline coupling: neighbors whose stored charge
        // differs swing the opposite way and steal margin.
        let mut couple = 0.0;
        if let Some(left) = self.neighbor_charge(cell, -1, row_word) {
            if left != my_charge {
                couple += lat.coupl_left_v;
            }
        }
        if let Some(right) = self.neighbor_charge(cell, 1, row_word) {
            if right != my_charge {
                couple += lat.coupl_right_v;
            }
        }

        let temp_term = -(self.temperature.degrees() - Celsius::DEFAULT.degrees())
            * self.profile.tempco_v_per_c
            * lat.temp_sens;

        // Injected environmental faults: a global transient voltage
        // bias plus per-cell aging wear. Both live in this shared
        // expression so the slow path, the cached fast path, and the
        // analytic failure_probability stay bit-identical, and both
        // may only change through resolve-epoch-bumping methods.
        let fault_term = self.faults.margin_bias_v - self.wear_of(cell);

        let margin = base + charge_term - couple + temp_term + lat.eps_v + fault_term;
        // Metastable dead zone: margins within ±dz resolve 50/50 on
        // thermal noise alone (true metastability); outside it, the
        // residual margin beyond the dead zone drives the probit.
        let dz = self.profile.metastable_deadzone_v;
        if margin.abs() < dz {
            0.0
        } else {
            margin - dz * margin.signum()
        }
    }

    /// The physical charge (true/anti adjusted) of the cell `delta`
    /// bitlines away in the same row, if it exists.
    fn neighbor_charge(&self, cell: CellAddr, delta: isize, row_word: u64) -> Option<bool> {
        let bl = self.geometry.bitline_of(cell.col, cell.bit) as isize + delta;
        if bl < 0 || bl as usize >= self.geometry.bitlines() {
            return None;
        }
        let bl = bl as usize;
        let (ncol, nbit) = (bl / self.geometry.word_bits, bl % self.geometry.word_bits);
        let word = if ncol == cell.col {
            row_word
        } else {
            self.data[cell.bank][idx_of(&self.geometry, cell.row, ncol)]
        };
        let stored = (word >> nbit) & 1 == 1;
        let anti = cell.row % 2 == 1;
        Some(stored ^ anti)
    }

    /// Analytic activation-failure probability of a cell for a given
    /// `tRCD`, using the *currently stored* data as the pattern context.
    ///
    /// This is the model's ground truth F_prob; characterization code
    /// estimates the same quantity empirically by repeated sampling.
    ///
    /// # Panics
    ///
    /// Panics if the cell address is outside geometry.
    pub fn failure_probability(&self, cell: CellAddr, trcd_ns: f64) -> f64 {
        self.check_addr(cell.bank, cell.row, cell.col)
            // xtask:allow(no-panic) -- documented # Panics contract of this accessor
            .expect("cell in range");
        if trcd_ns >= self.profile.fail_guard_ns {
            return 0.0;
        }
        let g = self.profile.settle(trcd_ns);
        let sub = self.geometry.subarray_of(cell.row);
        let d = self.geometry.row_in_subarray(cell.row) as f64 / self.geometry.subarray_rows as f64;
        let bl = self.geometry.bitline_of(cell.col, cell.bit);
        let s = self.variation.strength(cell.bank, sub, bl);
        let base = g * s * (1.0 - self.profile.row_alpha * d) - self.profile.theta_v;
        if base > SLOW_PATH_CUTOFF_V {
            return 0.0;
        }
        let row_word = self.data[cell.bank][idx_of(&self.geometry, cell.row, cell.col)];
        let margin = self.cell_margin(cell, base, row_word);
        phi(-margin * self.profile.inv_sigma)
    }

    /// Whether the cell sits on a weak bitline (analysis helper).
    pub fn on_weak_bitline(&self, cell: CellAddr) -> bool {
        let sub = self.geometry.subarray_of(cell.row);
        let bl = self.geometry.bitline_of(cell.col, cell.bit);
        self.variation.is_weak(cell.bank, sub, bl)
    }

    // ------------------------------------------------------------------
    // Environmental fault injection (see crate::faults).
    // ------------------------------------------------------------------

    /// Applies any stuck-at overrides to a freshly read word.
    #[inline]
    fn apply_stuck(&mut self, bank: usize, row: usize, col: usize, sensed: u64) -> u64 {
        if self.faults.stuck.is_empty() {
            return sensed;
        }
        match self.faults.stuck.get(&WordAddr::new(bank, row, col)) {
            Some(s) => {
                let out = (sensed & !s.mask) | (s.value & s.mask);
                if out != sensed {
                    self.faults.stats.stuck_read_overrides += 1;
                }
                out
            }
            None => sensed,
        }
    }

    /// Aging wear currently in effect for a cell, volts.
    #[inline]
    fn wear_of(&self, cell: CellAddr) -> f64 {
        if self.faults.aging.is_empty() {
            return 0.0;
        }
        self.faults.aging.get(&cell).map_or(0.0, |a| a.wear_v)
    }

    /// Cumulative injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// The transient margin bias currently injected, volts.
    pub fn margin_bias_v(&self) -> f64 {
        self.faults.margin_bias_v
    }

    /// Injects a global transient margin bias (a voltage-noise burst);
    /// negative values steal margin and raise failure probabilities.
    /// `0.0` ends the burst. Any actual change invalidates every
    /// memoized sensing probability.
    pub fn set_margin_bias(&mut self, bias_v: f64) {
        if bias_v.to_bits() == self.faults.margin_bias_v.to_bits() {
            return;
        }
        self.faults.margin_bias_v = bias_v;
        self.faults.stats.noise_bias_events += 1;
        self.faults.stats.margin_flushes += 1;
        self.cache.invalidate_resolved();
    }

    /// Schedule-driven temperature change: behaves exactly like
    /// [`DramDevice::set_temperature`] but is counted as an injected
    /// environmental fault.
    pub fn inject_temperature(&mut self, t: Celsius) {
        self.faults.stats.temperature_events += 1;
        self.set_temperature(t);
    }

    /// Registers (or re-parameterizes) activation-driven aging on a
    /// cell: its margin is attenuated by `wear_v_per_kiloact` volts per
    /// 1000 activations of the cell's row. The wear in effect is
    /// recomputed only by [`DramDevice::refresh_aging`] — schedule-step
    /// granularity — so memoized sensing probabilities stay valid
    /// between steps. Registration itself refreshes the cell's wear.
    ///
    /// # Errors
    ///
    /// Returns an addressing error if the cell is outside geometry.
    pub fn age_cell(&mut self, cell: CellAddr, wear_v_per_kiloact: f64) -> Result<()> {
        self.check_addr(cell.bank, cell.row, cell.col)?;
        let acts = self.act_counts[cell.bank * self.geometry.rows + cell.row];
        let wear_v = wear_v_per_kiloact * (acts as f64 / 1000.0);
        let prev = self.faults.aging.insert(
            cell,
            AgedCell {
                wear_v_per_kiloact,
                wear_v,
            },
        );
        match prev {
            None => {
                self.faults.stats.cells_aged += 1;
                if wear_v != 0.0 {
                    self.faults.stats.margin_flushes += 1;
                    self.cache.invalidate_resolved();
                }
            }
            Some(old) => {
                if old.wear_v.to_bits() != wear_v.to_bits() {
                    self.faults.stats.margin_flushes += 1;
                    self.cache.invalidate_resolved();
                }
            }
        }
        Ok(())
    }

    /// Recomputes every aged cell's wear from the current activation
    /// counts, invalidating memoized probabilities if any changed.
    /// Returns the number of cells whose wear moved. Called by
    /// [`crate::EnvSchedule::step`]; this is the *only* place wear
    /// changes, which keeps margins constant between schedule steps.
    pub fn refresh_aging(&mut self) -> usize {
        let mut changed = 0;
        for (cell, aged) in self.faults.aging.iter_mut() {
            let acts = self.act_counts[cell.bank * self.geometry.rows + cell.row];
            let wear_v = aged.wear_v_per_kiloact * (acts as f64 / 1000.0);
            if wear_v.to_bits() != aged.wear_v.to_bits() {
                aged.wear_v = wear_v;
                changed += 1;
            }
        }
        if changed > 0 {
            self.faults.stats.margin_flushes += 1;
            self.cache.invalidate_resolved();
        }
        changed
    }

    /// Aging wear currently in effect for a cell, volts (0 for cells
    /// never registered).
    pub fn cell_wear_v(&self, cell: CellAddr) -> f64 {
        self.wear_of(cell)
    }

    /// Forces a cell to read as `value` regardless of what the sense
    /// amplifiers latch. Applied after sensing, so noise-stream
    /// consumption is unperturbed; on the reduced-latency path the
    /// override flows into the restore and corrupts the stored word
    /// like a natural failure.
    ///
    /// # Errors
    ///
    /// Returns an addressing error if the cell is outside geometry.
    pub fn set_stuck(&mut self, cell: CellAddr, value: bool) -> Result<()> {
        self.check_addr(cell.bank, cell.row, cell.col)?;
        let entry = self.faults.stuck.entry(cell.word()).or_default();
        let bit = 1u64 << cell.bit;
        if entry.mask & bit == 0 {
            self.faults.stats.cells_stuck += 1;
        }
        entry.mask |= bit;
        if value {
            entry.value |= bit;
        } else {
            entry.value &= !bit;
        }
        Ok(())
    }

    /// Releases a stuck cell (no-op if it was not stuck). Corruption
    /// the stuck reads left in the array persists, as it would on real
    /// hardware.
    ///
    /// # Errors
    ///
    /// Returns an addressing error if the cell is outside geometry.
    pub fn clear_stuck(&mut self, cell: CellAddr) -> Result<()> {
        self.check_addr(cell.bank, cell.row, cell.col)?;
        if let Some(entry) = self.faults.stuck.get_mut(&cell.word()) {
            let bit = 1u64 << cell.bit;
            entry.mask &= !bit;
            entry.value &= !bit;
            if entry.mask == 0 {
                self.faults.stuck.remove(&cell.word());
            }
        }
        Ok(())
    }

    /// Number of cells currently forced stuck-at.
    pub fn stuck_cell_count(&self) -> usize {
        self.faults
            .stuck
            .values()
            .map(|s| s.mask.count_ones() as usize)
            .sum()
    }

    /// How many times a (bank, row) pair has been activated — the
    /// quantity aging wear accrues over.
    pub fn activation_count(&self, bank: usize, row: usize) -> u64 {
        self.act_counts
            .get(bank * self.geometry.rows + row)
            .copied()
            .unwrap_or(0)
    }

    /// A uniform draw from this device's noise source. Used by the
    /// retention and startup models, which share the device's single
    /// physical-entropy stream.
    pub fn noise_uniform(&mut self) -> f64 {
        self.noise.uniform()
    }

    /// A Bernoulli draw from this device's noise source.
    pub fn noise_bernoulli(&mut self, p: f64) -> bool {
        self.noise.bernoulli(p)
    }
}

#[inline]
fn idx_of(geometry: &Geometry, row: usize, col: usize) -> usize {
    row * geometry.cols + col
}

/// [`DramDevice::ctx_of`] as a free function, so the steady-state read
/// path can compute the context while the sense cache is mutably
/// borrowed (disjoint field borrows instead of a cache detach).
#[inline]
fn ctx_of_parts(
    data: &[Vec<u64>],
    geometry: &Geometry,
    bank: usize,
    row: usize,
    col: usize,
    stored: u64,
) -> [u64; 3] {
    let left = if col > 0 {
        data[bank][idx_of(geometry, row, col - 1)]
    } else {
        0
    };
    let right = if col + 1 < geometry.cols {
        data[bank][idx_of(geometry, row, col + 1)]
    } else {
        0
    };
    [left, stored, right]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DramDevice {
        DramDevice::build(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(11)
                .with_noise_seed(22),
        )
    }

    #[test]
    fn protocol_enforced() {
        let mut d = device();
        assert_eq!(
            d.read(0, 0, 0, 18.0),
            Err(DramError::BankNotOpen { bank: 0 })
        );
        d.activate(0, 5).unwrap();
        assert_eq!(
            d.activate(0, 6),
            Err(DramError::BankAlreadyOpen {
                bank: 0,
                open_row: 5
            })
        );
        assert_eq!(
            d.read(0, 6, 0, 18.0),
            Err(DramError::WrongOpenRow {
                bank: 0,
                requested: 6,
                open_row: 5
            })
        );
        d.read(0, 5, 0, 18.0).unwrap();
        d.precharge(0).unwrap();
        assert_eq!(d.precharge(0), Err(DramError::BankNotOpen { bank: 0 }));
    }

    #[test]
    fn addressing_errors() {
        let mut d = device();
        let g = d.geometry();
        assert!(matches!(
            d.activate(g.banks, 0),
            Err(DramError::BankOutOfRange { .. })
        ));
        assert!(matches!(
            d.activate(0, g.rows),
            Err(DramError::RowOutOfRange { .. })
        ));
        d.activate(0, 0).unwrap();
        assert!(matches!(
            d.read(0, 0, g.cols, 18.0),
            Err(DramError::ColOutOfRange { .. })
        ));
    }

    #[test]
    fn spec_trcd_reads_are_correct() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Checkered);
        let trcd = d.timing().trcd_ns();
        for row in (0..1024).step_by(97) {
            for col in 0..16 {
                d.activate(0, row).unwrap();
                let got = d.read(0, row, col, trcd).unwrap();
                d.precharge(0).unwrap();
                let want = DataPattern::Checkered.word(row, col, 64);
                assert_eq!(got, want, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn reduced_trcd_induces_failures_somewhere() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        let mut failures = 0usize;
        for row in 0..1024 {
            for col in 0..16 {
                d.activate(0, row).unwrap();
                let got = d.read(0, row, col, 10.0).unwrap();
                d.precharge(0).unwrap();
                if got != 0 {
                    failures += got.count_ones() as usize;
                    // restore
                    d.activate(0, row).unwrap();
                    d.read(0, row, col, 18.0).unwrap(); // consume fresh window
                    d.write(0, row, col, 0).unwrap();
                    d.precharge(0).unwrap();
                }
            }
        }
        assert!(
            failures > 0,
            "a full-bank scan at 10 ns must induce failures"
        );
    }

    #[test]
    fn only_first_read_after_act_fails() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        // Find a cell with high failure probability.
        let mut target = None;
        'outer: for row in 0..1024 {
            for col in 0..16 {
                for bit in 0..64 {
                    let c = CellAddr::new(0, row, col, bit);
                    if d.failure_probability(c, 10.0) > 0.99 {
                        target = Some(c);
                        break 'outer;
                    }
                }
            }
        }
        let c = target.expect("the model must contain near-deterministic failures");
        d.activate(0, c.row).unwrap();
        let first = d.read(0, c.row, c.col, 10.0).unwrap();
        assert_ne!((first >> c.bit) & 1, 0, "first read fails");
        // Restore and re-read without a fresh activation: clean.
        d.write(0, c.row, c.col, 0).unwrap();
        let second = d.read(0, c.row, c.col, 10.0).unwrap();
        assert_eq!(second, 0, "subsequent reads of an open row are clean");
        d.precharge(0).unwrap();
    }

    #[test]
    fn failure_corrupts_stored_data_until_rewritten() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        let mut corrupted = None;
        for row in 0..1024 {
            d.activate(0, row).unwrap();
            for col in 0..16 {
                let got = d.read(0, row, col, 10.0).unwrap();
                if got != 0 {
                    corrupted = Some((row, col, got));
                    break;
                }
            }
            d.precharge(0).unwrap();
            if corrupted.is_some() {
                break;
            }
        }
        let (row, col, got) = corrupted.expect("some failure occurs");
        // The stored array now holds the corrupted value.
        assert_eq!(d.peek(WordAddr::new(0, row, col)).unwrap(), got);
    }

    #[test]
    fn failure_probability_zero_on_strong_bitlines_at_10ns() {
        let d = device();
        let mut checked = 0;
        for row in [0usize, 100, 700] {
            for col in 0..16 {
                for bit in 0..64 {
                    let c = CellAddr::new(1, row, col, bit);
                    if !d.on_weak_bitline(c) {
                        assert_eq!(d.failure_probability(c, 10.0), 0.0);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000);
    }

    #[test]
    fn fprob_increases_as_trcd_decreases() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        // Average analytic F_prob over the weak cells of subarray 0.
        let weak = d.variation().weak_bitlines(0, 0);
        assert!(!weak.is_empty());
        let avg = |d: &DramDevice, trcd: f64| {
            let mut sum = 0.0;
            let mut n = 0;
            for &bl in &weak {
                for row in (0..512).step_by(31) {
                    let c = CellAddr::new(0, row, bl / 64, bl % 64);
                    sum += d.failure_probability(c, trcd);
                    n += 1;
                }
            }
            sum / n as f64
        };
        let f13 = avg(&d, 13.0);
        let f10 = avg(&d, 10.0);
        let f8 = avg(&d, 8.0);
        assert!(f13 <= f10 && f10 <= f8, "f13={f13} f10={f10} f8={f8}");
        assert!(f10 > f13, "strictly more failures at 10 ns than 13 ns");
    }

    #[test]
    fn fprob_increases_with_row_distance_on_weak_bitline() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        let weak = d.variation().weak_bitlines(0, 0);
        let &bl = weak.first().expect("weak bitline exists");
        // Compare averages over low vs high rows of the subarray to
        // smooth per-cell offsets.
        let avg_rows = |d: &DramDevice, lo: usize, hi: usize| {
            let mut s = 0.0;
            for row in lo..hi {
                s += d.failure_probability(CellAddr::new(0, row, bl / 64, bl % 64), 10.5);
            }
            s / (hi - lo) as f64
        };
        let near = avg_rows(&d, 0, 64);
        let far = avg_rows(&d, 448, 512);
        assert!(
            far >= near,
            "far rows fail at least as much: near={near} far={far}"
        );
    }

    #[test]
    fn temperature_raises_average_fprob() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        let cells: Vec<CellAddr> = (0..512)
            .flat_map(|row| {
                d.variation()
                    .weak_bitlines(0, 0)
                    .into_iter()
                    .map(move |bl| CellAddr::new(0, row, bl / 64, bl % 64))
            })
            .collect();
        let avg = |d: &DramDevice| {
            cells
                .iter()
                .map(|&c| d.failure_probability(c, 10.0))
                .sum::<f64>()
                / cells.len() as f64
        };
        let at55 = {
            let mut d2 = device();
            d2.fill_bank(0, DataPattern::Solid0);
            d2.set_temperature(Celsius(55.0));
            avg(&d2)
        };
        d.set_temperature(Celsius(70.0));
        let at70 = avg(&d);
        assert!(at70 > at55, "70C avg {at70} must exceed 55C avg {at55}");
    }

    #[test]
    fn pattern_changes_fprob_for_some_cell() {
        let mut d = device();
        let weak = d.variation().weak_bitlines(0, 0);
        let &bl = weak.first().unwrap();
        let cell = CellAddr::new(0, 300, bl / 64, bl % 64);
        d.fill_bank(0, DataPattern::Solid0);
        let f_solid0 = d.failure_probability(cell, 10.0);
        d.fill_bank(0, DataPattern::Checkered);
        let f_check = d.failure_probability(cell, 10.0);
        // The margins differ (coupling + charge terms) so probabilities
        // differ unless both saturate.
        if f_solid0 > 1e-9 && f_solid0 < 1.0 - 1e-9 {
            assert_ne!(f_solid0, f_check);
        }
    }

    #[test]
    fn poke_peek_round_trip_and_masking() {
        let mut d = DramDevice::build(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(1)
                .with_noise_seed(2)
                .with_geometry(Geometry {
                    banks: 1,
                    rows: 4,
                    cols: 2,
                    word_bits: 8,
                    subarray_rows: 4,
                }),
        );
        let a = WordAddr::new(0, 1, 1);
        d.poke(a, 0xFFFF).unwrap();
        assert_eq!(d.peek(a).unwrap(), 0xFF, "write masked to word_bits");
    }

    #[test]
    fn write_requires_open_row() {
        let mut d = device();
        assert!(d.write(0, 0, 0, 1).is_err());
        d.activate(0, 0).unwrap();
        d.write(0, 0, 0, 0b1010).unwrap();
        assert_eq!(d.peek(WordAddr::new(0, 0, 0)).unwrap(), 0b1010);
        d.precharge(0).unwrap();
    }

    #[test]
    fn deterministic_with_seeded_noise() {
        let run = || {
            let mut d = device();
            d.fill_bank(0, DataPattern::Solid0);
            let mut out = Vec::new();
            for row in 0..256 {
                d.activate(0, row).unwrap();
                out.push(d.read(0, row, 3, 10.0).unwrap());
                d.precharge(0).unwrap();
            }
            out
        };
        assert_eq!(run(), run());
    }

    /// Two devices built identically except for the sensing path: the
    /// fast path must emit the oracle's exact output stream for the
    /// same noise seed.
    fn oracle_pair(man: Manufacturer, seed: u64, noise: u64) -> (DramDevice, DramDevice) {
        let build = |fast: bool| {
            let mut d = DramDevice::build(
                DeviceConfig::new(man)
                    .with_seed(seed)
                    .with_noise_seed(noise),
            );
            d.set_sense_fast_path(fast);
            d.fill_bank(0, DataPattern::Checkered);
            d
        };
        (build(true), build(false))
    }

    fn scan_both(
        fast: &mut DramDevice,
        slow: &mut DramDevice,
        rows: std::ops::Range<usize>,
        trcd: f64,
        tag: &str,
    ) {
        let cols = fast.geometry().cols;
        for row in rows {
            for col in 0..cols {
                fast.activate(0, row).unwrap();
                slow.activate(0, row).unwrap();
                let a = fast.read(0, row, col, trcd).unwrap();
                let b = slow.read(0, row, col, trcd).unwrap();
                fast.precharge(0).unwrap();
                slow.precharge(0).unwrap();
                assert_eq!(a, b, "{tag}: row {row} col {col} trcd {trcd}");
            }
        }
    }

    fn assert_same_stored_and_fprob(fast: &DramDevice, slow: &DramDevice, tag: &str) {
        let g = fast.geometry();
        for row in (0..g.rows).step_by(17) {
            for col in 0..g.cols {
                let a = WordAddr::new(0, row, col);
                assert_eq!(fast.peek(a), slow.peek(a), "{tag}: stored {row}/{col}");
                for bit in (0..g.word_bits).step_by(13) {
                    let c = CellAddr::new(0, row, col, bit);
                    assert_eq!(
                        fast.failure_probability(c, 10.0),
                        slow.failure_probability(c, 10.0),
                        "{tag}: fprob {row}/{col}/{bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_equivalent_across_manufacturers_temps_and_trcd() {
        for man in [Manufacturer::A, Manufacturer::B, Manufacturer::C] {
            let (mut fast, mut slow) = oracle_pair(man, 31, 77);
            // Interleave temperature and tRCD changes so the scan also
            // exercises re-keying and re-resolution mid-stream.
            let schedule = [
                (45.0, 10.0),
                (45.0, 9.0),
                (70.0, 10.0),
                (25.0, 11.0),
                (45.0, 13.0),
            ];
            for (step, (temp, trcd)) in schedule.iter().enumerate() {
                fast.set_temperature(Celsius(*temp));
                slow.set_temperature(Celsius(*temp));
                let lo = step * 24;
                scan_both(
                    &mut fast,
                    &mut slow,
                    lo..lo + 96,
                    *trcd,
                    &format!("{man:?}"),
                );
            }
            assert_same_stored_and_fprob(&fast, &slow, &format!("{man:?}"));
            let stats = fast.sense_cache_stats();
            assert!(stats.sensed_reads() > 0, "fast path actually sensed");
            assert!(stats.skip_word_reads > 0, "skip mask engaged");
        }
    }

    #[test]
    fn fast_path_equivalent_under_random_op_interleaving() {
        let (mut fast, mut slow) = oracle_pair(Manufacturer::A, 7, 9);
        let g = fast.geometry();
        let mut k = 0xD15E_A5ED_u64;
        let mut rng = move || {
            k = crate::math::splitmix64(k);
            k
        };
        for step in 0..4000 {
            match rng() % 10 {
                // Data writes (protocol-bypassing poke) invalidate the
                // written word and its column neighbors.
                0 | 1 => {
                    let a = WordAddr::new(0, rng() as usize % 64, rng() as usize % g.cols);
                    let v = rng();
                    fast.poke(a, v).unwrap();
                    slow.poke(a, v).unwrap();
                }
                // Temperature changes invalidate all resolutions.
                2 => {
                    let t = Celsius(25.0 + (rng() % 5) as f64 * 10.0);
                    fast.set_temperature(t);
                    slow.set_temperature(t);
                }
                // Timing-register hook (mirrors what memctrl drives).
                3 => {
                    let trcd = [9.5, 10.0, 18.0][rng() as usize % 3];
                    fast.notify_timing_change(trcd);
                    slow.notify_timing_change(trcd);
                }
                // Reduced-latency reads, including repeats of the same
                // words so memoized probabilities actually get reused.
                _ => {
                    let row = rng() as usize % 64;
                    let col = rng() as usize % g.cols;
                    let trcd = [9.5, 10.0][rng() as usize % 2];
                    fast.activate(0, row).unwrap();
                    slow.activate(0, row).unwrap();
                    let a = fast.read(0, row, col, trcd).unwrap();
                    let b = slow.read(0, row, col, trcd).unwrap();
                    fast.precharge(0).unwrap();
                    slow.precharge(0).unwrap();
                    assert_eq!(a, b, "step {step}: row {row} col {col} trcd {trcd}");
                }
            }
        }
        assert_same_stored_and_fprob(&fast, &slow, "interleaved");
        assert!(
            fast.sense_cache_stats().hit_reads > 0,
            "memoization engaged"
        );
    }

    #[test]
    fn cache_stats_track_classification_and_invalidation() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        let read_once = |d: &mut DramDevice, row: usize, col: usize, trcd: f64| {
            d.activate(0, row).unwrap();
            let w = d.read(0, row, col, trcd).unwrap();
            d.precharge(0).unwrap();
            w
        };
        // Pick a word whose first read stays clean (so repeat reads keep
        // an unchanged coupling context) but which has stochastic bits.
        // Each probe uses a fresh device, so the chosen word behaves
        // identically on `d`, whose noise stream is at the same point.
        let (row, col) = (0..64)
            .flat_map(|r| (0..16).map(move |c| (r, c)))
            .find(|&(r, c)| {
                let mut probe = device();
                probe.activate(0, r).unwrap();
                let w = probe.read(0, r, c, 10.0).unwrap();
                probe.precharge(0).unwrap();
                w == 0 && probe.sense_cache_stats().resolve_reads > 0
            })
            .expect("a clean stochastic word exists");

        read_once(&mut d, row, col, 10.0);
        let s1 = d.sense_cache_stats();
        assert_eq!(s1.classified_words, 1);
        assert_eq!(s1.resolve_reads, 1);

        read_once(&mut d, row, col, 10.0);
        let s2 = d.sense_cache_stats();
        assert_eq!(s2.classified_words, 1, "same tRCD: no reclassification");
        assert_eq!(s2.hit_reads, 1, "unchanged context reuses p");

        // A write to the column neighbor forces re-resolution but not
        // reclassification.
        let ncol = if col == 0 { 1 } else { col - 1 };
        d.poke(WordAddr::new(0, row, ncol), 1).unwrap();
        read_once(&mut d, row, col, 10.0);
        let s3 = d.sense_cache_stats();
        assert_eq!(s3.classified_words, 1);
        assert_eq!(s3.resolve_reads, 2, "neighbor write re-resolves");

        // Temperature change: re-resolution, no reclassification.
        d.set_temperature(Celsius(55.0));
        read_once(&mut d, row, col, 10.0);
        let s4 = d.sense_cache_stats();
        assert_eq!(s4.classified_words, 1);
        assert_eq!(s4.resolve_reads, 3, "temperature change re-resolves");

        // tRCD change: full reclassification.
        read_once(&mut d, row, col, 9.5);
        let s5 = d.sense_cache_stats();
        assert_eq!(s5.classified_words, 2, "new tRCD reclassifies");
    }

    /// One Algorithm-2-style pass over `words`: read each at reduced
    /// tRCD, restore corrupted words, return the sensed values.
    fn pass_over(d: &mut DramDevice, words: &[WordAddr], trcd: f64) -> Vec<u64> {
        let mut out = Vec::new();
        for &w in words {
            d.activate(w.bank, w.row).unwrap();
            let got = d.read(w.bank, w.row, w.col, trcd).unwrap();
            if got != 0 {
                d.write(w.bank, w.row, w.col, 0).unwrap();
            }
            d.precharge(w.bank).unwrap();
            out.push(got);
        }
        out
    }

    #[test]
    fn resolve_run_prefetch_is_invisible() {
        // Prefetching via resolve_run must leave the sensed bit stream
        // AND the cache counters exactly as the plain fast path: the
        // lane kernel is bit-identical to the scalar and the first READ
        // of a prefetched word books the resolve.
        let mut pre = device();
        let mut plain = device();
        let g = pre.geometry();
        let words: Vec<WordAddr> = (0..12)
            .map(|i| WordAddr::new(i % g.banks.min(4), (i * 7) % 64, i % g.cols))
            .collect();
        for step in 0..40 {
            let trcd = [9.5, 10.0][step % 2];
            pre.resolve_run(&words, trcd);
            // Hot-streak probe: a second identical call must be free.
            pre.resolve_run(&words, trcd);
            let a = pass_over(&mut pre, &words, trcd);
            let b = pass_over(&mut plain, &words, trcd);
            assert_eq!(a, b, "step {step} trcd {trcd}");
            if step == 20 {
                // Mid-stream temperature change: re-resolution epoch.
                pre.set_temperature(Celsius(60.0));
                plain.set_temperature(Celsius(60.0));
            }
        }
        let sa = pre.sense_cache_stats();
        let sb = plain.sense_cache_stats();
        assert_eq!(sa.classified_words, sb.classified_words);
        assert_eq!(sa.resolve_reads, sb.resolve_reads, "prefetch booking");
        assert_eq!(sa.hit_reads, sb.hit_reads);
        assert_eq!(sa.skip_word_reads, sb.skip_word_reads);
        assert!(sa.bulk_cells > 0, "lane kernel actually ran");
        assert_eq!(sb.bulk_cells, 0);
    }

    #[test]
    fn resolve_run_hot_streak_and_guards() {
        let mut d = device();
        let words: Vec<WordAddr> = (0..8).map(|i| WordAddr::new(0, i * 3, i % 4)).collect();
        // Guard band: no work at nominal tRCD.
        d.resolve_run(&words, 18.0);
        assert_eq!(d.sense_cache_stats().bulk_cells, 0);
        d.resolve_run(&words, 10.0);
        let first = d.sense_cache_stats().bulk_cells;
        assert!(first > 0);
        // Identical repeat run: the stamp short-circuits the whole scan.
        d.resolve_run(&words, 10.0);
        assert_eq!(d.sense_cache_stats().bulk_cells, first, "hot streak skip");
        // Different tRCD breaks the streak and reclassifies.
        d.resolve_run(&words, 9.5);
        assert!(d.sense_cache_stats().bulk_cells > first);
        // Out-of-range addresses are skipped, not fatal.
        let g = d.geometry();
        d.resolve_run(&[WordAddr::new(g.banks, 0, 0)], 10.0);
        // Disabled fast path: complete no-op.
        d.set_sense_fast_path(false);
        let before = d.sense_cache_stats().bulk_cells;
        d.resolve_run(&words, 10.0);
        assert_eq!(d.sense_cache_stats().bulk_cells, before);
    }
}
