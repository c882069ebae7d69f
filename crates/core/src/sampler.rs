//! Algorithm 2 — the D-RaNGe sampling loop and the TRNG front end.
//!
//! Selects, per bank, the two DRAM words (in distinct rows) with the
//! highest RNG-cell density, writes the high-entropy data pattern to
//! them and their neighbors, and then alternates reduced-`tRCD` reads
//! between the two rows of every bank, harvesting the RNG cells' bits
//! and restoring the original data after each read (paper Algorithm 2).
//!
//! The harvested random bit of a cell is its *failure indicator*
//! (sensed value XOR written value) — identical to the raw read value
//! for the solid-zero pattern the paper uses, and unbiased for any
//! written value.

use dram_sim::{CellAddr, DataPattern, SenseCacheStats, WordAddr};
use memctrl::MemoryController;

use crate::bits::{BitBlock, BitQueue};
use crate::error::{DrangeError, Result};
use crate::identify::RngCellCatalog;

/// Configuration of the sampling mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct DRangeConfig {
    /// Reduced activation latency during sampling, ns.
    pub trcd_ns: f64,
    /// Data pattern written to the sampled words and their neighbors.
    pub pattern: DataPattern,
    /// Number of banks to sample from (best-ranked first); `None`
    /// uses every bank with RNG cells.
    pub banks: Option<usize>,
    /// Banks never used for sampling (e.g. reserved for a co-resident
    /// retention TRNG, Section 8.4's combined design).
    pub exclude_banks: Vec<usize>,
}

/// Least bound of the harvested-bit queue the controller firmware
/// keeps (Section 6.3); see [`DRange::queue_bound`].
const QUEUE_MIN_BITS: usize = 4096;

impl Default for DRangeConfig {
    fn default() -> Self {
        DRangeConfig {
            trcd_ns: 10.0,
            pattern: DataPattern::Solid0,
            banks: None,
            exclude_banks: Vec::new(),
        }
    }
}

/// One selected DRAM word and its RNG-cell bit positions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlannedWord {
    addr: WordAddr,
    /// Actively harvested bit positions, sorted ascending.
    bits: Vec<usize>,
    /// Bit positions benched by the cell lifecycle (quarantined cells
    /// awaiting re-characterization); excluded from harvesting but
    /// remembered so they can be resumed in place.
    suspended: Vec<usize>,
    original: u64,
}

/// Per-bank sampling plan: the two words in distinct rows.
#[derive(Debug, Clone)]
struct BankPlan {
    bank: usize,
    words: Vec<PlannedWord>, // 1 or 2 entries
}

/// One planned word flattened into exact pass order — everything the
/// hot loop needs, with the bit positions in a shared pool
/// (`PassArena::bits[bits_start..bits_end]`) so a pass touches no
/// nested allocations.
#[derive(Debug, Clone, Copy)]
struct PassWord {
    bank: usize,
    row: usize,
    col: usize,
    original: u64,
    bits_start: usize,
    bits_end: usize,
}

/// Reusable per-pass buffers: a flattened snapshot of the plan in
/// exact pass order plus the packed harvest buffer. Rebuilt only when
/// the plan changes (revision-stamped), so steady-state passes
/// allocate nothing.
#[derive(Debug, Default)]
struct PassArena {
    /// Plan revision ([`DRange::plan_rev`]) the snapshot reflects.
    rev: u64,
    built: bool,
    /// Pass-order word addresses — the device's bulk-resolve run.
    run: Vec<WordAddr>,
    /// Flattened plan snapshot in exact pass order.
    words: Vec<PassWord>,
    /// Flat bit-position pool backing the `PassWord` ranges.
    bits: Vec<u32>,
    /// Packed harvest buffer (MSB-first), reused across passes.
    buf: Vec<u64>,
    /// Valid bits in `buf`.
    buf_len: usize,
}

impl PassArena {
    fn rebuild(&mut self, plan: &[BankPlan], rev: u64) {
        self.run.clear();
        self.words.clear();
        self.bits.clear();
        for word_idx in 0..2 {
            // Phase-interleaved issue across banks maximizes bank-level
            // parallelism under tRRD/tFAW.
            for bp in plan {
                let Some(w) = bp.words.get(word_idx) else {
                    continue;
                };
                // A fully suspended word (every cell benched by the
                // lifecycle) is skipped outright — no point burning an
                // ACT/PRE cycle that harvests nothing.
                if w.bits.is_empty() {
                    continue;
                }
                let bits_start = self.bits.len();
                self.bits.extend(w.bits.iter().map(|&b| b as u32));
                self.run.push(w.addr);
                self.words.push(PassWord {
                    bank: bp.bank,
                    row: w.addr.row,
                    col: w.addr.col,
                    original: w.original,
                    bits_start,
                    bits_end: self.bits.len(),
                });
            }
        }
        self.rev = rev;
        self.built = true;
    }
}

/// Sampling statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleStats {
    /// Random bits harvested so far.
    pub bits: u64,
    /// Device time consumed by sampling, ps.
    pub device_time_ps: u64,
    /// Algorithm 2 core-loop iterations executed.
    pub iterations: u64,
}

impl SampleStats {
    /// Observed throughput in bits per second of device time.
    pub fn throughput_bps(&self) -> f64 {
        if self.device_time_ps == 0 {
            0.0
        } else {
            self.bits as f64 / (self.device_time_ps as f64 * 1e-12)
        }
    }
}

/// The D-RaNGe true random number generator.
///
/// Owns a memory controller and continuously harvests random bits from
/// the planned RNG-cell words. Read it through the fallible
/// [`DRange::next_word`] and [`DRange::try_fill`], or as a byte stream
/// through [`crate::DRangeReader`].
#[derive(Debug)]
pub struct DRange {
    ctrl: MemoryController,
    config: DRangeConfig,
    plan: Vec<BankPlan>,
    /// Bumped on every plan mutation; invalidates the pass arena.
    plan_rev: u64,
    arena: PassArena,
    queue: BitQueue,
    stats: SampleStats,
    bits_per_iteration: usize,
}

impl DRange {
    /// Builds the generator: ranks banks by RNG-cell density, selects
    /// two words (distinct rows) per bank, and writes the data pattern
    /// to the selected rows (Algorithm 2 lines 2-5).
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::NoRngCells`] when the catalog has no
    /// usable words, and [`DrangeError::InvalidSpec`] for bad configs.
    pub fn new(
        mut ctrl: MemoryController,
        catalog: &RngCellCatalog,
        config: DRangeConfig,
    ) -> Result<Self> {
        if !config.trcd_ns.is_finite() || config.trcd_ns <= 0.0 {
            return Err(DrangeError::InvalidSpec("tRCD must be positive".into()));
        }
        let geometry = ctrl.device().geometry();
        let ranked = catalog.ranked_banks(geometry.banks);
        let take = config.banks.unwrap_or(geometry.banks).min(geometry.banks);
        let mut plan: Vec<BankPlan> = Vec::new();
        let mut taken = 0usize;
        for &(bank, rate) in &ranked {
            if taken == take {
                break;
            }
            if rate == 0 || config.exclude_banks.contains(&bank) {
                continue;
            }
            let best = catalog.best_words(bank, 2);
            if best.is_empty() {
                continue;
            }
            let words = best
                .into_iter()
                .map(|(addr, bits)| {
                    let original = config.pattern.word(addr.row, addr.col, geometry.word_bits);
                    PlannedWord {
                        addr,
                        bits,
                        suspended: Vec::new(),
                        original,
                    }
                })
                .collect();
            plan.push(BankPlan { bank, words });
            // A bank only consumes one of the `take` slots once a word
            // plan was actually added for it; a bank whose best-word
            // query comes back empty must not waste a slot.
            taken += 1;
        }
        if plan.is_empty() {
            return Err(DrangeError::NoRngCells(
                "catalog provides no words with RNG cells".into(),
            ));
        }
        // Line 4: write the pattern to the chosen words and neighbors
        // (the full rows, which covers the adjacent bitlines).
        for bp in &plan {
            for w in &bp.words {
                ctrl.device_mut()
                    .fill_row(w.addr.bank, w.addr.row, config.pattern);
            }
        }
        let bits_per_iteration = plan
            .iter()
            .map(|bp| bp.words.iter().map(|w| w.bits.len()).sum::<usize>())
            .sum();
        Ok(DRange {
            ctrl,
            config,
            plan,
            plan_rev: 0,
            arena: PassArena::default(),
            queue: BitQueue::new(),
            stats: SampleStats::default(),
            bits_per_iteration,
        })
    }

    /// The sampling configuration.
    pub fn config(&self) -> &DRangeConfig {
        &self.config
    }

    /// Number of banks in the sampling plan.
    pub fn banks_used(&self) -> usize {
        self.plan.len()
    }

    /// Random bits produced per core-loop iteration (the sum over
    /// banks of each bank's TRNG data rate, Section 7.3).
    pub fn bits_per_iteration(&self) -> usize {
        self.bits_per_iteration
    }

    /// Statistics so far.
    pub fn stats(&self) -> SampleStats {
        self.stats
    }

    /// Borrow of the underlying controller.
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// Mutable borrow of the underlying controller, for co-resident
    /// mechanisms operating on banks excluded from the sampling plan
    /// (e.g. the combined D-RaNGe + retention TRNG of Section 8.4).
    ///
    /// Writing to the planned rows through this handle invalidates the
    /// stored-pattern assumption of the sampling plan; restrict use to
    /// excluded banks.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.ctrl
    }

    /// Consumes the generator, returning the controller.
    pub fn into_controller(mut self) -> MemoryController {
        self.ctrl.reset_trcd();
        self.ctrl
    }

    /// The actively harvested RNG cells in exact harvest order: bit
    /// `k` of a [`DRange::harvest_block`] batch (equivalently the
    /// `k`-th bit queued by one [`DRange::sample_once`] pass) came
    /// from the `k`-th cell of this list. The cell lifecycle uses this
    /// mapping to attribute health trips to individual cells.
    pub fn active_cells(&self) -> Vec<CellAddr> {
        let mut cells = Vec::with_capacity(self.bits_per_iteration);
        for word_idx in 0..2 {
            for bp in &self.plan {
                let Some(w) = bp.words.get(word_idx) else {
                    continue;
                };
                cells.extend(w.bits.iter().map(|&b| w.addr.cell(b)));
            }
        }
        cells
    }

    /// Addresses of every planned word (active or fully suspended).
    pub fn planned_word_addrs(&self) -> Vec<WordAddr> {
        self.plan
            .iter()
            .flat_map(|bp| bp.words.iter().map(|w| w.addr))
            .collect()
    }

    fn word_mut(&mut self, addr: WordAddr) -> Option<&mut PlannedWord> {
        self.plan
            .iter_mut()
            .flat_map(|bp| bp.words.iter_mut())
            .find(|w| w.addr == addr)
    }

    fn refresh_rate(&mut self) {
        self.bits_per_iteration = self
            .plan
            .iter()
            .map(|bp| bp.words.iter().map(|w| w.bits.len()).sum::<usize>())
            .sum();
        self.plan_rev += 1;
    }

    /// Benches a cell: its bit is no longer harvested (honest reduced
    /// throughput, never a silently biased stream) but its slot in the
    /// plan is remembered for [`DRange::resume_cell`]. Returns whether
    /// the cell was actively planned.
    pub fn suspend_cell(&mut self, cell: CellAddr) -> bool {
        let Some(w) = self.word_mut(cell.word()) else {
            return false;
        };
        let Some(pos) = w.bits.iter().position(|&b| b == cell.bit) else {
            return false;
        };
        w.bits.remove(pos);
        w.suspended.push(cell.bit);
        self.refresh_rate();
        true
    }

    /// Returns a suspended cell to active harvesting (in its original
    /// sorted position within the word). Returns whether the cell was
    /// suspended.
    pub fn resume_cell(&mut self, cell: CellAddr) -> bool {
        let Some(w) = self.word_mut(cell.word()) else {
            return false;
        };
        let Some(pos) = w.suspended.iter().position(|&b| b == cell.bit) else {
            return false;
        };
        w.suspended.remove(pos);
        let at = w.bits.partition_point(|&b| b < cell.bit);
        w.bits.insert(at, cell.bit);
        self.refresh_rate();
        true
    }

    /// Permanently removes a cell (active or suspended) from the plan.
    /// A word whose last cell retires is dropped from its bank's plan
    /// (and an emptied bank from the plan entirely), freeing the slot
    /// for [`DRange::promote_word`]. Returns whether the cell was
    /// planned.
    pub fn retire_cell(&mut self, cell: CellAddr) -> bool {
        let addr = cell.word();
        let Some(w) = self.word_mut(addr) else {
            return false;
        };
        let removed = if let Some(pos) = w.bits.iter().position(|&b| b == cell.bit) {
            w.bits.remove(pos);
            true
        } else if let Some(pos) = w.suspended.iter().position(|&b| b == cell.bit) {
            w.suspended.remove(pos);
            true
        } else {
            false
        };
        if !removed {
            return false;
        }
        let emptied = w.bits.is_empty() && w.suspended.is_empty();
        if emptied {
            for bp in &mut self.plan {
                bp.words.retain(|w| w.addr != addr);
            }
            self.plan.retain(|bp| !bp.words.is_empty());
        }
        self.refresh_rate();
        true
    }

    /// Adds a spare word (typically the next-best catalog word not in
    /// the original plan) to the sampling plan, writing the configured
    /// data pattern to its row. Respects Algorithm 2's structure: at
    /// most two words per bank, in distinct rows.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] when the word is already
    /// planned, its bank already samples two words, its row collides
    /// with a planned word of the same bank, or `bits` is empty or out
    /// of range for the device's word width.
    pub fn promote_word(&mut self, addr: WordAddr, bits: &[usize]) -> Result<()> {
        let word_bits = self.ctrl.device().geometry().word_bits;
        let mut bits: Vec<usize> = bits.to_vec();
        bits.sort_unstable();
        bits.dedup();
        if bits.is_empty() {
            return Err(DrangeError::InvalidSpec(
                "a promoted word needs at least one RNG cell".into(),
            ));
        }
        if bits.iter().any(|&b| b >= word_bits) {
            return Err(DrangeError::InvalidSpec(format!(
                "bit positions exceed the {word_bits}-bit word width"
            )));
        }
        if self.planned_word_addrs().contains(&addr) {
            return Err(DrangeError::InvalidSpec(format!(
                "word {addr:?} is already in the sampling plan"
            )));
        }
        if let Some(bp) = self.plan.iter().find(|bp| bp.bank == addr.bank) {
            if bp.words.len() >= 2 {
                return Err(DrangeError::InvalidSpec(format!(
                    "bank {} already samples two words",
                    addr.bank
                )));
            }
            if bp.words.iter().any(|w| w.addr.row == addr.row) {
                return Err(DrangeError::InvalidSpec(format!(
                    "bank {} already samples a word in row {}",
                    addr.bank, addr.row
                )));
            }
        }
        self.ctrl
            .device_mut()
            .fill_row(addr.bank, addr.row, self.config.pattern);
        let original = self.config.pattern.word(addr.row, addr.col, word_bits);
        let word = PlannedWord {
            addr,
            bits,
            suspended: Vec::new(),
            original,
        };
        match self.plan.iter_mut().find(|bp| bp.bank == addr.bank) {
            Some(bp) => bp.words.push(word),
            None => self.plan.push(BankPlan {
                bank: addr.bank,
                words: vec![word],
            }),
        }
        self.refresh_rate();
        Ok(())
    }

    /// One iteration of the Algorithm 2 core loop (lines 7-15): for
    /// each planned bank, alternate between the two rows, inducing an
    /// activation failure on each word, harvesting the RNG-cell bits,
    /// and restoring the original value.
    ///
    /// # Errors
    ///
    /// Propagates controller errors; the `tRCD` register is reset on
    /// the error path.
    pub fn sample_once(&mut self) -> Result<usize> {
        if !self.arena.built || self.arena.rev != self.plan_rev {
            self.arena.rebuild(&self.plan, self.plan_rev);
        }
        let t0 = self.ctrl.now_ps();
        // Line 6: reduce tRCD for the sampling window.
        self.ctrl.try_set_trcd_ns(self.config.trcd_ns)?;
        // Bulk-prefetch the pass's cell resolutions (SoA lane kernel).
        // A pure acceleration hint: consumes no noise and READs
        // re-validate, so the bit stream is untouched.
        self.ctrl
            .device_mut()
            .resolve_run(&self.arena.run, self.config.trcd_ns);
        let result = sample_pass(&mut self.ctrl, &mut self.arena, &mut self.queue);
        // Line 18: restore the default tRCD.
        self.ctrl.reset_trcd();
        let harvested = result?;
        self.stats.bits += harvested as u64;
        self.stats.iterations += 1;
        self.stats.device_time_ps += self.ctrl.now_ps() - t0;
        // Respect the firmware queue bound (drop the oldest bits).
        let over = self.queue.len().saturating_sub(self.queue_bound());
        if over > 0 {
            self.queue.drop_front(over);
        }
        Ok(harvested)
    }

    /// Runs one sampling pass and drains the harvest as a packed block
    /// — the engine's batch unit (worker→pool transfer copies words,
    /// not bools).
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn harvest_block(&mut self) -> Result<BitBlock> {
        let harvested = self.sample_once()?;
        Ok(self.queue.pop_block(harvested))
    }

    /// Sensing-cache effectiveness counters of the underlying device.
    pub fn sense_cache_stats(&self) -> SenseCacheStats {
        self.ctrl.device().sense_cache_stats()
    }

    /// Bits the harvested-bit queue holds before its oldest are
    /// dropped: at least 4096, and always one pass plus 63 bits. A
    /// 64-bit drain may leave up to 63 bits queued before a pass tops
    /// the queue up, so that pass never trims a bit a bit-at-a-time
    /// consumer would have seen, and the word and byte drains deliver
    /// the same stream as [`DRange::next_bit`].
    fn queue_bound(&self) -> usize {
        (self.bits_per_iteration + 63).max(QUEUE_MIN_BITS)
    }

    /// Harvests until at least `bits` random bits are queued
    /// (Algorithm 2's `num_bits` argument).
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn ensure_bits(&mut self, bits: usize) -> Result<()> {
        let bound = self.queue_bound();
        if bits > bound {
            return Err(DrangeError::InvalidSpec(format!(
                "request of {bits} bits exceeds queue capacity {bound}"
            )));
        }
        while self.queue.len() < bits {
            self.sample_once()?;
        }
        Ok(())
    }

    /// The next random bit.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn next_bit(&mut self) -> Result<bool> {
        if self.queue.is_empty() {
            self.sample_once()?;
        }
        self.queue
            .pop_bit()
            .ok_or_else(|| DrangeError::NoRngCells("sampling pass produced no bits".into()))
    }

    /// The next `n` random bits.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn bits(&mut self, n: usize) -> Result<Vec<bool>> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.next_bit()?);
        }
        Ok(out)
    }

    /// The next random `u64`, drained in bulk from the packed queue.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn next_word(&mut self) -> Result<u64> {
        self.ensure_bits(64)?;
        self.queue
            .pop_word()
            .ok_or_else(|| DrangeError::NoRngCells("sampling pass produced no bits".into()))
    }

    /// Fills a byte buffer with random data, draining whole words and
    /// bytes from the packed queue.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn try_fill(&mut self, buf: &mut [u8]) -> Result<()> {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_word()?.to_be_bytes());
        }
        for byte in chunks.into_remainder() {
            self.ensure_bits(8)?;
            *byte = self
                .queue
                .pop_byte()
                .ok_or_else(|| DrangeError::NoRngCells("sampling pass produced no bits".into()))?;
        }
        Ok(())
    }
}

/// One pass of Algorithm 2's core loop (lines 7-15) over the arena's
/// flattened plan snapshot. The harvest is packed into the arena's
/// reusable buffer and published to the queue as one bulk word-run —
/// the queue sees either the whole pass or (on a controller error)
/// nothing.
fn sample_pass(
    ctrl: &mut MemoryController,
    arena: &mut PassArena,
    queue: &mut BitQueue,
) -> Result<usize> {
    let PassArena {
        words,
        bits,
        buf,
        buf_len,
        ..
    } = arena;
    buf.clear();
    *buf_len = 0;
    let mut harvested = 0usize;
    for w in words.iter() {
        ctrl.act(w.bank, w.row)?;
        let got = ctrl.rd(w.bank, w.row, w.col)?;
        // Lines 9-10: harvest the RNG bits (failure indicators,
        // sensed XOR written) packed MSB-first, restore original.
        let diff = got ^ w.original;
        let word_bits = &bits[w.bits_start..w.bits_end];
        let mut frag = 0u64;
        for (k, &bit) in word_bits.iter().enumerate() {
            frag |= ((diff >> bit) & 1) << (63 - k);
        }
        // Splice the fragment into the packed pass buffer (same
        // MSB-first layout BitQueue::push_words expects).
        let n = word_bits.len();
        let off = *buf_len % 64;
        if off == 0 {
            buf.push(frag);
        } else {
            if let Some(last) = buf.last_mut() {
                *last |= frag >> off;
            }
            if n > 64 - off {
                buf.push(frag << (64 - off));
            }
        }
        *buf_len += n;
        harvested += n;
        if got != w.original {
            ctrl.wr(w.bank, w.row, w.col, w.original)?;
        }
        ctrl.pre(w.bank)?;
    }
    queue.push_words(buf, *buf_len);
    Ok(harvested)
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

    /// The profile + identification steps are deterministic for fixed
    /// seeds, so the catalog is built once and shared across tests.
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

    fn generator() -> DRange {
        DRange::new(fresh_ctrl(), catalog(), DRangeConfig::default()).unwrap()
    }

    #[test]
    fn generates_bits_with_balanced_distribution() {
        let mut g = generator();
        let bits = g.bits(4000).unwrap();
        let ones = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        assert!((ones - 0.5).abs() < 0.05, "ones fraction {ones}");
    }

    #[test]
    fn stats_track_bits_and_time() {
        let mut g = generator();
        let _ = g.bits(512).unwrap();
        let s = g.stats();
        assert!(s.bits >= 512);
        assert!(s.device_time_ps > 0);
        assert!(s.iterations > 0);
        assert!(
            s.throughput_bps() > 1e6,
            "at least Mb/s scale: {}",
            s.throughput_bps()
        );
    }

    #[test]
    fn sampling_preserves_stored_pattern() {
        let mut g = generator();
        let _ = g.bits(256).unwrap();
        // After sampling, every planned word still stores its original
        // pattern value (the restore writes of Algorithm 2).
        for bp in g.plan.clone() {
            for w in &bp.words {
                let stored = g.ctrl.device().peek(w.addr).unwrap();
                assert_eq!(stored, w.original, "word {:?} restored", w.addr);
            }
        }
    }

    #[test]
    fn trcd_restored_after_each_batch() {
        let mut g = generator();
        let _ = g.next_word().unwrap();
        assert_eq!(g.controller().registers().trcd_ns(), 18.0);
    }

    #[test]
    fn bank_limit_is_respected() {
        let g = DRange::new(
            fresh_ctrl(),
            catalog(),
            DRangeConfig {
                banks: Some(2),
                ..DRangeConfig::default()
            },
        )
        .unwrap();
        assert!(g.banks_used() <= 2);
    }

    /// A hand-built catalog with RNG cells only in the given banks
    /// (two words in distinct rows each), for precise slot-accounting
    /// checks on the bank-selection loop.
    fn sparse_catalog(banks: &[usize]) -> RngCellCatalog {
        use dram_sim::{Celsius, WordAddr};
        let mut words = std::collections::BTreeMap::new();
        for &bank in banks {
            words.insert(WordAddr::new(bank, 0, 0), vec![0, 1, 2]);
            words.insert(WordAddr::new(bank, 1, 0), vec![3, 4]);
        }
        RngCellCatalog::from_parts(IdentifySpec::default(), Celsius::DEFAULT, words)
    }

    #[test]
    fn bank_slots_only_consumed_by_planned_banks() {
        // Only banks 0, 3, and 5 hold RNG cells: a request for two
        // banks must yield exactly two planned banks — banks without a
        // word plan (zero rate) must not eat selection slots.
        let catalog = sparse_catalog(&[0, 3, 5]);
        let g = DRange::new(
            fresh_ctrl(),
            &catalog,
            DRangeConfig {
                banks: Some(2),
                ..DRangeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(g.banks_used(), 2);
        assert_eq!(g.bits_per_iteration(), 2 * 5);
    }

    #[test]
    fn bank_limit_above_populated_banks_uses_them_all() {
        let catalog = sparse_catalog(&[1, 6]);
        let g = DRange::new(
            fresh_ctrl(),
            &catalog,
            DRangeConfig {
                banks: Some(5),
                ..DRangeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(g.banks_used(), 2, "only populated banks can be planned");
    }

    #[test]
    fn excluded_banks_do_not_consume_slots() {
        // Bank 0 is excluded (e.g. reserved for a retention TRNG); the
        // two slots must go to the remaining populated banks.
        let catalog = sparse_catalog(&[0, 3, 5]);
        let g = DRange::new(
            fresh_ctrl(),
            &catalog,
            DRangeConfig {
                banks: Some(2),
                exclude_banks: vec![0],
                ..DRangeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(g.banks_used(), 2);
        for bp in &g.plan {
            assert_ne!(bp.bank, 0, "excluded bank must not be planned");
        }
    }

    #[test]
    fn oversized_request_is_rejected() {
        let mut g = generator();
        assert!(g.ensure_bits(1_000_000).is_err());
    }

    #[test]
    fn bulk_drains_match_per_bit_stream() {
        // Same seeds: two generators produce identical harvest streams,
        // so the bulk word/byte drains must reproduce exactly what a
        // bit-at-a-time consumer sees.
        let mut bulk = generator();
        let mut serial = generator();
        for _ in 0..4 {
            let w = bulk.next_word().unwrap();
            let mut v = 0u64;
            for _ in 0..64 {
                v = (v << 1) | u64::from(serial.next_bit().unwrap());
            }
            assert_eq!(w, v);
        }
        let mut buf = [0u8; 27];
        bulk.try_fill(&mut buf).unwrap();
        let mut want = [0u8; 27];
        for byte in want.iter_mut() {
            let mut x = 0u8;
            for _ in 0..8 {
                x = (x << 1) | u8::from(serial.next_bit().unwrap());
            }
            *byte = x;
        }
        assert_eq!(buf, want);
    }

    #[test]
    fn harvest_block_drains_one_pass() {
        let mut g = generator();
        let block = g.harvest_block().unwrap();
        assert_eq!(block.len(), g.bits_per_iteration());
        assert_eq!(g.queue.len(), 0, "harvest drains what the pass queued");
        // A second pass, drained serially, matches a block-drained twin.
        let mut twin = generator();
        let _ = twin.harvest_block().unwrap();
        let block2 = g.harvest_block().unwrap();
        let serial = twin.bits(block2.len()).unwrap();
        assert_eq!(block2.iter().collect::<Vec<_>>(), serial);
    }

    #[test]
    fn sampler_reports_sense_cache_activity() {
        let mut g = generator();
        let _ = g.bits(256).unwrap();
        let stats = g.sense_cache_stats();
        assert!(stats.sensed_reads() > 0);
        assert!(
            stats.hit_rate() > 0.5,
            "steady-state sampling mostly hits the cache: {}",
            stats.hit_rate()
        );
    }

    #[test]
    fn active_cells_match_harvest_order() {
        let mut g = generator();
        let cells = g.active_cells();
        assert_eq!(cells.len(), g.bits_per_iteration());
        // Suspend the third harvest-order cell: the stream from a twin
        // generator with that cell still active must equal the reduced
        // stream with the third bit of every pass deleted.
        let victim = cells[2];
        let mut full = generator();
        assert!(g.suspend_cell(victim));
        assert_eq!(g.bits_per_iteration(), cells.len() - 1);
        let reduced = g.harvest_block().unwrap();
        let baseline = full.harvest_block().unwrap();
        let mut expect: Vec<bool> = baseline.iter().collect();
        expect.remove(2);
        assert_eq!(reduced.iter().collect::<Vec<_>>(), expect);
        // The cell no longer appears in the harvest-order map.
        assert!(!g.active_cells().contains(&victim));
    }

    #[test]
    fn suspend_resume_restores_exact_stream() {
        let mut g = generator();
        let mut twin = generator();
        // Pick a victim from a word with other live cells: the word is
        // still ACT/RD'd while the victim is benched, so both devices
        // see an identical command stream and stay in lockstep. (A
        // fully suspended word is skipped, which would desynchronize
        // the per-read noise draws between the twins.)
        let victim = g
            .plan
            .iter()
            .flat_map(|bp| bp.words.iter())
            .find(|w| w.bits.len() >= 2)
            .map(|w| w.addr.cell(w.bits[0]))
            .expect("catalog has a multi-bit word");
        assert!(g.suspend_cell(victim));
        assert!(!g.suspend_cell(victim), "double suspend is a no-op");
        let _ = g.harvest_block().unwrap();
        let _ = twin.harvest_block().unwrap();
        assert!(g.resume_cell(victim));
        assert!(!g.resume_cell(victim), "double resume is a no-op");
        assert_eq!(g.active_cells(), twin.active_cells());
        // Post-resume the full streams coincide again (same seeds, same
        // pass count, identical plans).
        let a = g.harvest_block().unwrap();
        let b = twin.harvest_block().unwrap();
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn retire_last_cell_drops_word_and_bank() {
        let catalog = sparse_catalog(&[0, 3]);
        let mut g = DRange::new(fresh_ctrl(), &catalog, DRangeConfig::default()).unwrap();
        assert_eq!(g.banks_used(), 2);
        let word = dram_sim::WordAddr::new(3, 0, 0);
        for bit in [0, 1, 2] {
            assert!(g.retire_cell(word.cell(bit)));
        }
        assert!(!g.retire_cell(word.cell(0)), "already retired");
        assert!(!g.planned_word_addrs().contains(&word));
        // Retiring the second word's cells empties bank 3 entirely.
        let word2 = dram_sim::WordAddr::new(3, 1, 0);
        assert!(g.retire_cell(word2.cell(3)));
        assert!(g.retire_cell(word2.cell(4)));
        assert_eq!(g.banks_used(), 1);
        assert_eq!(g.bits_per_iteration(), 5);
        // Sampling still works on the surviving bank.
        let block = g.harvest_block().unwrap();
        assert_eq!(block.len(), 5);
    }

    #[test]
    fn fully_suspended_plan_harvests_nothing_without_error() {
        let catalog = sparse_catalog(&[2]);
        let mut g = DRange::new(fresh_ctrl(), &catalog, DRangeConfig::default()).unwrap();
        for cell in g.active_cells() {
            assert!(g.suspend_cell(cell));
        }
        assert_eq!(g.bits_per_iteration(), 0);
        let block = g.harvest_block().unwrap();
        assert_eq!(block.len(), 0, "benched plan yields an empty batch");
        // Words stay planned so the cells can be resumed in place.
        assert_eq!(g.planned_word_addrs().len(), 2);
    }

    #[test]
    fn promote_word_extends_the_plan() {
        let catalog = sparse_catalog(&[0]);
        let mut g = DRange::new(fresh_ctrl(), &catalog, DRangeConfig::default()).unwrap();
        let before = g.bits_per_iteration();
        let spare = dram_sim::WordAddr::new(4, 7, 2);
        g.promote_word(spare, &[5, 1, 5, 9]).unwrap();
        assert_eq!(g.banks_used(), 2);
        assert_eq!(g.bits_per_iteration(), before + 3, "deduped bit list");
        let cells = g.active_cells();
        assert!(cells.contains(&spare.cell(1)));
        let block = g.harvest_block().unwrap();
        assert_eq!(block.len(), before + 3);
        // The promoted row was pattern-filled: sampling restores it.
        let stored = g.ctrl.device().peek(spare).unwrap();
        assert_eq!(stored, 0, "Solid0 pattern written to the promoted row");
    }

    #[test]
    fn promote_word_rejects_plan_violations() {
        let catalog = sparse_catalog(&[0, 1]);
        let mut g = DRange::new(fresh_ctrl(), &catalog, DRangeConfig::default()).unwrap();
        let planned = g.planned_word_addrs()[0];
        // Duplicate word.
        assert!(g.promote_word(planned, &[0]).is_err());
        // Bank already samples two words.
        assert!(g
            .promote_word(dram_sim::WordAddr::new(0, 9, 0), &[0])
            .is_err());
        // Empty and out-of-range bit lists.
        assert!(g
            .promote_word(dram_sim::WordAddr::new(5, 0, 0), &[])
            .is_err());
        assert!(g
            .promote_word(dram_sim::WordAddr::new(5, 0, 0), &[64])
            .is_err());
        // Row collision within a bank: retire bank 1's row-0 word, then
        // a same-row promotion into the remaining single-word bank.
        let w10 = dram_sim::WordAddr::new(1, 0, 0);
        for bit in [0, 1, 2] {
            assert!(g.retire_cell(w10.cell(bit)));
        }
        assert!(
            g.promote_word(dram_sim::WordAddr::new(1, 1, 3), &[0])
                .is_err(),
            "row 1 already sampled in bank 1"
        );
        // A distinct row is accepted.
        g.promote_word(dram_sim::WordAddr::new(1, 12, 0), &[7])
            .unwrap();
    }

    #[test]
    fn empty_catalog_is_rejected() {
        let mut ctrl = MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(1)
                .with_noise_seed(2),
        );
        // Profile at spec timing: no failures, no candidates.
        let profile = Profiler::new(&mut ctrl)
            .run(
                ProfileSpec {
                    rows: 0..64,
                    cols: 0..4,
                    ..ProfileSpec::default()
                }
                .with_trcd_ns(18.0)
                .with_iterations(3),
            )
            .unwrap();
        let catalog = RngCellCatalog::identify(
            &mut ctrl,
            &profile,
            IdentifySpec {
                reads: 1000,
                ..IdentifySpec::default()
            },
        )
        .unwrap();
        assert!(matches!(
            DRange::new(ctrl, &catalog, DRangeConfig::default()),
            Err(DrangeError::NoRngCells(_))
        ));
    }
}
