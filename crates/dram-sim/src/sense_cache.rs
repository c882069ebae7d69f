//! Per-device sensing cache: memoized bit classification for the READ
//! hot path.
//!
//! The activation-failure model splits a word's bits into three classes
//! on first touch of a `(bank, row, col)` word at a given tRCD:
//!
//! * **always-correct** — `base > SLOW_PATH_CUTOFF_V`: the bitline is
//!   strong enough at this tRCD that the failure probability is below
//!   10⁻¹⁵; these bits are recorded in a 64-bit skip mask and never
//!   touched again. The whole-word common case (all bits skippable)
//!   collapses to a single map lookup.
//! * **deterministic-flip** — margin so negative that `p == 1.0`; the
//!   memoized probability saturates and the Bernoulli draw consumes no
//!   entropy, exactly like the slow path.
//! * **stochastic** — everything in between; the resolved
//!   [`CellLatents`] and the pattern-independent `base` margin term are
//!   memoized, so a repeat READ only needs the data-dependent
//!   charge/coupling terms, one Φ (the rational [`crate::probit`]
//!   kernel), and one Bernoulli draw — and when the data context is
//!   unchanged, not even that: the resolved `p` itself is reused.
//!
//! ## Invalidation rules
//!
//! Classification (skip mask + latents) depends on tRCD, process
//! variation, and geometry — never on stored data or temperature. It is
//! invalidated by timing-register changes, via a per-word tRCD
//! bit-pattern check (the backstop — READ carries tRCD as an argument)
//! and a cache-wide `class_epoch` bumped by
//! `DramDevice::notify_timing_change` (the explicit path driven by the
//! memory controller's timing writes).
//!
//! Resolution (the memoized `p` per stochastic cell) additionally
//! depends on temperature and on the stored data of the word and its
//! column neighbors (adjacent-bitline coupling reaches across word
//! boundaries at bits 0 and `word_bits − 1`). It is invalidated two
//! ways:
//!
//! * `set_temperature` bumps the cache-wide `resolve_epoch`;
//! * every non-skip READ compares a `[left, this, right]` snapshot of
//!   the coupling context against the one the memoized `p` was
//!   resolved under, which covers *every* data mutation — `write`,
//!   `poke`, and the in-read restore of a failed sense — exactly and
//!   only when the margins actually changed.
//!
//! The snapshot compare is deliberately the *only* data-invalidation
//! mechanism: an explicit mark-dirty hook on writes would force a
//! re-resolve on every Algorithm 2 pass (harvest corrupts the word,
//! the restore write puts the original back), even though the context
//! round-trips to exactly the state the probabilities were resolved
//! under. With the snapshot compare, the restore makes the memoized
//! values valid again for free and steady-state sampling stays on the
//! hit path.
//!
//! The epoch counters make cache-wide invalidation O(1): no vectors are
//! cleared, stale entries simply fail their epoch check on next touch.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::geometry::WordAddr;
use crate::probit::{fast_phi, fast_phi4, LANES};
use crate::variation::CellLatents;

/// Multiplicative-fold hasher for the word map.
///
/// The READ hot path performs one map lookup per sensed word; the
/// default SipHash costs more than the whole rest of a cache hit. Keys
/// are short fixed-shape `(bank, row, col)` triples chosen by the
/// harvester, not attacker-controlled input, so a splitmix-style
/// multiplicative fold (full 64-bit avalanche in `finish`) is both safe
/// and several times faster.
#[derive(Debug, Default, Clone)]
pub(crate) struct AddrHash(u64);

impl Hasher for AddrHash {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: avalanche the folded state so HashMap's
        // low-bit bucket index sees every key bit.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// [`BuildHasherDefault`] alias for the word map.
pub(crate) type AddrHashBuilder = BuildHasherDefault<AddrHash>;

/// Effectiveness counters of a device's sensing cache.
///
/// Monotone over the device's lifetime; harvest engines snapshot and
/// diff them to derive per-batch rates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SenseCacheStats {
    /// Word classification events (first touch or reclassification
    /// after a tRCD change).
    pub classified_words: u64,
    /// READs fully answered by the skip mask (every bit always-correct
    /// at this tRCD): no latents, no Φ, no noise draw.
    pub skip_word_reads: u64,
    /// READs of words with stochastic bits whose memoized probabilities
    /// were reused (context snapshot and epochs matched).
    pub hit_reads: u64,
    /// READs that had to re-resolve per-cell probabilities (first
    /// touch, data-context change, or invalidation). A READ consuming a
    /// probability prefetched by `SenseCache::resolve_words` counts
    /// here too — the resolve work happened, just earlier.
    pub resolve_reads: u64,
    /// Cache-wide invalidation events (timing re-key or temperature
    /// change).
    pub flushes: u64,
    /// Stochastic cells resolved through the bulk SoA kernel
    /// (`SenseCache::resolve_words`).
    pub bulk_cells: u64,
    /// Of [`SenseCacheStats::bulk_cells`], the cells evaluated in full
    /// four-lane vector groups (the remainder ran the scalar kernel).
    pub bulk_lane_cells: u64,
}

impl SenseCacheStats {
    /// Fraction of sensing READs answered from memoized state
    /// (skip-mask or resolved-probability hits). 0.0 when no sensing
    /// READ has happened yet.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.skip_word_reads + self.hit_reads;
        let total = hits + self.resolve_reads;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total sensing READs that consulted the cache.
    pub fn sensed_reads(&self) -> u64 {
        self.skip_word_reads + self.hit_reads + self.resolve_reads
    }

    /// Fraction of bulk-resolved cells that rode full four-lane vector
    /// groups. 0.0 before any bulk resolve has run.
    pub fn lane_utilization(&self) -> f64 {
        if self.bulk_cells == 0 {
            0.0
        } else {
            self.bulk_lane_cells as f64 / self.bulk_cells as f64
        }
    }
}

/// A stochastic (or deterministic-flip) cell within a cached word —
/// the *cold* classification data, touched only when (re)resolving.
/// The per-READ hot path reads the structure-of-arrays companions
/// [`WordState::ps`] / [`WordState::hot_bits`] instead, so a cache hit
/// streams two dense arrays rather than one ~64-byte record per cell.
#[derive(Debug, Clone)]
pub(crate) struct FastCell {
    /// Bit index within the word.
    pub(crate) bit: usize,
    /// Pattern- and temperature-independent margin term
    /// (`settle(tRCD) · strength · row_factor − θ`).
    pub(crate) base: f64,
    /// Resolved per-cell latents (five Gaussians — the expensive part).
    pub(crate) lat: CellLatents,
}

/// Cached classification and resolution state of one DRAM word.
#[derive(Debug, Clone, Default)]
pub(crate) struct WordState {
    /// Whether classification has ever run for this word.
    pub(crate) classified: bool,
    /// `SenseCache::class_epoch` at classification time.
    pub(crate) class_epoch: u32,
    /// Bit pattern of the tRCD the classification was computed for.
    pub(crate) trcd_bits: u64,
    /// Bits that are always-correct at this tRCD.
    pub(crate) skip_mask: u64,
    /// The non-skippable cells, ascending bit order (the order the
    /// slow path draws noise in).
    pub(crate) active: Vec<FastCell>,
    /// Memoized failure probabilities, parallel to `active` (SoA hot
    /// array). Only meaningful when the word is resolved.
    pub(crate) ps: Vec<f64>,
    /// Bit indices, parallel to `active` (SoA hot array; `u8` keeps the
    /// whole word's draw state in a couple of cache lines).
    pub(crate) hot_bits: Vec<u8>,
    /// Whether the `p` values in `active` are valid.
    pub(crate) resolved: bool,
    /// `SenseCache::resolve_epoch` at resolution time.
    pub(crate) resolve_epoch: u32,
    /// `[left col word, this word, right col word]` snapshot the
    /// probabilities were resolved under (0 for missing neighbors).
    pub(crate) ctx: [u64; 3],
    /// Whether the current resolution was produced by the bulk
    /// prefetch ([`SenseCache::resolve_words`]) and has not been
    /// consumed by a READ yet. Purely a stats-accounting flag: the
    /// first READ that uses a prefetched resolution books itself as a
    /// resolve (the work happened, just earlier), keeping the counters
    /// identical to the non-prefetching fast path.
    pub(crate) prefetched: bool,
}

/// Reusable structure-of-arrays buffers for one bulk resolve run.
///
/// The gather phase (owned by `DramDevice::resolve_run`, which can see
/// the stored data) flattens every stale word's cell margins into
/// `args`; [`SenseCache::resolve_words`] evaluates Φ over the whole
/// run with the four-lane probit kernel and scatters the probabilities
/// back through `spans`. All three vectors keep their capacity across
/// passes — the steady-state sampling loop performs no allocation
/// here.
#[derive(Debug, Default)]
pub(crate) struct ResolveArena {
    /// Φ arguments (`−margin · inv_sigma`), in gather order.
    pub(crate) args: Vec<f64>,
    /// Φ outputs, same order as `args`.
    pub(crate) probs: Vec<f64>,
    /// One entry per gathered word: address, the coupling-context
    /// snapshot its margins were computed under, and its cell count
    /// (consecutive in `args`/`probs`).
    pub(crate) spans: Vec<(WordAddr, [u64; 3], u32)>,
}

impl ResolveArena {
    /// Empties the buffers without releasing capacity.
    pub(crate) fn clear(&mut self) {
        self.args.clear();
        self.probs.clear();
        self.spans.clear();
    }
}

/// What a batched read of one word reuses from that word's previous
/// read (see `DramDevice::induce`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReadMemo {
    /// Nothing yet: the next read goes through the READ path.
    Cold,
    /// Every bit always-correct at this tRCD: a skip read.
    Skip,
    /// Resolved under coupling context `ctx`; the probabilities and bit
    /// indices sit at `off..off + len` of the batch's pools.
    Resolved { ctx: [u64; 3], off: u32, len: u32 },
}

/// One entry of the dense hot-run table — the per-READ view of a run
/// word, packed so the steady-state sampling loop touches a few
/// sequential cache lines instead of a map bucket plus three heap
/// buffers per word. See [`SenseCache::build_hot_table`].
#[derive(Debug, Clone)]
pub(crate) struct HotWord {
    /// The word this entry serves.
    pub(crate) addr: WordAddr,
    /// Whether the entry can serve READs at all (the word was mapped
    /// and classification-current when the table was built).
    pub(crate) usable: bool,
    /// Coupling-context snapshot the pooled probabilities were
    /// resolved under.
    pub(crate) ctx: [u64; 3],
    /// `resolve_epoch` of the pooled probabilities (a deliberately
    /// mismatching sentinel when the word was unresolved at build).
    pub(crate) resolve_epoch: u32,
    /// Offset of this word's cells in the dense pools.
    pub(crate) off: u32,
    /// Stochastic-cell count (0 ⇒ the whole word is skip-masked).
    pub(crate) len: u32,
    /// Unconsumed bulk-prefetch flag. While the table is live this is
    /// the authoritative copy for run words — moved out of the map
    /// entry at build time and written back by
    /// [`SenseCache::retire_hot_table`] — so the first READ consuming
    /// a prefetched resolution books as a resolve exactly once, no
    /// matter which path serves it.
    pub(crate) prefetched: bool,
}

/// The per-device sensing cache. See the module docs for the
/// classification and invalidation contract.
#[derive(Debug, Default)]
pub(crate) struct SenseCache {
    /// Cached state per touched word.
    pub(crate) words: HashMap<WordAddr, WordState, AddrHashBuilder>,
    /// Dense hot-run table in pass order; valid while `hot_valid` and
    /// the epoch/tRCD stamps match.
    pub(crate) hot: Vec<HotWord>,
    /// Dense probability pool, indexed by `HotWord::off`/`len`.
    pub(crate) hot_ps: Vec<f64>,
    /// Dense bit-index pool, parallel to `hot_ps`.
    pub(crate) hot_bit_pool: Vec<u8>,
    /// Next expected table index. Algorithm 2 READs words in run
    /// order, so the common-case lookup is one address compare; a
    /// mismatch falls back to a linear scan (and re-syncs the cursor).
    pub(crate) hot_cursor: usize,
    /// Whether the hot table is populated.
    pub(crate) hot_valid: bool,
    /// `class_epoch` the table was built under.
    pub(crate) hot_class_epoch: u32,
    /// tRCD bit pattern the table was built under.
    pub(crate) hot_trcd_bits: u64,
    /// Bumped when timing registers change: classifications from older
    /// epochs are stale.
    pub(crate) class_epoch: u32,
    /// Bumped when temperature changes: resolutions from older epochs
    /// are stale.
    pub(crate) resolve_epoch: u32,
    /// Last sub-guard tRCD the timing hook saw, for dedup (the sampler
    /// re-writes the same reduced tRCD every pass).
    last_trcd_bits: Option<u64>,
    /// Hot-streak stamp of the last completed `resolve_run`: the word
    /// list it covered and the tRCD/epochs it ran under. When the next
    /// run matches the stamp exactly, every word it would gather is
    /// already resolved (Algorithm 2's restore round-trips the
    /// context), so the run is skipped outright. The stamp is purely an
    /// optimization gate — READs re-validate epochs and context
    /// regardless, so a stale skip can never produce wrong bits.
    pub(crate) run_words: Vec<WordAddr>,
    /// tRCD bit pattern of the stamped run.
    pub(crate) run_trcd_bits: u64,
    /// `class_epoch` of the stamped run.
    pub(crate) run_class_epoch: u32,
    /// `resolve_epoch` of the stamped run.
    pub(crate) run_resolve_epoch: u32,
    /// Whether the stamp is populated.
    pub(crate) run_valid: bool,
    /// Effectiveness counters.
    pub(crate) stats: SenseCacheStats,
}

impl SenseCache {
    /// Timing-register hook: re-keys the classification epoch when the
    /// sub-guard tRCD actually changes (idempotent for repeated writes
    /// of the same value).
    pub(crate) fn rekey_trcd(&mut self, trcd_bits: u64) {
        if self.last_trcd_bits == Some(trcd_bits) {
            return;
        }
        self.last_trcd_bits = Some(trcd_bits);
        self.class_epoch = self.class_epoch.wrapping_add(1);
        self.stats.flushes += 1;
    }

    /// Temperature hook: invalidates every memoized probability.
    pub(crate) fn invalidate_resolved(&mut self) {
        self.resolve_epoch = self.resolve_epoch.wrapping_add(1);
        self.stats.flushes += 1;
    }

    /// The memo a batched read of `addr` can reuse after a READ of it
    /// sensed at `trcd_bits`: `Skip` when the word is classified with
    /// no stochastic bit, `Resolved` when its probabilities are
    /// current (appended to `ps`/`bits`), `Cold` otherwise. A resolved
    /// word's next READ is a hit for as long as its coupling context
    /// still equals the snapshot — whether the hot table or the word
    /// map serves it, since a usable hot entry always mirrors the map's
    /// resolution.
    pub(crate) fn memo_of(
        &self,
        addr: WordAddr,
        trcd_bits: u64,
        ps: &mut Vec<f64>,
        bits: &mut Vec<u8>,
    ) -> ReadMemo {
        let Some(state) = self.words.get(&addr) else {
            return ReadMemo::Cold;
        };
        if !state.classified
            || state.class_epoch != self.class_epoch
            || state.trcd_bits != trcd_bits
        {
            return ReadMemo::Cold;
        }
        if state.active.is_empty() {
            return ReadMemo::Skip;
        }
        if !state.resolved || state.resolve_epoch != self.resolve_epoch {
            return ReadMemo::Cold;
        }
        let off = ps.len() as u32;
        ps.extend_from_slice(&state.ps);
        bits.extend_from_slice(&state.hot_bits);
        ReadMemo::Resolved {
            ctx: state.ctx,
            off,
            len: state.ps.len() as u32,
        }
    }

    /// Bulk-resolves a gathered run of words: evaluates Φ over the
    /// arena's SoA argument buffer with the four-lane probit kernel
    /// (scalar kernel on the non-multiple-of-four remainder — both are
    /// bit-identical to [`fast_phi`] by construction) and scatters the
    /// probabilities back into each word's `FastCell`s, marking them
    /// resolved-and-prefetched under the context snapshot the gather
    /// recorded.
    pub(crate) fn resolve_words(&mut self, arena: &mut ResolveArena) {
        let n = arena.args.len();
        if n == 0 {
            return;
        }
        arena.probs.clear();
        arena.probs.resize(n, 0.0);
        let full = n - n % LANES;
        let mut i = 0;
        while i < full {
            let out = fast_phi4([
                arena.args[i],
                arena.args[i + 1],
                arena.args[i + 2],
                arena.args[i + 3],
            ]);
            arena.probs[i..i + LANES].copy_from_slice(&out);
            i += LANES;
        }
        for j in full..n {
            arena.probs[j] = fast_phi(arena.args[j]);
        }
        self.stats.bulk_cells += n as u64;
        self.stats.bulk_lane_cells += full as u64;

        let mut off = 0usize;
        for &(addr, ctx, cells) in &arena.spans {
            let cells = cells as usize;
            let Some(state) = self.words.get_mut(&addr) else {
                off += cells;
                continue;
            };
            state.ps.copy_from_slice(&arena.probs[off..off + cells]);
            state.resolved = true;
            state.resolve_epoch = self.resolve_epoch;
            state.ctx = ctx;
            state.prefetched = true;
            off += cells;
        }
    }

    /// Tears down the hot-run table, writing unconsumed bulk-prefetch
    /// flags back to their map entries so the resolve-accounting
    /// contract survives a rebuild. A flag is only written back when
    /// the map entry still holds the exact resolution it was attached
    /// to (same epoch and context snapshot) — a superseded resolution
    /// already booked its own resolve READ, so restoring an orphaned
    /// flag would double-count. Idempotent.
    pub(crate) fn retire_hot_table(&mut self) {
        if !self.hot_valid {
            return;
        }
        self.hot_valid = false;
        for k in 0..self.hot.len() {
            if self.hot[k].usable && self.hot[k].prefetched {
                let (addr, epoch, ctx) = {
                    let hw = &self.hot[k];
                    (hw.addr, hw.resolve_epoch, hw.ctx)
                };
                if let Some(state) = self.words.get_mut(&addr) {
                    if state.resolved && state.resolve_epoch == epoch && state.ctx == ctx {
                        state.prefetched = true;
                    }
                }
            }
        }
    }

    /// (Re)builds the dense hot-run table for a run of words, copying
    /// each word's resolved probabilities and bit indices into
    /// contiguous pools. Words that are unmapped or
    /// classification-stale get an unusable placeholder (keeping table
    /// order aligned with the run); unresolved words get a sentinel
    /// resolve epoch so READs fall back to the map path. Bulk-prefetch
    /// flags move from the map entries into the table (see
    /// [`HotWord::prefetched`]).
    ///
    /// Purely an acceleration structure: READs re-validate the epochs
    /// and the live coupling context against the table's snapshots, so
    /// a stale entry can never produce wrong bits — it just routes the
    /// READ back through the word map.
    pub(crate) fn build_hot_table(&mut self, words: &[WordAddr], trcd_bits: u64) {
        self.retire_hot_table();
        self.hot.clear();
        self.hot_ps.clear();
        self.hot_bit_pool.clear();
        for &addr in words {
            let mut hw = HotWord {
                addr,
                usable: false,
                ctx: [0; 3],
                resolve_epoch: 0,
                off: self.hot_ps.len() as u32,
                len: 0,
                prefetched: false,
            };
            if let Some(state) = self.words.get_mut(&addr) {
                if state.classified
                    && state.class_epoch == self.class_epoch
                    && state.trcd_bits == trcd_bits
                {
                    hw.usable = true;
                    hw.len = state.ps.len() as u32;
                    hw.ctx = state.ctx;
                    hw.resolve_epoch = if state.resolved {
                        state.resolve_epoch
                    } else {
                        self.resolve_epoch.wrapping_sub(1)
                    };
                    hw.prefetched = std::mem::take(&mut state.prefetched);
                    self.hot_ps.extend_from_slice(&state.ps);
                    self.hot_bit_pool.extend_from_slice(&state.hot_bits);
                }
            }
            self.hot.push(hw);
        }
        self.hot_cursor = 0;
        self.hot_valid = true;
        self.hot_class_epoch = self.class_epoch;
        self.hot_trcd_bits = trcd_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rekey_is_idempotent_for_repeated_trcd() {
        let mut cache = SenseCache::default();
        let e0 = cache.class_epoch;
        cache.rekey_trcd(10.0f64.to_bits());
        let e1 = cache.class_epoch;
        assert_ne!(e0, e1, "first sub-guard write re-keys");
        cache.rekey_trcd(10.0f64.to_bits());
        assert_eq!(cache.class_epoch, e1, "same value again: no re-key");
        cache.rekey_trcd(9.5f64.to_bits());
        assert_ne!(cache.class_epoch, e1, "different value re-keys");
        assert_eq!(cache.stats.flushes, 2);
    }

    #[test]
    fn temperature_invalidation_bumps_resolve_epoch_only() {
        let mut cache = SenseCache::default();
        let class = cache.class_epoch;
        let resolve = cache.resolve_epoch;
        cache.invalidate_resolved();
        assert_eq!(cache.class_epoch, class);
        assert_ne!(cache.resolve_epoch, resolve);
        assert_eq!(cache.stats.flushes, 1);
    }

    #[test]
    fn hit_rate_counts_skip_and_hit_over_sensed() {
        let stats = SenseCacheStats {
            classified_words: 3,
            skip_word_reads: 60,
            hit_reads: 30,
            resolve_reads: 10,
            ..SenseCacheStats::default()
        };
        assert!((stats.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(stats.sensed_reads(), 100);
        assert_eq!(SenseCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn lane_utilization_counts_full_groups() {
        let stats = SenseCacheStats {
            bulk_cells: 10,
            bulk_lane_cells: 8,
            ..SenseCacheStats::default()
        };
        assert!((stats.lane_utilization() - 0.8).abs() < 1e-12);
        assert_eq!(SenseCacheStats::default().lane_utilization(), 0.0);
    }

    #[test]
    fn resolve_words_scatters_lane_and_remainder_cells() {
        use crate::probit::fast_phi;

        // Two words, 4 + 3 cells: the first word rides a full vector
        // group, the second spans the group boundary and the scalar
        // remainder. Every scattered p must equal the scalar kernel.
        let mut cache = SenseCache::default();
        let args: Vec<f64> = vec![-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0];
        let mk_word = |cells: usize| WordState {
            classified: true,
            active: (0..cells)
                .map(|bit| FastCell {
                    bit,
                    base: 0.0,
                    lat: CellLatents::default(),
                })
                .collect(),
            ps: vec![-1.0; cells],
            hot_bits: (0..cells as u8).collect(),
            ..WordState::default()
        };
        let a = WordAddr::new(0, 0, 0);
        let b = WordAddr::new(0, 0, 1);
        cache.words.insert(a, mk_word(4));
        cache.words.insert(b, mk_word(3));

        let mut arena = ResolveArena::default();
        arena.args.extend_from_slice(&args);
        arena.spans.push((a, [1, 2, 3], 4));
        arena.spans.push((b, [4, 5, 6], 3));
        cache.resolve_words(&mut arena);

        let wa = &cache.words[&a];
        let wb = &cache.words[&b];
        for (i, &p) in wa.ps.iter().chain(wb.ps.iter()).enumerate() {
            assert_eq!(p.to_bits(), fast_phi(args[i]).to_bits(), "cell {i}");
        }
        for w in [wa, wb] {
            assert!(w.resolved && w.prefetched);
        }
        assert_eq!(wa.ctx, [1, 2, 3]);
        assert_eq!(wb.ctx, [4, 5, 6]);
        assert_eq!(cache.stats.bulk_cells, 7);
        assert_eq!(cache.stats.bulk_lane_cells, 4);
    }
}
