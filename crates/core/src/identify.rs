//! RNG-cell identification (paper Section 6.1).
//!
//! Reads candidate cells many times with a reduced `tRCD` and keeps the
//! cells whose output stream contains an approximately equal number of
//! every possible 3-bit symbol (±10 %) — the paper's criterion for a
//! cell that produces unbiased, high-entropy output.

use std::collections::{BTreeMap, HashSet};

use dram_sim::{CellAddr, Celsius, DataPattern, WordAddr};
use memctrl::MemoryController;

use crate::entropy::symbols_uniform;
use crate::error::{DrangeError, Result};
use crate::profiler::FailureProfile;

/// Specification for the identification step.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifySpec {
    /// Reads per candidate cell (paper: 1000).
    pub reads: usize,
    /// Symbol width for the uniformity criterion (paper: 3 bits).
    pub symbol_bits: usize,
    /// Relative tolerance on symbol counts. The paper quotes ±10 %;
    /// with 1000-read streams that band is narrower than the sampling
    /// noise of the symbol counts themselves (it would reject most
    /// ideal cells), so the default here is 0.15, which accepts cells
    /// with bias within ~±3 % of 1/2 (binary entropy ≥ 0.997) at a
    /// high true-positive rate. Set 0.10 to apply the paper's literal
    /// figure.
    pub tolerance: f64,
    /// Reduced activation latency during sampling, ns.
    pub trcd_ns: f64,
    /// Background data pattern (should be the manufacturer's
    /// best-band pattern from the DPD study).
    pub pattern: DataPattern,
}

impl Default for IdentifySpec {
    fn default() -> Self {
        IdentifySpec {
            reads: 1000,
            symbol_bits: 3,
            tolerance: 0.15,
            trcd_ns: 10.0,
            pattern: DataPattern::Solid0,
        }
    }
}

impl IdentifySpec {
    fn validate(&self) -> Result<()> {
        // The range check comes first: it bounds the shift below.
        if !(1..=8).contains(&self.symbol_bits) {
            return Err(DrangeError::InvalidSpec("symbol_bits must be 1..=8".into()));
        }
        if self.reads < 8 * (1 << self.symbol_bits) {
            return Err(DrangeError::InvalidSpec(format!(
                "{} reads cannot support {}-bit symbol statistics",
                self.reads, self.symbol_bits
            )));
        }
        if !(0.0..1.0).contains(&self.tolerance) {
            return Err(DrangeError::InvalidSpec(
                "tolerance must be in [0,1)".into(),
            ));
        }
        if !self.trcd_ns.is_finite() || self.trcd_ns <= 0.0 {
            return Err(DrangeError::InvalidSpec("tRCD must be positive".into()));
        }
        Ok(())
    }
}

/// A catalog of identified RNG cells at one temperature.
///
/// The paper stores one catalog per operating temperature in the memory
/// controller and selects by the current temperature (Section 6.1);
/// [`CatalogSet`] provides that selection.
#[derive(Debug, Clone)]
pub struct RngCellCatalog {
    spec: IdentifySpec,
    temperature: Celsius,
    /// RNG cells grouped per word, sorted.
    words: BTreeMap<WordAddr, Vec<usize>>,
}

impl RngCellCatalog {
    /// Identifies RNG cells among the failing cells of `profile`.
    ///
    /// Cells that never fail cannot be RNG cells (their stream is
    /// constant), so candidates are drawn from the profile; candidate
    /// cells sharing a word are sampled together (one read samples the
    /// whole word).
    ///
    /// The controller's `tRCD` register is restored before returning.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] for bad specs; propagates
    /// controller errors.
    pub fn identify(
        ctrl: &mut MemoryController,
        profile: &FailureProfile,
        spec: IdentifySpec,
    ) -> Result<Self> {
        spec.validate()?;
        // Group candidates by word. Restrict to the plausible band to
        // avoid wasting reads on (nearly) deterministic cells.
        let mut candidates: BTreeMap<WordAddr, Vec<usize>> = BTreeMap::new();
        for cell in profile.cells_in_band(0.05, 0.95) {
            candidates.entry(cell.word()).or_default().push(cell.bit);
        }
        // Write the pattern into every row we will sample (and thereby
        // its neighboring cells).
        let mut rows_done: HashSet<(usize, usize)> = HashSet::new();
        for addr in candidates.keys() {
            if rows_done.insert((addr.bank, addr.row)) {
                ctrl.device_mut()
                    .fill_row(addr.bank, addr.row, spec.pattern);
            }
        }
        ctrl.try_set_trcd_ns(spec.trcd_ns)?;
        let result = Self::sample_candidates(ctrl, &candidates, &spec);
        ctrl.reset_trcd();
        let words = result?;
        Ok(RngCellCatalog {
            spec,
            temperature: ctrl.device().temperature(),
            words,
        })
    }

    fn sample_candidates(
        ctrl: &mut MemoryController,
        candidates: &BTreeMap<WordAddr, Vec<usize>>,
        spec: &IdentifySpec,
    ) -> Result<BTreeMap<WordAddr, Vec<usize>>> {
        let mut words: BTreeMap<WordAddr, Vec<usize>> = BTreeMap::new();
        let mut masks: Vec<u64> = Vec::with_capacity(spec.reads);
        let mut stream: Vec<bool> = Vec::with_capacity(spec.reads);
        for (&addr, bits) in candidates {
            // Refresh, then induce (Algorithm 1 inner sequence), one
            // word at a time. The harvested random bit is the failure
            // indicator (sensed != written), which is
            // pattern-independent.
            masks.clear();
            ctrl.induce(&[addr], spec.pattern, spec.reads, |_, diff| {
                masks.push(diff)
            })?;
            let qualified: Vec<usize> = bits
                .iter()
                .copied()
                .filter(|&bit| {
                    stream.clear();
                    stream.extend(masks.iter().map(|m| (m >> bit) & 1 == 1));
                    symbols_uniform(&stream, spec.symbol_bits, spec.tolerance)
                })
                .collect();
            if !qualified.is_empty() {
                words.insert(addr, qualified);
            }
        }
        Ok(words)
    }

    /// Assembles a catalog from already-known RNG-cell locations —
    /// e.g. one loaded from storage, or a hand-built fixture for tests
    /// that need precise control over word placement. Words mapped to
    /// an empty bit list are dropped (the catalog never stores words
    /// without RNG cells).
    pub fn from_parts(
        spec: IdentifySpec,
        temperature: Celsius,
        words: BTreeMap<WordAddr, Vec<usize>>,
    ) -> Self {
        let words = words
            .into_iter()
            .filter(|(_, bits)| !bits.is_empty())
            .map(|(addr, mut bits)| {
                bits.sort_unstable();
                bits.dedup();
                (addr, bits)
            })
            .collect();
        RngCellCatalog {
            spec,
            temperature,
            words,
        }
    }

    /// The identification spec.
    pub fn spec(&self) -> &IdentifySpec {
        &self.spec
    }

    /// The temperature the catalog was built at.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Total number of RNG cells.
    pub fn len(&self) -> usize {
        self.words.values().map(Vec::len).sum()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// All RNG cells, sorted.
    pub fn cells(&self) -> Vec<CellAddr> {
        self.words
            .iter()
            .flat_map(|(addr, bits)| bits.iter().map(move |&b| addr.cell(b)))
            .collect()
    }

    /// Words containing RNG cells with their cell bit positions.
    pub fn words(&self) -> &BTreeMap<WordAddr, Vec<usize>> {
        &self.words
    }

    /// Histogram over words: `hist[k]` = number of words containing
    /// exactly `k` RNG cells (k ≥ 1), per bank — the paper's Figure 7.
    pub fn density_histogram(&self, bank: usize, max_k: usize) -> Vec<usize> {
        let mut hist = vec![0usize; max_k + 1];
        for (addr, bits) in &self.words {
            if addr.bank == bank {
                hist[bits.len().min(max_k)] += 1;
            }
        }
        hist
    }

    /// The `n` best words of a bank (most RNG cells first), constrained
    /// to pairwise-distinct rows — Algorithm 2's selection rule.
    pub fn best_words(&self, bank: usize, n: usize) -> Vec<(WordAddr, Vec<usize>)> {
        let mut words: Vec<(WordAddr, Vec<usize>)> = self
            .words
            .iter()
            .filter(|(a, _)| a.bank == bank)
            .map(|(a, b)| (*a, b.clone()))
            .collect();
        words.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let mut picked: Vec<(WordAddr, Vec<usize>)> = Vec::new();
        for (addr, bits) in words {
            if picked.len() == n {
                break;
            }
            if picked.iter().all(|(p, _)| p.row != addr.row) {
                picked.push((addr, bits));
            }
        }
        picked
    }

    /// Banks ranked by the sum of RNG cells across their two best words
    /// (the per-bank TRNG data rate of Section 7.3).
    pub fn ranked_banks(&self, total_banks: usize) -> Vec<(usize, usize)> {
        let mut ranked: Vec<(usize, usize)> = (0..total_banks)
            .map(|bank| {
                let rate: usize = self.best_words(bank, 2).iter().map(|(_, b)| b.len()).sum();
                (bank, rate)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }
}

/// Per-temperature catalogs with nearest-temperature selection
/// (Section 6.1: "identify reliable RNG cells at each temperature and
/// store their locations in the memory controller").
#[derive(Debug, Clone, Default)]
pub struct CatalogSet {
    catalogs: Vec<RngCellCatalog>,
}

impl CatalogSet {
    /// An empty set.
    pub fn new() -> Self {
        CatalogSet::default()
    }

    /// Adds a catalog (keyed by its build temperature).
    pub fn insert(&mut self, catalog: RngCellCatalog) {
        self.catalogs.push(catalog);
    }

    /// Number of stored catalogs.
    pub fn len(&self) -> usize {
        self.catalogs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.catalogs.is_empty()
    }

    /// The catalog built nearest to `temperature`.
    pub fn select(&self, temperature: Celsius) -> Option<&RngCellCatalog> {
        self.catalogs.iter().min_by(|a, b| {
            let da = (a.temperature().degrees() - temperature.degrees()).abs();
            let db = (b.temperature().degrees() - temperature.degrees()).abs();
            da.total_cmp(&db)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{ProfileSpec, Profiler};
    use dram_sim::{DeviceConfig, Manufacturer};

    fn ctrl() -> MemoryController {
        MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(42)
                .with_noise_seed(43),
        )
    }

    fn profile(c: &mut MemoryController) -> FailureProfile {
        Profiler::new(c)
            .run(
                ProfileSpec {
                    rows: 0..512,
                    cols: 0..16,
                    ..ProfileSpec::default()
                }
                .with_iterations(40),
            )
            .unwrap()
    }

    fn quick_spec() -> IdentifySpec {
        IdentifySpec {
            reads: 1000,
            ..IdentifySpec::default()
        }
    }

    #[test]
    fn identifies_some_rng_cells() {
        let mut c = ctrl();
        let p = profile(&mut c);
        let catalog = RngCellCatalog::identify(&mut c, &p, quick_spec()).unwrap();
        assert!(!catalog.is_empty(), "the model must contain RNG cells");
        assert_eq!(c.trcd_ns(), 18.0, "tRCD restored");
        // Every identified cell has a near-0.5 analytic probability.
        for cell in catalog.cells() {
            let f = c.device().failure_probability(cell, 10.0);
            assert!(
                (0.30..=0.70).contains(&f),
                "identified cell {cell:?} has analytic F_prob {f}"
            );
        }
    }

    #[test]
    fn identified_cells_are_a_subset_of_candidates() {
        let mut c = ctrl();
        let p = profile(&mut c);
        let catalog = RngCellCatalog::identify(&mut c, &p, quick_spec()).unwrap();
        let band: std::collections::HashSet<_> = p.cells_in_band(0.05, 0.95).into_iter().collect();
        for cell in catalog.cells() {
            assert!(band.contains(&cell));
        }
    }

    #[test]
    fn histogram_counts_words() {
        let mut c = ctrl();
        let p = profile(&mut c);
        let catalog = RngCellCatalog::identify(&mut c, &p, quick_spec()).unwrap();
        let hist = catalog.density_histogram(0, 4);
        let words_in_bank = catalog.words().keys().filter(|w| w.bank == 0).count();
        assert_eq!(hist.iter().skip(1).sum::<usize>(), words_in_bank);
        assert_eq!(hist[0], 0, "words with zero cells are not stored");
    }

    #[test]
    fn best_words_have_distinct_rows_and_descending_density() {
        let mut c = ctrl();
        let p = profile(&mut c);
        let catalog = RngCellCatalog::identify(&mut c, &p, quick_spec()).unwrap();
        let best = catalog.best_words(0, 2);
        if best.len() == 2 {
            assert_ne!(best[0].0.row, best[1].0.row);
            assert!(best[0].1.len() >= best[1].1.len());
        }
    }

    #[test]
    fn ranked_banks_are_sorted() {
        let mut c = ctrl();
        let p = profile(&mut c);
        let catalog = RngCellCatalog::identify(&mut c, &p, quick_spec()).unwrap();
        let ranked = catalog.ranked_banks(8);
        assert_eq!(ranked.len(), 8);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn catalog_set_selects_nearest_temperature() {
        let mut c = ctrl();
        let p = profile(&mut c);
        let mut set = CatalogSet::new();
        for t in [55.0, 65.0] {
            c.device_mut().set_temperature(Celsius(t));
            let cat = RngCellCatalog::identify(&mut c, &p, quick_spec()).unwrap();
            set.insert(cat);
        }
        assert_eq!(set.len(), 2);
        let picked = set.select(Celsius(56.0)).unwrap();
        assert_eq!(picked.temperature().degrees(), 55.0);
        let picked = set.select(Celsius(70.0)).unwrap();
        assert_eq!(picked.temperature().degrees(), 65.0);
        assert!(CatalogSet::new().select(Celsius(60.0)).is_none());
    }

    #[test]
    fn from_parts_normalizes_words() {
        let mut words = BTreeMap::new();
        words.insert(WordAddr::new(0, 1, 2), vec![5, 3, 5, 1]);
        words.insert(WordAddr::new(1, 0, 0), Vec::new());
        let catalog = RngCellCatalog::from_parts(quick_spec(), Celsius::DEFAULT, words);
        assert_eq!(catalog.len(), 3, "duplicates removed, empty words dropped");
        assert_eq!(
            catalog.words().get(&WordAddr::new(0, 1, 2)),
            Some(&vec![1, 3, 5]),
            "bit positions sorted"
        );
        assert!(catalog.words().get(&WordAddr::new(1, 0, 0)).is_none());
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut c = ctrl();
        let p = profile(&mut c);
        let bad = IdentifySpec {
            reads: 10,
            ..IdentifySpec::default()
        };
        assert!(RngCellCatalog::identify(&mut c, &p, bad).is_err());
        let bad = IdentifySpec {
            tolerance: 1.0,
            ..quick_spec()
        };
        assert!(RngCellCatalog::identify(&mut c, &p, bad).is_err());
        // Out-of-range symbol widths are rejected, not overflowed.
        for symbol_bits in [0, 9, 61, 62, 63, 64, usize::MAX] {
            let bad = IdentifySpec {
                symbol_bits,
                ..quick_spec()
            };
            assert!(
                matches!(
                    RngCellCatalog::identify(&mut c, &p, bad),
                    Err(DrangeError::InvalidSpec(_))
                ),
                "symbol_bits {symbol_bits}"
            );
        }
    }
}
