//! Algorithm 1 — activation-failure profiling.
//!
//! Writes a data pattern into a DRAM region, programs a reduced `tRCD`,
//! and scans the region in column order, refreshing each row before
//! inducing an activation failure on it (paper Section 4, Algorithm 1).
//! Repeated over many iterations this yields each cell's empirical
//! activation-failure probability F_prob — the raw material for the
//! characterization studies (Figures 4-6) and for RNG-cell
//! identification.

use std::collections::HashMap;
use std::ops::Range;

use dram_sim::{CellAddr, Celsius, DataPattern, WordAddr};
use memctrl::MemoryController;

use crate::error::{DrangeError, Result};

/// Specification of one profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Banks to profile.
    pub banks: Vec<usize>,
    /// Row range within each bank.
    pub rows: Range<usize>,
    /// Column range within each row.
    pub cols: Range<usize>,
    /// Background data pattern (Section 5.2 studies 40 of them).
    pub pattern: DataPattern,
    /// The reduced activation latency to test at, ns (paper default:
    /// 10 ns against an 18 ns datasheet value).
    pub trcd_ns: f64,
    /// Number of scans of the region (paper: 100 for F_prob studies).
    pub iterations: usize,
}

impl ProfileSpec {
    /// One bank, full extent, solid-zero pattern, 10 ns, 100 iterations.
    pub fn bank(bank: usize, rows: usize, cols: usize) -> Self {
        ProfileSpec {
            banks: vec![bank],
            rows: 0..rows,
            cols: 0..cols,
            pattern: DataPattern::Solid0,
            trcd_ns: 10.0,
            iterations: 100,
        }
    }

    /// Builder-style pattern override.
    pub fn with_pattern(mut self, pattern: DataPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Builder-style tRCD override.
    pub fn with_trcd_ns(mut self, trcd_ns: f64) -> Self {
        self.trcd_ns = trcd_ns;
        self
    }

    /// Builder-style iteration-count override.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    fn validate(&self, ctrl: &MemoryController) -> Result<()> {
        let g = ctrl.device().geometry();
        if self.banks.is_empty() || self.rows.is_empty() || self.cols.is_empty() {
            return Err(DrangeError::InvalidSpec("empty profiling region".into()));
        }
        if self.iterations == 0 {
            return Err(DrangeError::InvalidSpec("zero iterations".into()));
        }
        if !self.trcd_ns.is_finite() || self.trcd_ns <= 0.0 {
            return Err(DrangeError::InvalidSpec(format!(
                "bad tRCD {} ns",
                self.trcd_ns
            )));
        }
        if self.banks.iter().any(|&b| b >= g.banks)
            || self.rows.end > g.rows
            || self.cols.end > g.cols
        {
            return Err(DrangeError::InvalidSpec(format!(
                "region exceeds geometry {g:?}"
            )));
        }
        Ok(())
    }
}

impl Default for ProfileSpec {
    fn default() -> Self {
        ProfileSpec::bank(0, 1024, 16)
    }
}

/// Result of a profiling run: per-cell activation-failure counts.
#[derive(Debug, Clone)]
pub struct FailureProfile {
    spec: ProfileSpec,
    temperature: Celsius,
    counts: HashMap<CellAddr, u32>,
}

impl FailureProfile {
    /// The specification this profile was collected under.
    pub fn spec(&self) -> &ProfileSpec {
        &self.spec
    }

    /// Device temperature during the run.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Number of iterations the region was scanned.
    pub fn iterations(&self) -> usize {
        self.spec.iterations
    }

    /// Failure count of one cell.
    pub fn fail_count(&self, cell: CellAddr) -> u32 {
        self.counts.get(&cell).copied().unwrap_or(0)
    }

    /// Empirical failure probability of one cell.
    pub fn fprob(&self, cell: CellAddr) -> f64 {
        self.fail_count(cell) as f64 / self.spec.iterations as f64
    }

    /// All cells that failed at least once, sorted by address.
    pub fn failing_cells(&self) -> Vec<CellAddr> {
        let mut v: Vec<CellAddr> = self.counts.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of distinct failing cells.
    pub fn unique_failures(&self) -> usize {
        self.counts.len()
    }

    /// Total failure events observed.
    pub fn total_failures(&self) -> u64 {
        self.counts.values().map(|&c| c as u64).sum()
    }

    /// Cells whose empirical F_prob lies in `[lo, hi]` (the paper's
    /// 40-60 % band feeds RNG-cell identification).
    pub fn cells_in_band(&self, lo: f64, hi: f64) -> Vec<CellAddr> {
        let mut v: Vec<CellAddr> = self
            .counts
            .iter()
            .filter(|(_, &c)| {
                let p = c as f64 / self.spec.iterations as f64;
                p >= lo && p <= hi
            })
            .map(|(&a, _)| a)
            .collect();
        v.sort();
        v
    }

    /// Iterates over `(cell, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (CellAddr, u32)> + '_ {
        self.counts.iter().map(|(&a, &c)| (a, c))
    }

    /// A row-major failure bitmap of one bank over the profiled region
    /// (rows × bitlines), for the Figure 4 spatial study. `true` marks
    /// a cell that failed at least once.
    pub fn bitmap(&self, bank: usize, word_bits: usize) -> Vec<Vec<bool>> {
        let rows = self.spec.rows.clone();
        let cols = self.spec.cols.clone();
        let width = (cols.end - cols.start) * word_bits;
        let mut map = vec![vec![false; width]; rows.end - rows.start];
        for &cell in self.counts.keys() {
            if cell.bank != bank {
                continue;
            }
            let r = cell.row - rows.start;
            let c = (cell.col - cols.start) * word_bits + cell.bit;
            map[r][c] = true;
        }
        map
    }
}

/// Runs Algorithm 1 against a memory controller.
#[derive(Debug)]
pub struct Profiler<'a> {
    ctrl: &'a mut MemoryController,
}

impl<'a> Profiler<'a> {
    /// A profiler borrowing the controller.
    pub fn new(ctrl: &'a mut MemoryController) -> Self {
        Profiler { ctrl }
    }

    /// Runs the profiling algorithm and returns the failure profile.
    ///
    /// The controller's `tRCD` register is restored to the datasheet
    /// value before returning, even on the error path.
    ///
    /// # Errors
    ///
    /// Returns [`DrangeError::InvalidSpec`] for malformed specs and
    /// propagates controller errors.
    pub fn run(&mut self, spec: ProfileSpec) -> Result<FailureProfile> {
        spec.validate(self.ctrl)?;
        // Line 2: write the data pattern into the region under test.
        for &bank in &spec.banks {
            for row in spec.rows.clone() {
                self.ctrl.device_mut().fill_row(bank, row, spec.pattern);
            }
        }
        // Line 3: reduce tRCD.
        self.ctrl.try_set_trcd_ns(spec.trcd_ns)?;
        let result = self.scan(&spec);
        // Line 12: restore the default tRCD.
        self.ctrl.reset_trcd();
        let counts = result?;
        Ok(FailureProfile {
            temperature: self.ctrl.device().temperature(),
            spec,
            counts,
        })
    }

    fn scan(&mut self, spec: &ProfileSpec) -> Result<HashMap<CellAddr, u32>> {
        // Lines 4-5: column order so every access activates a closed row.
        let words: Vec<WordAddr> = spec
            .banks
            .iter()
            .flat_map(|&bank| {
                spec.cols.clone().flat_map(move |col| {
                    spec.rows
                        .clone()
                        .map(move |row| WordAddr::new(bank, row, col))
                })
            })
            .collect();
        // Lines 6-10, once per iteration: refresh, reduced-latency read
        // and a restoring write, counting every failing bit. A word has
        // few failing cells, so each keeps a short `(bit, count)` list.
        let mut failing: Vec<Vec<(u8, u32)>> = vec![Vec::new(); words.len()];
        self.ctrl
            .induce(&words, spec.pattern, spec.iterations, |i, mut diff| {
                while diff != 0 {
                    let bit = diff.trailing_zeros() as u8;
                    match failing[i].iter_mut().find(|(b, _)| *b == bit) {
                        Some((_, n)) => *n += 1,
                        None => failing[i].push((bit, 1)),
                    }
                    diff &= diff - 1;
                }
            })?;
        Ok(words
            .iter()
            .zip(failing)
            .flat_map(|(w, cells)| cells.into_iter().map(move |(b, n)| (w.cell(b.into()), n)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{DeviceConfig, Manufacturer};

    fn ctrl() -> MemoryController {
        MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(42)
                .with_noise_seed(43),
        )
    }

    fn small_spec() -> ProfileSpec {
        ProfileSpec {
            banks: vec![0],
            rows: 0..256,
            cols: 0..16,
            pattern: DataPattern::Solid0,
            trcd_ns: 10.0,
            iterations: 20,
        }
    }

    #[test]
    fn profiling_finds_failures_and_restores_trcd() {
        let mut c = ctrl();
        let profile = Profiler::new(&mut c).run(small_spec()).unwrap();
        assert!(
            profile.unique_failures() > 0,
            "10 ns scans must find failures"
        );
        assert_eq!(c.trcd_ns(), 18.0, "tRCD restored after profiling");
    }

    #[test]
    fn no_failures_at_spec_trcd() {
        let mut c = ctrl();
        let spec = small_spec().with_trcd_ns(18.0).with_iterations(3);
        let profile = Profiler::new(&mut c).run(spec).unwrap();
        assert_eq!(profile.unique_failures(), 0);
    }

    #[test]
    fn fprob_counts_are_consistent() {
        let mut c = ctrl();
        let profile = Profiler::new(&mut c).run(small_spec()).unwrap();
        for (cell, count) in profile.iter() {
            assert!(count as usize <= profile.iterations());
            assert!((profile.fprob(cell) - count as f64 / 20.0).abs() < 1e-12);
        }
        let never_failed = CellAddr::new(0, 0, 0, 0);
        if profile.fail_count(never_failed) == 0 {
            assert_eq!(profile.fprob(never_failed), 0.0);
        }
    }

    #[test]
    fn band_selection_is_subset_of_failures() {
        let mut c = ctrl();
        let profile = Profiler::new(&mut c)
            .run(small_spec().with_iterations(50))
            .unwrap();
        let band = profile.cells_in_band(0.4, 0.6);
        let all = profile.failing_cells();
        for cell in &band {
            assert!(all.contains(cell));
            let p = profile.fprob(*cell);
            assert!((0.4..=0.6).contains(&p));
        }
    }

    #[test]
    fn failures_cluster_on_weak_bitlines() {
        let mut c = ctrl();
        let profile = Profiler::new(&mut c).run(small_spec()).unwrap();
        let mut on_weak = 0usize;
        let mut total = 0usize;
        for cell in profile.failing_cells() {
            total += 1;
            if c.device().on_weak_bitline(cell) {
                on_weak += 1;
            }
        }
        assert!(total > 0);
        assert_eq!(on_weak, total, "every failure sits on a weak bitline");
    }

    #[test]
    fn bitmap_has_profiled_shape() {
        let mut c = ctrl();
        let spec = ProfileSpec {
            rows: 0..64,
            cols: 0..4,
            iterations: 10,
            ..small_spec()
        };
        let profile = Profiler::new(&mut c).run(spec).unwrap();
        let map = profile.bitmap(0, 64);
        assert_eq!(map.len(), 64);
        assert_eq!(map[0].len(), 256);
        let marked: usize = map.iter().map(|r| r.iter().filter(|&&b| b).count()).sum();
        assert_eq!(marked, profile.unique_failures());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut c = ctrl();
        let mut p = Profiler::new(&mut c);
        assert!(p
            .run(ProfileSpec {
                banks: vec![],
                ..small_spec()
            })
            .is_err());
        assert!(p
            .run(ProfileSpec {
                iterations: 0,
                ..small_spec()
            })
            .is_err());
        assert!(p
            .run(ProfileSpec {
                banks: vec![99],
                ..small_spec()
            })
            .is_err());
        assert!(p.run(small_spec().with_trcd_ns(-1.0)).is_err());
        assert!(p
            .run(ProfileSpec {
                rows: 0..9999,
                ..small_spec()
            })
            .is_err());
    }

    #[test]
    fn deterministic_given_seeded_noise() {
        let run = || {
            let mut c = ctrl();
            let p = Profiler::new(&mut c).run(small_spec()).unwrap();
            let mut cells = p.failing_cells();
            cells.sort();
            (p.total_failures(), cells)
        };
        assert_eq!(run(), run());
    }
}
