//! Startup-value TRNGs: Tehranipoor+ (HOST 2016) and Eckert+ (MWSCAS
//! 2017).
//!
//! A fraction of DRAM cells powers up to a random value; reading them
//! right after a power cycle yields entropy (paper Section 8.3). The
//! structural limitation the paper emphasizes — reproduced here — is
//! that harvesting fresh entropy requires a *full power cycle*, so the
//! mechanism cannot stream.

use dram_sim::startup::power_cycle;
use dram_sim::CellAddr;
use memctrl::{MemoryController, Result};

/// Default modeled duration of a DRAM power cycle + re-initialization
/// (power ramp, bus training, ZQ calibration, timing-register setup),
/// ps. The paper treats this as implementation-defined and refuses to
/// quote a throughput; 100 ms is a typical cold-init budget.
pub const DEFAULT_POWER_CYCLE_PS: u64 = 100_000_000_000;

/// Startup-value TRNG (Tehranipoor+/Eckert+).
#[derive(Debug)]
pub struct StartupTrng {
    ctrl: MemoryController,
    inventory: Vec<CellAddr>,
    power_cycle_ps: u64,
    bits_emitted: u64,
    device_time_ps: u64,
}

impl StartupTrng {
    /// Enrolls the random-cell inventory with two power cycles: cells
    /// whose startup value differs between cycles are random cells.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn enroll(mut ctrl: MemoryController) -> Result<Self> {
        let g = ctrl.device().geometry();
        power_cycle(ctrl.device_mut());
        let snap1: Vec<Vec<u64>> = snapshot(&ctrl)?;
        power_cycle(ctrl.device_mut());
        let mut inventory = Vec::new();
        for (bank, before) in snap1.iter().enumerate() {
            for row in 0..g.rows {
                for col in 0..g.cols {
                    let w2 = ctrl
                        .device()
                        .peek(dram_sim::WordAddr::new(bank, row, col))
                        // xtask:allow(no-panic) -- loop bounds come from the device's own geometry
                        .expect("in range");
                    let diff = before[row * g.cols + col] ^ w2;
                    let mut d = diff;
                    while d != 0 {
                        let bit = d.trailing_zeros() as usize;
                        inventory.push(CellAddr::new(bank, row, col, bit));
                        d &= d - 1;
                    }
                }
            }
        }
        inventory.sort();
        Ok(StartupTrng {
            ctrl,
            inventory,
            power_cycle_ps: DEFAULT_POWER_CYCLE_PS,
            bits_emitted: 0,
            device_time_ps: 0,
        })
    }

    /// Overrides the modeled power-cycle duration.
    pub fn with_power_cycle_ps(mut self, ps: u64) -> Self {
        self.power_cycle_ps = ps;
        self
    }

    /// Number of enrolled random cells (bits per power cycle).
    ///
    /// Note: enrollment with two cycles finds cells that *differed that
    /// time* (~half the true random population); repeated enrollment
    /// converges on the full inventory.
    pub fn inventory_size(&self) -> usize {
        self.inventory.len()
    }

    /// One power cycle: returns the enrolled cells' startup values.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    pub fn harvest(&mut self) -> Result<Vec<bool>> {
        let t0 = self.ctrl.now_ps();
        self.ctrl.advance_ps(self.power_cycle_ps);
        power_cycle(self.ctrl.device_mut());
        let mut bits = Vec::with_capacity(self.inventory.len());
        // Read the inventory through the protocol, word by word.
        let mut open: Option<(usize, usize)> = None;
        for &cell in &self.inventory {
            if open != Some((cell.bank, cell.row)) {
                if let Some((b, _)) = open {
                    self.ctrl.pre(b)?;
                }
                self.ctrl.act(cell.bank, cell.row)?;
                open = Some((cell.bank, cell.row));
            }
            let w = self.ctrl.rd(cell.bank, cell.row, cell.col)?;
            bits.push((w >> cell.bit) & 1 == 1);
        }
        if let Some((b, _)) = open {
            self.ctrl.pre(b)?;
        }
        self.bits_emitted += bits.len() as u64;
        self.device_time_ps += self.ctrl.now_ps() - t0;
        Ok(bits)
    }

    /// Observed throughput, bits/s of device time.
    pub fn throughput_bps(&self) -> f64 {
        if self.device_time_ps == 0 {
            0.0
        } else {
            self.bits_emitted as f64 / (self.device_time_ps as f64 * 1e-12)
        }
    }

    /// Latency to 64 bits: one power cycle plus the first reads, ps.
    pub fn latency_64bit_ps(&self) -> u64 {
        self.power_cycle_ps + 64 * 60_000 / self.inventory_size().max(1) as u64
    }
}

fn snapshot(ctrl: &MemoryController) -> Result<Vec<Vec<u64>>> {
    let g = ctrl.device().geometry();
    let mut out = Vec::with_capacity(g.banks);
    for bank in 0..g.banks {
        let mut words = Vec::with_capacity(g.rows * g.cols);
        for row in 0..g.rows {
            for col in 0..g.cols {
                words.push(
                    ctrl.device()
                        .peek(dram_sim::WordAddr::new(bank, row, col))?,
                );
            }
        }
        out.push(words);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{DeviceConfig, Geometry, Manufacturer};

    fn ctrl() -> MemoryController {
        // A small device keeps enrollment fast.
        MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(5)
                .with_noise_seed(6)
                .with_geometry(Geometry {
                    banks: 2,
                    rows: 128,
                    cols: 8,
                    word_bits: 64,
                    subarray_rows: 128,
                }),
        )
    }

    #[test]
    fn enrollment_finds_random_cells_near_expected_density() {
        let t = StartupTrng::enroll(ctrl()).unwrap();
        let cells = 2 * 128 * 8 * 64;
        let frac = t.inventory_size() as f64 / cells as f64;
        // Two cycles find a random cell when the two draws differ:
        // P ~ 2 p (1-p) averaged over bias ~ 0.4-0.5 of the 5% class.
        assert!((0.01..0.05).contains(&frac), "inventory fraction {frac}");
    }

    #[test]
    fn harvests_differ_between_power_cycles() {
        let mut t = StartupTrng::enroll(ctrl()).unwrap();
        let a = t.harvest().unwrap();
        let b = t.harvest().unwrap();
        assert_eq!(a.len(), t.inventory_size());
        assert_ne!(a, b, "startup values of random cells re-roll");
    }

    #[test]
    fn harvested_bits_are_roughly_balanced() {
        let mut t = StartupTrng::enroll(ctrl()).unwrap();
        let mut ones = 0usize;
        let mut total = 0usize;
        for _ in 0..6 {
            let bits = t.harvest().unwrap();
            ones += bits.iter().filter(|&&b| b).count();
            total += bits.len();
        }
        let frac = ones as f64 / total as f64;
        assert!((0.38..0.62).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn throughput_is_limited_by_power_cycles() {
        let mut t = StartupTrng::enroll(ctrl())
            .unwrap()
            .with_power_cycle_ps(10_000_000_000);
        let _ = t.harvest().unwrap();
        let with_slow_cycle = t.throughput_bps();
        let mut fast = StartupTrng::enroll(ctrl())
            .unwrap()
            .with_power_cycle_ps(1_000_000);
        let _ = fast.harvest().unwrap();
        assert!(fast.throughput_bps() > with_slow_cycle);
    }

    #[test]
    fn latency_includes_power_cycle() {
        let t = StartupTrng::enroll(ctrl()).unwrap();
        assert!(t.latency_64bit_ps() >= DEFAULT_POWER_CYCLE_PS);
    }
}
