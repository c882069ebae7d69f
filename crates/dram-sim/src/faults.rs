//! Scriptable environmental fault injection.
//!
//! The paper's Section 5.3 measures failure-probability shifts of
//! roughly ±2.5 % per 5 °C, and Section 7.3 prescribes periodic online
//! re-characterization because cells drift in the field. This module
//! provides the *environment* half of that story: a deterministic,
//! seeded [`EnvSchedule`] that replays temperature ramps and step
//! shocks, activation-driven cell aging, stuck-at cell faults, and
//! transient voltage-noise bursts against a [`DramDevice`].
//!
//! ## Determinism and cache correctness
//!
//! Every event is applied through `DramDevice` methods that route
//! margin-affecting changes through the sensing cache's resolve-epoch
//! invalidation, so the memoized fast path stays bit-identical to the
//! slow oracle under any schedule. Aging wear is recomputed from
//! activation counts **only at schedule steps** ([`DramDevice`] method
//! `refresh_aging`), never per activation — between steps the margins
//! are constant and the cache's memoized probabilities remain valid.
//!
//! Fault-target selection ([`EnvSchedule::select_fraction`]) hashes
//! cell coordinates with a caller seed, so the same seed always damages
//! the same cells regardless of iteration order.

use crate::device::DramDevice;
use crate::error::Result;
use crate::geometry::CellAddr;
use crate::math::{cell_key, unit_for_key};
use crate::temperature::Celsius;

/// Cumulative injected-fault counters of one device.
///
/// Monotone over the device's lifetime; harvest engines snapshot and
/// diff them to derive per-batch rates, exactly like
/// [`crate::SenseCacheStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Schedule-driven temperature changes (ramp steps and shocks).
    pub temperature_events: u64,
    /// Voltage-noise bias changes (burst onsets and clears).
    pub noise_bias_events: u64,
    /// Cells registered for activation-driven aging (first
    /// registrations, not coefficient updates).
    pub cells_aged: u64,
    /// Cells forced stuck-at (first injections per cell).
    pub cells_stuck: u64,
    /// READs whose result had at least one bit overridden by a stuck
    /// cell.
    pub stuck_read_overrides: u64,
    /// Fault-driven resolve-epoch flushes of the sensing cache (noise
    /// bias changes and aging-wear updates; temperature flushes are
    /// counted by the cache itself).
    pub margin_flushes: u64,
}

impl FaultStats {
    /// Total discrete injection events (temperature, noise, aging,
    /// stuck-at) — the headline "injected faults" counter.
    pub fn injected_events(&self) -> u64 {
        self.temperature_events + self.noise_bias_events + self.cells_aged + self.cells_stuck
    }

    /// Field-wise sum of two snapshots — aggregating per-channel
    /// counters into a fleet total.
    #[must_use]
    pub fn merge(self, other: FaultStats) -> FaultStats {
        FaultStats {
            temperature_events: self.temperature_events + other.temperature_events,
            noise_bias_events: self.noise_bias_events + other.noise_bias_events,
            cells_aged: self.cells_aged + other.cells_aged,
            cells_stuck: self.cells_stuck + other.cells_stuck,
            stuck_read_overrides: self.stuck_read_overrides + other.stuck_read_overrides,
            margin_flushes: self.margin_flushes + other.margin_flushes,
        }
    }
}

/// Per-cell activation-driven aging record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AgedCell {
    /// Margin attenuation per 1000 activations of the cell's row, volts.
    pub(crate) wear_v_per_kiloact: f64,
    /// Wear currently in effect (recomputed only at schedule steps).
    pub(crate) wear_v: f64,
}

/// Stuck-at state of one word: `mask` selects the stuck bits, `value`
/// holds their forced values.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StuckWord {
    pub(crate) mask: u64,
    pub(crate) value: u64,
}

/// One environmental event of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvEvent {
    /// Time passes with no environmental change (aging wear is still
    /// refreshed from activation counts).
    Hold,
    /// Absolute chamber set-point change.
    SetTemperature(Celsius),
    /// Relative chamber change (°C); ramps are sequences of these.
    ShiftTemperature(f64),
    /// Global transient margin bias in volts (negative biases steal
    /// margin and raise failure probabilities); `0.0` ends a burst.
    NoiseBias(f64),
    /// Registers activation-driven aging on cells: margin attenuation
    /// of `wear_v_per_kiloact` volts per 1000 activations of each
    /// cell's row.
    AgeCells {
        /// The cells to age.
        cells: Vec<CellAddr>,
        /// Wear coefficient, volts per kilo-activation.
        wear_v_per_kiloact: f64,
    },
    /// Forces cells stuck at a value.
    StuckAt {
        /// The cells to pin.
        cells: Vec<CellAddr>,
        /// The value every listed cell reads as.
        value: bool,
    },
    /// Releases previously stuck cells.
    ClearStuck {
        /// The cells to release.
        cells: Vec<CellAddr>,
    },
}

/// A deterministic, replayable environmental fault schedule.
///
/// Build one with the fluent constructors, then drive it step by step
/// against a device ([`EnvSchedule::step`]) — typically once per
/// harvest batch, so "environment time" advances with sampling time.
///
/// ```rust
/// use dram_sim::{Celsius, DeviceConfig, EnvSchedule, Manufacturer};
///
/// let mut device = dram_sim::DramDevice::build(
///     DeviceConfig::new(Manufacturer::A).with_seed(1).with_noise_seed(2),
/// );
/// let mut schedule = EnvSchedule::new(7)
///     .hold(2)
///     .shock(20.0)           // +20 °C step shock
///     .ramp(-20.0, 4)        // cool back down in 4 steps
///     .noise_burst(-0.02, 3); // 3-step margin-stealing burst
/// while let Ok(Some(_event)) = schedule.step(&mut device) {}
/// ```
#[derive(Debug, Clone)]
pub struct EnvSchedule {
    events: Vec<EnvEvent>,
    next: usize,
    seed: u64,
}

impl EnvSchedule {
    /// An empty schedule. The seed feeds deterministic fault-target
    /// selection helpers; two schedules with the same seed and events
    /// injure the same cells.
    pub fn new(seed: u64) -> Self {
        EnvSchedule {
            events: Vec::new(),
            next: 0,
            seed,
        }
    }

    /// Appends `steps` do-nothing steps (time passes, wear refreshes).
    pub fn hold(mut self, steps: usize) -> Self {
        self.events
            .extend(std::iter::repeat_n(EnvEvent::Hold, steps));
        self
    }

    /// Appends an absolute temperature set-point.
    pub fn set_temperature(mut self, t: Celsius) -> Self {
        self.events.push(EnvEvent::SetTemperature(t));
        self
    }

    /// Appends a single-step temperature shock of `delta_c` degrees.
    pub fn shock(mut self, delta_c: f64) -> Self {
        self.events.push(EnvEvent::ShiftTemperature(delta_c));
        self
    }

    /// Appends a linear ramp: `delta_c` degrees spread evenly over
    /// `steps` steps (no-op when `steps == 0`).
    pub fn ramp(mut self, delta_c: f64, steps: usize) -> Self {
        if steps > 0 {
            let per = delta_c / steps as f64;
            self.events
                .extend(std::iter::repeat_n(EnvEvent::ShiftTemperature(per), steps));
        }
        self
    }

    /// Appends a voltage-noise burst: bias onset, `steps − 1` held
    /// steps, then a clearing `NoiseBias(0.0)` (no-op when
    /// `steps == 0`).
    pub fn noise_burst(mut self, bias_v: f64, steps: usize) -> Self {
        if steps > 0 {
            self.events.push(EnvEvent::NoiseBias(bias_v));
            self.events
                .extend(std::iter::repeat_n(EnvEvent::Hold, steps - 1));
            self.events.push(EnvEvent::NoiseBias(0.0));
        }
        self
    }

    /// Appends an aging registration for `cells`.
    pub fn age_cells(mut self, cells: &[CellAddr], wear_v_per_kiloact: f64) -> Self {
        self.events.push(EnvEvent::AgeCells {
            cells: cells.to_vec(),
            wear_v_per_kiloact,
        });
        self
    }

    /// Appends a stuck-at injection for `cells`.
    pub fn stuck_at(mut self, cells: &[CellAddr], value: bool) -> Self {
        self.events.push(EnvEvent::StuckAt {
            cells: cells.to_vec(),
            value,
        });
        self
    }

    /// Appends a stuck-at release for `cells`.
    pub fn clear_stuck(mut self, cells: &[CellAddr]) -> Self {
        self.events.push(EnvEvent::ClearStuck {
            cells: cells.to_vec(),
        });
        self
    }

    /// Appends a raw event.
    pub fn push(mut self, event: EnvEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Deterministically selects ≈ `fraction` of `cells` using this
    /// schedule's seed: a cell is selected iff the unit draw hashed
    /// from its coordinates falls below `fraction`. Independent of the
    /// order of `cells`.
    pub fn select_fraction(&self, cells: &[CellAddr], fraction: f64) -> Vec<CellAddr> {
        select_fraction(self.seed, cells, fraction)
    }

    /// Total number of events in the schedule.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the next event to apply.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Whether every event has been applied.
    pub fn is_finished(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Applies the next event to `device` and refreshes aging wear from
    /// the device's activation counts. Returns the applied event, or
    /// `None` when the schedule is exhausted (wear is still refreshed,
    /// so aging keeps accruing on a finished schedule).
    ///
    /// # Errors
    ///
    /// Propagates addressing errors for out-of-geometry cells named in
    /// aging or stuck-at events.
    pub fn step(&mut self, device: &mut DramDevice) -> Result<Option<EnvEvent>> {
        let Some(event) = self.events.get(self.next).cloned() else {
            device.refresh_aging();
            return Ok(None);
        };
        self.next += 1;
        match &event {
            EnvEvent::Hold => {}
            EnvEvent::SetTemperature(t) => device.inject_temperature(*t),
            EnvEvent::ShiftTemperature(d) => {
                let t = device.temperature().plus(*d);
                device.inject_temperature(t);
            }
            EnvEvent::NoiseBias(bias) => device.set_margin_bias(*bias),
            EnvEvent::AgeCells {
                cells,
                wear_v_per_kiloact,
            } => {
                for &cell in cells {
                    device.age_cell(cell, *wear_v_per_kiloact)?;
                }
            }
            EnvEvent::StuckAt { cells, value } => {
                for &cell in cells {
                    device.set_stuck(cell, *value)?;
                }
            }
            EnvEvent::ClearStuck { cells } => {
                for &cell in cells {
                    device.clear_stuck(cell)?;
                }
            }
        }
        device.refresh_aging();
        Ok(Some(event))
    }

    /// Applies every remaining event.
    ///
    /// # Errors
    ///
    /// Propagates the first event-application error.
    pub fn run_to_end(&mut self, device: &mut DramDevice) -> Result<usize> {
        let mut applied = 0;
        while self.step(device)?.is_some() {
            applied += 1;
        }
        Ok(applied)
    }
}

/// Free-function form of [`EnvSchedule::select_fraction`] for callers
/// that have no schedule yet.
pub fn select_fraction(seed: u64, cells: &[CellAddr], fraction: f64) -> Vec<CellAddr> {
    const SALT: u64 = 0x00FA_175E_1EC7;
    cells
        .iter()
        .copied()
        .filter(|c| {
            let key = cell_key(
                seed,
                SALT,
                c.bank as u64,
                c.row as u64,
                c.col as u64,
                c.bit as u64,
            );
            unit_for_key(key) < fraction
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_pattern::DataPattern;
    use crate::device::DeviceConfig;
    use crate::manufacturer::Manufacturer;

    fn device() -> DramDevice {
        DramDevice::build(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(3)
                .with_noise_seed(4),
        )
    }

    #[test]
    fn ramp_expands_to_even_steps_and_reaches_target() {
        let mut d = device();
        let mut s = EnvSchedule::new(0).ramp(20.0, 8);
        assert_eq!(s.len(), 8);
        s.run_to_end(&mut d).unwrap();
        assert!((d.temperature().degrees() - 65.0).abs() < 1e-9);
        assert_eq!(d.fault_stats().temperature_events, 8);
    }

    #[test]
    fn noise_burst_sets_holds_and_clears() {
        let mut d = device();
        let mut s = EnvSchedule::new(0).noise_burst(-0.03, 3);
        assert_eq!(s.len(), 4, "onset + 2 holds + clear");
        s.step(&mut d).unwrap();
        assert_eq!(d.margin_bias_v(), -0.03);
        s.step(&mut d).unwrap();
        s.step(&mut d).unwrap();
        assert_eq!(d.margin_bias_v(), -0.03, "bias holds");
        s.step(&mut d).unwrap();
        assert_eq!(d.margin_bias_v(), 0.0, "burst cleared");
        assert!(s.is_finished());
        assert_eq!(d.fault_stats().noise_bias_events, 2);
    }

    #[test]
    fn exhausted_schedule_returns_none_but_refreshes_wear() {
        let mut d = device();
        let cell = CellAddr::new(0, 1, 0, 0);
        let mut s = EnvSchedule::new(0).age_cells(&[cell], 0.01);
        s.run_to_end(&mut d).unwrap();
        assert_eq!(d.cell_wear_v(cell), 0.0, "no activations yet");
        for _ in 0..2000 {
            d.activate(0, 1).unwrap();
            d.precharge(0).unwrap();
        }
        assert_eq!(d.cell_wear_v(cell), 0.0, "wear only moves at steps");
        assert!(s.step(&mut d).unwrap().is_none());
        assert!((d.cell_wear_v(cell) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn select_fraction_is_deterministic_and_order_independent() {
        let cells: Vec<CellAddr> = (0..400)
            .map(|i| CellAddr::new(i % 4, i / 4, i % 16, i % 64))
            .collect();
        let mut reversed = cells.clone();
        reversed.reverse();
        let a = select_fraction(9, &cells, 0.25);
        let mut b = select_fraction(9, &reversed, 0.25);
        b.reverse();
        assert_eq!(a, b, "selection is per-cell, not order-dependent");
        assert!(!a.is_empty() && a.len() < cells.len());
        let c = select_fraction(10, &cells, 0.25);
        assert_ne!(a, c, "different seed, different victims");
        assert!(select_fraction(9, &cells, 0.0).is_empty());
        assert_eq!(select_fraction(9, &cells, 1.0).len(), cells.len());
    }

    #[test]
    fn stuck_at_pins_reads_until_cleared() {
        let mut d = device();
        d.fill_bank(0, DataPattern::Solid0);
        let cell = CellAddr::new(0, 2, 3, 7);
        let mut s = EnvSchedule::new(0)
            .stuck_at(&[cell], true)
            .clear_stuck(&[cell]);
        s.step(&mut d).unwrap();
        d.activate(0, 2).unwrap();
        let got = d.read(0, 2, 3, 18.0).unwrap();
        d.precharge(0).unwrap();
        assert_eq!((got >> 7) & 1, 1, "stuck-high bit reads 1");
        assert!(d.fault_stats().stuck_read_overrides >= 1);
        s.step(&mut d).unwrap();
        d.activate(0, 2).unwrap();
        let got = d.read(0, 2, 3, 18.0).unwrap();
        d.precharge(0).unwrap();
        // Guard-band reads never touch the restore path, so the stored
        // array was untouched and the release is fully clean.
        assert_eq!((got >> 7) & 1, 0, "released cell reads stored data");
        assert_eq!(d.stuck_cell_count(), 0);
    }
}
