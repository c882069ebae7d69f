//! The memory controller: binds the scheduler to a device, carries the
//! programmable timing registers, and records command traces.

use dram_sim::commands::CommandKind;
use dram_sim::{CommandTrace, DataPattern, DeviceConfig, DramDevice, DramError, WordAddr};
use drange_telemetry::{Counter, Gauge, MetricsRegistry};

use crate::error::{MemError, Result};
use crate::registers::TimingRegisters;
use crate::schedule::CommandScheduler;

/// Telemetry handles for one controller (one channel). All handles
/// default to no-ops; [`MemoryController::attach_telemetry`] swaps in
/// live ones.
#[derive(Debug, Clone, Default)]
struct ControllerTelemetry {
    act: Counter,
    rd: Counter,
    wr: Counter,
    pre: Counter,
    trcd_writes: Counter,
    trcd_ps: Gauge,
}

impl ControllerTelemetry {
    fn attach(registry: &MetricsRegistry, channel: &str) -> Self {
        let cmd = |kind: &str| {
            registry.counter(
                "memctrl_commands_total",
                &[("kind", kind), ("channel", channel)],
            )
        };
        ControllerTelemetry {
            act: cmd("act"),
            rd: cmd("rd"),
            wr: cmd("wr"),
            pre: cmd("pre"),
            trcd_writes: registry.counter("memctrl_trcd_writes_total", &[("channel", channel)]),
            trcd_ps: registry.gauge("memctrl_trcd_ps", &[("channel", channel)]),
        }
    }
}

/// A single-channel memory controller driving one [`DramDevice`].
///
/// Data-path operations go through the command protocol: the scheduler
/// stamps each command at its earliest legal time (accounting
/// wall-clock cycles) and the device executes its data/failure
/// semantics. The controller optionally records every issued command
/// into a [`CommandTrace`] for energy analysis.
///
/// The one exception is [`MemoryController::induce`], the batched
/// characterization read: its commands reach the device and the
/// per-kind command counters, but the scheduler does not stamp them,
/// so [`MemoryController::now_ps`] does not advance and the trace does
/// not record them.
#[derive(Debug)]
pub struct MemoryController {
    device: DramDevice,
    registers: TimingRegisters,
    scheduler: CommandScheduler,
    trace: CommandTrace,
    recording: bool,
    telemetry: ControllerTelemetry,
}

impl MemoryController {
    /// Wraps an existing device.
    pub fn new(device: DramDevice) -> Self {
        let registers = TimingRegisters::new(device.timing());
        let mut scheduler = CommandScheduler::new(device.geometry().banks, registers.effective());
        scheduler.set_overhead_ps(registers.cmd_overhead_ps());
        MemoryController {
            device,
            registers,
            scheduler,
            trace: CommandTrace::new(),
            recording: false,
            telemetry: ControllerTelemetry::default(),
        }
    }

    /// Registers this controller's metrics (per-kind command counts,
    /// tRCD timing-register writes, current tRCD) in `registry`,
    /// labeled by `channel`. Without this call all instrumentation is
    /// no-op.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry, channel: &str) {
        self.telemetry = ControllerTelemetry::attach(registry, channel);
        self.telemetry.trcd_ps.set(self.registers.trcd_ps());
    }

    /// Builds the device from a configuration and wraps it.
    pub fn from_config(config: DeviceConfig) -> Self {
        MemoryController::new(DramDevice::build(config))
    }

    /// The device behind this controller.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the device (temperature control, direct fills).
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// The controller's timing registers.
    pub fn registers(&self) -> &TimingRegisters {
        &self.registers
    }

    /// Programs a (possibly spec-violating) `tRCD`.
    ///
    /// # Panics
    ///
    /// Panics if `trcd_ns` is not a positive finite duration; use
    /// [`TimingRegisters::set_trcd_ns`] through
    /// [`MemoryController::try_set_trcd_ns`] for fallible programming.
    pub fn set_trcd_ns(&mut self, trcd_ns: f64) {
        // xtask:allow(no-panic) -- documented panicking convenience; try_set_trcd_ns is the fallible form
        self.try_set_trcd_ns(trcd_ns).expect("valid tRCD");
    }

    /// Fallible version of [`MemoryController::set_trcd_ns`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::MemError::InvalidRegister`] for non-positive or
    /// non-finite values.
    pub fn try_set_trcd_ns(&mut self, trcd_ns: f64) -> Result<()> {
        self.registers.set_trcd_ns(trcd_ns)?;
        self.scheduler.set_timing(self.registers.effective());
        self.device.notify_timing_change(self.registers.trcd_ns());
        self.telemetry.trcd_writes.inc();
        self.telemetry.trcd_ps.set(self.registers.trcd_ps());
        Ok(())
    }

    /// Restores the datasheet `tRCD`.
    pub fn reset_trcd(&mut self) {
        self.registers.reset_trcd();
        self.scheduler.set_timing(self.registers.effective());
        self.device.notify_timing_change(self.registers.trcd_ns());
        self.telemetry.trcd_writes.inc();
        self.telemetry.trcd_ps.set(self.registers.trcd_ps());
    }

    /// The currently programmed `tRCD` in ns.
    pub fn trcd_ns(&self) -> f64 {
        self.registers.trcd_ns()
    }

    /// Sets the firmware per-command overhead.
    pub fn set_cmd_overhead_ps(&mut self, ps: u64) {
        self.registers.set_cmd_overhead_ps(ps);
        self.scheduler.set_overhead_ps(ps);
    }

    /// Current scheduler time, ps.
    pub fn now_ps(&self) -> u64 {
        self.scheduler.now_ps()
    }

    /// Advances time without commands (host delay / refresh pause).
    pub fn advance_ps(&mut self, ps: u64) {
        self.scheduler.advance(ps);
    }

    /// Starts recording issued commands.
    pub fn start_recording(&mut self) {
        self.recording = true;
        self.trace.clear();
    }

    /// Stops recording and returns the captured trace.
    pub fn stop_recording(&mut self) -> CommandTrace {
        self.recording = false;
        std::mem::take(&mut self.trace)
    }

    /// The scheduler (analysis access).
    pub fn scheduler(&self) -> &CommandScheduler {
        &self.scheduler
    }

    // ------------------------------------------------------------------
    // Command primitives. Each one runs the device's checks before the
    // scheduler stamps the command, so a rejected command leaves the
    // bank state, the clock and the trace as they were.
    // ------------------------------------------------------------------

    /// ACT: opens `row` in `bank`.
    ///
    /// # Errors
    ///
    /// Scheduling errors for illegal sequences; device errors for
    /// addressing problems.
    pub fn act(&mut self, bank: usize, row: usize) -> Result<()> {
        self.device.check_addr(bank, row, 0)?;
        let cmd = self.scheduler.issue(CommandKind::Act, bank, row, 0)?;
        self.device.activate(bank, row)?;
        self.telemetry.act.inc();
        if self.recording {
            self.trace.push(cmd);
        }
        Ok(())
    }

    /// RD: reads one word from the open row of `bank`, with the failure
    /// path driven by the *currently programmed* `tRCD`.
    ///
    /// # Errors
    ///
    /// Scheduling errors for illegal sequences; device errors for
    /// addressing/row mismatches.
    pub fn rd(&mut self, bank: usize, row: usize, col: usize) -> Result<u64> {
        self.check_column(bank, row, col)?;
        let cmd = self.scheduler.issue(CommandKind::Rd, bank, row, col)?;
        let word = self.device.read(bank, row, col, self.registers.trcd_ns())?;
        self.telemetry.rd.inc();
        if self.recording {
            self.trace.push(cmd);
        }
        Ok(word)
    }

    /// WR: writes one word into the open row of `bank`.
    ///
    /// # Errors
    ///
    /// Scheduling errors for illegal sequences; device errors for
    /// addressing/row mismatches.
    pub fn wr(&mut self, bank: usize, row: usize, col: usize, value: u64) -> Result<()> {
        self.check_column(bank, row, col)?;
        let cmd = self.scheduler.issue(CommandKind::Wr, bank, row, col)?;
        self.device.write(bank, row, col, value)?;
        self.telemetry.wr.inc();
        if self.recording {
            self.trace.push(cmd);
        }
        Ok(())
    }

    /// The device's checks of a RD/WR that the scheduler does not make:
    /// the address, and that `row` is the row open in `bank`. (The
    /// scheduler itself rejects a column command to a closed bank.)
    fn check_column(&self, bank: usize, row: usize, col: usize) -> Result<()> {
        self.device.check_addr(bank, row, col)?;
        match self.device.open_row(bank) {
            Some(open_row) if open_row != row => Err(DramError::WrongOpenRow {
                bank,
                requested: row,
                open_row,
            }
            .into()),
            _ => Ok(()),
        }
    }

    /// PRE: closes the open row of `bank`.
    ///
    /// # Errors
    ///
    /// Scheduling errors for illegal sequences (the scheduler also
    /// rejects an out-of-range bank, before it stamps anything).
    pub fn pre(&mut self, bank: usize) -> Result<()> {
        let cmd = self.scheduler.issue(CommandKind::Pre, bank, 0, 0)?;
        self.device.precharge(bank)?;
        self.telemetry.pre.inc();
        if self.recording {
            self.trace.push(cmd);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Convenience sequences used by the D-RaNGe algorithms.
    // ------------------------------------------------------------------

    /// Algorithm 1's inner sequence (lines 6-10), batched for
    /// profiling, identification and re-characterization: `rounds`
    /// times over `words` in order, refresh the word's row (ACT + PRE),
    /// ACT, RD at the programmed `tRCD`, WR `pattern`'s word back when
    /// the read failed, then PRE. `on_read(i, mask)` receives each read
    /// of `words[i]` as its failure mask (sensed XOR `pattern`'s word).
    ///
    /// The device sees exactly the per-command sequence (see
    /// [`DramDevice::induce`]) and the per-kind command counters
    /// advance by what it issued, but the scheduler does not stamp the
    /// batch: [`MemoryController::now_ps`] and the command trace stay
    /// where they were.
    ///
    /// # Errors
    ///
    /// [`MemError::IllegalCommand`] when a word's bank has an open row,
    /// device errors for out-of-range words. On error nothing is issued,
    /// read or drawn.
    pub fn induce<F: FnMut(usize, u64)>(
        &mut self,
        words: &[WordAddr],
        pattern: DataPattern,
        rounds: usize,
        on_read: F,
    ) -> Result<()> {
        if let Some(w) = words.iter().find(|w| self.scheduler.is_open(w.bank)) {
            return Err(MemError::IllegalCommand {
                reason: format!("ACT to open bank {}", w.bank),
            });
        }
        let trcd_ns = self.registers.trcd_ns();
        let writes = self
            .device
            .induce(words, pattern, trcd_ns, rounds, on_read)?;
        let reads = (words.len() * rounds) as u64;
        self.telemetry.act.add(2 * reads);
        self.telemetry.rd.add(reads);
        self.telemetry.wr.add(writes);
        self.telemetry.pre.add(2 * reads);
        Ok(())
    }

    /// ACT + RD + PRE: one fresh-activation read of a word, returning
    /// the (possibly failing) sensed value.
    ///
    /// # Errors
    ///
    /// Propagates command errors.
    pub fn read_fresh(&mut self, bank: usize, row: usize, col: usize) -> Result<u64> {
        self.act(bank, row)?;
        let word = self.rd(bank, row, col)?;
        self.pre(bank)?;
        Ok(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{DataPattern, Manufacturer, WordAddr};

    fn ctrl() -> MemoryController {
        MemoryController::from_config(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(21)
                .with_noise_seed(22),
        )
    }

    #[test]
    fn spec_timing_round_trip() {
        let mut c = ctrl();
        c.act(0, 9).unwrap();
        c.wr(0, 9, 4, 0xDEAD_BEEF).unwrap();
        c.pre(0).unwrap();
        let got = c.read_fresh(0, 9, 4).unwrap();
        assert_eq!(got, 0xDEAD_BEEF);
    }

    #[test]
    fn reduced_trcd_induces_failures_via_controller() {
        let mut c = ctrl();
        c.device_mut().fill_bank(0, DataPattern::Solid0);
        c.set_trcd_ns(10.0);
        let words: Vec<WordAddr> = (0..1024)
            .flat_map(|row| (0..16).map(move |col| WordAddr::new(0, row, col)))
            .collect();
        let mut failures = 0u64;
        c.induce(&words, DataPattern::Solid0, 1, |_, mask| {
            failures += u64::from(mask.count_ones());
        })
        .unwrap();
        assert!(failures > 0);
        for w in words {
            assert_eq!(c.device().peek(w).unwrap(), 0, "failed reads restored");
        }
        c.reset_trcd();
        assert_eq!(c.trcd_ns(), 18.0);
    }

    #[test]
    fn induce_counts_commands_without_stamping() {
        let registry = MetricsRegistry::new();
        let mut c = ctrl();
        c.attach_telemetry(&registry, "0");
        c.device_mut().fill_bank(0, DataPattern::Solid0);
        c.set_trcd_ns(10.0);
        let t0 = c.now_ps();
        c.start_recording();
        let words: Vec<WordAddr> = (0..64).map(|row| WordAddr::new(0, row, 0)).collect();
        let mut failed_reads = 0u64;
        c.induce(&words, DataPattern::Solid0, 3, |_, mask| {
            failed_reads += u64::from(mask != 0);
        })
        .unwrap();
        assert_eq!(c.now_ps(), t0, "the batch is not stamped");
        assert_eq!(c.stop_recording().len(), 0, "nor traced");
        assert_eq!(c.device().activation_count(0, 5), 6, "two ACTs per read");
        let text = registry.render_prometheus();
        for (kind, n) in [
            ("act", 384),
            ("rd", 192),
            ("wr", failed_reads),
            ("pre", 384),
        ] {
            let line = format!("memctrl_commands_total{{channel=\"0\",kind=\"{kind}\"}} {n}\n");
            assert!(text.contains(&line), "{line} in {text}");
        }
    }

    #[test]
    fn rejected_commands_leave_the_scheduler_untouched() {
        let device_err = |r: Result<()>| match r {
            Err(MemError::Device(e)) => e,
            other => panic!("expected a device error, got {other:?}"),
        };
        let mut c = ctrl();
        c.start_recording();
        let t0 = c.now_ps();
        assert!(matches!(
            device_err(c.act(0, 999_999)),
            DramError::RowOutOfRange { .. }
        ));
        assert!(!c.scheduler().is_open(0), "a refused ACT opens nothing");
        assert_eq!(c.now_ps(), t0, "nor moves the clock");
        c.act(0, 1).unwrap();
        let t1 = c.now_ps();
        assert!(matches!(
            device_err(c.rd(0, 1, 999_999).map(drop)),
            DramError::ColOutOfRange { .. }
        ));
        assert!(matches!(
            device_err(c.wr(0, 1, 999_999, 0)),
            DramError::ColOutOfRange { .. }
        ));
        assert!(matches!(
            device_err(c.rd(0, 2, 0).map(drop)),
            DramError::WrongOpenRow { .. }
        ));
        assert!(matches!(
            device_err(c.wr(0, 2, 0, 0)),
            DramError::WrongOpenRow { .. }
        ));
        assert!(matches!(c.pre(99), Err(MemError::IllegalCommand { .. })));
        assert_eq!(c.now_ps(), t1);
        assert!(c.scheduler().is_open(0));
        c.rd(0, 1, 0).unwrap();
        c.pre(0).unwrap();
        let trace = c.stop_recording();
        assert_eq!(trace.len(), 3, "only the accepted ACT, RD and PRE");
        assert!(trace.is_time_ordered());
    }

    #[test]
    fn scheduler_time_advances_with_commands() {
        let mut c = ctrl();
        let t0 = c.now_ps();
        c.read_fresh(0, 0, 0).unwrap();
        let t1 = c.now_ps();
        assert!(t1 > t0 + c.registers().datasheet().tras_ps);
    }

    #[test]
    fn recording_captures_all_commands() {
        let mut c = ctrl();
        c.start_recording();
        c.read_fresh(0, 3, 1).unwrap();
        c.act(0, 5).unwrap();
        c.pre(0).unwrap();
        let trace = c.stop_recording();
        assert_eq!(trace.count(CommandKind::Act), 2);
        assert_eq!(trace.count(CommandKind::Rd), 1);
        assert_eq!(trace.count(CommandKind::Pre), 2);
        assert!(trace.is_time_ordered());
        // Recording stopped: further commands are not captured.
        c.read_fresh(0, 3, 1).unwrap();
        assert_eq!(c.stop_recording().len(), 0);
    }

    #[test]
    fn try_set_trcd_rejects_garbage() {
        let mut c = ctrl();
        assert!(c.try_set_trcd_ns(-1.0).is_err());
        assert!(c.try_set_trcd_ns(f64::INFINITY).is_err());
        assert_eq!(c.trcd_ns(), 18.0);
    }

    #[test]
    fn telemetry_counts_commands_and_trcd_writes() {
        let registry = MetricsRegistry::new();
        let mut c = ctrl();
        c.attach_telemetry(&registry, "0");
        c.set_trcd_ns(10.0);
        c.act(0, 3).unwrap();
        c.pre(0).unwrap();
        let _ = c.read_fresh(0, 3, 1).unwrap(); // ACT + RD + PRE
        c.wr(0, 0, 0, 0).unwrap_err(); // no open row: must NOT count
        c.reset_trcd();
        let text = registry.render_prometheus();
        assert!(
            text.contains("memctrl_commands_total{channel=\"0\",kind=\"act\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("memctrl_commands_total{channel=\"0\",kind=\"rd\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("memctrl_commands_total{channel=\"0\",kind=\"pre\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("memctrl_commands_total{channel=\"0\",kind=\"wr\"} 0"),
            "failed commands are not counted: {text}"
        );
        assert!(
            text.contains("memctrl_trcd_writes_total{channel=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("memctrl_trcd_ps{channel=\"0\"} 18000"),
            "{text}"
        );
    }

    #[test]
    fn telemetry_defaults_to_noop() {
        let mut c = ctrl();
        c.set_trcd_ns(12.0);
        let _ = c.read_fresh(0, 0, 0).unwrap();
        assert!(!c.telemetry.act.is_live());
    }

    #[test]
    fn advance_ps_moves_time() {
        let mut c = ctrl();
        let t0 = c.now_ps();
        c.advance_ps(1_000_000_000);
        assert_eq!(c.now_ps(), t0 + 1_000_000_000);
    }
}
