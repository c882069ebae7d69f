//! # drange-bench — benchmark harness for the D-RaNGe paper
//!
//! One runnable binary per table and figure of the paper's evaluation:
//!
//! | Target (`cargo run -p drange-bench --release --bin <name>`) | Reproduces |
//! |---|---|
//! | `fig4_spatial` | Figure 4 — spatial distribution of activation failures |
//! | `fig5_dpd` | Figure 5 — data-pattern dependence coverage |
//! | `fig6_temperature` | Figure 6 — F_prob vs temperature scatter |
//! | `sec54_time_stability` | Section 5.4 — F_prob stability over rounds |
//! | `table1_nist` | Table 1 — NIST SP 800-22 results + min entropy |
//! | `fig7_density` | Figure 7 — RNG cells per word per bank |
//! | `fig8_throughput` | Figure 8 — throughput vs bank count |
//! | `table2_comparison` | Table 2 — D-RaNGe vs prior DRAM TRNGs |
//! | `sec73_latency` | Section 7.3 — 64-bit latency scenarios |
//! | `sec73_interference` | Section 7.3 — idle-bandwidth throughput under SPEC |
//! | `sec73_energy` | Section 7.3 — nJ/bit energy accounting |
//! | `trcd_sweep` | Section 7.3 — failure-inducing tRCD range |
//! | `ddr3_validation` | Section 4 — DDR3 cross-validation |
//! | `ablation_postprocess` | Section 2.2 — von Neumann throughput cost |
//! | `duty_cycle` | Section 7.3 — sampling-window vs demand-latency trade-off |
//! | `calibration` | per-chip sampling-tRCD calibration curves |
//! | `engine_scaling` | Sections 6.2/7.3 — multi-channel engine throughput sweep (1–8 workers) |
//! | `telemetry_overhead` | no-op-handle cost check: bare vs noop vs live instrumentation |
//! | `diehard_battery` | DIEHARD-style battery on D-RaNGe output |
//!
//! Every binary accepts `--full` for paper-scale runs and defaults to a
//! quick configuration that completes in seconds. This library hosts
//! the shared fixtures (device fleets, pipeline steps, box-plot
//! statistics, ASCII rendering).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::{bench_report_path, BenchReport};

use dram_sim::{DeviceConfig, Manufacturer};
use drange_core::{IdentifySpec, ProfileSpec, Profiler, RngCellCatalog};
use memctrl::MemoryController;

/// Run scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast defaults (seconds).
    Quick,
    /// Paper-scale parameters (minutes).
    Full,
}

impl Scale {
    /// Parses `--full` from the process arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Chooses between the quick and full value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Deterministic device configurations for a simulated fleet of chips
/// from one manufacturer.
pub fn fleet(manufacturer: Manufacturer, n: usize, base_seed: u64) -> Vec<DeviceConfig> {
    (0..n)
        .map(|i| {
            DeviceConfig::new(manufacturer)
                .with_seed(base_seed.wrapping_add(1 + i as u64 * 0x9E37))
                .with_noise_seed(base_seed.wrapping_add(0xD1CE + i as u64))
        })
        .collect()
}

/// Profile-then-identify pipeline with bench-friendly parameters.
///
/// Returns the controller (for further use) and the catalog.
///
/// # Panics
///
/// Panics on pipeline errors (bench fixtures are infallible by
/// construction).
pub fn pipeline(
    config: DeviceConfig,
    banks: usize,
    rows: usize,
    profile_iters: usize,
    identify_reads: usize,
) -> (MemoryController, RngCellCatalog) {
    let mut ctrl = MemoryController::from_config(config);
    let cols = ctrl.device().geometry().cols;
    let profile = Profiler::new(&mut ctrl)
        .run(
            ProfileSpec {
                banks: (0..banks).collect(),
                rows: 0..rows,
                cols: 0..cols,
                ..ProfileSpec::default()
            }
            .with_iterations(profile_iters),
        )
        // xtask:allow(no-panic) -- bench harness setup over a deterministic simulated device
        .expect("profiling succeeds");
    let catalog = RngCellCatalog::identify(
        &mut ctrl,
        &profile,
        IdentifySpec {
            reads: identify_reads,
            ..IdentifySpec::default()
        },
    )
    // xtask:allow(no-panic) -- bench harness setup over a deterministic simulated device
    .expect("identification succeeds");
    (ctrl, catalog)
}

/// Five-number summary for box-and-whiskers reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes the five-number summary of a sample.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn box_stats(values: &[f64]) -> BoxStats {
    assert!(!values.is_empty(), "box_stats needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
        }
    };
    BoxStats {
        min: v[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: v[v.len() - 1],
    }
}

impl std::fmt::Display for BoxStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:.3} | q1 {:.3} | med {:.3} | q3 {:.3} | max {:.3}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// Renders a unit-interval value as a fixed-width ASCII bar.
pub fn bar(value: f64, width: usize) -> String {
    let filled = ((value.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Formats bits/s as Mb/s with two decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2} Mb/s", bps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn fleet_has_distinct_seeds() {
        let f = fleet(Manufacturer::A, 5, 100);
        let seeds: std::collections::HashSet<u64> = f.iter().map(|c| c.seed()).collect();
        assert_eq!(seeds.len(), 5);
        assert!(f.iter().all(|c| c.manufacturer() == Manufacturer::A));
    }

    #[test]
    fn box_stats_of_known_sample() {
        let s = box_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn box_stats_single_value() {
        let s = box_stats(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn bar_renders_clamped() {
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 3), "###");
        assert_eq!(bar(-1.0, 3), "...");
    }

    #[test]
    fn pipeline_produces_catalog() {
        let (ctrl, catalog) = pipeline(
            DeviceConfig::new(Manufacturer::A)
                .with_seed(9)
                .with_noise_seed(10),
            2,
            128,
            20,
            1000,
        );
        assert_eq!(ctrl.trcd_ns(), 18.0);
        // A 2-bank, 128-row region generally contains RNG cells; allow
        // emptiness but require the call to succeed structurally.
        let _ = catalog.len();
    }
}
