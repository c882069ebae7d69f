//! Section 7.3 — low system interference: D-RaNGe throughput from idle
//! DRAM bandwidth under SPEC CPU2006-like workloads.
//!
//! The paper measures the idle DRAM bandwidth left by each workload and
//! finds D-RaNGe can still deliver 83.1 Mb/s on average (min 49.1,
//! max 98.3) with no performance impact. Here each workload's idle
//! fraction scales the measured unconstrained single-channel
//! throughput.

use dram_sim::Manufacturer;
use drange_bench::{bar, fleet, mbps, pipeline, Scale};
use drange_core::throughput::catalog_throughput_bps;
use memctrl::workloads::{idle_stats, spec2006_suite};

fn main() {
    let scale = Scale::from_args();
    println!("== Section 7.3: TRNG throughput under SPEC-like load ==\n");

    // Unconstrained single-channel throughput (8 banks), averaged over
    // a few devices.
    let mut unconstrained = Vec::new();
    for config in fleet(Manufacturer::A, scale.pick(2, 6), 73) {
        let (_ctrl, catalog) = pipeline(config, 8, scale.pick(256, 1024), 30, 1000);
        unconstrained.push(catalog_throughput_bps(
            &catalog,
            dram_sim::TimingParams::lpddr4_3200(),
            10.0,
            8,
            8,
        ));
    }
    let base = unconstrained.iter().sum::<f64>() / unconstrained.len() as f64;
    println!("unconstrained single-channel throughput: {}\n", mbps(base));

    let suite = spec2006_suite();
    println!(
        "{:<12} {:>6} {:>10} {:>12}  ",
        "workload", "MPKI", "idle frac", "TRNG t'put"
    );
    let mut rates = Vec::new();
    for w in &suite {
        let rate = base * w.idle_fraction();
        rates.push(rate);
        println!(
            "{:<12} {:>6.1} {:>10.2} {:>12}  {}",
            w.name,
            w.mpki,
            w.idle_fraction(),
            mbps(rate),
            bar(w.idle_fraction(), 30)
        );
    }
    let stats = idle_stats(&suite);
    let avg = base * stats.mean;
    let min = base * stats.min;
    let max = base * stats.max;
    println!(
        "\naverage (min, max) TRNG throughput under load: {} ({}, {})",
        mbps(avg),
        mbps(min),
        mbps(max)
    );
    println!("paper: 83.1 (49.1, 98.3) Mb/s with no significant slowdown");
}
