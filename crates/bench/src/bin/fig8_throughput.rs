//! Figure 8 — TRNG throughput versus number of banks used.
//!
//! Two parts:
//!
//! 1. **Analytic** (the paper's figure): Equation (1) per-bank data
//!    rates from each catalog's two best words and the Algorithm 2
//!    core-loop runtime from the command scheduler. Expected shape:
//!    throughput grows linearly with bank count; at 8 banks every
//!    device clears tens of Mb/s; the 4-channel projection reaches the
//!    paper's headline scale.
//! 2. **Measured**: wall-clock harvested-bits/s of the real `DRange`
//!    sampling loop over the simulated device, with the sensing cache
//!    off (the pre-cache slow path) and on (the memoizing fast path).
//!    Both numbers, the speedup, per-READ costs, and the steady-state
//!    cache hit rate are written to `BENCH_harvest.json` under the
//!    `fig8_throughput` section so CI can track the baseline.

use dram_sim::{Celsius, DeviceConfig, Manufacturer, TimingParams};
use drange_bench::{bench_report_path, box_stats, fleet, mbps, pipeline, BenchReport, Scale};
use drange_core::throughput::{catalog_throughput_bps, scale_to_channels};
use drange_core::{DRange, DRangeConfig};
use std::time::Instant;

/// Timed measurement windows per run. The steady-state loop is
/// deterministic (same passes, same plan, same reads per window), so
/// the *fastest* window is the one least perturbed by scheduler noise
/// — the headline ns/READ and bits/s come from it, the way
/// micro-benchmarks take a best-of-N. The full-run totals are kept for
/// the harvested-bits record.
const WINDOWS: usize = 8;

/// One measured sampling run: steady-state wall time (total and
/// best-window), harvested bits, and the sensing-cache counter deltas
/// over the timed windows.
struct Measured {
    bits: u64,
    wall_ns: f64,
    /// Wall time of the fastest of the [`WINDOWS`] equal-pass windows.
    best_window_ns: f64,
    sensed_reads: u64,
    cache_hits: u64,
    /// Cumulative fraction of bulk-resolved cells that ran in full
    /// vector lanes (includes the warm-up resolves — steady state
    /// re-resolves only on environmental change).
    lane_utilization: f64,
}

fn measure(scale: Scale, fast_path: bool) -> Measured {
    let banks = scale.pick(4, 8);
    let rows = scale.pick(128, 256);
    let profile_iters = scale.pick(20, 40);
    let warmup = scale.pick(8, 64);
    let passes = scale.pick(200, 2000);
    let passes_per_window = (passes / WINDOWS).max(1);

    let config = DeviceConfig::new(Manufacturer::A)
        .with_seed(0xF18)
        .with_noise_seed(0xF19);
    let (mut ctrl, catalog) = pipeline(config, banks, rows, profile_iters, 1000);
    ctrl.device_mut().set_sense_fast_path(fast_path);
    let mut drange =
        DRange::new(ctrl, &catalog, DRangeConfig::default()).expect("catalog yields a plan");

    for _ in 0..warmup {
        drange.harvest_block().expect("warmup pass");
    }
    // Nudge the operating temperature and absorb the forced re-resolve
    // in one more (untimed) warm-up pass. Steady state never
    // re-resolves — the identify phase already memoized every plan
    // word — so without an environmental change the bulk SoA kernel
    // would never run and the `simd` lane counters would sit at zero.
    // Both the slow and fast run get the identical nudge, so their
    // output streams stay bit-identical.
    let t = drange.controller_mut().device_mut().temperature();
    drange
        .controller_mut()
        .device_mut()
        .set_temperature(Celsius(t.degrees() + 0.1));
    drange.harvest_block().expect("re-resolve warmup pass");
    let cache0 = drange.sense_cache_stats();
    let mut bits = 0u64;
    let mut wall_ns = 0.0f64;
    let mut best_window_ns = f64::INFINITY;
    for _ in 0..WINDOWS {
        let t0 = Instant::now();
        for _ in 0..passes_per_window {
            bits += drange.harvest_block().expect("sampling pass").len() as u64;
        }
        let window_ns = t0.elapsed().as_nanos() as f64;
        wall_ns += window_ns;
        best_window_ns = best_window_ns.min(window_ns);
    }
    let cache1 = drange.sense_cache_stats();
    Measured {
        bits,
        wall_ns,
        best_window_ns,
        sensed_reads: cache1.sensed_reads() - cache0.sensed_reads(),
        cache_hits: (cache1.skip_word_reads + cache1.hit_reads)
            - (cache0.skip_word_reads + cache0.hit_reads),
        lane_utilization: cache1.lane_utilization(),
    }
}

fn main() {
    let scale = Scale::from_args();
    let devices_per_mfr = scale.pick(2, 8);
    let rows = scale.pick(256, 1024);
    println!("== Figure 8: TRNG throughput vs banks used ==");
    println!(
        "{} devices per manufacturer, Equation (1) over scheduler runtime\n",
        devices_per_mfr
    );

    let timing = TimingParams::lpddr4_3200();
    let mut device_max_1ch: Vec<f64> = Vec::new();
    let mut device_avg_1ch: Vec<f64> = Vec::new();
    for m in Manufacturer::ALL {
        println!("manufacturer {m}:");
        let mut per_banks: Vec<Vec<f64>> = vec![Vec::new(); 9];
        for config in fleet(m, devices_per_mfr, 800 + m as u64 * 77) {
            let (_ctrl, catalog) = pipeline(config, 8, rows, 30, 1000);
            for (banks, acc) in per_banks.iter_mut().enumerate().skip(1) {
                acc.push(catalog_throughput_bps(&catalog, timing, 10.0, 8, banks));
            }
        }
        for (banks, vals) in per_banks.iter().enumerate().skip(1) {
            let s = box_stats(vals);
            println!(
                "  {banks} bank(s): median {:>10} (min {:>10}, max {:>10})",
                mbps(s.median),
                mbps(s.min),
                mbps(s.max)
            );
        }
        device_max_1ch.extend(per_banks[8].iter().copied());
        device_avg_1ch.extend(per_banks[8].iter().copied());
        println!();
    }

    let max_1ch = device_max_1ch.iter().copied().fold(0.0f64, f64::max);
    let avg_1ch = device_avg_1ch.iter().sum::<f64>() / device_avg_1ch.len().max(1) as f64;
    println!(
        "single-channel, 8 banks: max {}, average {}",
        mbps(max_1ch),
        mbps(avg_1ch)
    );
    println!(
        "4-channel projection:     max {}, average {}",
        mbps(scale_to_channels(max_1ch, 4)),
        mbps(scale_to_channels(avg_1ch, 4))
    );
    println!("\npaper: linear scaling with banks; >= 40 Mb/s at 8 banks per device;");
    println!("4-channel max (avg) 717.4 (435.7) Mb/s");

    // -- Part 2: measured simulator harvest, slow path vs sensing cache.
    println!("\n== Measured harvest: sensing cache off vs on ==");
    let slow = measure(scale, false);
    let fast = measure(scale, true);

    // Both runs execute the identical command schedule (same seed, same
    // catalog, same plan — the correctness contract makes their output
    // streams bit-identical), so the fast run's sensed-READ count also
    // counts the slow run's sensing READs; the slow path just never
    // consults the cache.
    let reads = fast.sensed_reads.max(1);
    // Headline rates come from each run's fastest window (least
    // scheduler perturbation); passes — and so reads and bits — are
    // spread uniformly across the windows.
    let window_reads = (reads as f64 / WINDOWS as f64).max(1.0);
    let window_bits = |bits: u64| bits as f64 / WINDOWS as f64;
    let slow_bps = window_bits(slow.bits) / (slow.best_window_ns / 1e9);
    let fast_bps = window_bits(fast.bits) / (fast.best_window_ns / 1e9);
    let slow_ns_per_read = slow.best_window_ns / window_reads;
    let fast_ns_per_read = fast.best_window_ns / window_reads;
    let speedup = fast_bps / slow_bps;
    let hit_rate = fast.cache_hits as f64 / reads as f64;

    println!("harvested {} bits per configuration", fast.bits);
    println!(
        "  slow path (cache off): {:>12}  ({:>8.1} ns/READ)",
        mbps(slow_bps),
        slow_ns_per_read
    );
    println!(
        "  fast path (cache on):  {:>12}  ({:>8.1} ns/READ)",
        mbps(fast_bps),
        fast_ns_per_read
    );
    println!(
        "  speedup {speedup:.2}x, steady-state cache hit rate {:.4}",
        hit_rate
    );
    println!(
        "  (best of {WINDOWS} windows; full-run averages: slow {}, fast {})",
        mbps(slow.bits as f64 / (slow.wall_ns / 1e9)),
        mbps(fast.bits as f64 / (fast.wall_ns / 1e9)),
    );
    println!(
        "  vector-lane utilization of the bulk resolve: {:.4}",
        fast.lane_utilization
    );
    assert_eq!(
        slow.bits, fast.bits,
        "equivalence contract: both paths harvest the same bit count"
    );

    let mut report = BenchReport::new();
    // Sole author of its section; `simd` stays shared (key-merged)
    // with engine_scaling.
    report.own_section("fig8_throughput");
    report.set("fig8_throughput", "bits_per_sec", fast_bps);
    report.set("fig8_throughput", "ns_per_read", fast_ns_per_read);
    report.set("fig8_throughput", "cache_hit_rate", hit_rate);
    report.set("fig8_throughput", "slow_bits_per_sec", slow_bps);
    report.set("fig8_throughput", "fast_bits_per_sec", fast_bps);
    report.set("fig8_throughput", "slow_ns_per_read", slow_ns_per_read);
    report.set("fig8_throughput", "fast_ns_per_read", fast_ns_per_read);
    report.set("fig8_throughput", "speedup", speedup);
    report.set("fig8_throughput", "harvested_bits", fast.bits as f64);
    // SIMD resolve section: the scalar path (cache off) against the
    // vectorized SoA fast path, plus how much of the bulk math ran in
    // full four-wide lanes.
    report.set("simd", "scalar_ns_per_read", slow_ns_per_read);
    report.set("simd", "vector_ns_per_read", fast_ns_per_read);
    report.set("simd", "speedup", speedup);
    report.set("simd", "lane_utilization", fast.lane_utilization);
    let path = bench_report_path();
    // A read-only checkout or a corrupted report file must not wedge
    // the bench after the measurements already ran: report and move on.
    match report.update_file(&path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
