//! Engine scaling — channel-level parallelism of the concurrent
//! harvesting engine (Sections 6.2 and 7.3: throughput scales with the
//! number of independent channels, Equation (1) via
//! `throughput::scale_to_channels`).
//!
//! Sweeps the worker count from 1 to 12 (one worker = one simulated
//! channel with its own memory controller and `DRange`) and reports the
//! observed bits/s: the aggregate *device-time* throughput (the sum of
//! the per-channel harvest rates, which is what the paper's channel
//! scaling claims and which is N× the one-channel rate by construction)
//! and the wall-clock throughput the engine actually delivers on this
//! host. The speedup column is the wall figure over the one-worker
//! wall figure, so it moves when the engine does.
//!
//! Each configuration harvests at least [`MIN_MEASURED_BITS`] after an
//! untimed warm-up draw: the warm-up absorbs thread spawn, first-pass
//! catalog planning, and the initial bulk resolve, and the floor keeps
//! the per-worker rates out of the noise (an earlier revision measured
//! only ~33 k bits per configuration, so single-channel rates swung
//! with scheduler jitter).
//!
//! ```sh
//! cargo run -p drange-bench --release --bin engine_scaling [--full]
//! ```

use dram_sim::{DeviceConfig, Manufacturer};
use drange_bench::{bench_report_path, mbps, pipeline, BenchReport, Scale};
use drange_core::telemetry::{fmt_ns, MetricValue, MetricsRegistry};
use drange_core::{channel_sources, DRangeConfig, EngineConfig, HarvestEngine};

/// Minimum screened bits measured per worker configuration. Below
/// this the per-channel device-time rates are dominated by start-up
/// transients (the bench used to record ~33 k bits and the 1-worker
/// baseline jittered by tens of percent between runs).
const MIN_MEASURED_BITS: usize = 100_000;

/// Untimed bits drawn after spawn, before the measured window: absorbs
/// thread start-up, catalog planning, and the first bulk resolve.
const WARMUP_BITS: usize = 8_192;

fn main() {
    let scale = Scale::from_args();
    let banks = scale.pick(4, 8);
    let rows = scale.pick(128, 256);
    let profile_iters = scale.pick(20, 40);
    let take_bits = scale.pick(1 << 15, 1 << 18).max(MIN_MEASURED_BITS);

    let base = DeviceConfig::new(Manufacturer::A)
        .with_seed(0xE21)
        .with_noise_seed(0xFA11);
    println!("profiling + identification ({banks} banks, {rows} rows)...");
    let (_, catalog) = pipeline(base.clone(), banks, rows, profile_iters, 1000);
    println!("catalog: {} RNG cells\n", catalog.len());

    println!(
        "harvest of {take_bits} screened bits per configuration \
         (after a {WARMUP_BITS}-bit warm-up):\n"
    );
    println!("workers | harvested bits | device throughput | wall throughput | speedup");
    println!("--------|----------------|-------------------|-----------------|--------");
    let mut single_worker_wall_bps = 0.0f64;
    let mut report = BenchReport::new();
    // Sole author of its section (the worker sweep grid changes over
    // time; ownership drops a stale grid's keys). `simd` stays shared
    // (key-merged) with fig8_throughput.
    report.own_section("engine_scaling");
    let widest = 12usize;
    for workers in [1usize, 2, 4, 8, widest] {
        let sources = channel_sources(&base, &catalog, &DRangeConfig::default(), workers)
            .expect("channel sources");
        let engine = HarvestEngine::spawn(sources, EngineConfig::default(), None).expect("engine");
        // Warm-up (untimed): thread spawn, first-pass planning, and the
        // initial bulk resolve must not land in the measured window.
        let mut remaining = WARMUP_BITS;
        while remaining > 0 {
            let chunk = remaining.min(4096);
            engine.take_bits(chunk).expect("warm-up bits");
            remaining -= chunk;
        }
        let t0 = std::time::Instant::now();
        let mut remaining = take_bits;
        while remaining > 0 {
            let chunk = remaining.min(4096);
            engine.take_bits(chunk).expect("screened bits");
            remaining -= chunk;
        }
        let wall = t0.elapsed().as_secs_f64();
        let stats = engine.shutdown();
        let device_bps = stats.aggregate_device_bps();
        let wall_bps = take_bits as f64 / wall;
        if workers == 1 {
            single_worker_wall_bps = wall_bps;
        }
        println!(
            "{workers:>7} | {:>14} | {:>17} | {:>15} | {:>6.2}x",
            stats.harvested_bits,
            mbps(device_bps),
            mbps(wall_bps),
            wall_bps / single_worker_wall_bps,
        );
        report.set(
            "engine_scaling",
            &format!("workers_{workers}_device_bits_per_sec"),
            device_bps,
        );
        report.set(
            "engine_scaling",
            &format!("workers_{workers}_harvested_bits"),
            stats.harvested_bits as f64,
        );
        if workers == widest {
            // Headline metrics for the tracked report come from the
            // widest configuration.
            let sensed = stats.cache_skip_reads + stats.cache_hit_reads + stats.cache_resolve_reads;
            report.set("engine_scaling", "bits_per_sec", wall_bps);
            report.set(
                "engine_scaling",
                "ns_per_read",
                wall * 1e9 / sensed.max(1) as f64,
            );
            report.set("engine_scaling", "cache_hit_rate", stats.cache_hit_rate());
            report.set("engine_scaling", "device_bits_per_sec", device_bps);
            report.set(
                "engine_scaling",
                "harvested_bits",
                stats.harvested_bits as f64,
            );
            // SIMD resolve activity across all 12 channels: how much
            // of the stochastic-cell math ran in full vector lanes.
            report.set("simd", "engine_lane_utilization", stats.lane_utilization());
            report.set("simd", "engine_bulk_cells", stats.cache_bulk_cells as f64);
        }
    }
    let path = bench_report_path();
    // A read-only checkout or a corrupted report file must not wedge
    // the bench after the measurements already ran: report and move on.
    match report.update_file(&path) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write {}: {e}", path.display()),
    }
    println!(
        "\ndevice throughput is the sum of per-channel harvest rates \
         (bits per second of DRAM device time), the engine analogue of \
         the paper's independent-channel scaling; speedup is wall \
         throughput over the one-worker wall throughput."
    );

    // One more run at 4 workers with the telemetry registry attached:
    // per-stage latency quantiles for the harvest → health → publish
    // pipeline, plus the client-side take_bits latency.
    let workers = 4usize;
    println!("\ninstrumented run ({workers} workers) — per-stage latency:\n");
    let registry = MetricsRegistry::new();
    let mut sources = channel_sources(&base, &catalog, &DRangeConfig::default(), workers)
        .expect("channel sources");
    for (channel, source) in sources.iter_mut().enumerate() {
        source
            .controller_mut()
            .attach_telemetry(&registry, &channel.to_string());
    }
    let engine =
        HarvestEngine::spawn(sources, EngineConfig::default(), Some(&registry)).expect("engine");
    let mut remaining = take_bits;
    while remaining > 0 {
        let chunk = remaining.min(4096);
        engine.take_bits(chunk).expect("screened bits");
        remaining -= chunk;
    }
    let stats = engine.shutdown();

    // Merge each stage's per-worker histograms into one distribution.
    println!("stage    |     p50 |     p99 |     max | samples");
    println!("---------|---------|---------|---------|--------");
    for stage in ["harvest", "health", "publish"] {
        let mut merged: Option<drange_core::telemetry::HistogramSnapshot> = None;
        for sample in registry.samples() {
            if sample.name == "drange_stage_latency_ns"
                && sample
                    .labels
                    .iter()
                    .any(|(k, v)| k == "stage" && v == stage)
            {
                if let MetricValue::Histogram(h) = sample.value {
                    match &mut merged {
                        Some(m) => m.merge(&h),
                        None => merged = Some(h),
                    }
                }
            }
        }
        let h = merged.expect("stage histogram registered");
        println!(
            "{stage:<8} | {:>7} | {:>7} | {:>7} | {:>7}",
            fmt_ns(h.p50()),
            fmt_ns(h.p99()),
            fmt_ns(h.max),
            h.count
        );
    }
    for sample in registry.samples() {
        if sample.name == "drange_take_bits_latency_ns" {
            if let MetricValue::Histogram(h) = sample.value {
                println!(
                    "take_bits: p50 {} / p99 {} over {} calls",
                    fmt_ns(h.p50()),
                    fmt_ns(h.p99()),
                    h.count
                );
            }
        }
    }
    println!(
        "aggregate: {} of device time, {} bits harvested",
        mbps(stats.aggregate_device_bps()),
        stats.harvested_bits
    );
}
