//! Multi-channel harvesting engine — the paper's channel-level
//! parallelism (Section 6.2) running as a service: one worker thread
//! per simulated DRAM channel keeps a shared, health-screened bit pool
//! topped up between watermarks, while several application threads file
//! and collect randomness requests concurrently.
//!
//! The engine runs with a flight recorder attached, so alongside the
//! aggregate metrics every request leaves a trace: client-side spans
//! nest over the service's internal ones, and the run ends by printing
//! the recorder's slowest-requests table.
//!
//! ```sh
//! cargo run --release --example engine_service
//! ```

use d_range::dram_sim::{DeviceConfig, Manufacturer};
use d_range::drange::{
    channel_sources, DRangeConfig, IdentifySpec, ProfileSpec, Profiler, RandomnessService,
    RngCellCatalog, ServiceConfig,
};
use d_range::memctrl::MemoryController;
use d_range::telemetry::{FlightRecorder, MetricsRegistry, TraceId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One profiling + identification pass; the catalog is valid for
    // every channel because channels share the manufacturing process
    // (only their runtime noise differs).
    let base = DeviceConfig::new(Manufacturer::A)
        .with_seed(0xC4A7)
        .with_noise_seed(0x11);
    let mut ctrl = MemoryController::from_config(base.clone());
    let profile = Profiler::new(&mut ctrl).run(
        ProfileSpec {
            banks: (0..8).collect(),
            rows: 0..192,
            cols: 0..16,
            ..ProfileSpec::default()
        }
        .with_iterations(25),
    )?;
    let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())?;
    println!("catalog: {} RNG cells", catalog.len());

    // Two simulated channels, each harvested by its own worker thread.
    // Everything registers into one metrics registry: the controllers'
    // command counters, the engine's stage histograms, and the
    // service's request counters. The registry carries a flight
    // recorder, which turns the span instrumentation live: worker
    // batches and client requests land in its ring buffer, and its
    // drop/sampling counters surface as drange_trace_* series.
    let recorder = FlightRecorder::new();
    let registry = MetricsRegistry::with_recorder(recorder.clone());
    let mut sources = channel_sources(&base, &catalog, &DRangeConfig::default(), 2)?;
    for (channel, source) in sources.iter_mut().enumerate() {
        source
            .controller_mut()
            .attach_telemetry(&registry, &channel.to_string());
    }
    let service = RandomnessService::with_sources_telemetry(
        sources,
        ServiceConfig::default(),
        Some(&registry),
    )?;

    // Four application threads file and collect requests concurrently.
    // Each round opens a client-side root span under its own request
    // id, which ranks it in the recorder's slowest-requests table; the
    // service's own service.request / service.wait spans nest under
    // it, giving each round a complete client-to-engine trace.
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let service = &service;
            let tracer = service.tracer().clone();
            scope.spawn(move || {
                for round in 0..3usize {
                    let mut span = tracer.root_span("client.round", TraceId::next());
                    span.attr_u64("client", client as u64);
                    span.attr_u64("round", round as u64);
                    let len = 16 + 8 * client + round;
                    let id = service.request(len).expect("request");
                    let bytes = service.wait_receive(id).expect("receive");
                    let hex: String = bytes.iter().take(8).map(|b| format!("{b:02x}")).collect();
                    println!("client {client} round {round}: {len:>2} bytes  {hex}...");
                }
            });
        }
    });

    let stats = service.shutdown();
    println!("\nengine statistics after graceful shutdown:");
    println!("  harvested : {} bits", stats.harvested_bits);
    println!("  served    : {} bits", stats.served_bits);
    println!("  queued    : {} bits", stats.queued_bits);
    println!(
        "  discarded : {} bits (health screening)",
        stats.discarded_bits
    );
    println!(
        "  health    : {} trips ({} repetition-count, {} adaptive-proportion)",
        stats.health_trips, stats.repetition_trips, stats.adaptive_trips
    );
    for w in &stats.workers {
        println!(
            "  channel {} : {} bits at {:.1} Mb/s of device time",
            w.worker,
            w.harvested_bits,
            w.throughput_bps() / 1e6
        );
    }
    println!(
        "  aggregate : {:.1} Mb/s of device time across channels",
        stats.aggregate_device_bps() / 1e6
    );

    let trace_stats = recorder.stats();
    println!(
        "\nflight recorder: {} spans kept ({} dropped); slowest requests:",
        trace_stats.recorded_spans, trace_stats.dropped_spans
    );
    print!("{}", recorder.render_slow_table());

    println!("\nPrometheus exposition of the full metric set:\n");
    print!("{}", registry.render_prometheus());
    Ok(())
}
