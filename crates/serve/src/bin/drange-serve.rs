//! `drange-serve` — serve D-RaNGe randomness over HTTP.
//!
//! ```sh
//! drange-serve [--addr 127.0.0.1:7878] [--threads 8]
//!              [--source prng|sim] [--seed 1] [--channels 2]
//!              [--queue-bits 65536] [--fetch-timeout-ms 2000]
//!              [--rate-limit RPS[:BURST]] [--allow-remote-shutdown]
//!              [--debug-endpoints] [--trace-threshold-ms N]
//! ```
//!
//! `--source sim` profiles and identifies RNG cells on the simulated
//! DRAM first (seconds of startup); `--source prng` (the default)
//! serves a deterministic PRNG stream through the same engine, which
//! is what CI smoke tests and load benches want.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dram_sim::{DeviceConfig, Manufacturer};
use drange_core::telemetry::{FlightRecorder, MetricsRegistry, RecorderConfig};
use drange_core::{
    channel_sources, DRangeConfig, DrbgConfig, IdentifySpec, ProfileSpec, Profiler,
    RandomnessService, RngCellCatalog, ServiceConfig,
};
use drange_serve::source::PrngHarvestSource;
use drange_serve::{RateLimitConfig, Server, ServerConfig, SourceMode};
use memctrl::MemoryController;

struct Cli {
    addr: SocketAddr,
    threads: usize,
    source: String,
    seed: u64,
    channels: usize,
    queue_bits: usize,
    fetch_timeout: Duration,
    rate_limit: Option<RateLimitConfig>,
    allow_shutdown: bool,
    debug_endpoints: bool,
    trace_threshold: Option<Duration>,
    conditioning: bool,
    default_source: SourceMode,
}

/// `Ok(None)` means `--help` was handled and the process should exit
/// successfully without starting a server.
fn parse_cli() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7878".parse().expect("literal addr"),
        threads: 8,
        source: "prng".into(),
        seed: 1,
        channels: 2,
        queue_bits: 1 << 16,
        fetch_timeout: Duration::from_millis(2000),
        rate_limit: None,
        allow_shutdown: false,
        debug_endpoints: false,
        trace_threshold: None,
        conditioning: true,
        default_source: SourceMode::True,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => {
                cli.addr = value("--addr")?
                    .parse()
                    .map_err(|e| format!("--addr: {e}"))?
            }
            "--threads" => {
                cli.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--source" => cli.source = value("--source")?,
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--channels" => {
                cli.channels = value("--channels")?
                    .parse()
                    .map_err(|e| format!("--channels: {e}"))?;
            }
            "--queue-bits" => {
                cli.queue_bits = value("--queue-bits")?
                    .parse()
                    .map_err(|e| format!("--queue-bits: {e}"))?;
            }
            "--fetch-timeout-ms" => {
                let ms: u64 = value("--fetch-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--fetch-timeout-ms: {e}"))?;
                cli.fetch_timeout = Duration::from_millis(ms);
            }
            "--rate-limit" => {
                let spec = value("--rate-limit")?;
                let (rate, burst) = match spec.split_once(':') {
                    Some((r, b)) => (
                        r.parse().map_err(|e| format!("--rate-limit rate: {e}"))?,
                        b.parse().map_err(|e| format!("--rate-limit burst: {e}"))?,
                    ),
                    None => {
                        let r: f64 = spec.parse().map_err(|e| format!("--rate-limit: {e}"))?;
                        (r, r * 2.0)
                    }
                };
                cli.rate_limit = Some(RateLimitConfig {
                    rate_per_sec: rate,
                    burst,
                });
            }
            "--allow-remote-shutdown" => cli.allow_shutdown = true,
            "--debug-endpoints" => cli.debug_endpoints = true,
            "--no-conditioning" => cli.conditioning = false,
            "--default-source" => {
                let raw = value("--default-source")?;
                cli.default_source = SourceMode::parse(&raw)
                    .ok_or_else(|| format!("--default-source must be fast|true, got `{raw}`"))?;
            }
            "--trace-threshold-ms" => {
                let ms: u64 = value("--trace-threshold-ms")?
                    .parse()
                    .map_err(|e| format!("--trace-threshold-ms: {e}"))?;
                cli.trace_threshold = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => {
                println!(
                    "drange-serve: HTTP randomness server over the D-RaNGe engine\n\n\
                     options:\n  \
                     --addr HOST:PORT          listen address (127.0.0.1:7878)\n  \
                     --threads N               worker threads (8)\n  \
                     --source prng|sim         bit source (prng)\n  \
                     --seed N                  source seed (1)\n  \
                     --channels N              simulated channels for --source sim (2)\n  \
                     --queue-bits N            engine pool capacity in bits (65536)\n  \
                     --fetch-timeout-ms N      engine wait before 503 (2000)\n  \
                     --rate-limit RPS[:BURST]  per-IP token bucket (off)\n  \
                     --allow-remote-shutdown   enable POST /-/shutdown\n  \
                     --no-conditioning         disable the ChaCha20 DRBG fast tier\n  \
                     --default-source MODE     tier for /random without ?source= — fast|true (true)\n  \
                     --debug-endpoints         enable GET /debug/trace and /debug/slow\n  \
                     --trace-threshold-ms N    record only traces slower than N ms\n  \
                     \x20                          (default: record every trace)"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(cli))
}

fn build_service(cli: &Cli, registry: &MetricsRegistry) -> Result<RandomnessService, String> {
    let service_config = ServiceConfig {
        queue_capacity: cli.queue_bits,
        low_watermark: (cli.queue_bits / 16).max(1),
        min_entropy: 0.9,
        drbg: cli.conditioning.then(DrbgConfig::default),
    };
    match cli.source.as_str() {
        "prng" => {
            let sources: Vec<PrngHarvestSource> = (0..cli.channels.max(1))
                .map(|i| PrngHarvestSource::new(cli.seed.wrapping_add(i as u64)))
                .collect();
            RandomnessService::with_sources_telemetry(sources, service_config, Some(registry))
                .map_err(|e| e.to_string())
        }
        "sim" => {
            let device = DeviceConfig::new(Manufacturer::A).with_seed(cli.seed);
            let mut ctrl = MemoryController::from_config(device.clone());
            eprintln!("profiling the simulated device (seed {})...", cli.seed);
            let profile = Profiler::new(&mut ctrl)
                .run(ProfileSpec::default())
                .map_err(|e| format!("profiling failed: {e}"))?;
            let catalog = RngCellCatalog::identify(&mut ctrl, &profile, IdentifySpec::default())
                .map_err(|e| format!("identification failed: {e}"))?;
            let sources = channel_sources(
                &device,
                &catalog,
                &DRangeConfig::default(),
                cli.channels.max(1),
            )
            .map_err(|e| format!("channel setup failed: {e}"))?;
            RandomnessService::with_sources_telemetry(sources, service_config, Some(registry))
                .map_err(|e| e.to_string())
        }
        other => Err(format!("unknown --source `{other}` (prng|sim)")),
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("drange-serve: {e}");
            return ExitCode::from(2);
        }
    };
    // The debug endpoints are the flight recorder's readers: the flag
    // builds the recorder into the registry, which turns the tracer
    // live and `/debug/*` on. Without it the span plumbing costs
    // nothing and `/debug/*` is 404.
    let registry = if cli.debug_endpoints {
        MetricsRegistry::with_recorder(FlightRecorder::with_config(RecorderConfig {
            latency_threshold: cli.trace_threshold,
            ..RecorderConfig::default()
        }))
    } else {
        MetricsRegistry::new()
    };
    let service = match build_service(&cli, &registry) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("drange-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        worker_threads: cli.threads,
        fetch_timeout: cli.fetch_timeout,
        rate_limit: cli.rate_limit,
        allow_shutdown: cli.allow_shutdown,
        default_source: cli.default_source,
        ..ServerConfig::default()
    };
    let server = match Server::bind(cli.addr, service, registry, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("drange-serve: cannot bind {}: {e}", cli.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "drange-serve listening on http://{} (source: {}, {} workers)",
        server.local_addr(),
        cli.source,
        cli.threads.max(1),
    );
    server.run_until_stopped();
    println!("drange-serve stopped");
    ExitCode::SUCCESS
}
