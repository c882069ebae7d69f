//! `drange-serve` — serve D-RaNGe randomness over HTTP.
//!
//! ```sh
//! drange-serve [--addr 127.0.0.1:7878] [--threads 8] [--seed 1]
//!              [--channels 2] [--queue-bits 65536]
//!              [--fetch-timeout-ms 2000] [--rate-limit RPS[:BURST]]
//!              [--allow-remote-shutdown] [--no-conditioning]
//!              [--default-source fast|true]
//!              [--debug-endpoints] [--trace-threshold-ms N]
//! ```
//!
//! Before it listens, the server builds the served stack
//! ([`drange_serve::stack::SimStack`]): it profiles the simulated DRAM
//! device named by `--seed` and identifies its RNG cells (about a
//! second in a release build), then harvests those cells under
//! OS-seeded noise. At the default `--seed` it serves the catalog the
//! repository benchmark measures.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use drange_core::telemetry::{FlightRecorder, MetricsRegistry, RecorderConfig};
use drange_serve::stack::{SimStack, StackSpec};
use drange_serve::{RateLimitConfig, Server, ServerConfig, SourceMode};

struct Cli {
    addr: SocketAddr,
    threads: usize,
    stack: StackSpec,
    fetch_timeout: Duration,
    rate_limit: Option<RateLimitConfig>,
    allow_shutdown: bool,
    debug_endpoints: bool,
    trace_threshold: Option<Duration>,
    default_source: SourceMode,
}

/// `Ok(None)` means `--help` was handled and the process should exit
/// successfully without starting a server.
fn parse_cli() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7878".parse().expect("literal addr"),
        threads: 8,
        stack: StackSpec::default(),
        fetch_timeout: Duration::from_millis(2000),
        rate_limit: None,
        allow_shutdown: false,
        debug_endpoints: false,
        trace_threshold: None,
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
            "--seed" => {
                cli.stack.device_seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--channels" => {
                cli.stack.channels = value("--channels")?
                    .parse()
                    .map_err(|e| format!("--channels: {e}"))?;
            }
            "--queue-bits" => {
                cli.stack.pool_bits = value("--queue-bits")?
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
            "--no-conditioning" => cli.stack.conditioning = false,
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
                     --seed N                  simulated DRAM device seed (1)\n  \
                     --channels N              simulated DRAM channels (2)\n  \
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
    eprintln!(
        "characterizing the simulated device (seed {})...",
        cli.stack.device_seed
    );
    let stack = match SimStack::build(&cli.stack, &registry) {
        Ok(stack) => stack,
        Err(e) => {
            eprintln!("drange-serve: cannot build the served stack: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cells = stack.catalog.len();
    let setup = stack.times.profile + stack.times.identify + stack.times.spawn;
    let service = Arc::new(stack.service);
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
        "drange-serve listening on http://{} ({} RNG cells, {} channels, set up in {:.2} s, {} workers)",
        server.local_addr(),
        cells,
        cli.stack.channels,
        setup.as_secs_f64(),
        cli.threads.max(1),
    );
    server.run_until_stopped();
    println!("drange-serve stopped");
    ExitCode::SUCCESS
}
