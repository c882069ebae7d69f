//! Server load — `drange-serve` under 1k+ concurrent HTTP clients.
//!
//! Boots an in-process [`drange_serve::Server`] over a PRNG-backed
//! engine (so the measurement is the *server* — parsing, coalescing,
//! queueing — not the simulated DRAM), then hammers it with keep-alive
//! clients each looping `GET /random?bytes=32` for a fixed window.
//! Reports sustained req/s and exact client-observed latency
//! percentiles (p50/p95/p99), and writes them into the `server_load`
//! section of `BENCH_harvest.json`.
//!
//! ```sh
//! cargo run -p drange-bench --release --bin server_load [--full]
//! ```
//!
//! Quick runs 1024 clients for ~3 s; `--full` runs 2048 clients for
//! ~10 s.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use drange_bench::{bench_report_path, BenchReport, Scale};
use drange_core::telemetry::MetricsRegistry;
use drange_core::{RandomnessService, ServiceConfig};
use drange_serve::source::PrngHarvestSource;
use drange_serve::{Server, ServerConfig};

const REQUEST: &[u8] = b"GET /random?bytes=32 HTTP/1.1\r\nHost: bench\r\n\r\n";

/// Per-client tallies.
#[derive(Debug, Default)]
struct ClientOutcome {
    requests: u64,
    served_503: u64,
    errors: u64,
    latencies_ns: Vec<u64>,
}

/// One keep-alive client looping requests until `stop` flips.
fn client_loop(addr: SocketAddr, stop: &AtomicBool) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    'reconnect: while !stop.load(Ordering::Relaxed) {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            out.errors += 1;
            thread::sleep(Duration::from_millis(1));
            continue;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = stream.set_nodelay(true);
        while !stop.load(Ordering::Relaxed) {
            let t0 = Instant::now();
            if stream.write_all(REQUEST).is_err() {
                continue 'reconnect;
            }
            match read_one_response(&mut stream) {
                Some(status) => {
                    out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                    out.requests += 1;
                    if status == 503 {
                        out.served_503 += 1;
                    } else if status != 200 {
                        out.errors += 1;
                    }
                }
                None => {
                    out.errors += 1;
                    continue 'reconnect;
                }
            }
        }
    }
    out
}

/// Reads one response, returning its status code (None on transport
/// failure). Minimal but correct Content-Length framing so keep-alive
/// reuse stays in sync.
fn read_one_response(stream: &mut TcpStream) -> Option<u16> {
    let mut buf = Vec::with_capacity(256);
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut have = buf.len() - head_end;
    while have < content_length {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => have += n,
        }
    }
    Some(status)
}

/// Exact percentile over a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let scale = Scale::from_args();
    let clients: usize = scale.pick(1024, 2048);
    let duration = scale.pick(Duration::from_secs(3), Duration::from_secs(10));
    let worker_threads: usize = scale.pick(16, 32);

    let sources: Vec<PrngHarvestSource> = (0..4)
        .map(|i| PrngHarvestSource::new(0x5EED_0000 + i))
        .collect();
    let registry = MetricsRegistry::new();
    let service = Arc::new(
        RandomnessService::with_sources_telemetry(
            sources,
            ServiceConfig {
                queue_capacity: 1 << 20,
                low_watermark: 1 << 16,
                min_entropy: 0.9,
                ..ServiceConfig::default()
            },
            Some(&registry),
        )
        .expect("prng service must spawn"),
    );
    let server = Server::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        Arc::clone(&service),
        registry,
        ServerConfig {
            worker_threads,
            connection_backlog: clients,
            keep_alive: Duration::from_secs(30),
            fetch_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind load server");
    let addr = server.local_addr();
    println!(
        "server_load: {clients} clients x {duration:?} against {addr} ({worker_threads} workers)"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(move || client_loop(addr, &stop))
            .expect("spawn client thread");
        handles.push(handle);
    }

    let t0 = Instant::now();
    thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut total = ClientOutcome::default();
    for handle in handles {
        let out = handle.join().expect("client thread");
        total.requests += out.requests;
        total.served_503 += out.served_503;
        total.errors += out.errors;
        total.latencies_ns.extend(out.latencies_ns);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    assert_eq!(
        service.outstanding_requests(),
        0,
        "load run must not leak request ids"
    );

    total.latencies_ns.sort_unstable();
    let p50 = percentile(&total.latencies_ns, 0.50);
    let p95 = percentile(&total.latencies_ns, 0.95);
    let p99 = percentile(&total.latencies_ns, 0.99);
    let req_per_s = total.requests as f64 / elapsed;

    println!("\n  sustained clients   {clients}");
    println!("  wall time           {elapsed:.2} s");
    println!(
        "  requests served     {} ({:.0} req/s)",
        total.requests, req_per_s
    );
    println!("  503 underruns       {}", total.served_503);
    println!("  transport errors    {}", total.errors);
    println!("  latency p50         {:.3} ms", p50 as f64 / 1e6);
    println!("  latency p95         {:.3} ms", p95 as f64 / 1e6);
    println!("  latency p99         {:.3} ms", p99 as f64 / 1e6);

    let mut report = BenchReport::new();
    // Sole author of its section: wholesale replacement on merge.
    report.own_section("server_load");
    report.set("server_load", "concurrent_clients", clients as f64);
    report.set("server_load", "duration_s", elapsed);
    report.set("server_load", "requests", total.requests as f64);
    report.set("server_load", "req_per_s", req_per_s);
    report.set("server_load", "rejected_503", total.served_503 as f64);
    report.set("server_load", "transport_errors", total.errors as f64);
    report.set("server_load", "latency_p50_ns", p50 as f64);
    report.set("server_load", "latency_p95_ns", p95 as f64);
    report.set("server_load", "latency_p99_ns", p99 as f64);
    let path = bench_report_path();
    match report.update_file(&path) {
        Ok(()) => println!("\nwrote section `server_load` to {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
