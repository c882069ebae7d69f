//! DRBG throughput — the `fast` conditioning tier vs raw harvest serve.
//!
//! Boots one [`drange_core::RandomnessService`] over PRNG-backed
//! harvest sources and measures, over the same wall-clock window and
//! the same request size:
//!
//! * **raw** — the `true` tier: REQUEST/RECEIVE through the engine
//!   pool, rate-bound by harvest throughput;
//! * **fast** — the conditioning tier: synchronous per-shard ChaCha20
//!   generates, reseeded from the pool on the interval (DESIGN.md
//!   §5k), single-threaded and multi-threaded (one client per shard).
//!
//! Writes the `drbg` section of `BENCH_harvest.json`; the bench gate
//! (`cargo xtask bench-gate`) holds `fast_serve_mbps` to the committed
//! baseline and enforces the tier split `fast_serve_mbps >=
//! 10 x raw_serve_mbps`.
//!
//! ```sh
//! cargo run -p drange-bench --release --bin drbg_throughput [--full]
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use drange_bench::{bench_report_path, BenchReport, Scale};
use drange_core::{RandomnessService, ServiceConfig};
use drange_serve::source::PrngHarvestSource;

/// Request size for every tier: large enough to amortize per-call
/// overhead, small enough to stay under the DRBG per-call cap.
const CHUNK_BYTES: usize = 16 * 1024;

fn service() -> Arc<RandomnessService> {
    let sources: Vec<PrngHarvestSource> = (0..4)
        .map(|i| PrngHarvestSource::new(0xD4B6_0000 + i))
        .collect();
    Arc::new(
        RandomnessService::with_sources_telemetry(
            sources,
            ServiceConfig {
                queue_capacity: 1 << 21,
                low_watermark: 1 << 17,
                min_entropy: 0.9,
                ..ServiceConfig::default()
            },
            None,
        )
        .expect("prng service"),
    )
}

/// Serves `CHUNK_BYTES` requests through `serve_one` until the window
/// closes; returns the tier's sustained Mbit/s.
fn measure(window: Duration, mut serve_one: impl FnMut() -> usize) -> f64 {
    let t0 = Instant::now();
    let mut bytes = 0usize;
    while t0.elapsed() < window {
        bytes += serve_one();
    }
    bytes as f64 * 8.0 / 1e6 / t0.elapsed().as_secs_f64()
}

fn main() {
    let scale = Scale::from_args();
    let window = scale.pick(Duration::from_millis(800), Duration::from_secs(4));
    let s = service();
    let shards = s
        .drbg_stats()
        .map(|st| st.shards)
        .expect("conditioning tier on by default");

    println!("drbg_throughput: {CHUNK_BYTES}-byte requests, {window:?} per tier, {shards} shards");

    // Warm both tiers so neither pays first-touch costs in its window.
    let _ = s.generate_fast(CHUNK_BYTES).expect("fast warmup");
    let warm = s.request(CHUNK_BYTES).expect("raw warmup request");
    let _ = s.wait_receive(warm).expect("raw warmup receive");

    let raw_mbps = measure(window, || {
        let id = s.request(CHUNK_BYTES).expect("raw request");
        s.wait_receive(id).expect("raw receive").len()
    });
    println!("  raw  (true tier)    {raw_mbps:10.1} Mbit/s");

    let fast_mbps = measure(window, || {
        s.generate_fast(CHUNK_BYTES).expect("fast generate").len()
    });
    println!("  fast (1 thread)     {fast_mbps:10.1} Mbit/s");

    // One client per shard: the farm's round-robin spreads them across
    // shard mutexes, so this is the tier's aggregate ceiling.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..shards)
        .map(|_| {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut bytes = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    bytes += s.generate_fast(CHUNK_BYTES).expect("fast generate").len();
                }
                bytes
            })
        })
        .collect();
    let t0 = Instant::now();
    thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let total: usize = clients
        .into_iter()
        .map(|c| c.join().expect("fast client"))
        .sum();
    let fast_mt_mbps = total as f64 * 8.0 / 1e6 / t0.elapsed().as_secs_f64();
    println!("  fast ({shards} threads)    {fast_mt_mbps:10.1} Mbit/s");

    let speedup = fast_mbps / raw_mbps.max(f64::MIN_POSITIVE);
    println!("  fast/raw speedup    {speedup:10.1}x");

    let stats = s.drbg_stats().expect("drbg stats");
    println!(
        "  reseeds {} / credited {} bits / blocked {}",
        stats.reseeds,
        stats.entropy_credited_bits,
        stats.reseeds_blocked_health + stats.reseeds_blocked_starved
    );

    let mut report = BenchReport::new();
    // Sole author of its section: wholesale replacement on merge.
    report.own_section("drbg");
    report.set("drbg", "raw_serve_mbps", raw_mbps);
    report.set("drbg", "fast_serve_mbps", fast_mbps);
    report.set("drbg", "fast_mt_serve_mbps", fast_mt_mbps);
    report.set("drbg", "speedup", speedup);
    report.set("drbg", "shards", shards as f64);
    report.set("drbg", "reseeds", stats.reseeds as f64);
    report.set(
        "drbg",
        "entropy_credited_bits",
        stats.entropy_credited_bits as f64,
    );
    let path = bench_report_path();
    match report.update_file(&path) {
        Ok(()) => println!("\nwrote section `drbg` to {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
