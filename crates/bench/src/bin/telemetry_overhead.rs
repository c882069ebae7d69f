//! Telemetry overhead — verifies the no-op-handle claim: instrumented
//! code costs near nothing when no registry is attached.
//!
//! Measures three variants of a hot loop (counter bump plus a `Stage`
//! guard per iteration, with a no-op tracer — how the engine times its
//! stages when it has a registry but no flight recorder):
//!
//! * **bare** — the loop with no instrumentation at all,
//! * **noop** — instrumented with detached handles (the state every
//!   engine spawned without a registry runs in): a few `Option`
//!   discriminant branches per guard (histogram, tracer, inert span),
//!   no clock reads,
//! * **live** — instrumented with registry-backed handles: the stage's
//!   two clock reads plus relaxed atomic updates per iteration.
//!
//! The noop column should sit a few nanoseconds above the bare column
//! (branches, never a clock read); the gap to the live column is the
//! price of actually collecting metrics.
//!
//! The same contract holds for tracing spans. Spans are batch-grained
//! in the engine (one `engine.batch` span guards a whole 4096-bit
//! harvest), so the span variants open one attributed span per
//! [`SPAN_BATCH`]-iteration batch — the per-iteration column shows the
//! amortized cost at realistic granularity, and a separate per-span
//! line shows the raw guard cost:
//!
//! * **span-noop** — spans from `Tracer::noop()` (the state every
//!   server without `--debug-endpoints` runs in): no clock reads, no
//!   allocation, no thread-local pushes,
//! * **span-live** — spans from a flight recorder's tracer: two clock
//!   reads, thread-local context bookkeeping, and ring insertion on
//!   root drop.
//!
//! The span-noop variant is held to the same budget as noop handles:
//! within 5% of bare at batch granularity (reported as a pass/fail
//! line so CI or a human can eyeball regressions).
//!
//! ```sh
//! cargo run -p drange-bench --release --bin telemetry_overhead [--full]
//! ```

use std::hint::black_box;
use std::time::Instant;

use drange_bench::Scale;
use drange_telemetry::{Counter, FlightRecorder, Histogram, MetricsRegistry, Stage, Tracer};

/// The simulated hot path: a little arithmetic standing in for batch
/// processing, then the instrumentation points the engine workers hit
/// per batch.
fn work(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn run_bare(iters: u64) -> (f64, u64) {
    let mut acc = 0u64;
    let t0 = Instant::now();
    for i in 0..iters {
        acc = acc.wrapping_add(black_box(work(i)));
    }
    (t0.elapsed().as_secs_f64(), acc)
}

fn run_instrumented(iters: u64, counter: &Counter, histogram: &Histogram) -> (f64, u64) {
    let tracer = Tracer::noop();
    let mut acc = 0u64;
    let t0 = Instant::now();
    for i in 0..iters {
        let _stage = Stage::start("bench.stage", histogram, &tracer);
        acc = acc.wrapping_add(black_box(work(i)));
        counter.inc();
    }
    (t0.elapsed().as_secs_f64(), acc)
}

/// Iterations guarded by one span in the span variants — the engine's
/// granularity (one `engine.batch` span per multi-thousand-bit
/// harvest), scaled down conservatively so the amortized numbers err
/// on the pessimistic side.
const SPAN_BATCH: u64 = 256;

/// The batched loop shared by the span variants: `None` runs it with
/// no span at all (the baseline), so the span columns differ from
/// their baseline only in the guard itself, never in loop shape.
fn run_spanned(iters: u64, tracer: Option<&Tracer>) -> (f64, u64) {
    let mut acc = 0u64;
    let t0 = Instant::now();
    let mut i = 0u64;
    while i < iters {
        let mut span = tracer.map(|t| t.span("bench.batch"));
        let end = (i + SPAN_BATCH).min(iters);
        while i < end {
            acc = acc.wrapping_add(black_box(work(i)));
            i += 1;
        }
        if let Some(span) = &mut span {
            span.attr_u64("bits", end);
        }
    }
    (t0.elapsed().as_secs_f64(), acc)
}

fn main() {
    let scale = Scale::from_args();
    let iters: u64 = scale.pick(5_000_000, 50_000_000);
    let rounds = 3usize;

    let registry = MetricsRegistry::new();
    let live_counter = registry.counter("bench_iterations_total", &[]);
    let live_histogram = registry.histogram("bench_stage_ns", &[]);
    let noop_counter = Counter::noop();
    let noop_histogram = Histogram::noop();
    let recorder = FlightRecorder::new();
    let live_tracer = recorder.tracer();
    let noop_tracer = Tracer::noop();

    println!("{iters} iterations per round, {rounds} rounds, best-of reported:\n");
    let mut best = [f64::INFINITY; 6];
    let mut sink = 0u64;
    for _ in 0..rounds {
        let (bare, a) = run_bare(iters);
        let (noop, b) = run_instrumented(iters, &noop_counter, &noop_histogram);
        let (live, c) = run_instrumented(iters, &live_counter, &live_histogram);
        let (span_base, d) = run_spanned(iters, None);
        let (span_noop, e) = run_spanned(iters, Some(&noop_tracer));
        let (span_live, f) = run_spanned(iters, Some(&live_tracer));
        sink = sink
            .wrapping_add(a)
            .wrapping_add(b)
            .wrapping_add(c)
            .wrapping_add(d)
            .wrapping_add(e)
            .wrapping_add(f);
        let round = [bare, noop, live, span_base, span_noop, span_live];
        for (slot, secs) in best.iter_mut().zip(round) {
            *slot = slot.min(secs);
        }
    }
    let per_iter = |secs: f64| secs / iters as f64 * 1e9;
    println!("variant   | total      | per-iteration");
    println!("----------|------------|--------------");
    for (name, secs) in [
        "bare",
        "noop",
        "live",
        "span-base",
        "span-noop",
        "span-live",
    ]
    .iter()
    .zip(best)
    {
        println!("{name:<9} | {secs:>8.3} s | {:>9.2} ns", per_iter(secs));
    }
    println!(
        "\nnoop overhead vs bare:      {:+.2} ns/iter (branches only, no clock reads)",
        per_iter(best[1]) - per_iter(best[0])
    );
    println!(
        "live overhead vs bare:      {:+.2} ns/iter (clock reads + atomics)",
        per_iter(best[2]) - per_iter(best[0])
    );
    let spans = iters.div_ceil(SPAN_BATCH);
    let per_span = |secs: f64| (secs - best[3]) / spans as f64 * 1e9;
    println!(
        "span-noop overhead: {:+.2} ns/iter = {:+.2} ns per {SPAN_BATCH}-iter span",
        per_iter(best[4]) - per_iter(best[3]),
        per_span(best[4]),
    );
    println!(
        "span-live overhead: {:+.2} ns/iter = {:+.2} ns per span \
         (clock reads + ring insert)",
        per_iter(best[5]) - per_iter(best[3]),
        per_span(best[5]),
    );
    // The budget the serve path is designed around: span plumbing with
    // no recorder attached must cost < 5% of the uninstrumented loop
    // at batch granularity.
    let span_noop_pct = (best[4] / best[3] - 1.0) * 100.0;
    println!(
        "span-noop vs span-base: {:+.2}% (budget < 5%) — {}",
        span_noop_pct,
        if span_noop_pct < 5.0 { "PASS" } else { "FAIL" }
    );
    let snap = live_histogram.snapshot();
    let trace_stats = recorder.stats();
    println!(
        "\nlive histogram collected {} samples (p50 {} ns); \
         recorder kept {} spans ({} dropped); checksum {sink:#x}",
        snap.count,
        snap.p50(),
        trace_stats.recorded_spans,
        trace_stats.dropped_spans,
    );
}
