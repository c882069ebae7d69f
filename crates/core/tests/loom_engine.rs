//! Model checks for the harvesting engine's cross-thread protocol.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p drange-core --test
//! loom_engine`. The engine's locks are `drange_core::sync`'s
//! `Mutex`/`Condvar`, plain `std::sync` wrappers that the model checker
//! cannot instrument, so these tests re-state the protocol of
//! `src/engine.rs` — workers publishing straight into the pool and
//! consulting its hysteresis gate under the pool mutex, the client
//! wait with its demand bypass, the shutdown handshake — line for line
//! over the *real* [`drange_core::sync`] types (which switch to
//! `loomlite` shims under `--cfg loom`), a *real* [`BitQueue`] pool,
//! and `loomlite`'s own Mutex/Condvar. Every blocking wait in the
//! engine is a plain, untimed condvar wait, and the modeled waits never
//! time out either: a lost wakeup or a missing notify on an exit path
//! is a hard deadlock here, exactly as it would be in production.
//!
//! The model and `src/engine.rs` must be kept in sync by hand; each
//! model function cites the code it mirrors.

#![cfg(loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use drange_core::bits::{BitBlock, BitQueue};
use drange_core::sync::{BitLedger, CounterCell, Flag, LiveCount, WatermarkGate};
use loomlite::sync::{Arc, Condvar, Mutex};
use loomlite::{thread, Builder};

/// Bits per harvested batch in the count-level models.
const BATCH: usize = 8;

/// Mirrors `engine::Pool`: the bits, the gate, and the blocked
/// clients' demand, all behind the one pool mutex.
struct PoolState {
    bits: BitQueue,
    gate: WatermarkGate,
    demand: u64,
}

impl PoolState {
    /// Mirrors `Pool::admits`: advance the gate; blocked clients that
    /// want more than is pooled bypass it.
    fn admits(&mut self) -> bool {
        let queued = self.bits.len();
        self.gate.admit(queued) || (queued as u64) < self.demand
    }
}

/// The engine's `Shared` state, reduced to what the protocol touches.
struct Model {
    pool: Mutex<PoolState>,
    bits_available: Condvar,
    space_available: Condvar,
    shutdown: Flag,
    live: LiveCount,
    in_flight: BitLedger,
    harvested: CounterCell,
    discarded: CounterCell,
    served: CounterCell,
    /// When set, every publish asserts the pool stays at or below it
    /// (the backpressure property).
    pool_bound: Option<usize>,
}

impl Model {
    /// `workers` live workers and a gate that pauses at `capacity` and
    /// resumes at zero.
    fn new(workers: usize, capacity: usize) -> Self {
        Model {
            pool: Mutex::new(PoolState {
                bits: BitQueue::new(),
                gate: WatermarkGate::new(0, capacity),
                demand: 0,
            }),
            bits_available: Condvar::new(),
            space_available: Condvar::new(),
            shutdown: Flag::new(),
            live: LiveCount::new(workers),
            in_flight: BitLedger::new(),
            harvested: CounterCell::new(),
            discarded: CounterCell::new(),
            served: CounterCell::new(),
            pool_bound: None,
        }
    }
}

/// A count-level batch: `BATCH` alternating bits.
fn batch() -> BitBlock {
    BitBlock::from_bools(&[true, false, true, false, true, false, true, false])
}

/// Mirrors `worker_run` + `worker_loop`: park at the gate when the last
/// publish paused it, stop on shutdown, publish each batch under the
/// pool mutex and ask the gate in the same critical section, then —
/// once the scripted source runs dry — retire behind the lock barrier
/// and wake pool waiters.
fn worker(m: &Model, batches: &[BitBlock]) {
    let mut admitted = true;
    for batch in batches {
        if !admitted {
            let mut pool = m.pool.lock().expect("model lock");
            while !pool.admits() && !m.shutdown.is_raised() {
                pool = m.space_available.wait(pool).expect("model wait");
            }
        }
        if m.shutdown.is_raised() {
            break;
        }
        let n = batch.len() as u64;
        m.harvested.add(n);
        m.in_flight.publish(n);
        {
            let mut pool = m.pool.lock().expect("model lock");
            pool.bits.push_block(batch);
            admitted = pool.admits();
            if let Some(bound) = m.pool_bound {
                let queued = pool.bits.len();
                assert!(
                    queued <= bound,
                    "pool {queued} exceeds the backpressure bound {bound}"
                );
            }
        }
        m.in_flight.retire(n);
        m.bits_available.notify_all();
    }
    m.live.retire();
    drop(m.pool.lock().expect("model lock"));
    m.bits_available.notify_all();
}

/// Mirrors `HarvestEngine::drain_pool` (untimed): serve from the pool
/// or publish demand and wait, failing fast once the engine stops;
/// retire the demand on every exit.
fn take_bits(m: &Model, bits: usize) -> Result<Vec<bool>, &'static str> {
    let mut pool = m.pool.lock().expect("model lock");
    let mut waiting = false;
    let outcome = loop {
        if pool.bits.len() >= bits {
            break Ok(pool.bits.pop_bools(bits));
        }
        if m.shutdown.is_raised() || m.live.all_retired() {
            break Err("engine stopped before the request could be served");
        }
        if !waiting {
            waiting = true;
            // Under the pool mutex, where the workers' gate reads it.
            pool.demand += bits as u64;
            m.space_available.notify_all();
        }
        pool = m.bits_available.wait(pool).expect("model wait");
    };
    if waiting {
        pool.demand -= bits as u64;
    }
    drop(pool);
    if outcome.is_ok() {
        m.served.add(bits as u64);
        m.space_available.notify_all();
    }
    outcome
}

/// Mirrors `HarvestEngine::halt`: raise the flag, lock barrier, wake
/// clients and paused workers.
fn halt(m: &Model) {
    m.shutdown.raise();
    drop(m.pool.lock().expect("model lock"));
    m.bits_available.notify_all();
    m.space_available.notify_all();
}

fn bounded() -> Builder {
    Builder {
        preemption_bound: Some(2),
        max_iterations: None,
    }
}

fn expect_deadlock(result: std::thread::Result<()>, what: &str) {
    let message = result
        .expect_err(what)
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("deadlock"),
        "expected a deadlock report, got: {message}"
    );
}

/// The graceful-shutdown handshake conserves every bit under every
/// schedule: shutdown can land before, between, or after the worker's
/// two batches; the gate pauses after the first, so the worker is
/// parked when a late shutdown arrives and must wake to exit. After the
/// join the ledger is empty and *harvested = queued + served +
/// discarded* holds exactly.
#[test]
fn graceful_shutdown_conserves_every_bit() {
    bounded().check(|| {
        let m = Arc::new(Model::new(1, BATCH));
        let w = thread::spawn({
            let m = Arc::clone(&m);
            move || worker(&m, &[batch(), batch()])
        });
        halt(&m);
        w.join().expect("worker thread");
        assert!(m.live.all_retired());
        assert_eq!(
            m.in_flight.outstanding(),
            0,
            "shutdown leaves bits in flight"
        );
        let queued = m.pool.lock().expect("model lock").bits.len() as u64;
        assert_eq!(
            m.harvested.get(),
            queued + m.served.get() + m.discarded.get(),
            "bit conservation violated"
        );
    });
}

/// A client blocked on an under-filled pool must be woken — and error
/// out instead of deadlocking — when the last worker retires. Drop the
/// retirement `notify_all` (or its lock barrier) in `src/engine.rs` and
/// this model deadlocks.
#[test]
fn client_outlives_worker_retirement() {
    bounded().check(|| {
        let m = Arc::new(Model::new(1, 1 << 16));
        let w = thread::spawn({
            let m = Arc::clone(&m);
            move || worker(&m, &[batch()])
        });
        // Only one 8-bit batch will ever arrive: the 16-bit request
        // must fail fast once the worker retires, on every schedule.
        let out = take_bits(&m, 2 * BATCH);
        assert!(out.is_err(), "a 16-bit take cannot be served from 8 bits");
        w.join().expect("worker thread");
        assert_eq!(m.in_flight.outstanding(), 0);
        assert_eq!(m.pool.lock().expect("model lock").demand, 0);
    });
}

/// Watermark backpressure: with the gate's high mark at one batch, the
/// worker parks after each publish until the client has drained the
/// pool, so the pool never exceeds one batch — and the worker still
/// makes progress (no schedule deadlocks between the gate and the
/// consuming client).
#[test]
fn watermark_gate_bounds_the_pool_without_wedging() {
    bounded().check(|| {
        let mut model = Model::new(1, BATCH);
        model.pool_bound = Some(BATCH);
        let m = Arc::new(model);
        let w = thread::spawn({
            let m = Arc::clone(&m);
            move || worker(&m, &[batch(), batch()])
        });
        take_bits(&m, BATCH).expect("first batch");
        take_bits(&m, BATCH).expect("second batch");
        halt(&m);
        w.join().expect("worker thread");
        assert_eq!(m.served.get(), 2 * BATCH as u64);
        assert_eq!(m.harvested.get(), 2 * BATCH as u64);
        assert_eq!(m.pool.lock().expect("model lock").bits.len(), 0);
        assert_eq!(m.in_flight.outstanding(), 0);
    });
}

/// A request for more than the paused gate lets the pool hold must
/// still be served. The gate pauses at its high mark (one batch here)
/// and reopens only at the low one, while the client holds out for two
/// batches: without the demand bypass client and worker wait on each
/// other forever. In the engine this is any request larger than what
/// a paused pool holds above the low watermark; it reproduces a
/// liveness bug once observed there (a `take_bytes` of the full pool
/// capacity hung).
#[test]
fn oversized_request_is_served_via_demand_bypass() {
    bounded().check(|| {
        let m = Arc::new(Model::new(1, BATCH));
        let w = thread::spawn({
            let m = Arc::clone(&m);
            move || worker(&m, &[batch(), batch()])
        });
        take_bits(&m, 2 * BATCH).expect("demand bypass serves the oversized request");
        halt(&m);
        w.join().expect("worker thread");
        assert_eq!(m.served.get(), 2 * BATCH as u64);
        assert_eq!(
            m.pool.lock().expect("model lock").demand,
            0,
            "demand must drain"
        );
        assert_eq!(m.in_flight.outstanding(), 0);
    });
}

/// Two workers splice odd-length payloads into the real `BitQueue`
/// (13 and 9 bits, so the second splice lands at an unaligned bit
/// offset whichever worker goes first). Under every schedule the pool
/// ends up holding exactly one payload followed by the other: bit
/// values, not just counts, survive the bulk `push_words` splice.
#[test]
fn bit_values_survive_splices_from_two_workers() {
    let first = [
        true, false, true, true, false, false, true, false, true, true, true, false, true,
    ];
    let second = [false, true, true, false, true, false, false, true, true];
    bounded().check(|| {
        let m = Arc::new(Model::new(2, 1 << 16));
        let w0 = thread::spawn({
            let m = Arc::clone(&m);
            move || worker(&m, &[BitBlock::from_bools(&first)])
        });
        let w1 = thread::spawn({
            let m = Arc::clone(&m);
            move || worker(&m, &[BitBlock::from_bools(&second)])
        });
        w0.join().expect("worker 0");
        w1.join().expect("worker 1");
        assert_eq!(m.in_flight.outstanding(), 0, "bits left in flight");
        let mut pool = m.pool.lock().expect("model lock");
        let pooled = pool.bits.len();
        assert_eq!(pooled as u64, m.harvested.get(), "13 + 9 bits pooled");
        let drained = pool.bits.pop_bools(pooled);
        let one_then_two: Vec<bool> = first.iter().chain(&second).copied().collect();
        let two_then_one: Vec<bool> = second.iter().chain(&first).copied().collect();
        assert!(
            drained == one_then_two || drained == two_then_one,
            "the splices must preserve both payloads in publish order: {drained:?}"
        );
    });
}

/// Regression model for the exit-path lock barrier. Without the
/// barrier, `halt()`'s wakeup can land in the window between a
/// client's shutdown-flag check and its park — the client holds the
/// pool mutex across that window, but `notify_all` does not need the
/// mutex, so the notify finds no parked waiter and is lost. With no
/// timeouts that is a deadlock the checker must report. The one live
/// worker never runs, standing for a worker busy harvesting.
#[test]
fn halt_without_the_lock_barrier_loses_the_wakeup() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loomlite::model(|| {
            let m = Arc::new(Model::new(1, 1 << 16));
            let client = thread::spawn({
                let m = Arc::clone(&m);
                move || {
                    let _ = take_bits(&m, BATCH);
                }
            });
            // BUG under test: `halt()` without the pool-lock barrier.
            m.shutdown.raise();
            m.bits_available.notify_all();
            client.join().expect("client thread");
        });
    }));
    expect_deadlock(result, "the barrier-free halt must fail the model check");
}
