//! The engine's cross-thread protocol state, wrapped in
//! intent-revealing types.
//!
//! This module is the only place in `drange-core` that touches raw
//! atomics — a boundary enforced by the `no-raw-atomics` rule of
//! `cargo xtask lint`. [`crate::engine`] and [`crate::service`]
//! express their shared state through these domain-named wrappers
//! instead of bare `AtomicU64` cells, which buys two things:
//!
//! * every call site names the protocol action (`ledger.publish(n)`,
//!   `live.retire()`, `shutdown.raise()`) rather than the memory
//!   operation, so the bit-accounting invariant — *harvested =
//!   served + queued + discarded + in flight* — reads directly out
//!   of the code; and
//! * under `RUSTFLAGS="--cfg loom"` the wrappers switch to the
//!   `loomlite` model-checking shims, making every access a
//!   scheduling point so `tests/loom_engine.rs` can explore the
//!   engine's shutdown handshake and watermark gate exhaustively.
//!
//! All operations are sequentially consistent. The engine's counters
//! are far off the memory-bandwidth-bound hot path (one update per
//! *batch*, not per bit), so the stronger ordering costs nothing
//! measurable and keeps the model and the real execution identical.
//!
//! The module also holds the workspace's one lock-poisoning decision:
//! [`Mutex`] and [`Condvar`] wrap `std::sync` and never poison, and
//! every lock in `drange-core` and `drange-serve` goes through them.

#[cfg(loom)]
use loomlite::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock that never poisons. A panic while a guard
/// is held leaves the data as the panic found it, and the next
/// [`Mutex::lock`] takes it over: one failed worker or connection
/// thread must not turn every later lock of the same mutex into a
/// second panic.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    #[must_use]
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable for [`Mutex`] guards. Waits hand the guard in
/// and get it back, as `std::sync::Condvar` does; they may wake
/// spuriously, so callers re-check their predicate in a loop.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a condition variable with no waiters.
    #[must_use]
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Releases the guard's lock, parks until notified, and returns the
    /// guard re-acquired.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        // xtask:allow(condvar-loop) -- the wrapper itself; `analyze` checks each caller's loop
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// As [`Condvar::wait`], giving up at `deadline`. The flag is
    /// `true` when the wait ended because the deadline passed.
    pub fn wait_until<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (guard, result) = self
            .0
            // xtask:allow(condvar-loop) -- the wrapper itself; `analyze` checks each caller's loop
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (guard, result.timed_out())
    }
}

/// A monotonically increasing event tally (bits harvested, batches
/// published, health trips, …) that writers bump and stats snapshots
/// read without blocking.
#[derive(Debug, Default)]
pub struct CounterCell(AtomicU64);

impl CounterCell {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        CounterCell::default()
    }

    /// Adds `n` events to the tally.
    pub fn add(&self, n: u64) {
        // xtask:allow(atomics-policy) -- feeds the conservation invariant; per-batch frequency makes SeqCst free
        self.0.fetch_add(n, Ordering::SeqCst);
    }

    /// Overwrites the tally with an externally tracked total (used for
    /// cumulative readings the source reports, e.g. device time).
    pub fn set(&self, total: u64) {
        // xtask:allow(atomics-policy) -- cumulative totals must not appear to run backwards between snapshots
        self.0.store(total, Ordering::SeqCst);
    }

    /// Current tally.
    #[must_use]
    pub fn get(&self) -> u64 {
        // xtask:allow(atomics-policy) -- stats snapshots cross-check counters against each other; one total order keeps them coherent
        self.0.load(Ordering::SeqCst)
    }
}

/// A one-way latch: starts lowered, can only be raised, never lowered
/// again. Models irreversible protocol transitions (engine shutdown
/// requested, server stopping).
#[derive(Debug, Default)]
pub struct Flag(AtomicBool);

impl Flag {
    /// Creates a lowered flag.
    #[must_use]
    pub fn new() -> Self {
        Flag::default()
    }

    /// Raises the flag (idempotent).
    pub fn raise(&self) {
        // xtask:allow(atomics-policy) -- shutdown latch: must not reorder after the condvar notify that follows it
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        // xtask:allow(atomics-policy) -- checked under the pool mutex as a park gate; SeqCst keeps loom and std equivalent
        self.0.load(Ordering::SeqCst)
    }
}

/// A source of process-unique, strictly increasing identifiers
/// (request ids).
#[derive(Debug, Default)]
pub struct SequenceCounter(AtomicU64);

impl SequenceCounter {
    /// Creates a sequence starting at zero.
    #[must_use]
    pub fn new() -> Self {
        SequenceCounter::default()
    }

    /// Claims and returns the next identifier.
    pub fn next(&self) -> u64 {
        // xtask:allow(atomics-policy) -- ids must be strictly increasing across threads for trace correlation
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

/// A count of still-running worker threads. Each worker retires exactly
/// once on exit; clients poll [`LiveCount::all_retired`] to distinguish
/// "no bits *yet*" from "no bits *ever again*".
#[derive(Debug)]
pub struct LiveCount(AtomicUsize);

impl LiveCount {
    /// Creates the count with `workers` live members.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        LiveCount(AtomicUsize::new(workers))
    }

    /// Records one member's exit, returning how many remain live.
    pub fn retire(&self) -> usize {
        // A retire below zero is a protocol bug (a worker exiting
        // twice); saturating keeps the count meaningful rather than
        // wrapping to usize::MAX and wedging `all_retired`.
        let prev = self
            .0
            // xtask:allow(atomics-policy) -- retirement orders against the pool-waiter wakeup; loom explores this handshake
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(1))
            })
            .unwrap_or(0);
        prev.saturating_sub(1)
    }

    /// Number of still-live members.
    #[must_use]
    pub fn live(&self) -> usize {
        // xtask:allow(atomics-policy) -- "no bits ever again" verdict: a stale read here would end a blocking request early
        self.0.load(Ordering::SeqCst)
    }

    /// Whether every member has retired.
    #[must_use]
    pub fn all_retired(&self) -> bool {
        self.live() == 0
    }
}

/// Accounting for bits that have been accepted by health screening but
/// not yet landed in the shared pool (in flight from a worker to the
/// pool lock). The engine's conservation invariant — after a graceful
/// shutdown, *harvested = served + queued + discarded* — holds exactly
/// when this ledger drains to zero.
#[derive(Debug, Default)]
pub struct BitLedger(AtomicU64);

impl BitLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        BitLedger::default()
    }

    /// Records `bits` entering flight (screened, not yet pushed).
    pub fn publish(&self, bits: u64) {
        // xtask:allow(atomics-policy) -- in-flight bits must be visible before the pool push they account for
        self.0.fetch_add(bits, Ordering::SeqCst);
    }

    /// Records `bits` leaving flight (pushed into the pool).
    ///
    /// Saturates at zero: retiring more bits than are outstanding is an
    /// accounting bug, and a ledger stuck at `u64::MAX - ε` after a
    /// wrap would silently poison every later stats snapshot, so the
    /// ledger clamps instead.
    pub fn retire(&self, bits: u64) {
        let _ = self
            .0
            // xtask:allow(atomics-policy) -- ledger drain participates in the shutdown handshake's total order (loom_engine.rs)
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(bits))
            });
    }

    /// Bits currently in flight.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        // xtask:allow(atomics-policy) -- conservation check: must observe every publish/retire already ordered before shutdown
        self.0.load(Ordering::SeqCst)
    }
}

/// The engine pool's hysteresis gate (Section 6.3's "available DRAM
/// bandwidth" policy): stop filling the pool at the high watermark
/// (the pool capacity), resume once it has drained to the low one. It
/// lives under the pool mutex, next to the bits it measures, and every
/// harvest worker consults it after each publish. Pure state machine —
/// the caller owns the locking and waiting — so the policy is
/// unit-testable and model-checkable in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatermarkGate {
    low: usize,
    high: usize,
    filling: bool,
}

impl WatermarkGate {
    /// Creates a gate that fills until `high` and resumes at `low`.
    /// Starts in the filling state (an empty pool wants bits).
    #[must_use]
    pub fn new(low: usize, high: usize) -> Self {
        WatermarkGate {
            low,
            high,
            filling: true,
        }
    }

    /// Advances the hysteresis with the current pool size and returns
    /// whether workers should publish more bits right now.
    pub fn admit(&mut self, pool_bits: usize) -> bool {
        if pool_bits >= self.high {
            self.filling = false;
        } else if pool_bits <= self.low {
            self.filling = true;
        }
        self.filling
    }

    /// Whether the gate is currently in the filling state (without
    /// advancing it).
    #[must_use]
    pub fn is_filling(&self) -> bool {
        self.filling
    }
}

/// Converts a relative timeout into an absolute deadline.
///
/// This is the one audited wall-clock read behind the timed-wait APIs:
/// the hot-path modules that consume deadlines ([`crate::engine`],
/// [`crate::service`]) are linted against ad-hoc `Instant::now()` pairs
/// (`instant-hot-path`), so deadline computation routes through here —
/// one clock read per timed request, on the slow (about-to-block) path.
///
/// Saturates far in the future instead of panicking when `now +
/// timeout` would overflow the `Instant` domain.
#[must_use]
pub fn deadline_after(timeout: std::time::Duration) -> std::time::Instant {
    let now = std::time::Instant::now();
    now.checked_add(timeout)
        .unwrap_or_else(|| now + std::time::Duration::from_secs(60 * 60 * 24 * 365))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let holder = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        });
        assert!(holder.join().is_err(), "the holder panicked");
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn wait_until_reports_timeouts_and_notifies() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let (g, timed_out) = cv.wait_until(m.lock(), Instant::now() + Duration::from_millis(5));
        assert!(timed_out);
        drop(g);

        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let notifier = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            let timed_out;
            (g, timed_out) = pair
                .1
                .wait_until(g, Instant::now() + Duration::from_secs(10));
            assert!(*g || !timed_out, "a notify must arrive well before 10 s");
        }
        drop(g);
        notifier.join().expect("notifier thread");
    }

    #[test]
    fn counter_cell_adds_and_sets() {
        let c = CounterCell::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        c.set(100);
        assert_eq!(c.get(), 100);
    }

    #[test]
    fn flag_latches() {
        let f = Flag::new();
        assert!(!f.is_raised());
        f.raise();
        f.raise();
        assert!(f.is_raised());
    }

    #[test]
    fn sequence_counter_is_strictly_increasing() {
        let s = SequenceCounter::new();
        assert_eq!(s.next(), 0);
        assert_eq!(s.next(), 1);
        assert_eq!(s.next(), 2);
    }

    #[test]
    fn live_count_retires_to_zero_and_saturates() {
        let l = LiveCount::new(2);
        assert_eq!(l.live(), 2);
        assert!(!l.all_retired());
        assert_eq!(l.retire(), 1);
        assert_eq!(l.retire(), 0);
        assert!(l.all_retired());
        // A buggy double-retire must not wrap the count back up.
        assert_eq!(l.retire(), 0);
        assert!(l.all_retired());
    }

    #[test]
    fn bit_ledger_balances_and_saturates() {
        let b = BitLedger::new();
        b.publish(64);
        b.publish(64);
        b.retire(64);
        assert_eq!(b.outstanding(), 64);
        b.retire(64);
        assert_eq!(b.outstanding(), 0);
        // Over-retiring clamps at zero instead of wrapping.
        b.retire(1);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn watermark_gate_hysteresis() {
        let mut g = WatermarkGate::new(4, 16);
        assert!(g.is_filling(), "an empty pool wants bits");
        assert!(g.admit(0));
        assert!(g.admit(15), "below high: keep filling");
        assert!(!g.admit(16), "at high: pause");
        assert!(!g.admit(10), "between the watermarks: stay paused");
        assert!(!g.admit(5), "still above low: stay paused");
        assert!(g.admit(4), "at low: resume");
        assert!(g.admit(10), "between the watermarks: keep filling");
        assert!(!g.admit(20), "overshoot past high: pause");
        assert!(g.admit(0), "drained: resume");
    }

    #[test]
    fn watermark_gate_degenerate_equal_marks() {
        // low == high: the gate toggles exactly at the mark, never
        // wedges.
        let mut g = WatermarkGate::new(8, 8);
        assert!(g.admit(0));
        assert!(!g.admit(8), "at the mark: high wins the tie, pause");
        assert!(g.admit(7), "below the mark: resume");
    }
}
