//! Model checks for the coalescer's leader/follower wait protocol.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p drange-serve --test
//! loom_coalesce`. `Coalescer::fetch` parks followers on one condvar
//! while a leader drains the ticket queue into combined engine fetches;
//! these models re-state that protocol (`src/coalesce.rs`: `fetch` and
//! `lead`) over `loomlite`'s Mutex/Condvar, where waits never time out,
//! so a lost wakeup shows up as a hard deadlock, not a stall. The
//! engine is scripted: a fetch of `n` bytes returns the next `n` values
//! of one shared byte sequence, so every caller's slice can be checked
//! for length and for overlap with every other caller's.
//!
//! The protocol has two halves that must stay in lockstep:
//!
//! 1. every transition a parked caller cares about — its result
//!    landing, the leader stepping down — notifies `cv` after the state
//!    changed under the lock, and
//! 2. the park predicate re-checks for leaderlessness on every pass, so
//!    a caller whose ticket is queued with no leader left elects itself
//!    instead of waiting for a wakeup no thread will send.
//!
//! The model and `src/coalesce.rs` must be kept in sync by hand; each
//! model function cites the code it mirrors.

#![cfg(loom)]

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use loomlite::sync::{Arc, Condvar, Mutex};
use loomlite::{thread, Builder};

/// Mirrors `CoalesceInner`: tickets `(id, bytes)`, results, and the
/// leadership flag, behind one lock.
#[derive(Default)]
struct Inner {
    queue: VecDeque<(u64, usize)>,
    results: HashMap<u64, Vec<u8>>,
    next_ticket: u64,
    leader_active: bool,
}

struct Model {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// The scripted engine: the next value of the shared byte sequence.
    engine: Mutex<u8>,
    /// BUG switch: when set, a caller never elects itself — it only
    /// waits for a result, as a follower without the leaderless
    /// re-check would.
    bug_skip_leaderless_recheck: bool,
}

impl Model {
    fn new(inner: Inner) -> Self {
        Model {
            inner: Mutex::new(inner),
            cv: Condvar::new(),
            engine: Mutex::new(0),
            bug_skip_leaderless_recheck: false,
        }
    }

    /// A leader already in office, with ticket 0 (`bytes` long) queued
    /// and not yet taken: the state just after a caller elected itself.
    fn with_leader(bytes: usize) -> Self {
        Model::new(Inner {
            queue: VecDeque::from([(0, bytes)]),
            next_ticket: 1,
            leader_active: true,
            ..Inner::default()
        })
    }
}

/// The scripted engine fetch: the next `bytes` values of the sequence.
fn engine_fetch(m: &Model, bytes: usize) -> Vec<u8> {
    let mut next = m.engine.lock().expect("model lock");
    let out: Vec<u8> = (0..bytes).map(|i| next.wrapping_add(i as u8)).collect();
    *next = next.wrapping_add(bytes as u8);
    out
}

/// Mirrors the ticket half of `Coalescer::fetch`: enqueue, then loop —
/// take the result if it landed, elect yourself if no leader is
/// active, otherwise park until the next notify. Returns the bytes and
/// whether this caller led.
fn fetch(m: &Model, bytes: usize) -> (Vec<u8>, bool) {
    let ticket = {
        let mut inner = m.inner.lock().expect("model lock");
        let id = inner.next_ticket;
        inner.next_ticket += 1;
        inner.queue.push_back((id, bytes));
        id
    };
    let mut led = false;
    loop {
        let mut inner = m.inner.lock().expect("model lock");
        if let Some(result) = inner.results.remove(&ticket) {
            return (result, led);
        }
        if !m.bug_skip_leaderless_recheck && !inner.leader_active {
            inner.leader_active = true;
            drop(inner);
            led = true;
            lead(m);
            continue;
        }
        drop(m.cv.wait(inner).expect("model wait"));
    }
}

/// Mirrors `Coalescer::lead`: drain the queue in combined fetches,
/// publish each batch's slices and notify; step down and notify once
/// the queue is empty. (The batch caps are elided: they only split one
/// drain into more passes.)
fn lead(m: &Model) {
    loop {
        let batch: Vec<(u64, usize)> = {
            let mut inner = m.inner.lock().expect("model lock");
            let batch: Vec<(u64, usize)> = inner.queue.drain(..).collect();
            if batch.is_empty() {
                inner.leader_active = false;
                drop(inner);
                m.cv.notify_all();
                return;
            }
            batch
        };
        let total: usize = batch.iter().map(|&(_, bytes)| bytes).sum();
        let buf = engine_fetch(m, total);
        {
            let mut inner = m.inner.lock().expect("model lock");
            let mut offset = 0;
            for (id, bytes) in batch {
                inner
                    .results
                    .insert(id, buf[offset..offset + bytes].to_vec());
                offset += bytes;
            }
        }
        m.cv.notify_all();
    }
}

fn bounded() -> Builder {
    Builder {
        preemption_bound: Some(2),
        max_iterations: None,
    }
}

/// Two concurrent callers, one of which ends up following. Under every
/// schedule the follower is parked or about to park while the leader
/// fetches, and the leader's result notify must reach it: both callers
/// get slices of the right length, the slices never overlap, and the
/// coalescer ends leaderless with nothing queued or unclaimed.
#[test]
fn result_notify_reaches_a_parked_follower() {
    bounded().check(|| {
        let m = Arc::new(Model::new(Inner::default()));
        let other = thread::spawn({
            let m = Arc::clone(&m);
            move || fetch(&m, 3)
        });
        let (mine, _) = fetch(&m, 2);
        let (theirs, _) = other.join().expect("caller thread");
        assert_eq!(mine.len(), 2);
        assert_eq!(theirs.len(), 3);
        assert!(
            mine.iter().all(|b| !theirs.contains(b)),
            "slices overlap: {mine:?} {theirs:?}"
        );
        let inner = m.inner.lock().expect("model lock");
        assert!(!inner.leader_active && inner.queue.is_empty());
        assert!(inner.results.is_empty(), "no result left unclaimed");
    });
}

/// A leader in office steps down while a caller files its ticket. On
/// every schedule the caller is served: either the leader drains the
/// new ticket before stepping down (the caller follows), or the leader
/// steps down first and the caller, its ticket queued with nobody
/// driving, elects itself and leads. Both hand-overs must occur across
/// the explored schedules.
#[test]
fn leader_step_down_hands_a_queued_ticket_to_its_caller() {
    static FOLLOWED: AtomicBool = AtomicBool::new(false);
    static LED: AtomicBool = AtomicBool::new(false);
    bounded().check(|| {
        let m = Arc::new(Model::with_leader(1));
        let leader = thread::spawn({
            let m = Arc::clone(&m);
            move || {
                lead(&m);
                m.inner
                    .lock()
                    .expect("model lock")
                    .results
                    .remove(&0)
                    .expect("the leader serves its own ticket")
            }
        });
        let (mine, led) = fetch(&m, 2);
        let own = leader.join().expect("leader thread");
        assert_eq!((own.len(), mine.len()), (1, 2));
        assert!(!mine.contains(&own[0]), "slices overlap");
        if led {
            LED.store(true, Ordering::SeqCst);
        } else {
            FOLLOWED.store(true, Ordering::SeqCst);
        }
        assert!(!m.inner.lock().expect("model lock").leader_active);
    });
    assert!(
        FOLLOWED.load(Ordering::SeqCst),
        "some schedule serves the caller as a follower"
    );
    assert!(
        LED.load(Ordering::SeqCst),
        "some schedule hands leadership to the caller"
    );
}

/// Regression model for half 2 of the protocol. A caller that never
/// re-checks for leaderlessness parks forever on the schedules where
/// the leader stepped down before the caller's ticket was queued: its
/// ticket sits in the queue, no leader remains, and no thread will
/// notify again. The checker must report the deadlock.
#[test]
fn follower_without_the_leaderless_recheck_parks_forever() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        loomlite::model(|| {
            let mut model = Model::with_leader(1);
            model.bug_skip_leaderless_recheck = true;
            let m = Arc::new(model);
            let leader = thread::spawn({
                let m = Arc::clone(&m);
                move || lead(&m)
            });
            let _ = fetch(&m, 2);
            leader.join().expect("leader thread");
        });
    }));
    let message = result
        .expect_err("the re-check-free follower must fail the model check")
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("deadlock"),
        "expected a deadlock report, got: {message}"
    );
}
