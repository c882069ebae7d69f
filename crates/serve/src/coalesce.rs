//! Request coalescing: batch concurrent small reads into one engine
//! fetch.
//!
//! With many clients asking for a few dozen bytes each, one pool drain
//! per HTTP request makes every client pay a pool-lock round trip and a
//! wakeup for a handful of bits. The [`Coalescer`] uses the classic
//! *combining* pattern instead: callers enqueue a ticket, the first
//! caller to observe no active leader elects itself, drains the ticket
//! queue into one combined
//! [`HarvestEngine::take_bytes_deadline`](drange_core::HarvestEngine::take_bytes_deadline),
//! splits the returned buffer back across the tickets, and wakes
//! everyone. Followers never talk to the engine; they park on one
//! condvar until their ticket's result appears.
//!
//! The wait protocol is model-checked in `tests/loom_coalesce.rs`:
//! every transition a parked thread cares about — a result landing,
//! the leader stepping down — notifies `cv`, and the park predicate
//! re-checks for leaderlessness so a caller whose leader finished
//! before it parked elects itself instead of waiting for a wakeup no
//! thread will send. The only timed wait is the leader's deadline-bound
//! pool drain; followers block on completion or leadership, never on
//! the clock.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use drange_core::sync::{deadline_after, Condvar, Mutex};
use drange_core::telemetry::{TraceId, Tracer};
use drange_core::{DrangeError, RandomnessService};

/// Why a fetch did not produce bytes. The server maps these onto the
/// HTTP error contract (`400` / `503 + Retry-After` / `500`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// The request itself is unserviceable (zero/oversized); the
    /// message is the engine's rejection. Maps to `400`.
    Rejected(String),
    /// The pool could not supply the bytes within the fetch timeout —
    /// an underrun. Maps to `503 + Retry-After`.
    Underrun,
    /// The engine failed (all workers retired, hardware error). Maps
    /// to `500`.
    Engine(String),
}

/// A ticket's slot in the combining queue.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    id: u64,
    bytes: usize,
}

#[derive(Debug, Default)]
struct CoalesceInner {
    queue: VecDeque<Ticket>,
    results: HashMap<u64, Result<Vec<u8>, FetchError>>,
    next_ticket: u64,
    leader_active: bool,
    /// Raw [`TraceId`] of the most recent leader's request trace
    /// (0 = none). Advisory: followers annotate their own spans with it
    /// so a trace viewer can jump to the combined fetch that actually
    /// talked to the engine on their behalf.
    leader_trace: u64,
}

/// The combining front-end over [`RandomnessService`].
#[derive(Debug)]
pub struct Coalescer {
    inner: Mutex<CoalesceInner>,
    cv: Condvar,
    /// Requests larger than this bypass coalescing (one engine request
    /// of their own): batching helps many small reads, not bulk pulls.
    max_coalesced_bytes: usize,
    /// Cap on tickets combined into one engine request.
    max_batch_tickets: usize,
    /// Cap on total bytes combined into one engine request.
    max_batch_bytes: usize,
    /// Engine-side wait bound; expiry is an underrun.
    fetch_timeout: Duration,
}

impl Coalescer {
    /// Creates a coalescer. A combined request holds at most
    /// `max_batch_tickets` tickets and `max_batch_bytes` bytes, and
    /// never more than the service's pool capacity: the engine rejects
    /// a larger request outright, which would fail every ticket in it
    /// though each alone is servable. Fetches trace through the
    /// service's tracer: every fetch records a `serve.fetch` span (mode
    /// direct/leader/follower) and each combined engine round-trip a
    /// `serve.combine` span.
    #[must_use]
    pub fn new(
        max_coalesced_bytes: usize,
        max_batch_tickets: usize,
        max_batch_bytes: usize,
        fetch_timeout: Duration,
    ) -> Self {
        Coalescer {
            inner: Mutex::new(CoalesceInner::default()),
            cv: Condvar::new(),
            max_coalesced_bytes,
            max_batch_tickets: max_batch_tickets.max(1),
            max_batch_bytes: max_batch_bytes.max(1),
            fetch_timeout,
        }
    }

    /// Fetches `bytes` random bytes, combining with concurrent callers
    /// when the request is small. Blocks until the bytes arrive or the
    /// engine-side wait times out ([`FetchError::Underrun`]).
    pub fn fetch(&self, service: &RandomnessService, bytes: usize) -> Result<Vec<u8>, FetchError> {
        let mut span = service.tracer().span("serve.fetch");
        span.attr_u64("bytes", bytes as u64);
        if bytes > self.max_coalesced_bytes {
            span.attr_str("mode", "direct");
            return self.fetch_direct(service, bytes);
        }
        let ticket = {
            let mut inner = self.inner.lock();
            let id = inner.next_ticket;
            inner.next_ticket = inner.next_ticket.wrapping_add(1);
            inner.queue.push_back(Ticket { id, bytes });
            id
        };
        let mut led = false;
        loop {
            let mut inner = self.inner.lock();
            if let Some(result) = inner.results.remove(&ticket) {
                if span.is_recording() {
                    span.attr_str("mode", if led { "leader" } else { "follower" });
                    if !led {
                        // Advisory: the leader serving this ticket's
                        // batch stamped its trace last; a later batch
                        // may have overwritten it, so this is a hint,
                        // not a guarantee.
                        if let Some(leader) = TraceId::from_u64(inner.leader_trace) {
                            span.attr_str("leader_trace", &format!("{leader}"));
                        }
                    }
                }
                return result;
            }
            if !inner.leader_active {
                // No result and no leader: our ticket is queued with
                // nobody driving — combine and fetch ourselves.
                inner.leader_active = true;
                drop(inner);
                led = true;
                self.lead(service);
                continue;
            }
            // Park until a result or a leadership change; the next pass
            // re-locks.
            drop(self.cv.wait(inner));
        }
    }

    /// One engine round-trip: a deadline-bound drain of the service's
    /// pool, for a request too large to combine or a combined batch.
    fn fetch_direct(
        &self,
        service: &RandomnessService,
        bytes: usize,
    ) -> Result<Vec<u8>, FetchError> {
        match service
            .engine()
            .take_bytes_deadline(bytes, deadline_after(self.fetch_timeout))
        {
            Ok(Some(buf)) => Ok(buf),
            Ok(None) => Err(FetchError::Underrun),
            Err(e) => Err(classify(e)),
        }
    }

    /// Leader duty: drain the ticket queue in combined batches until
    /// it is empty, then step down and wake everyone.
    fn lead(&self, service: &RandomnessService) {
        let max_batch_bytes = self
            .max_batch_bytes
            .min(service.engine().config().queue_capacity / 8);
        loop {
            let batch = {
                let mut inner = self.inner.lock();
                let mut batch: Vec<Ticket> = Vec::new();
                let mut total = 0usize;
                while batch.len() < self.max_batch_tickets {
                    let Some(&head) = inner.queue.front() else {
                        break;
                    };
                    if !batch.is_empty() && total + head.bytes > max_batch_bytes {
                        break;
                    }
                    inner.queue.pop_front();
                    total += head.bytes;
                    batch.push(head);
                }
                if batch.is_empty() {
                    inner.leader_active = false;
                    drop(inner);
                    self.cv.notify_all();
                    return;
                }
                if let Some(trace) = Tracer::current_trace() {
                    inner.leader_trace = trace.as_u64();
                }
                batch
            };
            let total: usize = batch.iter().map(|t| t.bytes).sum();
            let mut combine_span = service.tracer().span("serve.combine");
            if combine_span.is_recording() {
                combine_span.attr_u64("tickets", batch.len() as u64);
                combine_span.attr_u64("bytes", total as u64);
            }
            let outcome = self.fetch_direct(service, total);
            drop(combine_span);
            {
                let mut inner = self.inner.lock();
                match outcome {
                    Ok(buf) => {
                        let mut offset = 0usize;
                        for ticket in &batch {
                            let slice = buf.get(offset..offset + ticket.bytes).map(<[u8]>::to_vec);
                            offset += ticket.bytes;
                            // The engine returns exactly `total` bytes;
                            // a short buffer would be an engine bug and
                            // is reported, not sliced past.
                            let result = slice.ok_or_else(|| {
                                FetchError::Engine("combined fetch returned short buffer".into())
                            });
                            inner.results.insert(ticket.id, result);
                        }
                    }
                    Err(e) => {
                        for ticket in &batch {
                            inner.results.insert(ticket.id, Err(e.clone()));
                        }
                    }
                }
            }
            self.cv.notify_all();
        }
    }
}

/// Classifies an engine error: spec rejections are client errors,
/// everything else is an engine failure.
fn classify(e: DrangeError) -> FetchError {
    match e {
        DrangeError::InvalidSpec(msg) => FetchError::Rejected(msg),
        other => FetchError::Engine(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::thread;

    use crate::source::PrngHarvestSource;
    use drange_core::engine::HarvestSource;
    use drange_core::{BitBlock, ServiceConfig};

    fn service() -> Arc<RandomnessService> {
        let sources = vec![
            PrngHarvestSource::new(0xD1CE_5EED),
            PrngHarvestSource::new(0xFEED_F00D),
        ];
        Arc::new(
            RandomnessService::with_sources_telemetry(
                sources,
                ServiceConfig {
                    queue_capacity: 1 << 16,
                    low_watermark: 1 << 12,
                    min_entropy: 0.9,
                    drbg: None,
                },
                None,
            )
            .expect("prng service must spawn"),
        )
    }

    #[test]
    fn single_caller_gets_exact_bytes() {
        let svc = service();
        let co = Coalescer::new(1024, 64, 4096, Duration::from_secs(5));
        let buf = co.fetch(&svc, 48).expect("fetch must complete");
        assert_eq!(buf.len(), 48);
    }

    #[test]
    fn concurrent_small_fetches_combine_and_stay_disjoint() {
        let svc = service();
        let co = Arc::new(Coalescer::new(1024, 64, 4096, Duration::from_secs(10)));
        let mut handles = Vec::new();
        for i in 0..16usize {
            let svc = Arc::clone(&svc);
            let co = Arc::clone(&co);
            handles.push(thread::spawn(move || {
                let bytes = 8 + (i % 5) * 4;
                let buf = co.fetch(&svc, bytes).expect("combined fetch");
                assert_eq!(buf.len(), bytes);
                buf
            }));
        }
        let buffers: Vec<Vec<u8>> = handles
            .into_iter()
            .map(|h| h.join().expect("fetch thread"))
            .collect();
        // Splitting one engine buffer across tickets must never hand
        // two callers the same bytes; with a uniform source, any
        // duplicate buffer is an aliasing bug, not a coincidence.
        for a in 0..buffers.len() {
            for b in (a + 1)..buffers.len() {
                if buffers[a].len() == buffers[b].len() && buffers[a].len() >= 8 {
                    assert_ne!(buffers[a], buffers[b], "tickets {a} and {b} alias");
                }
            }
        }
        assert_eq!(svc.outstanding_requests(), 0, "no request id may leak");
    }

    #[test]
    fn oversized_request_is_rejected_not_hung() {
        let svc = service();
        let co = Coalescer::new(1024, 64, 4096, Duration::from_secs(1));
        let out = co.fetch(&svc, 1 << 20);
        assert!(
            matches!(out, Err(FetchError::Rejected(_))),
            "a request beyond pool capacity must be rejected: {out:?}"
        );
        assert_eq!(svc.outstanding_requests(), 0);
    }

    /// A PRNG source whose first batch waits at `gate`: the pool stays
    /// empty until the test has lined up the interleaving it checks.
    #[derive(Debug)]
    struct GatedSource {
        prng: PrngHarvestSource,
        gate: Option<Arc<Barrier>>,
    }

    impl HarvestSource for GatedSource {
        fn harvest_batch(&mut self) -> drange_core::Result<BitBlock> {
            if let Some(gate) = self.gate.take() {
                gate.wait();
            }
            self.prng.harvest_batch()
        }
    }

    /// Polls the combining state until `done` holds (at least 30 s).
    fn wait_until(co: &Coalescer, what: &str, done: impl Fn(&CoalesceInner) -> bool) {
        for _ in 0..30_000 {
            if done(&co.inner.lock()) {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("the coalescer never reached: {what}");
    }

    #[test]
    fn combined_fetch_stays_within_the_pool() {
        // Fifteen 1 KiB tickets queue behind a leader parked on an
        // empty 64 Kibit pool. Each is servable alone; combined they
        // are 120 Kibit, which the engine would reject for all fifteen.
        let gate = Arc::new(Barrier::new(2));
        let source = GatedSource {
            prng: PrngHarvestSource::new(0x0C0A_1E5C),
            gate: Some(Arc::clone(&gate)),
        };
        let config = ServiceConfig {
            queue_capacity: 1 << 16,
            low_watermark: 1 << 12,
            min_entropy: 0.9,
            drbg: None,
        };
        let svc = Arc::new(
            RandomnessService::with_sources_telemetry(vec![source], config, None)
                .expect("gated service must spawn"),
        );
        // The server's caps: 64 tickets of up to 1 KiB each.
        let co = Arc::new(Coalescer::new(1024, 64, 64 * 1024, Duration::from_secs(30)));
        let fetch = || {
            let (co, svc) = (Arc::clone(&co), Arc::clone(&svc));
            thread::spawn(move || co.fetch(&svc, 1024))
        };
        let leader = fetch();
        wait_until(&co, "a leader holding its own ticket", |inner| {
            inner.leader_active && inner.queue.is_empty()
        });
        let followers: Vec<_> = (0..15).map(|_| fetch()).collect();
        wait_until(&co, "fifteen queued followers", |inner| {
            inner.queue.len() == 15
        });
        gate.wait();
        for (i, handle) in std::iter::once(leader).chain(followers).enumerate() {
            let out = handle.join().expect("fetch thread");
            assert_eq!(out.map(|buf| buf.len()), Ok(1024), "ticket {i}");
        }
        assert_eq!(svc.outstanding_requests(), 0);
    }
}
