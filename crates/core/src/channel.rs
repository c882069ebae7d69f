//! Notification-driven bounded MPSC channel.
//!
//! A hand-rolled `Mutex<VecDeque>` + two condvars whose every blocking
//! operation is signaled rather than polled: each transition a blocked
//! peer waits on performs an explicit notify, so all waits are plain
//! (untimed) and a missing notify is a hard deadlock under a loom model
//! instead of a silent latency cliff. `drange-serve` hands accepted
//! connections from its acceptor to its worker pool through it.
//!
//! Protocol invariants:
//!
//! - `send` publishes under the state lock and notifies `data` after
//!   releasing it; `recv` consumes under the lock and notifies `space`.
//! - [`BatchChannel::close`] and [`BatchChannel::retire_sender`] mutate
//!   state *under the lock* before notifying, so a peer that checked
//!   the predicate just before the transition cannot park through the
//!   wakeup (mutation-under-lock is the moral equivalent of the lock
//!   barrier in `HarvestEngine::halt`).
//! - `recv` keeps draining queued batches after `close` — shutdown must
//!   not strand successfully-sent items.

use std::collections::VecDeque;

use crate::sync::{Condvar, Mutex};

/// State behind the channel lock.
#[derive(Debug)]
struct ChannelState<T> {
    queue: VecDeque<T>,
    /// Producers still attached; `recv` returns `None` once this hits
    /// zero with the queue drained.
    senders: usize,
    /// Raised by [`BatchChannel::close`]: further sends fail fast.
    closed: bool,
}

/// A bounded multi-producer single-consumer channel whose blocking
/// operations are purely notification-driven (no timeout polling).
///
/// `senders` is fixed at construction: each producer must call
/// [`BatchChannel::retire_sender`] exactly once when it exits, which is
/// what lets `recv` distinguish "no batch yet" from "no batch ever
/// again".
#[derive(Debug)]
pub struct BatchChannel<T> {
    state: Mutex<ChannelState<T>>,
    /// Signaled when a batch is queued or the sender population/closed
    /// flag changes — everything `recv` waits on.
    data: Condvar,
    /// Signaled when a batch is consumed or the channel closes —
    /// everything `send` waits on.
    space: Condvar,
    capacity: usize,
}

impl<T> BatchChannel<T> {
    /// A channel holding at most `capacity` batches, with `senders`
    /// attached producers. A zero capacity is rounded up to one so
    /// `send` can always make progress.
    pub fn new(capacity: usize, senders: usize) -> Self {
        BatchChannel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                senders,
                closed: false,
            }),
            data: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks until the batch is queued, waking the consumer.
    ///
    /// # Errors
    ///
    /// Returns the batch back when the channel was closed before space
    /// opened up — the caller still owns it and decides what to do
    /// with it.
    pub fn send(&self, batch: T) -> Result<(), T> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(batch);
            }
            if state.queue.len() < self.capacity {
                state.queue.push_back(batch);
                drop(state);
                self.data.notify_one();
                return Ok(());
            }
            state = self.space.wait(state);
        }
    }

    /// Queues the batch only if space is available right now, never
    /// blocking. Used by consumers that *re*-enqueue work (the server's
    /// keep-alive connection rotation), where blocking would deadlock:
    /// every worker could otherwise park in `send` with nobody left to
    /// `recv`.
    ///
    /// # Errors
    ///
    /// Returns the batch back when the channel is closed or full; the
    /// caller keeps ownership and decides (keep serving, drop, …).
    pub fn try_send(&self, batch: T) -> Result<(), T> {
        let mut state = self.state.lock();
        if state.closed || state.queue.len() >= self.capacity {
            return Err(batch);
        }
        state.queue.push_back(batch);
        drop(state);
        self.data.notify_one();
        Ok(())
    }

    /// Blocks until a batch is available and returns it, or `None` once
    /// every sender has retired and the queue is drained.
    ///
    /// Queued batches keep flowing after [`BatchChannel::close`]: close
    /// only stops *new* sends, it never strands delivered ones.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(batch) = state.queue.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(batch);
            }
            if state.senders == 0 {
                return None;
            }
            state = self.data.wait(state);
        }
    }

    /// Detaches one producer. Must be called exactly once per sender;
    /// when the last one retires, a blocked `recv` wakes and observes
    /// the end of the stream.
    pub fn retire_sender(&self) {
        let mut state = self.state.lock();
        state.senders = state.senders.saturating_sub(1);
        let last = state.senders == 0;
        drop(state);
        if last {
            self.data.notify_all();
        }
    }

    /// Closes the channel: subsequent and currently-blocked sends fail
    /// fast (returning their batch), while queued batches remain
    /// receivable. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        drop(state);
        // Both sides: blocked senders must observe `closed`, and the
        // consumer may be parked waiting for data that now never comes
        // (its senders will retire, but waking it here shortens the
        // shutdown path).
        self.space.notify_all();
        self.data.notify_all();
    }

    /// Batches currently queued (test/diagnostic use).
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Whether no batches are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn round_trip_in_order() {
        let ch = BatchChannel::new(4, 1);
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        ch.retire_sender();
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.recv(), Some(2));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn zero_capacity_rounds_up() {
        let ch = BatchChannel::new(0, 1);
        ch.send(7u64).unwrap();
        assert_eq!(ch.recv(), Some(7));
    }

    #[test]
    fn send_blocks_until_space_then_completes() {
        let ch = Arc::new(BatchChannel::new(1, 1));
        ch.send(1).unwrap();
        let producer = thread::spawn({
            let ch = Arc::clone(&ch);
            move || {
                // Blocks: capacity 1, one batch queued.
                ch.send(2).unwrap();
                ch.retire_sender();
            }
        });
        // Give the producer a chance to park (best effort; the test is
        // correct either way).
        thread::sleep(Duration::from_millis(20));
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.recv(), Some(2));
        assert_eq!(ch.recv(), None);
        producer.join().unwrap();
    }

    #[test]
    fn close_fails_blocked_sender_and_returns_the_batch() {
        let ch = Arc::new(BatchChannel::new(1, 1));
        ch.send(10).unwrap();
        let producer = thread::spawn({
            let ch = Arc::clone(&ch);
            move || {
                let out = ch.send(11);
                ch.retire_sender();
                out
            }
        });
        thread::sleep(Duration::from_millis(20));
        ch.close();
        assert_eq!(
            producer.join().unwrap(),
            Err(11),
            "sender gets its batch back"
        );
        // The batch delivered before close still drains.
        assert_eq!(ch.recv(), Some(10));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn recv_wakes_on_last_retire() {
        let ch = Arc::new(BatchChannel::<u64>::new(4, 2));
        let consumer = thread::spawn({
            let ch = Arc::clone(&ch);
            move || ch.recv()
        });
        thread::sleep(Duration::from_millis(20));
        ch.retire_sender();
        ch.retire_sender();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn try_send_never_blocks() {
        let ch = BatchChannel::new(1, 1);
        assert_eq!(ch.try_send(1), Ok(()));
        assert_eq!(ch.try_send(2), Err(2), "full channel refuses instantly");
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.try_send(3), Ok(()));
        ch.close();
        assert_eq!(ch.try_send(4), Err(4), "closed channel refuses instantly");
        // The batch delivered before close still drains.
        assert_eq!(ch.recv(), Some(3));
    }

    #[test]
    fn close_is_idempotent_and_fails_later_sends() {
        let ch = BatchChannel::new(4, 1);
        ch.close();
        ch.close();
        assert_eq!(ch.send(5), Err(5));
        assert!(ch.is_empty());
    }
}
