//! Push-capable slot ingestion: a bounded producer/consumer channel that
//! implements [`SlotSource`] on the consumer side.
//!
//! The trace-backed sources pull slots out of memory; a resident service
//! instead has slots *arriving* — over a socket, from a replay thread, from
//! an operator console. [`push_source`] splits that flow into a
//! [`PushHandle`] (producer side: ingestion threads call
//! [`PushHandle::push`]) and a [`PushSource`] (consumer side: owned by the
//! engine). The contract:
//!
//! * **Bounded + backpressure.** The queue holds at most `capacity` slots.
//!   `push` blocks until the engine drains one — a slow consumer slows the
//!   producer down instead of dropping or buffering unboundedly.
//! * **In order, exactly once.** Slot `t` must be pushed with index `t`;
//!   out-of-order pushes are rejected with [`PushError::OutOfOrder`]
//!   rather than silently reordered.
//! * **Typed termination.** [`PushHandle::close`] (or dropping the handle)
//!   ends the stream: the source reports [`PollSlot::Closed`] once the
//!   queue drains. Until then an empty queue is [`PollSlot::Pending`] —
//!   "not yet available" and "no more slots" are distinct outcomes.
//! * **No busy-waiting.** [`SlotSource::wait_slot`] parks on a condvar
//!   until a slot arrives, the stream closes, or the timeout lapses.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use coca_traces::SlotEnv;

use crate::engine::{PollSlot, SlotSource};

/// Why a push was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The stream was closed (or the consuming source was dropped).
    Closed,
    /// Slots must arrive strictly in order, starting at 0.
    OutOfOrder {
        /// The slot index the queue expected next.
        expected: usize,
        /// The slot index the producer tried to push.
        got: usize,
    },
    /// The slot environment failed validation (non-finite or negative).
    Invalid(String),
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Closed => write!(f, "slot stream is closed"),
            PushError::OutOfOrder { expected, got } => {
                write!(f, "out-of-order slot: expected {expected}, got {got}")
            }
            PushError::Invalid(msg) => write!(f, "invalid slot: {msg}"),
        }
    }
}

impl std::error::Error for PushError {}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<SlotEnv>,
    /// Slot index the producer must push next (strictly increasing).
    next_push: usize,
    /// Producer closed the stream (no more slots will arrive).
    closed: bool,
    /// Consumer side was dropped; pushes can never be drained.
    receiver_gone: bool,
}

#[derive(Debug)]
struct Shared {
    capacity: usize,
    state: Mutex<QueueState>,
    /// Signaled when queue space frees up or the consumer goes away.
    can_push: Condvar,
    /// Signaled when a slot arrives or the stream closes.
    can_poll: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("push-source mutex poisoned")
    }
}

/// Producer side of a [`push_source`] channel.
#[derive(Debug)]
pub struct PushHandle {
    shared: Arc<Shared>,
}

/// Consumer side of a [`push_source`] channel; hand it to the engine.
#[derive(Debug)]
pub struct PushSource {
    shared: Arc<Shared>,
}

/// Creates a bounded push channel with room for `capacity` undrained slots.
///
/// # Panics
/// Panics if `capacity` is 0 (a zero-capacity queue can never transfer).
pub fn push_source(capacity: usize) -> (PushHandle, PushSource) {
    push_source_at(capacity, 0)
}

/// Like [`push_source`], but the stream begins at slot `first_slot` instead
/// of 0 — the resume path: an engine restored from a checkpoint at slot `k`
/// is fed by a channel expecting `k` next, so re-ingestion continues
/// exactly where the previous process stopped.
///
/// # Panics
/// Panics if `capacity` is 0 (a zero-capacity queue can never transfer).
pub fn push_source_at(capacity: usize, first_slot: usize) -> (PushHandle, PushSource) {
    assert!(capacity > 0, "push_source capacity must be at least 1");
    let shared = Arc::new(Shared {
        capacity,
        state: Mutex::new(QueueState {
            queue: VecDeque::with_capacity(capacity.min(1024)),
            next_push: first_slot,
            closed: false,
            receiver_gone: false,
        }),
        can_push: Condvar::new(),
        can_poll: Condvar::new(),
    });
    (PushHandle { shared: Arc::clone(&shared) }, PushSource { shared })
}

fn validate_env(env: &SlotEnv) -> Result<(), PushError> {
    for (name, v) in [
        ("arrival_rate", env.arrival_rate),
        ("onsite", env.onsite),
        ("price", env.price),
        ("offsite", env.offsite),
    ] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(PushError::Invalid(format!("{name} = {v} at slot {}", env.t)));
        }
    }
    Ok(())
}

impl PushHandle {
    /// Pushes the next slot, blocking while the queue is full
    /// (backpressure). Fails if the stream is closed, the consumer is
    /// gone, the slot index is out of order, or the values are invalid.
    pub fn push(&self, env: SlotEnv) -> Result<(), PushError> {
        validate_env(&env)?;
        let mut st = self.shared.lock();
        loop {
            if st.closed || st.receiver_gone {
                return Err(PushError::Closed);
            }
            if env.t != st.next_push {
                return Err(PushError::OutOfOrder { expected: st.next_push, got: env.t });
            }
            if st.queue.len() < self.shared.capacity {
                st.queue.push_back(env);
                st.next_push += 1;
                self.shared.can_poll.notify_all();
                return Ok(());
            }
            st = self.shared.can_push.wait(st).expect("push-source mutex poisoned");
        }
    }

    /// Closes the stream: queued slots still drain, then the source
    /// reports [`PollSlot::Closed`]. Idempotent.
    pub fn close(&self) {
        let mut st = self.shared.lock();
        st.closed = true;
        self.shared.can_poll.notify_all();
        self.shared.can_push.notify_all();
    }
}

impl Drop for PushHandle {
    fn drop(&mut self) {
        self.close();
    }
}

impl Drop for PushSource {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.receiver_gone = true;
        self.shared.can_push.notify_all();
    }
}

impl PushSource {
    /// Number of slots currently queued and undrained.
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }
}

impl SlotSource for PushSource {
    fn poll_slot(&mut self, t: usize) -> PollSlot {
        let mut st = self.shared.lock();
        match st.queue.pop_front() {
            Some(env) => {
                debug_assert_eq!(env.t, t, "push queue delivers slots in order");
                self.shared.can_push.notify_all();
                PollSlot::Ready(env)
            }
            None if st.closed => PollSlot::Closed,
            None => PollSlot::Pending,
        }
    }

    fn wait_slot(&mut self, t: usize, timeout: Option<Duration>) -> PollSlot {
        // audit:ordered(wall clock bounds the wait only; slot payloads arrive in slot order — see the debug_assert below)
        let deadline = timeout.map(|d| Instant::now() + d);
        let mut st = self.shared.lock();
        loop {
            if let Some(env) = st.queue.pop_front() {
                debug_assert_eq!(env.t, t, "push queue delivers slots in order");
                self.shared.can_push.notify_all();
                return PollSlot::Ready(env);
            }
            if st.closed {
                return PollSlot::Closed;
            }
            match deadline {
                None => {
                    st = self.shared.can_poll.wait(st).expect("push-source mutex poisoned");
                }
                Some(deadline) => {
                    // audit:ordered(wall clock bounds the wait only; a lapsed deadline yields Pending, never a different slot)
                    let now = Instant::now();
                    if now >= deadline {
                        return PollSlot::Pending;
                    }
                    let (guard, _) = self
                        .shared
                        .can_poll
                        .wait_timeout(st, deadline - now)
                        .expect("push-source mutex poisoned");
                    st = guard;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn env(t: usize) -> SlotEnv {
        SlotEnv { t, arrival_rate: 100.0, onsite: 5.0, price: 0.05, offsite: 10.0 }
    }

    #[test]
    fn pending_and_closed_are_distinct() {
        let (handle, mut source) = push_source(4);
        assert_eq!(source.poll_slot(0), PollSlot::Pending, "empty but open");
        handle.push(env(0)).unwrap();
        assert_eq!(source.poll_slot(0), PollSlot::Ready(env(0)));
        assert_eq!(source.poll_slot(1), PollSlot::Pending);
        handle.close();
        assert_eq!(source.poll_slot(1), PollSlot::Closed, "closed and drained");
    }

    #[test]
    fn queued_slots_drain_after_close() {
        let (handle, mut source) = push_source(4);
        handle.push(env(0)).unwrap();
        handle.push(env(1)).unwrap();
        handle.close();
        assert_eq!(source.poll_slot(0), PollSlot::Ready(env(0)));
        assert_eq!(source.poll_slot(1), PollSlot::Ready(env(1)));
        assert_eq!(source.poll_slot(2), PollSlot::Closed);
    }

    #[test]
    fn out_of_order_and_invalid_pushes_rejected() {
        let (handle, _source) = push_source(4);
        assert_eq!(
            handle.push(env(3)),
            Err(PushError::OutOfOrder { expected: 0, got: 3 })
        );
        let mut bad = env(0);
        bad.price = f64::NAN;
        assert!(matches!(handle.push(bad), Err(PushError::Invalid(_))));
        handle.push(env(0)).unwrap();
        assert_eq!(
            handle.push(env(0)),
            Err(PushError::OutOfOrder { expected: 1, got: 0 }),
            "each slot is accepted once"
        );
    }

    #[test]
    fn push_after_close_or_receiver_drop_errors() {
        let (handle, source) = push_source(4);
        drop(source);
        assert_eq!(handle.push(env(0)), Err(PushError::Closed));
        let (handle, _source) = push_source(4);
        handle.close();
        assert_eq!(handle.push(env(0)), Err(PushError::Closed));
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let (handle, mut source) = push_source(2);
        handle.push(env(0)).unwrap();
        handle.push(env(1)).unwrap();
        assert_eq!(source.queued(), 2);

        // Blocking push proceeds once the consumer drains a slot.
        let producer = thread::spawn(move || {
            handle.push(env(2)).unwrap();
            handle
        });
        // The producer is (very likely) parked on the full queue; drain one.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(source.poll_slot(0), PollSlot::Ready(env(0)));
        let _handle = producer.join().unwrap();
        assert_eq!(source.queued(), 2);
        assert_eq!(source.poll_slot(1), PollSlot::Ready(env(1)));
        assert_eq!(source.poll_slot(2), PollSlot::Ready(env(2)));
    }

    #[test]
    fn resumed_channel_starts_at_first_slot() {
        let (handle, mut source) = push_source_at(4, 7);
        assert_eq!(
            handle.push(env(0)),
            Err(PushError::OutOfOrder { expected: 7, got: 0 })
        );
        handle.push(env(7)).unwrap();
        assert_eq!(source.poll_slot(7), PollSlot::Ready(env(7)));
    }

    #[test]
    fn wait_slot_times_out_and_wakes_on_push() {
        let (handle, mut source) = push_source(4);
        let start = Instant::now();
        assert_eq!(
            source.wait_slot(0, Some(Duration::from_millis(30))),
            PollSlot::Pending
        );
        assert!(start.elapsed() >= Duration::from_millis(30));

        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            handle.push(env(0)).unwrap();
            handle.close();
        });
        assert_eq!(source.wait_slot(0, None), PollSlot::Ready(env(0)));
        assert_eq!(source.wait_slot(1, None), PollSlot::Closed);
        producer.join().unwrap();
    }
}
