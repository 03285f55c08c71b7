//! The message path's two primitives over `std::sync`: the unbounded inbox
//! [`channel`] every envelope travels through, and a non-poisoning
//! [`Mutex`]. The runtime blocks and locks through this one module.

use std::sync::{MutexGuard, PoisonError};

/// A mutual-exclusion lock that does not poison: after a panic while it was
/// held, the next `lock` returns the data as the panicking thread left it.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub mod channel {
    //! An unbounded multi-producer channel over a mutex-protected queue and
    //! a condition variable. Its one receiver may be shared between threads.

    use super::Mutex;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, PoisonError};
    use std::time::{Duration, Instant};

    /// Largest drained buffer (in messages) kept as a channel's spare; a
    /// larger one — left by a backlog spike — is freed, so a spike cannot pin
    /// its memory for the channel's lifetime.
    pub(super) const SPARE_CAP: usize = 1024;

    struct Queue<T> {
        items: VecDeque<T>,
        /// An empty buffer that [`Receiver::try_iter`] swaps in for the one
        /// it claims, handed back when the drained [`TryIter`] drops: a
        /// steady sender/drainer pair alternates two buffers and never
        /// reallocates either.
        spare: VecDeque<T>,
    }

    struct Inner<T> {
        queue: Mutex<Queue<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receiver_dropped: AtomicBool,
        /// Receivers currently blocked in `wait`/`wait_timeout`. Incremented
        /// under the queue lock before waiting, so a sender that pushes and
        /// then reads 0 is guaranteed no receiver was parked at push time —
        /// letting the hot path skip the condvar signal entirely when the
        /// consumer is busy draining (the common case under load).
        waiters: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and all
    /// senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait timed out with the channel still empty.
        Timeout,
        /// All senders disconnected and the channel is drained.
        Disconnected,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                spare: VecDeque::new(),
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receiver_dropped: AtomicBool::new(false),
            waiters: AtomicUsize::new(0),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues a message; fails only if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.inner.receiver_dropped.load(Ordering::Acquire) {
                return Err(SendError(value));
            }
            self.inner.queue.lock().items.push_back(value);
            // Only signal when a receiver is actually parked: `waiters` is
            // incremented under the queue lock before waiting, so reading 0
            // here (after push, which synchronized on that same lock) proves
            // no receiver can be stuck — it will observe the pushed element
            // on its pre-wait check.
            if self.inner.waiters.load(Ordering::Acquire) > 0 {
                self.inner.ready.notify_one();
            }
            Ok(())
        }

        /// Enqueues every message of `values`, in order, under one lock
        /// acquisition, then checks for parked receivers once: a concurrent
        /// [`Receiver::try_iter`] claims the whole burst or none of it. Fails,
        /// consuming nothing, only if the receiver was dropped.
        pub fn send_iter<I: IntoIterator<Item = T>>(&self, values: I) -> Result<(), SendError<I>> {
            if self.inner.receiver_dropped.load(Ordering::Acquire) {
                return Err(SendError(values));
            }
            self.inner.queue.lock().items.extend(values);
            // As in `send`; all of them, since a burst can feed several.
            if self.inner.waiters.load(Ordering::Acquire) > 0 {
                self.inner.ready.notify_all();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe the
                // disconnection. A receiver checks `senders` and then waits
                // without releasing the queue lock in between, so passing
                // through that lock first puts the notification either before
                // its check or after its wait began — never in the gap, where
                // it would be lost and the receiver would wait forever.
                drop(self.inner.queue.lock());
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message is available or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_timeout(Duration::MAX).map_err(|_| RecvError)
        }

        /// Waits at most `timeout` for a message; a timeout too long to
        /// express as an instant (`Duration::MAX`) has no deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now().checked_add(timeout);
            let mut queue = self.inner.queue.lock();
            loop {
                if let Some(v) = queue.items.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                // `Duration::MAX` is an unbounded wait to the condvar too; an
                // early wake-up only goes round the loop again.
                let left = match deadline {
                    Some(deadline) => deadline
                        .checked_duration_since(Instant::now())
                        .ok_or(RecvTimeoutError::Timeout)?,
                    None => Duration::MAX,
                };
                self.inner.waiters.fetch_add(1, Ordering::AcqRel);
                let waited = self.inner.ready.wait_timeout(queue, left);
                queue = waited.unwrap_or_else(PoisonError::into_inner).0;
                self.inner.waiters.fetch_sub(1, Ordering::AcqRel);
            }
        }

        /// Removes and returns a message if one is immediately available.
        pub fn try_recv(&self) -> Option<T> {
            self.inner.queue.lock().items.pop_front()
        }

        /// Whether the channel holds no message right now. Goes through the
        /// queue lock, so a check that follows a store on the calling thread
        /// is ordered after every `send` whose message it does not see.
        pub fn is_empty(&self) -> bool {
            self.inner.queue.lock().items.is_empty()
        }

        /// An iterator over the messages that are in the channel right now;
        /// never blocks. The whole backlog is claimed under one lock, so
        /// draining N messages costs one lock acquisition instead of N
        /// (messages arriving while iterating are left for the next call).
        /// The claimed buffer is replaced by the channel's spare and returns
        /// as the next spare when the iterator drops, so draining allocates
        /// nothing.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            let mut queue = self.inner.queue.lock();
            let drained = if queue.items.is_empty() {
                VecDeque::new()
            } else {
                let spare = std::mem::take(&mut queue.spare);
                std::mem::replace(&mut queue.items, spare)
            };
            TryIter {
                drained,
                receiver: self,
            }
        }

        /// `(queue, spare)` buffer capacities, for the tests.
        #[cfg(test)]
        pub(super) fn capacities(&self) -> (usize, usize) {
            let queue = self.inner.queue.lock();
            (queue.items.capacity(), queue.spare.capacity())
        }
    }

    /// Iterator returned by [`Receiver::try_iter`]. Dropping it before
    /// exhaustion puts the unconsumed messages back at the front of the
    /// channel, in order, ahead of what arrived meanwhile; either way its
    /// emptied buffer becomes the channel's spare unless that is taken or
    /// the buffer is larger than the bound.
    pub struct TryIter<'a, T> {
        drained: VecDeque<T>,
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.drained.pop_front()
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.drained.len(), Some(self.drained.len()))
        }
    }

    impl<T> Drop for TryIter<'_, T> {
        fn drop(&mut self) {
            if self.drained.capacity() == 0 {
                return; // claimed nothing: no buffer to hand back
            }
            let inner = &self.receiver.inner;
            let mut queue = inner.queue.lock();
            let leftovers = !self.drained.is_empty();
            if leftovers {
                // Leftovers first, then whatever arrived meanwhile; the
                // buffer that held the arrivals is the one handed back.
                self.drained.append(&mut queue.items);
                std::mem::swap(&mut queue.items, &mut self.drained);
            }
            if queue.spare.capacity() == 0 && self.drained.capacity() <= SPARE_CAP {
                queue.spare = std::mem::take(&mut self.drained);
            }
            drop(queue);
            // A thread blocked in `recv` on the same shared receiver may have
            // parked while this iterator held the backlog; wake it, exactly
            // like a send would.
            if leftovers && inner.waiters.load(Ordering::Acquire) > 0 {
                inner.ready.notify_one();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receiver_dropped.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use super::Mutex;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    /// Also: a timeout no instant can hold (`Duration::MAX`) is no
    /// deadline, not an overflow.
    #[test]
    fn timeout_on_empty_channel() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(3));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(
            rx.recv_timeout(Duration::MAX),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn disconnect_drains_pending_messages_first() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    /// A `recv` blocked on an empty channel returns when another thread
    /// drops the last sender (what "join a server" waits on). The
    /// barrier releases both sides together so the drop lands around the
    /// receiver's disconnection check; a lost wake-up shows as a hang
    /// (with the notification outside the queue lock, within ~10⁶
    /// rounds).
    #[test]
    fn blocked_recv_wakes_when_the_last_sender_drops() {
        use std::sync::mpsc;
        let barrier = Arc::new(Barrier::new(2));
        let (hand_over, senders) = mpsc::channel::<Sender<()>>();
        let dropper = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for tx in senders {
                    barrier.wait();
                    drop(tx);
                }
            })
        };
        for _ in 0..50_000 {
            let (tx, rx) = unbounded::<()>();
            hand_over.send(tx).unwrap();
            barrier.wait();
            assert_eq!(rx.recv(), Err(RecvError));
        }
        drop(hand_over);
        dropper.join().unwrap();
    }

    #[test]
    fn try_iter_drains_and_preserves_leftovers() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        // Partially consume, then drop: leftovers must stay in order.
        {
            let mut it = rx.try_iter();
            assert_eq!(it.next(), Some(0));
            assert_eq!(it.next(), Some(1));
        }
        tx.send(5).unwrap();
        let rest: Vec<i32> = rx.try_iter().collect();
        assert_eq!(rest, vec![2, 3, 4, 5]);
        assert!(rx.try_iter().next().is_none());
    }

    /// A `send_iter` burst is claimed by a concurrent `try_iter` whole or
    /// not at all. The barrier releases the burst and the drain together
    /// every round, so the drain lands before, after and — were the burst
    /// not one critical section — inside it.
    #[test]
    fn a_send_iter_burst_is_claimed_whole_or_not_at_all() {
        const BURST: usize = 8;
        const ROUNDS: usize = 20_000;
        let barrier = Arc::new(Barrier::new(2));
        let (tx, rx) = unbounded();
        let sender = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    tx.send_iter((0..BURST).map(|i| round * BURST + i)).unwrap();
                    barrier.wait();
                }
            })
        };
        let mut next = 0;
        for _ in 0..ROUNDS {
            barrier.wait();
            let racing: Vec<usize> = rx.try_iter().collect();
            barrier.wait(); // the burst is in
            let rest: Vec<usize> = rx.try_iter().collect();
            assert!(
                racing.is_empty() || rest.is_empty(),
                "burst split: {racing:?} / {rest:?}"
            );
            for v in racing.into_iter().chain(rest) {
                assert_eq!(v, next);
                next += 1;
            }
        }
        sender.join().unwrap();
        assert_eq!(next, ROUNDS * BURST);
    }

    /// A partial drain puts the rest back in order ahead of what arrived
    /// meanwhile, and a drained buffer comes back as the spare that the
    /// next `try_iter` swaps in.
    #[test]
    fn a_partial_drain_requeues_in_order_then_the_spare_is_reused() {
        let (tx, rx) = unbounded();
        tx.send_iter(0..100).unwrap();
        {
            let mut it = rx.try_iter();
            assert_eq!(it.next(), Some(0));
            assert_eq!(it.next(), Some(1));
            tx.send(100).unwrap();
        }
        let rest: Vec<i32> = rx.try_iter().collect();
        assert_eq!(rest, (2..=100).collect::<Vec<_>>());
        let (_, spare) = rx.capacities();
        assert!(spare >= 99, "the drained buffer is the spare ({spare})");
        tx.send(101).unwrap();
        let mut it = rx.try_iter();
        assert_eq!(rx.capacities(), (spare, 0), "the spare became the queue");
        assert_eq!(it.next(), Some(101));
        drop(it);
        assert!(rx.capacities().1 > 0, "and the claimed buffer the spare");
        assert!(rx.try_iter().next().is_none());
    }

    /// A backlog spike's buffer is freed once drained, not kept as the
    /// spare: neither buffer is left above the bound.
    #[test]
    fn a_drained_spike_leaves_no_buffer_above_the_bound() {
        let (tx, rx) = unbounded();
        tx.send_iter(0..100_000).unwrap();
        assert_eq!(rx.try_iter().count(), 100_000);
        let (queue, spare) = rx.capacities();
        assert!(
            queue <= SPARE_CAP && spare <= SPARE_CAP,
            "buffers of {queue} and {spare} messages kept after the spike"
        );
        tx.send(1).unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        let (queue, spare) = rx.capacities();
        assert!(queue <= SPARE_CAP && spare <= SPARE_CAP);
    }

    /// Two threads drain one shared receiver concurrently with a
    /// bursting sender, so one iterator's spare hand-back races the
    /// other's claim: every message is still delivered exactly once, and
    /// each thread sees its share in send order.
    #[test]
    fn spare_hand_back_races_a_concurrent_drain_without_loss() {
        const BURST: usize = 4;
        const ROUNDS: usize = 10_000;
        let barrier = Barrier::new(3);
        let (tx, rx) = unbounded();
        let drain = || {
            let mut seen = Vec::new();
            for _ in 0..ROUNDS {
                barrier.wait();
                seen.extend(rx.try_iter());
                seen.extend(rx.try_iter());
                barrier.wait();
            }
            seen
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(drain);
            let b = s.spawn(drain);
            for round in 0..ROUNDS {
                barrier.wait();
                tx.send_iter((0..BURST).map(|i| round * BURST + i)).unwrap();
                barrier.wait();
            }
            (a.join().unwrap(), b.join().unwrap())
        });
        let late: Vec<usize> = rx.try_iter().collect();
        for seen in [&a, &b, &late] {
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "out of order");
        }
        let mut all: Vec<usize> = a.into_iter().chain(b).chain(late).collect();
        all.sort_unstable();
        assert_eq!(all, (0..ROUNDS * BURST).collect::<Vec<_>>());
    }

    #[test]
    fn is_empty_follows_sends_and_claims() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        assert!(!rx.is_empty());
        assert_eq!(rx.try_iter().count(), 1);
        assert!(rx.is_empty());
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        t.join().unwrap();
        assert_eq!(sum, 4950);
    }
}
