//! Offline shim for the `crossbeam` crate.
//!
//! Provides the subset of `crossbeam::channel` the workspace uses: an
//! unbounded MPMC channel with cloneable senders and receivers, blocking
//! `recv`, and `recv_timeout`. Implemented with a mutex-protected queue and a
//! condition variable; disconnection semantics (all senders dropped ⇒
//! `Disconnected`) match the real crate.

pub mod channel {
    //! Multi-producer multi-consumer channels.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Receivers currently blocked in `wait`/`wait_timeout`. Incremented
        /// under the queue lock before waiting, so a sender that pushes and
        /// then reads 0 is guaranteed no receiver was parked at push time —
        /// letting the hot path skip the condvar signal entirely when the
        /// consumer is busy draining (the common case under load).
        waiters: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
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

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "receive timed out"),
                RecvTimeoutError::Disconnected => write!(f, "channel disconnected"),
            }
        }
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
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
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
        /// Enqueues a message; fails only if every receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.push_back(value);
            drop(queue);
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
                drop(self.inner.queue.lock().unwrap_or_else(|p| p.into_inner()));
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        fn disconnected(&self) -> bool {
            self.inner.senders.load(Ordering::Acquire) == 0
        }

        /// Blocks until a message is available or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = queue.pop_front() {
                    return Ok(v);
                }
                if self.disconnected() {
                    return Err(RecvError);
                }
                self.inner.waiters.fetch_add(1, Ordering::AcqRel);
                let waited = self.inner.ready.wait(queue);
                self.inner.waiters.fetch_sub(1, Ordering::AcqRel);
                queue = waited.unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Waits at most `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = queue.pop_front() {
                    return Ok(v);
                }
                if self.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    return Err(RecvTimeoutError::Timeout);
                };
                self.inner.waiters.fetch_add(1, Ordering::AcqRel);
                let waited = self.inner.ready.wait_timeout(queue, remaining);
                self.inner.waiters.fetch_sub(1, Ordering::AcqRel);
                let (guard, result) = waited.unwrap_or_else(|p| p.into_inner());
                queue = guard;
                if result.timed_out() && queue.is_empty() {
                    if self.disconnected() {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Removes and returns a message if one is immediately available.
        pub fn try_recv(&self) -> Option<T> {
            self.inner
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop_front()
        }

        /// Whether the channel holds no message right now (matches the
        /// `crossbeam` API). Goes through the queue lock, so a check that
        /// follows a store on the calling thread is ordered after every
        /// `send` whose message it does not see.
        pub fn is_empty(&self) -> bool {
            self.inner
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_empty()
        }

        /// An iterator over the messages that are in the channel right now;
        /// never blocks. The whole backlog is claimed under one lock, so
        /// draining N messages costs one lock acquisition instead of N
        /// (matches the `crossbeam` API; messages arriving while iterating
        /// are left for the next call).
        pub fn try_iter(&self) -> TryIter<'_, T> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            TryIter {
                drained: std::mem::take(&mut *queue),
                receiver: self,
            }
        }
    }

    /// Iterator returned by [`Receiver::try_iter`]. Dropping it before
    /// exhaustion puts the unconsumed messages back at the front of the
    /// channel (preserving order), like the real crate's lock-per-`next`
    /// implementation would have left them there.
    pub struct TryIter<'a, T> {
        drained: VecDeque<T>,
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.drained.pop_front()
        }
    }

    impl<T> Drop for TryIter<'_, T> {
        fn drop(&mut self) {
            if self.drained.is_empty() {
                return;
            }
            let inner = &self.receiver.inner;
            let mut queue = inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            while let Some(v) = self.drained.pop_back() {
                queue.push_front(v);
            }
            drop(queue);
            // Another receiver may have parked while this iterator held the
            // backlog; wake it, exactly like a send would.
            if inner.waiters.load(Ordering::Acquire) > 0 {
                inner.ready.notify_one();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn timeout_on_empty_channel() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
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
    /// drops the last sender (what `lds_cluster`'s "join a server" waits on).
    /// The barrier releases both sides together so the drop lands around the
    /// receiver's disconnection check; a lost wake-up shows as a hang (with
    /// the notification outside the queue lock, within ~10⁶ rounds).
    #[test]
    fn blocked_recv_wakes_when_the_last_sender_drops() {
        use std::sync::{mpsc, Arc, Barrier};
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
