//! The data-plane trait: one `Store` interface, whatever the deployment.
//!
//! [`Store`] captures the full client-facing read/write interface of the LDS
//! system — the paper's "one client-facing register" framing. Its one
//! implementation in this crate is [`StoreClient`](crate::api::StoreClient),
//! produced by [`StoreHandle::client`](crate::api::StoreHandle::client).

use crate::api::{ObjectId, StoreError};
use crate::client::{Completion, OpTicket, Waker};
use lds_core::tag::Tag;
use lds_core::value::Value;
use std::time::Duration;

/// The unified LDS data plane: blocking `write`/`read` plus the pipelined
/// `submit`/`try_submit`/`poll`/`wait` family, with typed [`ObjectId`] keys
/// and borrowed `&[u8]` values.
///
/// Implemented by [`StoreClient`](crate::api::StoreClient), whatever the
/// profile and shard count — so every example, bench and test is written
/// once, against the trait.
///
/// # Semantics
///
/// Operations on the *same* key execute in submission order (FIFO per key,
/// one in flight at a time), which preserves per-writer tag monotonicity and
/// read-your-writes for a client's own submissions; operations on distinct
/// keys overlap freely. Every completed write is atomic ("linearizable"):
/// the multi-writer multi-reader register semantics of the paper, per key.
///
/// # Submissions leave at the next poll
///
/// `submit_*` and `try_submit_*` only start operations: on a deployment
/// over the network what they send to other daemons is buffered, and
/// [`Store::poll`], [`Store::poll_wait`] and every `wait*` write it out
/// first — one socket write per peer for everything submitted since the
/// last of them. A caller that submits must therefore poll or wait before
/// it blocks on anything else. In process there is nothing to write.
///
/// # Example
///
/// ```rust
/// use lds_cluster::api::{ObjectId, Store, StoreBuilder};
///
/// /// Works against any `Store` implementation.
/// fn smoke<S: Store>(client: &mut S) {
///     let tag = client.write(ObjectId(7), b"hello").unwrap();
///     assert_eq!(client.last_tag(), Some(tag));
///     assert_eq!(client.read(ObjectId(7)).unwrap(), b"hello");
/// }
///
/// let store = StoreBuilder::new().build().unwrap();
/// smoke(&mut store.client());
/// store.shutdown();
/// ```
pub trait Store {
    /// Writes `value` to `key`, blocking until the write is atomic-committed,
    /// and returns the tag the writer minted. The value is framed once
    /// internally; callers keep ownership of their bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Timeout`] if the operation does not complete in time
    /// (e.g. too many servers crashed; every outstanding operation of the
    /// handle is aborted) or [`StoreError::Disconnected`] after shutdown.
    fn write(&mut self, key: ObjectId, value: &[u8]) -> Result<Tag, StoreError>;

    /// Reads `key`, blocking until the read completes, and returns the value.
    ///
    /// # Errors
    ///
    /// As for [`Store::write`].
    fn read(&mut self, key: ObjectId) -> Result<Vec<u8>, StoreError>;

    /// Enqueues a write of `value` to `key` and returns its ticket
    /// immediately. The operation starts as soon as a pipeline slot is free
    /// and no earlier operation on `key` is outstanding; until then it waits
    /// in the client-local queue. For backpressure that refuses instead of
    /// queueing use [`Store::try_submit_write`].
    fn submit_write(&mut self, key: ObjectId, value: &[u8]) -> OpTicket;

    /// Enqueues a write of an already-framed [`Value`] — the zero-copy
    /// submission path for callers that own (or share) their payload: a
    /// `Value` holds its bytes behind an `Arc`, so nothing is copied. The
    /// `&[u8]`-taking [`Store::submit_write`] is a thin wrapper that frames
    /// the borrowed bytes into a `Value` once.
    fn submit_write_value(&mut self, key: ObjectId, value: Value) -> OpTicket;

    /// Enqueues a read of `key` and returns its ticket immediately.
    fn submit_read(&mut self, key: ObjectId) -> OpTicket;

    /// Starts a write right now or refuses with [`StoreError::WouldBlock`] —
    /// never queues. Refusal means the pipeline is at depth or an earlier
    /// operation on `key` is still outstanding.
    ///
    /// # Errors
    ///
    /// [`StoreError::WouldBlock`] on refusal; nothing was enqueued.
    fn try_submit_write(&mut self, key: ObjectId, value: &[u8]) -> Result<OpTicket, StoreError>;

    /// Starts a read right now or refuses with [`StoreError::WouldBlock`] —
    /// never queues.
    ///
    /// # Errors
    ///
    /// As for [`Store::try_submit_write`].
    fn try_submit_read(&mut self, key: ObjectId) -> Result<OpTicket, StoreError>;

    /// Processes every message that is already available without blocking
    /// and returns the completions harvested so far (possibly empty).
    ///
    /// # Errors
    ///
    /// [`StoreError::Disconnected`] after shutdown.
    fn poll(&mut self) -> Result<Vec<Completion>, StoreError>;

    /// Blocks until a message arrives or `max_wait` expires and returns the
    /// completions harvested (possibly none; at once when nothing is
    /// outstanding). This is the deadline-bounded wait: expiry is **not** an
    /// error and aborts nothing — every outstanding ticket stays redeemable
    /// — where a [`Store::wait_next`] timeout aborts them all. It is what an
    /// event loop (the `ldsd` RPC worker) or an open-loop load generator
    /// blocks in; [`Store::waker`] ends the wait early from another thread.
    /// `Duration::MAX` waits without a deadline.
    ///
    /// # Errors
    ///
    /// [`StoreError::Disconnected`] after shutdown.
    fn poll_wait(&mut self, max_wait: Duration) -> Result<Vec<Completion>, StoreError>;

    /// A cloneable, `Send` handle whose [`Waker::wake`] makes this handle's
    /// [`Store::poll_wait`] return — now if it is blocked, on its next call
    /// otherwise, so "queue work for the owner, then wake it" loses nothing.
    fn waker(&self) -> Waker;

    /// Blocks until the operation behind `ticket` completes and returns its
    /// completion. Completions of other operations harvested along the way
    /// are retained for later `poll`/`wait` calls.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownTicket`] if the ticket is not outstanding;
    /// [`StoreError::Timeout`] (which aborts every outstanding operation) or
    /// [`StoreError::Disconnected`] as for [`Store::write`].
    fn wait(&mut self, ticket: OpTicket) -> Result<Completion, StoreError>;

    /// Blocks until at least one completion is available (or nothing is
    /// outstanding) and returns all harvested completions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Timeout`] aborts every outstanding operation of this
    /// handle; [`StoreError::Disconnected`] after shutdown.
    fn wait_next(&mut self) -> Result<Vec<Completion>, StoreError>;

    /// Blocks until every submitted operation has completed and returns all
    /// harvested completions in ticket (submission) order.
    ///
    /// # Errors
    ///
    /// As for [`Store::wait_next`].
    fn wait_all(&mut self) -> Result<Vec<Completion>, StoreError>;

    /// Sets the timeout for each blocking wait; `Duration::MAX` waits
    /// without a deadline.
    fn set_timeout(&mut self, timeout: Duration);

    /// Operations submitted but not yet harvested: queued + in flight +
    /// completed-but-unharvested.
    fn pending_ops(&self) -> usize;

    /// Operations currently dispatched into the protocol automata.
    fn in_flight(&self) -> usize;

    /// The maximum number of operations this handle keeps in flight.
    fn depth(&self) -> usize;

    /// The tag of this handle's most recently completed operation.
    fn last_tag(&self) -> Option<Tag>;
}
