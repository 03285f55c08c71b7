//! Message routing between cluster threads.
//!
//! The routing table is an immutable snapshot behind an epoch counter:
//! registration and deregistration build a fresh table and bump the epoch,
//! while senders go through a [`RouterHandle`] that caches the current
//! snapshot. On the hot path a send is one relaxed-ish atomic load (the epoch
//! check) plus an [`IdMap`] lookup — no lock is taken unless the membership
//! actually changed since the handle last looked. This replaces the previous
//! design that acquired a `RwLock` on every single send.
//!
//! A destination may be *sharded*: several inboxes, each owned by a worker
//! thread responsible for a disjoint partition of the object space. Messages
//! are routed to the shard owning their object id, so all traffic for one
//! object is serialized through one worker while distinct objects proceed in
//! parallel.
//!
//! Two more mechanisms live here as well:
//!
//! * **One way into an inbox** — every protocol message enters through a
//!   `Burst`: [`RouterHandle::send_batch`] fills one with what a faulty
//!   transport let through, `DirectSender::deliver_many` is handed one by
//!   the transports that re-inject or receive messages. A burst groups its
//!   messages per destination inbox (pid and worker shard), in send order,
//!   appends each group in one locked step and then rings each distinct
//!   worker bell once. A node that processes a backlog of writes emits one
//!   COMMIT-TAG broadcast *per write per peer*; the burst makes them one
//!   channel hand-off (lock + wake-up) per peer per flush. No envelope
//!   carries a second message, so the group buffers stay with the burst and
//!   nothing on the way allocates.
//! * **Inbox depth gauges** — every worker-shard inbox tracks how many
//!   protocol messages are queued ([`DepthGauge`]), maintained by the sender
//!   on enqueue and by the owning worker as it claims messages. The gauges
//!   feed the cluster's observability probes; the channels themselves stay
//!   unbounded so server-to-server traffic can never deadlock on a full peer
//!   inbox.

use crate::executor::Bell;
use crate::sync::channel::{unbounded, Receiver, SendError, Sender};
use crate::sync::Mutex;
use crate::transport::{Decision, InProcTransport, Transport};
use lds_core::idmap::IdMap;
use lds_core::messages::LdsMessage;
use lds_core::tag::ObjectId;
use lds_core::ProcessId;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// A message in flight inside the cluster.
#[derive(Debug, Clone)]
pub enum Envelope {
    /// A protocol message from `from`.
    Protocol {
        /// Sending process.
        from: ProcessId,
        /// The message.
        msg: LdsMessage,
    },
    /// Ask the receiving server task (or client) to stop (used for shutdown
    /// and for simulating crash failures).
    Stop,
    /// A liveness probe from the heartbeat monitor (see the `heal` module):
    /// gives an idle server shard an envelope to claim, which stamps its beat.
    /// Carries no protocol payload, steps no automaton, and is not counted
    /// by the inbox depth gauges.
    Ping,
}

impl Envelope {
    /// Number of protocol messages the envelope carries.
    pub fn message_count(&self) -> usize {
        match self {
            Envelope::Protocol { .. } => 1,
            Envelope::Stop | Envelope::Ping => 0,
        }
    }
}

/// Live occupancy of one worker-shard inbox: the number of protocol messages
/// currently enqueued (senders increment, the owning worker decrements as it
/// claims messages) and the high-water mark observed so far, exported as
/// the `lds_l1_inbox_depth` / `lds_l1_inbox_depth_max` metric families.
#[derive(Debug, Default)]
pub struct DepthGauge {
    /// Signed so that a [`DepthGauge::reset`] racing a straggler's balanced
    /// add/sub pair (a send to an already-dropped channel) can at worst leave
    /// the counter one below zero — which reads clamp — instead of wrapping
    /// an unsigned counter to a huge value.
    cur: AtomicI64,
    max: AtomicUsize,
}

impl DepthGauge {
    pub(crate) fn add(&self, n: usize) {
        let now = self.cur.fetch_add(n as i64, Ordering::Relaxed) + n as i64;
        self.max.fetch_max(now.max(0) as usize, Ordering::Relaxed);
    }

    pub(crate) fn sub(&self, n: usize) {
        self.cur.fetch_sub(n as i64, Ordering::Relaxed);
    }

    /// Zeroes the live count — used when a crashed server's inbox is
    /// replaced during repair: messages queued in the dropped channel were
    /// never claimed and must not count against the replacement. The
    /// high-water mark is preserved.
    pub(crate) fn reset(&self) {
        self.cur.store(0, Ordering::Relaxed);
    }

    /// Messages currently enqueued (as of the last sender/claimer update).
    pub fn current(&self) -> usize {
        self.cur.load(Ordering::Relaxed).max(0) as usize
    }

    /// The largest queue length ever observed on this inbox.
    pub fn max_seen(&self) -> usize {
        self.max.load(Ordering::Relaxed)
    }
}

/// The receiving side of one worker shard: the channel plus its depth gauge.
/// Returned by [`Router::register`] / `Router::register_shards`; the
/// owning worker decrements the gauge (via the node/client loops) for every
/// protocol message it claims.
pub struct Inbox {
    /// The channel messages arrive on.
    pub rx: Receiver<Envelope>,
    /// The inbox's occupancy gauge (shared with the router's senders).
    pub depth: Arc<DepthGauge>,
}

/// One worker shard's sending endpoint.
struct ShardInbox {
    tx: Sender<Envelope>,
    depth: Arc<DepthGauge>,
    /// The doorbell of the executor worker hosting the shard. Inboxes whose
    /// owner blocks on the channel itself (clients, repair coordinators)
    /// have none.
    bell: Option<Arc<Bell>>,
}

impl ShardInbox {
    /// Enqueues a control envelope (`Stop`, `Ping`), then rings the hosting
    /// worker — in that order, the sender's half of the executor's park
    /// protocol. The other enqueue into an inbox, [`Burst::deliver`], rings
    /// the same way once its whole burst is in: an enqueue that is not
    /// followed by a ring can leave its worker parked on a non-empty inbox.
    fn send(&self, envelope: Envelope) -> Result<(), SendError<Envelope>> {
        self.tx.send(envelope)?;
        if let Some(bell) = &self.bell {
            bell.ring();
        }
        Ok(())
    }
}

/// The inboxes of one destination process: one sender per worker shard.
#[derive(Clone)]
struct Route {
    shards: Arc<[ShardInbox]>,
}

type Table = IdMap<ProcessId, Route>;

struct Shared {
    /// The current routing table. Mutated copy-on-write under the lock; the
    /// epoch is bumped while the lock is held, so a handle that observes the
    /// new epoch and then locks always reads the matching (or newer) table.
    table: Mutex<Arc<Table>>,
    epoch: AtomicU64,
    /// The transport adjudicating every protocol message and ping (see the
    /// [`transport`](crate::transport) module). `Stop` envelopes bypass it.
    transport: Arc<dyn Transport>,
}

/// A delivery path into the router that bypasses its transport: for
/// messages a [`Transport`] held back (delays/reorders) and for those a mesh
/// socket received. Deliveries through it skip the transport's `decide` — a
/// held message is routed against the *current* snapshot and cannot be
/// faulted a second time. Holds the router state weakly so a
/// transport's pump thread never keeps a shut-down router alive.
pub struct DirectSender {
    shared: Weak<Shared>,
}

/// A burst of `(from, to, msg)`, with the scratch that delivers it: the one
/// way a protocol message gets into an inbox. Kept by its owner — a
/// [`RouterHandle`], a mesh socket, a transport's pump — from burst to
/// burst, so a warm one allocates nothing.
#[derive(Default)]
pub(crate) struct Burst {
    msgs: Vec<(ProcessId, ProcessId, LdsMessage)>,
    /// Per destination inbox — pid and worker shard — its envelopes, in
    /// send order (linear scan: a burst rarely addresses more than a couple
    /// dozen distinct inboxes).
    groups: Vec<(ProcessId, usize, Vec<Envelope>)>,
    /// Emptied group buffers: as many as one burst has ever needed.
    pool: Vec<Vec<Envelope>>,
    bells: Vec<Arc<Bell>>,
}

impl Burst {
    pub(crate) fn push(&mut self, from: ProcessId, to: ProcessId, msg: LdsMessage) {
        self.msgs.push((from, to, msg));
    }

    pub(crate) fn len(&self) -> usize {
        self.msgs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Delivers (and empties) the burst against `table`. What it holds for
    /// one inbox is appended in one locked step, in send order and counted
    /// by the inbox's depth gauge first — one wake-up for a client blocked
    /// on that inbox. A fan-out message ([`LdsMessage::fanout`]) joins the
    /// group of every worker shard of its destination in its place, so a
    /// repair helper's REPAIR-DONE stays behind the REPAIR-SHAREs it ends on
    /// every shard. Each distinct worker doorbell among the destinations is
    /// rung once, after all of the burst is enqueued: a worker wakes to the
    /// whole burst instead of to its first message. A message to a pid the
    /// table does not hold (crashed) is dropped.
    fn deliver(&mut self, table: &Table) {
        let Burst {
            msgs,
            groups,
            pool,
            bells,
        } = self;
        for (from, to, msg) in msgs.drain(..) {
            let Some(route) = table.get(&to) else {
                continue;
            };
            let mut put = |shard: usize, msg: LdsMessage| {
                let envelope = Envelope::Protocol { from, msg };
                match groups.iter_mut().find(|(p, s, _)| *p == to && *s == shard) {
                    Some((_, _, group)) => group.push(envelope),
                    None => {
                        let mut group = pool.pop().unwrap_or_default();
                        group.push(envelope);
                        groups.push((to, shard, group));
                    }
                }
            };
            if msg.fanout() && route.shards.len() > 1 {
                // Every worker shard; shard 0 takes the message itself.
                for shard in 1..route.shards.len() {
                    put(shard, msg.clone());
                }
                put(0, msg);
            } else {
                put(shard_of(msg.object(), route.shards.len()), msg);
            }
        }
        for (to, shard, mut group) in groups.drain(..) {
            let inbox = &table[&to].shards[shard];
            let n = group.len();
            inbox.depth.add(n);
            if inbox.tx.send_iter(group.drain(..)).is_err() {
                inbox.depth.sub(n);
            } else if let Some(bell) = &inbox.bell {
                if !bells.iter().any(|rung| Arc::ptr_eq(rung, bell)) {
                    bells.push(Arc::clone(bell));
                }
            }
            pool.push(group);
        }
        for bell in bells.drain(..) {
            bell.ring();
        }
    }
}

#[cfg(test)]
impl FromIterator<(ProcessId, ProcessId, LdsMessage)> for Burst {
    fn from_iter<I: IntoIterator<Item = (ProcessId, ProcessId, LdsMessage)>>(msgs: I) -> Burst {
        Burst {
            msgs: msgs.into_iter().collect(),
            ..Burst::default()
        }
    }
}

impl DirectSender {
    /// Delivers (and empties) `burst` against the current routing snapshot
    /// ([`Burst::deliver`]); drops it if the router is gone.
    pub(crate) fn deliver_many(&self, burst: &mut Burst) {
        let Some(shared) = self.shared.upgrade() else {
            burst.msgs.clear();
            return;
        };
        let snapshot = Arc::clone(&shared.table.lock());
        burst.deliver(&snapshot);
    }

    pub(crate) fn deliver_ping(&self, to: ProcessId) {
        if let Some(shared) = self.shared.upgrade() {
            let snapshot = Arc::clone(&shared.table.lock());
            if let Some(route) = snapshot.get(&to) {
                for shard in route.shards.iter() {
                    let _ = shard.send(Envelope::Ping);
                }
            }
        }
    }
}

/// The shard within `shards` workers that owns `obj`.
///
/// A multiplicative hash keeps consecutive object ids from mapping to the
/// same shard (plain modulo would be fine too, but benchmark sweeps often
/// use consecutive ids, and `obj % shards` would then depend on the sweep's
/// stride).
pub fn shard_of(obj: ObjectId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let h = obj.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// Routes envelopes to per-process inboxes.
///
/// The router is shared by all executor workers and clients; servers register
/// as they are installed, and clients may also register later (each client
/// gets its own inbox). Hot-path sends go through [`Router::handle`].
#[derive(Clone)]
pub struct Router {
    shared: Arc<Shared>,
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

impl Router {
    /// Creates an empty router over the default fault-free
    /// [`InProcTransport`].
    pub fn new() -> Self {
        Router::with_transport(Arc::new(InProcTransport))
    }

    /// Creates an empty router over `transport`, handing the transport a
    /// [`DirectSender`] for re-injecting held messages.
    pub fn with_transport(transport: Arc<dyn Transport>) -> Self {
        let shared = Arc::new(Shared {
            table: Mutex::new(Arc::new(IdMap::default())),
            epoch: AtomicU64::new(0),
            transport,
        });
        let router = Router { shared };
        router.shared.transport.attach(router.direct());
        router
    }

    /// A delivery path into this router that bypasses its transport.
    pub(crate) fn direct(&self) -> DirectSender {
        DirectSender {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// The transport under this router.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.shared.transport
    }

    fn mutate(&self, f: impl FnOnce(&mut Table)) {
        let mut guard = self.shared.table.lock();
        let mut table = (**guard).clone();
        f(&mut table);
        *guard = Arc::new(table);
        // Bumped while the table lock is held: a handle that sees the new
        // epoch and locks observes at least this table.
        self.shared.epoch.fetch_add(1, Ordering::Release);
    }

    /// Creates a sending handle with its own cached snapshot of the routing
    /// table. Each thread that sends should own one.
    pub fn handle(&self) -> RouterHandle {
        let snapshot = Arc::clone(&self.shared.table.lock());
        RouterHandle {
            epoch: self.shared.epoch.load(Ordering::Acquire),
            faulty: self.shared.transport.is_faulty(),
            unflushed: false,
            shared: Arc::clone(&self.shared),
            snapshot,
            burst: Burst::default(),
        }
    }

    /// Registers a process with a single inbox, whose owner blocks on the
    /// channel itself, and returns the receiving end.
    pub fn register(&self, pid: ProcessId) -> Inbox {
        let gauge = [Arc::new(DepthGauge::default())];
        self.register_shards(pid, &gauge, |_| None)
            .pop()
            .expect("one shard")
    }

    /// Registers a process with one worker inbox per gauge of `gauges` (each
    /// reset to zero first) and returns them in shard order. Messages are
    /// routed to the shard owning their object id (see [`shard_of`]); every
    /// delivery into shard `s` rings `bell_of(s)` once it is enqueued.
    ///
    /// Registering an already-registered pid **replaces** its route: this is
    /// the rejoin half of online repair, which passes the *same* gauge
    /// objects its predecessor used, so long-lived references — the
    /// observability probes — keep working across the swap. Handles whose
    /// snapshot predates the swap keep the old (disconnected) senders until
    /// their next epoch check, so their sends drop — exactly like sends to a
    /// crashed server — and can never land in the replacement's inboxes out
    /// of order.
    ///
    /// # Panics
    ///
    /// Panics if `gauges` is empty.
    pub(crate) fn register_shards(
        &self,
        pid: ProcessId,
        gauges: &[Arc<DepthGauge>],
        bell_of: impl Fn(usize) -> Option<Arc<Bell>>,
    ) -> Vec<Inbox> {
        assert!(!gauges.is_empty(), "a process needs at least one shard");
        let mut senders = Vec::with_capacity(gauges.len());
        let mut inboxes = Vec::with_capacity(gauges.len());
        for (s, depth) in gauges.iter().enumerate() {
            depth.reset();
            let (tx, rx) = unbounded();
            senders.push(ShardInbox {
                tx,
                depth: Arc::clone(depth),
                bell: bell_of(s),
            });
            inboxes.push(Inbox {
                rx,
                depth: Arc::clone(depth),
            });
        }
        self.mutate(|table| {
            table.insert(
                pid,
                Route {
                    shards: senders.into(),
                },
            );
        });
        inboxes
    }

    /// Registers `pid` with an inbox that already exists: `tx` feeds it and
    /// `depth` is its gauge. A client creates its own inbox, keeping a
    /// sender for its [`Waker`](crate::Waker)s, and registers it here.
    pub(crate) fn register_sender(
        &self,
        pid: ProcessId,
        tx: Sender<Envelope>,
        depth: Arc<DepthGauge>,
    ) {
        self.mutate(|table| {
            table.insert(
                pid,
                Route {
                    shards: vec![ShardInbox {
                        tx,
                        depth,
                        bell: None,
                    }]
                    .into(),
                },
            );
        });
    }

    /// Whether `pid` is currently registered (i.e. not crashed/deregistered).
    pub fn contains(&self, pid: ProcessId) -> bool {
        self.shared.table.lock().contains_key(&pid)
    }

    /// Removes a process from the routing table (messages to it are dropped
    /// afterwards, matching the crash-failure model).
    pub fn deregister(&self, pid: ProcessId) {
        self.mutate(|table| {
            table.remove(&pid);
        });
    }

    /// Sends a stop request to every shard of a process.
    pub fn send_stop(&self, to: ProcessId) {
        let snapshot = Arc::clone(&self.shared.table.lock());
        if let Some(route) = snapshot.get(&to) {
            for shard in route.shards.iter() {
                let _ = shard.send(Envelope::Stop);
            }
        }
    }

    /// Sends a liveness probe to every shard of a process; silently dropped
    /// if the destination is not registered (crashed) — which is exactly how
    /// a dead server's beat timestamp goes stale. Pings bypass the depth
    /// gauges: they carry no protocol work and must not count as queued.
    pub fn send_ping(&self, to: ProcessId) {
        let transport = &self.shared.transport;
        if transport.is_faulty() {
            let decision = transport.decide_ping(to);
            // A transport that took the ping for a remote daemon buffered it.
            transport.flush();
            match decision {
                Decision::Drop => return,
                Decision::Delay(delay) => {
                    transport.hold_ping(to, delay);
                    return;
                }
                // A duplicated ping is just a ping: beats are idempotent.
                Decision::Deliver | Decision::Duplicate => {}
            }
        }
        let snapshot = Arc::clone(&self.shared.table.lock());
        if let Some(route) = snapshot.get(&to) {
            for shard in route.shards.iter() {
                let _ = shard.send(Envelope::Ping);
            }
        }
    }

    /// Number of registered processes (shards of one process count once).
    pub fn len(&self) -> usize {
        self.shared.table.lock().len()
    }

    /// Whether no processes are registered.
    pub fn is_empty(&self) -> bool {
        self.shared.table.lock().is_empty()
    }
}

/// A sending handle holding a cached snapshot of the routing table.
///
/// Sends through the handle are lock-free while the membership is unchanged;
/// when the epoch moves (a client registered, a server crashed) the next send
/// refreshes the snapshot once.
pub struct RouterHandle {
    shared: Arc<Shared>,
    epoch: u64,
    /// Cached [`Transport::is_faulty`]: when `false` (the default
    /// [`InProcTransport`]) sends skip the transport entirely — one
    /// predictable branch keeps the hot path exactly what it was before the
    /// transport seam existed.
    faulty: bool,
    /// The transport kept a message of this handle's
    /// ([`Transport::take_remote`]) since its last flush.
    unflushed: bool,
    snapshot: Arc<Table>,
    /// The burst of the [`RouterHandle::send_batch`] in progress: empty
    /// between calls, its scratch kept warm.
    burst: Burst,
}

impl RouterHandle {
    #[inline]
    fn refresh(&mut self) {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch != self.epoch {
            let guard = self.shared.table.lock();
            self.snapshot = Arc::clone(&guard);
            self.epoch = self.shared.epoch.load(Ordering::Acquire);
        }
    }

    /// Sends a protocol message; silently drops it if the destination is not
    /// registered (crashed). A one-off: [`RouterHandle::send_batch`] of one
    /// message, then [`RouterHandle::flush`].
    pub fn send(&mut self, from: ProcessId, to: ProcessId, msg: LdsMessage) {
        self.send_batch(from, [(to, msg)]);
        self.flush();
    }

    /// Sends a batch of protocol messages, checking the routing epoch once
    /// for the whole batch. This is what server tasks use to flush the
    /// outgoing buffer of one turn.
    ///
    /// A faulty transport judges each message on its own first: a dropped,
    /// delayed or remote message never joins the burst, a duplicate joins it
    /// twice, next to itself. The survivors are delivered as one `Burst`:
    /// each destination inbox receives its part in send order, in one locked
    /// step, and each worker is rung once, after all of it is enqueued — the
    /// COMMIT-TAG broadcasts of every write processed in one flush reach each
    /// peer in one channel hand-off instead of one per write.
    ///
    /// Messages for another daemon are only **buffered** by the transport
    /// ([`Transport::take_remote`]); they leave when somebody calls
    /// [`RouterHandle::flush`]. Whoever owns the handle owes that call at
    /// the end of its burst, before it waits for anything: an executor
    /// worker after every sweep, a [`StoreClient`](crate::api::StoreClient)
    /// after every claimed inbox batch and at the top of every poll or wait
    /// (which is where its submissions leave). A flush pushes
    /// out whatever any thread has buffered, so a late one costs latency,
    /// never a message — but a sender that goes to sleep without one can
    /// strand its last burst until another thread flushes.
    pub fn send_batch(
        &mut self,
        from: ProcessId,
        msgs: impl IntoIterator<Item = (ProcessId, LdsMessage)>,
    ) {
        self.refresh();
        for (to, msg) in msgs {
            if self.faulty {
                self.judge(from, to, msg);
            } else {
                self.burst.push(from, to, msg);
            }
        }
        self.burst.deliver(&self.snapshot);
    }

    /// Puts `msg` into the burst as the faulty transport decides.
    fn judge(&mut self, from: ProcessId, to: ProcessId, msg: LdsMessage) {
        let transport = &self.shared.transport;
        let Some(msg) = transport.take_remote(from, to, msg) else {
            self.unflushed = true;
            return;
        };
        match transport.decide(from, to, &msg) {
            Decision::Deliver => self.burst.push(from, to, msg),
            Decision::Drop => {}
            Decision::Duplicate => {
                self.burst.push(from, to, msg.clone());
                self.burst.push(from, to, msg);
            }
            Decision::Delay(delay) => transport.hold(from, to, msg, delay),
        }
    }

    /// Ends a burst of [`RouterHandle::send_batch`] calls: if the transport
    /// kept any of its messages for another daemon, it writes out what it
    /// has buffered ([`Transport::flush`]). One branch otherwise — always,
    /// on the default in-process transport.
    #[inline]
    pub fn flush(&mut self) {
        if self.unflushed {
            self.unflushed = false;
            self.shared.transport.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use lds_core::tag::ObjectId;
    use std::time::{Duration, Instant};

    #[test]
    fn register_send_and_deregister() {
        let router = Router::new();
        assert!(router.is_empty());
        let inbox = router.register(ProcessId(1));
        assert_eq!(router.len(), 1);

        let mut handle = router.handle();
        handle.send(
            ProcessId(2),
            ProcessId(1),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert_eq!(inbox.depth.current(), 1);
        match inbox.rx.recv().unwrap() {
            Envelope::Protocol { from, msg } => {
                assert_eq!(from, ProcessId(2));
                assert!(matches!(msg, LdsMessage::InvokeRead { .. }));
            }
            other => panic!("unexpected envelope {other:?}"),
        }

        router.deregister(ProcessId(1));
        // Sends to a deregistered (crashed) process are dropped, not errors —
        // including through a handle whose snapshot predates the crash.
        handle.send(
            ProcessId(2),
            ProcessId(1),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert!(router.is_empty());
    }

    #[test]
    fn handle_sees_registrations_after_epoch_bump() {
        let router = Router::new();
        let mut handle = router.handle();
        // Register *after* the handle was created.
        let inbox = router.register(ProcessId(9));
        handle.send(
            ProcessId(1),
            ProcessId(9),
            LdsMessage::InvokeRead { obj: ObjectId(3) },
        );
        assert!(matches!(
            inbox.rx.recv().unwrap(),
            Envelope::Protocol { .. }
        ));
    }

    #[test]
    fn stop_envelope_reaches_every_shard() {
        let router = Router::new();
        let inboxes = sharded(&router, ProcessId(7), 3);
        router.send_stop(ProcessId(7));
        for inbox in &inboxes {
            assert!(matches!(inbox.rx.recv().unwrap(), Envelope::Stop));
        }
        assert_eq!(router.len(), 1, "shards of one process count once");
    }

    #[test]
    fn sharded_routing_partitions_by_object() {
        let router = Router::new();
        let shards = 4;
        let inboxes = sharded(&router, ProcessId(5), shards);
        let mut handle = router.handle();
        // Every message for one object lands in the same shard, and the
        // shard matches `shard_of`.
        for obj in 0..32u64 {
            for _ in 0..2 {
                handle.send(
                    ProcessId(1),
                    ProcessId(5),
                    LdsMessage::InvokeRead { obj: ObjectId(obj) },
                );
            }
            let owner = shard_of(ObjectId(obj), shards);
            for (s, inbox) in inboxes.iter().enumerate() {
                let expected = if s == owner { 2 } else { 0 };
                let mut got = 0;
                while inbox.rx.try_recv().is_some() {
                    got += 1;
                }
                assert_eq!(got, expected, "obj {obj} shard {s}");
            }
        }
        // All shards are used somewhere across a spread of objects.
        let used: std::collections::HashSet<usize> =
            (0..256u64).map(|o| shard_of(ObjectId(o), shards)).collect();
        assert_eq!(used.len(), shards);
    }

    /// Registers `pid` with `shards` bell-less inboxes, each with a fresh
    /// gauge.
    fn sharded(router: &Router, pid: ProcessId, shards: usize) -> Vec<Inbox> {
        let gauges: Vec<_> = (0..shards)
            .map(|_| Arc::new(DepthGauge::default()))
            .collect();
        router.register_shards(pid, &gauges, |_| None)
    }

    /// Waits until every bell of `executor`'s workers is raised (it found
    /// nothing to do and parked).
    fn all_parked(executor: &Executor) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(0..executor.workers()).all(|w| executor.bell(w).is_parked()) {
            assert!(Instant::now() < deadline, "idle workers never parked");
            std::thread::yield_now();
        }
    }

    /// Claims everything queued on `inbox` as a server turn does (one
    /// `try_iter`, the gauge decremented per message claimed), checking that
    /// the gauge then reads zero.
    fn drain(inbox: &Inbox) -> Vec<(ProcessId, LdsMessage)> {
        let claimed: Vec<_> = inbox
            .rx
            .try_iter()
            .map(|envelope| match envelope {
                Envelope::Protocol { from, msg } => {
                    inbox.depth.sub(1);
                    (from, msg)
                }
                other => panic!("unexpected envelope {other:?}"),
            })
            .collect();
        assert_eq!(inbox.depth.current(), 0, "gauge after the drain");
        claimed
    }

    fn objects(claimed: &[(ProcessId, LdsMessage)]) -> Vec<u64> {
        claimed.iter().map(|(_, msg)| msg.object().0).collect()
    }

    /// A flush's messages for one destination shard are one locked append of
    /// plain protocol envelopes: announced by one ring — a parked worker
    /// gets exactly one wake-up for the group — counted by the gauge, and in
    /// send order in the inbox, data messages among the metadata.
    #[test]
    fn batch_send_groups_per_destination_shard() {
        let router = Router::new();
        let executor = Executor::start(1, &router, Instant::now());
        let gauge = [Arc::new(DepthGauge::default())];
        let bell = executor.bell(0);
        let inbox_a = router
            .register_shards(ProcessId(1), &gauge, |_| Some(Arc::clone(&bell)))
            .pop()
            .unwrap();
        let inbox_b = router.register(ProcessId(2));
        let mut handle = router.handle();
        let read = |o| LdsMessage::InvokeRead { obj: ObjectId(o) };
        handle.send(ProcessId(9), ProcessId(1), read(100));
        all_parked(&executor);
        let wakeups = executor.stats().wakeups;
        let batch = vec![
            (ProcessId(1), read(0)),
            (ProcessId(2), read(1)),
            (ProcessId(1), read(2)),
            (ProcessId(1), read(3)),
        ];
        handle.send_batch(ProcessId(0), batch);
        assert_eq!(
            executor.stats().wakeups,
            wakeups + 1,
            "one wake-up for the group"
        );
        let data = LdsMessage::InvokeWrite {
            obj: ObjectId(50),
            value: lds_core::Value::new(vec![7; 4]),
        };
        let batch = vec![
            (ProcessId(1), read(4)),
            (ProcessId(1), data),
            (ProcessId(1), read(5)),
        ];
        handle.send_batch(ProcessId(0), batch);
        assert_eq!(inbox_a.depth.current(), 7, "gauge counts messages");
        let claimed = drain(&inbox_a);
        assert_eq!(objects(&claimed), [100, 0, 2, 3, 4, 50, 5]);
        assert!(claimed[1..].iter().all(|(from, _)| *from == ProcessId(0)));
        assert_eq!(objects(&drain(&inbox_b)), [1]);
        executor.shutdown();
    }

    /// Sixteen messages over sixteen objects to a two-shard process: each
    /// shard receives exactly the messages of the objects it owns, in send
    /// order, and its worker is rung once.
    #[test]
    fn batch_send_respects_shard_partitions() {
        let router = Router::new();
        let shards = 2;
        let executor = Executor::start(shards, &router, Instant::now());
        let gauges: Vec<_> = (0..shards)
            .map(|_| Arc::new(DepthGauge::default()))
            .collect();
        let inboxes = router.register_shards(ProcessId(3), &gauges, |s| Some(executor.bell(s)));
        let mut handle = router.handle();
        all_parked(&executor);
        let wakeups = executor.stats().wakeups;
        let batch: Vec<_> = (0..16u64)
            .map(|o| (ProcessId(3), LdsMessage::InvokeRead { obj: ObjectId(o) }))
            .collect();
        handle.send_batch(ProcessId(0), batch);
        assert_eq!(executor.stats().wakeups, wakeups + shards as u64);
        for (s, inbox) in inboxes.iter().enumerate() {
            let owned: Vec<u64> = (0..16u64)
                .filter(|&o| shard_of(ObjectId(o), shards) == s)
                .collect();
            assert_eq!(inbox.depth.current(), owned.len());
            assert_eq!(objects(&drain(inbox)), owned, "shard {s}");
        }
        executor.shutdown();
    }

    /// A handle's `send_batch` and a transport's `deliver_many` take one
    /// path: the same mixed burst — metadata and a data message for one
    /// inbox, a fan-out message for a two-shard pid, a message for a
    /// bell-less inbox — leaves identical inbox contents, each in send
    /// order, and identical gauges.
    #[test]
    fn send_batch_and_deliver_many_fill_inboxes_alike() {
        let from = ProcessId(9);
        let read = |o| LdsMessage::InvokeRead { obj: ObjectId(o) };
        let burst = vec![
            (ProcessId(1), read(0)),
            (
                ProcessId(1),
                LdsMessage::InvokeWrite {
                    obj: ObjectId(1),
                    value: lds_core::Value::new(vec![7; 4]),
                },
            ),
            (
                ProcessId(2),
                LdsMessage::RepairDone {
                    obj: ObjectId(0),
                    objects: 0,
                    bytes_by_helper: Vec::new(),
                    fallback_bytes: 0,
                },
            ),
            (ProcessId(3), read(3)),
            (ProcessId(1), read(4)),
            (ProcessId(2), read(5)),
        ];
        let deliver = |through_handle: bool| {
            let router = Router::new();
            let bell = Arc::new(Bell::default());
            let mut inboxes = Vec::new();
            for (pid, shards, belled) in [(1, 1, true), (2, 2, true), (3, 1, false)] {
                let gauges: Vec<_> = (0..shards)
                    .map(|_| Arc::new(DepthGauge::default()))
                    .collect();
                let bell_of = |_| belled.then(|| Arc::clone(&bell));
                inboxes.extend(router.register_shards(ProcessId(pid), &gauges, bell_of));
            }
            if through_handle {
                router.handle().send_batch(from, burst.clone());
            } else {
                let mut direct: Burst = burst
                    .iter()
                    .map(|(to, msg)| (from, *to, msg.clone()))
                    .collect();
                router.direct().deliver_many(&mut direct);
            }
            inboxes
                .iter()
                .map(|inbox| (inbox.depth.current(), drain(inbox)))
                .collect::<Vec<_>>()
        };
        let handle = deliver(true);
        assert_eq!(handle, deliver(false));
        assert_eq!(objects(&handle[0].1), [0, 1, 4], "send order");
        for (depth, claimed) in &handle[1..3] {
            assert_eq!(*depth, claimed.len());
            assert!(matches!(claimed[0].1, LdsMessage::RepairDone { .. }));
        }
    }

    #[test]
    fn deregistered_pid_never_receives_even_while_its_inbox_lives() {
        // Crash model: the routing-table entry is gone but the old receiver
        // has not been dropped yet (the server thread is still unwinding). A
        // send — through a handle whose snapshot predates nothing, or one
        // that refreshes — must drop the message, not deliver it.
        let router = Router::new();
        let inbox_old = router.register(ProcessId(1));
        let mut stale = router.handle();
        router.deregister(ProcessId(1));
        stale.send(
            ProcessId(2),
            ProcessId(1),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        router.handle().send(
            ProcessId(2),
            ProcessId(1),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert!(
            inbox_old.rx.try_recv().is_none(),
            "dead-but-undropped inbox must stay empty"
        );
        assert_eq!(inbox_old.depth.current(), 0);
    }

    #[test]
    fn stale_handle_sends_reach_the_replacement_after_reregistration() {
        // Crash + rejoin: a handle whose snapshot predates BOTH the
        // deregistration and the re-registration must deliver to the new
        // inbox (after its epoch refresh) — never to the dead one.
        let router = Router::new();
        let inbox_old = router.register(ProcessId(5));
        let mut stale = router.handle(); // snapshot: old route
        router.deregister(ProcessId(5));
        let inbox_new = router.register(ProcessId(5));
        stale.send(
            ProcessId(2),
            ProcessId(5),
            LdsMessage::InvokeRead { obj: ObjectId(7) },
        );
        assert!(
            inbox_old.rx.try_recv().is_none(),
            "old inbox must not receive after the swap"
        );
        assert!(
            matches!(inbox_new.rx.try_recv(), Some(Envelope::Protocol { msg, .. })
                if msg.object() == ObjectId(7)),
            "stale handle delivers to the replacement"
        );
        // Grouped sends take the same epoch check.
        stale.send_batch(
            ProcessId(2),
            vec![
                (ProcessId(5), LdsMessage::InvokeRead { obj: ObjectId(1) }),
                (ProcessId(5), LdsMessage::InvokeRead { obj: ObjectId(2) }),
            ],
        );
        // 1 from the single send above (try_recv does not claim the gauge)
        // plus the 2-message batch.
        assert_eq!(inbox_new.depth.current(), 3);
        assert!(inbox_old.rx.try_recv().is_none());
    }

    #[test]
    fn messages_queued_at_crash_time_never_leak_into_the_replacement() {
        // A message delivered before the crash sits in the old channel; the
        // replacement's inbox starts empty and its (reused) gauge is reset.
        let router = Router::new();
        let gauges = vec![Arc::new(DepthGauge::default())];
        let inbox_old = router.register_shards(ProcessId(3), &gauges, |_| None);
        let mut handle = router.handle();
        handle.send(
            ProcessId(2),
            ProcessId(3),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert_eq!(gauges[0].current(), 1, "queued at crash time");
        router.deregister(ProcessId(3));
        drop(inbox_old); // the crashed thread drops its receiver
        let inbox_new = router.register_shards(ProcessId(3), &gauges, |_| None);
        assert_eq!(
            gauges[0].current(),
            0,
            "reused gauge is reset on re-registration"
        );
        assert!(inbox_new[0].rx.try_recv().is_none(), "no pre-crash leak");
        // The handle's next send observes the bumped epoch, refreshes, and
        // lands in the replacement's inbox with a consistent gauge.
        handle.send(
            ProcessId(2),
            ProcessId(3),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert!(router.contains(ProcessId(3)));
        assert_eq!(gauges[0].current(), 1);
        assert!(inbox_new[0].rx.try_recv().is_some());
    }

    #[test]
    fn fanout_messages_reach_every_shard_and_keep_stream_order() {
        let router = Router::new();
        let shards = 3;
        let inboxes = sharded(&router, ProcessId(4), shards);
        let mut handle = router.handle();
        // A helper's flush: shares routed by object, then the done marker.
        let mut batch: Vec<(ProcessId, LdsMessage)> = (0..6u64)
            .map(|o| {
                (
                    ProcessId(4),
                    LdsMessage::RepairShare {
                        obj: ObjectId(o),
                        payload: lds_core::messages::RepairPayload::Meta {
                            tc: lds_core::tag::Tag::initial(),
                            entries: Vec::new(),
                        },
                    },
                )
            })
            .collect();
        batch.push((
            ProcessId(4),
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects: 6,
                bytes_by_helper: Vec::new(),
                fallback_bytes: 0,
            },
        ));
        handle.send_batch(ProcessId(2), batch);
        for (s, inbox) in inboxes.iter().enumerate() {
            let mut saw_done = false;
            while let Some(envelope) = inbox.rx.try_recv() {
                match envelope {
                    Envelope::Protocol { msg, .. } => match msg {
                        LdsMessage::RepairShare { obj, .. } => {
                            assert_eq!(shard_of(obj, shards), s, "shares route by object");
                            assert!(!saw_done, "share after the done marker on shard {s}");
                        }
                        LdsMessage::RepairDone { .. } => saw_done = true,
                        other => panic!("unexpected message {other:?}"),
                    },
                    other => panic!("unexpected envelope {other:?}"),
                }
            }
            assert!(saw_done, "every shard {s} sees the fan-out done marker");
        }
    }

    #[test]
    fn pings_reach_every_shard_without_touching_gauges() {
        let router = Router::new();
        let inboxes = sharded(&router, ProcessId(6), 2);
        router.send_ping(ProcessId(6));
        for inbox in &inboxes {
            assert!(matches!(inbox.rx.recv().unwrap(), Envelope::Ping));
            assert_eq!(inbox.depth.current(), 0, "pings bypass the gauges");
        }
        assert_eq!(Envelope::Ping.message_count(), 0);
        // A ping to a deregistered (crashed) process is silently dropped.
        router.deregister(ProcessId(6));
        router.send_ping(ProcessId(6));
    }

    #[test]
    fn faulty_transport_duplicates_and_drops_through_every_send_path() {
        use crate::transport::{FaultPlan, FaultRule, SimTransport};
        let params = lds_core::params::SystemParams::for_failures(1, 1, 2, 3).unwrap();
        // Deterministic: every INVOKE-READ is duplicated, every QUERY-TAG
        // dropped.
        let plan = FaultPlan::seeded(1)
            .rule(
                FaultRule::new()
                    .classes(&["INVOKE-READ"])
                    .duplicate_prob(1.0),
            )
            .rule(FaultRule::new().classes(&["QUERY-TAG"]).drop_prob(1.0));
        let router = Router::with_transport(Arc::new(SimTransport::new(&plan, &params)));
        let inbox = router.register(ProcessId(1));
        let mut handle = router.handle();
        handle.send(
            ProcessId(2),
            ProcessId(1),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert_eq!(inbox.depth.current(), 2, "duplicate delivered twice");
        handle.send_batch(
            ProcessId(2),
            vec![
                (
                    ProcessId(1),
                    LdsMessage::QueryTag {
                        obj: ObjectId(0),
                        op: lds_core::tag::OpId::new(lds_core::tag::ClientId(9), 1),
                    },
                ),
                (ProcessId(1), LdsMessage::InvokeRead { obj: ObjectId(0) }),
            ],
        );
        let mut got = 0;
        while let Some(envelope) = inbox.rx.try_recv() {
            got += envelope.message_count();
            match &envelope {
                Envelope::Protocol { msg, .. } => {
                    assert!(matches!(msg, LdsMessage::InvokeRead { .. }));
                }
                other => panic!("unexpected envelope {other:?}"),
            }
        }
        // 2 from the single send + 2 from the batched INVOKE-READ; the
        // QUERY-TAG never arrives.
        assert_eq!(got, 4);
        let counters = router.transport().fault_counters();
        assert_eq!((counters.duplicated, counters.dropped), (2, 1));
        router.transport().shutdown();
    }

    #[test]
    fn delayed_messages_are_reinjected_by_the_pump() {
        use crate::transport::{FaultPlan, FaultRule, SimTransport};
        let params = lds_core::params::SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let plan = FaultPlan::seeded(1).rule(
            FaultRule::new()
                .delay_prob(1.0)
                .delay_window(Duration::from_millis(5), Duration::from_millis(15)),
        );
        let router = Router::with_transport(Arc::new(SimTransport::new(&plan, &params)));
        let inbox = router.register(ProcessId(1));
        router.handle().send(
            ProcessId(2),
            ProcessId(1),
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert!(
            inbox.rx.try_recv().is_none(),
            "a delayed message is not delivered inline"
        );
        let envelope = inbox
            .rx
            .recv_timeout(Duration::from_secs(5))
            .expect("pump re-injects the held message");
        assert!(matches!(envelope, Envelope::Protocol { .. }));
        assert_eq!(router.transport().fault_counters().delayed, 1);
        router.transport().shutdown();
    }

    #[test]
    fn stop_envelopes_bypass_even_a_drop_everything_transport() {
        use crate::transport::{FaultPlan, FaultRule, SimTransport};
        let params = lds_core::params::SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let plan = FaultPlan::seeded(1).rule(FaultRule::new().drop_prob(1.0));
        let router = Router::with_transport(Arc::new(SimTransport::new(&plan, &params)));
        let inboxes = sharded(&router, ProcessId(3), 2);
        router.send_stop(ProcessId(3));
        for inbox in &inboxes {
            assert!(matches!(inbox.rx.recv().unwrap(), Envelope::Stop));
        }
        router.transport().shutdown();
    }

    #[test]
    fn partitioned_pings_are_blocked_so_beats_go_stale() {
        use crate::transport::{Endpoint, FaultPlan, PartitionSpec, SimTransport};
        let params = lds_core::params::SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let plan = FaultPlan::seeded(1).partition(PartitionSpec::isolate(&[Endpoint::L1(0)]));
        let router = Router::with_transport(Arc::new(SimTransport::new(&plan, &params)));
        let isolated = router.register(ProcessId(0));
        let healthy = router.register(ProcessId(1));
        router.send_ping(ProcessId(0));
        router.send_ping(ProcessId(1));
        assert!(isolated.rx.try_recv().is_none(), "ping into the partition");
        assert!(matches!(healthy.rx.try_recv(), Some(Envelope::Ping)));
        assert_eq!(router.transport().fault_counters().partitioned, 1);
        router.transport().shutdown();
    }

    #[test]
    fn depth_gauge_tracks_claims_and_high_water() {
        let gauge = DepthGauge::default();
        gauge.add(3);
        gauge.add(2);
        assert_eq!(gauge.current(), 5);
        gauge.sub(4);
        assert_eq!(gauge.current(), 1);
        assert_eq!(gauge.max_seen(), 5);
    }
}
