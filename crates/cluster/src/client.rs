//! The data-plane client: one type, blocking and pipelined.
//!
//! A [`StoreClient`] hosts the writer and reader automata from `lds-core`
//! and pumps their messages over the deployment's channels. It is the one
//! implementation of the [`Store`] trait in this crate, and three usage
//! styles share one handle:
//!
//! * **Blocking** — [`Store::write`] / [`Store::read`] block until the
//!   operation completes. They are thin wrappers over the pipelined path
//!   with an immediate wait.
//! * **Pipelined** — [`Store::submit_write`] / [`Store::submit_read`]
//!   enqueue an operation and return an [`OpTicket`] immediately; up to
//!   `depth` operations run concurrently. Completions are harvested with
//!   [`Store::poll`] (non-blocking), [`Store::poll_wait`] (deadline-bounded),
//!   [`Store::wait`] (one ticket) or [`Store::wait_all`].
//! * **Non-blocking** — [`Store::try_submit_write`] /
//!   [`Store::try_submit_read`] either start the operation immediately or
//!   return [`StoreError::WouldBlock`] — they never queue, so a full
//!   pipeline or a busy key pushes back on the submitter instead of letting
//!   work pile up.
//!
//! Operations on the *same* object are executed in submission order (FIFO
//! per object, one in flight at a time) — this keeps the per-writer tag
//! sequence monotonic and gives read-your-writes for a client's own
//! submissions. Operations on distinct objects proceed concurrently, which
//! is where the throughput comes from.
//!
//! One dispatch rule: a queued operation starts when the pipeline has a free
//! slot and its object has nothing in flight. Only this client's own
//! completions free either, so every dispatch follows the delivery of one of
//! its own inbox messages — a blocking wait parks on the inbox until then.

use crate::api::{Store, StoreError};
use crate::node::Cluster;
use crate::obs::{phase, EventKind, ObsMetrics, TraceHandle};
use crate::router::{DepthGauge, Envelope, Inbox, RouterHandle};
use crate::sync::channel::{unbounded, RecvTimeoutError, Sender};
use lds_core::idmap::{IdMap, IdSet};
use lds_core::messages::{LdsMessage, ProtocolEvent};
use lds_core::reader::ReaderClient;
use lds_core::tag::{ClientId, ObjectId, OpId, Tag};
use lds_core::value::Value;
use lds_core::writer::WriterClient;
use lds_core::{Context, ProcessId, SimTime};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one submitted operation of a [`StoreClient`]. Tickets are
/// handed out in submission order and are unique per handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpTicket(u64);

impl fmt::Display for OpTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The result of one completed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A write committed with this tag.
    Write {
        /// The tag the writer minted.
        tag: Tag,
    },
    /// A read returned this value.
    Read {
        /// The tag of the returned value.
        tag: Tag,
        /// The returned value.
        value: Vec<u8>,
    },
}

impl OpOutcome {
    /// The tag associated with the operation.
    pub fn tag(&self) -> Tag {
        match self {
            OpOutcome::Write { tag } | OpOutcome::Read { tag, .. } => *tag,
        }
    }
}

impl Completion {
    /// The typed key of the object the operation acted on.
    pub fn key(&self) -> ObjectId {
        ObjectId(self.obj)
    }
}

/// One harvested completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The ticket returned at submission.
    pub ticket: OpTicket,
    /// The object the operation acted on.
    pub obj: u64,
    /// What the operation produced.
    pub outcome: OpOutcome,
    /// Wall-clock time from submission to completion (includes any time the
    /// operation spent queued behind the pipeline depth or object FIFO).
    pub latency: Duration,
}

/// Makes a client blocked in `poll_wait` return, from any thread.
///
/// Obtained from [`Store::waker`]; cloneable and `Send`. A wake is sticky:
/// one delivered while the client is *not* blocked makes its next
/// `poll_wait` return without blocking, so the usual "queue the work, then
/// wake the consumer" hand-off cannot lose a wake-up. Wakes do not
/// accumulate — any number of them before a `poll_wait` cost it one early
/// return.
#[derive(Clone)]
pub struct Waker {
    /// Checked by `poll_wait` before it blocks, cleared when it returns.
    woken: Arc<AtomicBool>,
    /// The client's inbox: a blocked `recv_timeout` returns on the
    /// [`Envelope::Ping`] dropped into it. Sent directly, not through a
    /// router — a fault plan must not be able to drop a local wake-up.
    inbox: Sender<Envelope>,
}

impl Waker {
    /// Wakes the client (see the type docs).
    pub fn wake(&self) {
        // SeqCst, flag before ping: a `poll_wait` that swallows the ping
        // while draining its inbox must already see the flag.
        self.woken.store(true, Ordering::SeqCst);
        let _ = self.inbox.send(Envelope::Ping);
    }
}

impl fmt::Debug for Waker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Waker").finish_non_exhaustive()
    }
}

enum OpKind {
    Write(Value),
    Read,
}

struct QueuedOp {
    ticket: OpTicket,
    obj: ObjectId,
    kind: OpKind,
    submitted: Instant,
}

struct InFlight {
    ticket: OpTicket,
    submitted: Instant,
    /// Protocol phase the operation is in (see [`phase`]), advanced when
    /// the automaton's outgoing messages cross a phase boundary.
    phase: u64,
    /// When the current phase started — each boundary records the elapsed
    /// phase into the store's latency histograms.
    phase_started: Instant,
}

impl InFlight {
    /// Moves the operation into phase `next`: the phase it leaves is
    /// recorded into `obs`'s histograms and the transition traced.
    fn advance(&mut self, obs: &ObsMetrics, trace: &mut TraceHandle, obj: ObjectId, next: u64) {
        let now = Instant::now();
        let us = now
            .saturating_duration_since(self.phase_started)
            .as_micros() as u64;
        obs.record_phase(self.phase, us);
        self.phase = next;
        self.phase_started = now;
        trace.record(EventKind::OpPhase, obj.0, next, self.ticket.0);
    }
}

/// A data-plane client of a running store, produced by
/// [`StoreHandle::client`](crate::api::StoreHandle::client): the one
/// [`Store`] implementation (see the [module docs](self)). Import the trait
/// to use it:
///
/// ```rust
/// use lds_cluster::api::{ObjectId, Store, StoreBuilder};
///
/// let store = StoreBuilder::new().high_throughput(2).build().unwrap();
/// let mut client = store.client_with_depth(8);
/// let tickets: Vec<_> = (0..8u64)
///     .map(|k| client.submit_write(ObjectId(k), &[k as u8; 16]))
///     .collect();
/// let completions = client.wait_all().unwrap();
/// assert_eq!(completions.len(), tickets.len());
/// store.shutdown();
/// ```
pub struct StoreClient {
    cluster: Arc<Cluster>,
    route: RouterHandle,
    /// The store's always-on latency metrics registry.
    obs: Arc<ObsMetrics>,
    /// This handle's ring in the flight recorder (one branch per record
    /// when tracing is off).
    trace: TraceHandle,
    pid: ProcessId,
    inbox: Inbox,
    /// A sender into `inbox`, for [`Waker`]s.
    inbox_tx: Sender<Envelope>,
    writer: WriterClient,
    reader: ReaderClient,
    depth: usize,
    timeout: Duration,
    next_ticket: u64,
    /// Submitted operations not yet dispatched into an automaton (waiting
    /// for a pipeline slot or for their object's previous op).
    queue: VecDeque<QueuedOp>,
    /// Objects with a dispatched, unfinished operation.
    busy_objects: IdSet<ObjectId>,
    write_ops: IdMap<OpId, InFlight>,
    read_ops: IdMap<OpId, InFlight>,
    /// Completed but not yet harvested operations.
    completions: Vec<Completion>,
    /// Tag of the last completed operation, useful for assertions.
    last_tag: Option<Tag>,
    /// Scratch buffers reused across automaton steps (hot path: one client
    /// processes tens of messages per completed operation).
    scratch_out: Vec<(ProcessId, LdsMessage)>,
    scratch_events: Vec<(SimTime, ProcessId, ProtocolEvent)>,
    scratch_inbox: Vec<Envelope>,
    /// Set by this handle's [`Waker`]s; see [`Store::poll_wait`].
    woken: Arc<AtomicBool>,
}

impl StoreClient {
    /// A client of `cluster` that keeps at most `depth` operations in
    /// flight.
    pub(crate) fn new(cluster: &Arc<Cluster>, depth: usize) -> Self {
        assert!(depth > 0, "pipeline depth must be at least 1");
        let client_num = cluster.alloc_client_number();
        let id = ClientId(client_num);
        let pid = cluster.client_pid(client_num);
        let writer = WriterClient::new(id, cluster.params(), cluster.membership().clone());
        let reader = ReaderClient::new(
            id,
            cluster.params(),
            cluster.membership().clone(),
            cluster.backend(),
        );
        let (inbox_tx, rx) = unbounded();
        let depth_gauge = Arc::new(DepthGauge::default());
        cluster
            .router()
            .register_sender(pid, inbox_tx.clone(), Arc::clone(&depth_gauge));
        StoreClient {
            cluster: Arc::clone(cluster),
            route: cluster.router().handle(),
            obs: Arc::clone(cluster.obs_metrics()),
            trace: cluster.recorder().handle(),
            pid,
            inbox: Inbox {
                rx,
                depth: depth_gauge,
            },
            inbox_tx,
            writer,
            reader,
            depth,
            timeout: Duration::from_secs(10),
            next_ticket: 0,
            queue: VecDeque::new(),
            busy_objects: IdSet::default(),
            write_ops: IdMap::default(),
            read_ops: IdMap::default(),
            completions: Vec::new(),
            last_tag: None,
            scratch_out: Vec::with_capacity(64),
            scratch_events: Vec::with_capacity(8),
            scratch_inbox: Vec::with_capacity(64),
            woken: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The timestamp automaton steps run at (it feeds event timestamps
    /// only).
    fn now(&self) -> SimTime {
        self.cluster.elapsed()
    }

    fn mint_ticket(&mut self) -> OpTicket {
        let ticket = OpTicket(self.next_ticket);
        self.next_ticket += 1;
        ticket
    }

    fn submit(&mut self, obj: ObjectId, kind: OpKind) -> OpTicket {
        let ticket = self.mint_ticket();
        self.queue.push_back(QueuedOp {
            ticket,
            obj,
            kind,
            submitted: Instant::now(),
        });
        self.try_dispatch();
        ticket
    }

    fn try_submit(
        &mut self,
        obj: ObjectId,
        kind: impl FnOnce() -> OpKind,
    ) -> Result<OpTicket, StoreError> {
        // Harvest whatever already arrived so completed ops free their slots
        // before we judge fullness. A disconnected cluster is reported by the
        // next poll/wait, not here (this path stays infallible w.r.t. I/O).
        let _ = self.pump_available();
        if self.in_flight() >= self.depth {
            return Err(StoreError::WouldBlock);
        }
        if self.busy_objects.contains(&obj) || self.queue.iter().any(|q| q.obj == obj) {
            return Err(StoreError::WouldBlock);
        }
        let op = QueuedOp {
            ticket: self.mint_ticket(),
            obj,
            kind: kind(),
            submitted: Instant::now(),
        };
        let ticket = op.ticket;
        let mut outgoing = std::mem::take(&mut self.scratch_out);
        let mut events = std::mem::take(&mut self.scratch_events);
        self.begin(op, self.now(), &mut outgoing, &mut events);
        self.route.send_batch(self.pid, outgoing.drain(..));
        self.scratch_out = outgoing;
        self.scratch_events = events;
        Ok(ticket)
    }

    /// Queued + dispatched (not yet completed) operations.
    fn outstanding(&self) -> usize {
        self.queue.len() + self.in_flight()
    }

    fn is_outstanding(&self, ticket: OpTicket) -> bool {
        self.queue.iter().any(|q| q.ticket == ticket)
            || self.write_ops.values().any(|f| f.ticket == ticket)
            || self.read_ops.values().any(|f| f.ticket == ticket)
    }

    /// Dispatches `op` into its automaton right now: traces the submission,
    /// starts the automaton (its first messages land in `outgoing`, which
    /// the caller sends) and books the operation as in flight on its
    /// object. The caller has already checked the pipeline depth and
    /// per-object FIFO.
    fn begin(
        &mut self,
        op: QueuedOp,
        now: SimTime,
        outgoing: &mut Vec<(ProcessId, LdsMessage)>,
        events: &mut Vec<(SimTime, ProcessId, ProtocolEvent)>,
    ) {
        let mut ctx = Context::standalone(self.pid, now, outgoing, events);
        let in_flight = InFlight {
            ticket: op.ticket,
            submitted: op.submitted,
            phase: phase::TAG,
            phase_started: Instant::now(),
        };
        match op.kind {
            OpKind::Write(value) => {
                self.trace
                    .record(EventKind::OpSubmitted, op.obj.0, 0, op.ticket.0);
                let id = self.writer.start_write(op.obj, value, &mut ctx);
                self.write_ops.insert(id, in_flight);
            }
            OpKind::Read => {
                self.trace
                    .record(EventKind::OpSubmitted, op.obj.0, 1, op.ticket.0);
                let id = self.reader.start_read(op.obj, &mut ctx);
                self.read_ops.insert(id, in_flight);
            }
        }
        self.busy_objects.insert(op.obj);
        debug_assert!(events.is_empty(), "dispatch cannot complete an op");
    }

    /// Starts as many queued operations as the pipeline depth and per-object
    /// FIFO allow. Scanning in submission order guarantees that of two queued
    /// operations on the same object, the earlier one always dispatches
    /// first (it marks the object busy before the scan reaches the later).
    fn try_dispatch(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let mut outgoing = std::mem::take(&mut self.scratch_out);
        let mut events = std::mem::take(&mut self.scratch_events);
        let now = self.now();
        let mut i = 0;
        while i < self.queue.len() {
            if self.in_flight() >= self.depth {
                break;
            }
            let obj = self.queue[i].obj;
            if self.busy_objects.contains(&obj) {
                i += 1;
                continue;
            }
            let op = self.queue.remove(i).expect("index checked");
            self.begin(op, now, &mut outgoing, &mut events);
        }
        self.route.send_batch(self.pid, outgoing.drain(..));
        self.scratch_out = outgoing;
        self.scratch_events = events;
    }

    /// Feeds one protocol message into the owning automaton, sends its
    /// outgoing batch, and harvests any completion.
    fn deliver(&mut self, from: ProcessId, msg: LdsMessage) {
        let mut outgoing = std::mem::take(&mut self.scratch_out);
        let mut events = std::mem::take(&mut self.scratch_events);
        let now = self.now();
        let mut ctx = Context::standalone(self.pid, now, &mut outgoing, &mut events);
        match &msg {
            LdsMessage::TagResp { .. } | LdsMessage::AckPutData { .. } => {
                use lds_core::Process;
                self.writer.on_message(from, msg, &mut ctx);
            }
            LdsMessage::CommTagResp { .. }
            | LdsMessage::DataResp { .. }
            | LdsMessage::AckPutTag { .. } => {
                use lds_core::Process;
                self.reader.on_message(from, msg, &mut ctx);
            }
            // Anything else is not addressed to a client automaton.
            _ => {}
        }
        self.note_phases(&outgoing);
        self.route.send_batch(self.pid, outgoing.drain(..));
        self.scratch_out = outgoing;
        let completed = !events.is_empty();
        for (_, _, event) in events.drain(..) {
            self.finish(event);
        }
        self.scratch_events = events;
        if completed {
            // Freed slots / objects: queued operations may start now.
            self.try_dispatch();
        }
    }

    /// Phase stamps: the first PUT-DATA (write) or QUERY-DATA /
    /// PUT-TAG (read) an automaton step produced marks a phase boundary for
    /// its operation (see [`InFlight::advance`]). The writer fans PUT-DATA out
    /// to every L1 server, so only the first message of a kind advances the
    /// phase (later ones see the already-advanced state and do nothing).
    fn note_phases(&mut self, outgoing: &[(ProcessId, LdsMessage)]) {
        for (_, msg) in outgoing {
            let (ops, op, obj, next) = match msg {
                // Write: tag-quorum round done, data transfer starts. The
                // commit wait (PUT-DATA fan-out through ACK-PUT-DATA quorum)
                // is part of the data phase — the client only observes the
                // final ack.
                LdsMessage::PutData { op, obj, .. } => (&mut self.write_ops, op, obj, phase::DATA),
                // Read: committed-tag quorum done, data transfer starts.
                LdsMessage::QueryData { op, obj, .. } => (&mut self.read_ops, op, obj, phase::DATA),
                // Read: value decoded, tag write-back (commit) starts.
                LdsMessage::PutTag { op, obj, .. } => (&mut self.read_ops, op, obj, phase::COMMIT),
                _ => continue,
            };
            if let Some(f) = ops.get_mut(op) {
                if f.phase < next {
                    f.advance(&self.obs, &mut self.trace, *obj, next);
                }
            }
        }
    }

    /// Books the completion an automaton reported: the operation's object
    /// is freed, its open phase and end-to-end latency recorded, and the
    /// [`Completion`] queued for harvest.
    fn finish(&mut self, event: ProtocolEvent) {
        let now = Instant::now();
        let (f, obj, outcome) = match event {
            ProtocolEvent::WriteCompleted { op, obj, tag, .. } => {
                let Some(f) = self.write_ops.remove(&op) else {
                    return;
                };
                (f, obj, OpOutcome::Write { tag })
            }
            ProtocolEvent::ReadCompleted {
                op,
                obj,
                tag,
                value,
                ..
            } => {
                let Some(f) = self.read_ops.remove(&op) else {
                    return;
                };
                // A decoded read arrives as the only handle on its buffer
                // and is moved out; a value an L1 list shares is copied.
                let value = value.into_vec();
                (f, obj, OpOutcome::Read { tag, value })
            }
        };
        self.busy_objects.remove(&obj);
        self.last_tag = Some(outcome.tag());
        // Close the open phase (a write's data phase, which includes the
        // commit wait; a read's commit phase, the PUT-TAG write-back quorum)
        // and the end-to-end sample.
        self.obs.record_phase(
            f.phase,
            now.saturating_duration_since(f.phase_started).as_micros() as u64,
        );
        let latency = now.saturating_duration_since(f.submitted);
        let us = latency.as_micros() as u64;
        match outcome {
            OpOutcome::Write { .. } => {
                self.obs.write_us.record(us);
                self.trace.record(EventKind::OpCompleted, obj.0, 0, us);
            }
            OpOutcome::Read { .. } => {
                self.obs.read_us.record(us);
                self.trace.record(EventKind::OpCompleted, obj.0, 1, us);
            }
        }
        self.completions.push(Completion {
            ticket: f.ticket,
            obj: obj.0,
            outcome,
            latency,
        });
    }

    /// Processes one claimed envelope (updating the inbox gauge).
    fn consume_envelope(&mut self, envelope: Envelope) -> Result<(), StoreError> {
        match envelope {
            Envelope::Protocol { from, msg } => {
                self.inbox.depth.sub(1);
                self.deliver(from, msg);
                Ok(())
            }
            Envelope::Stop => Err(StoreError::Disconnected),
            // A `Waker`'s ping (clients are never heartbeat-monitored): it
            // only had to end a blocking receive.
            Envelope::Ping => Ok(()),
        }
    }

    /// Processes every already-queued inbox message without blocking. The
    /// backlog is claimed in batches (one channel-lock acquisition each, an
    /// envelope [`StoreClient::pump_blocking`] received at the head of the
    /// first), and what a batch made the automata send is flushed once.
    fn pump_available(&mut self) -> Result<(), StoreError> {
        loop {
            let mut batch = std::mem::take(&mut self.scratch_inbox);
            batch.extend(self.inbox.rx.try_iter());
            if batch.is_empty() {
                self.scratch_inbox = batch;
                return Ok(());
            }
            let mut result = Ok(());
            for envelope in batch.drain(..) {
                if let Err(e) = self.consume_envelope(envelope) {
                    result = Err(e);
                    break;
                }
            }
            self.route.flush();
            self.scratch_inbox = batch;
            result?;
        }
    }

    /// Blocks on the inbox for at most `max_wait` and processes what
    /// arrives. Returns `false` when the wait expired with nothing received.
    /// Queued operations wait only on pipeline depth or per-object FIFO,
    /// which one of this client's own completion messages frees — that
    /// message wakes the `recv` directly.
    fn pump_blocking(&mut self, max_wait: Duration) -> Result<bool, StoreError> {
        match self.inbox.rx.recv_timeout(max_wait) {
            Ok(envelope) => {
                self.scratch_inbox.push(envelope);
                self.pump_available()?;
                Ok(true)
            }
            Err(RecvTimeoutError::Timeout) => Ok(false),
            Err(RecvTimeoutError::Disconnected) => Err(StoreError::Disconnected),
        }
    }

    /// [`StoreClient::pump_blocking`] against a blocking wait's deadline
    /// (`None`: a timeout no instant can hold, so no deadline): once it has
    /// passed, every outstanding operation is aborted (the handle is
    /// reusable afterwards, but their tickets are forgotten).
    fn pump_until(&mut self, deadline: Option<Instant>) -> Result<(), StoreError> {
        let left = deadline.map_or(Some(Duration::MAX), |d| {
            d.checked_duration_since(Instant::now())
        });
        if let Some(left) = left {
            if self.pump_blocking(left)? || deadline.is_none_or(|d| Instant::now() < d) {
                return Ok(());
            }
        }
        self.cancel_all();
        Err(StoreError::Timeout)
    }

    /// Abandons every outstanding operation: queued operations are dropped,
    /// in-flight state is cancelled, their tickets are forgotten.
    /// Already-harvested completions are retained.
    fn cancel_all(&mut self) {
        self.writer.cancel_all();
        self.reader.cancel_all();
        self.queue.clear();
        self.busy_objects.clear();
        self.write_ops.clear();
        self.read_ops.clear();
    }
}

impl Store for StoreClient {
    fn write(&mut self, key: ObjectId, value: &[u8]) -> Result<Tag, StoreError> {
        let ticket = self.submit_write(key, value);
        match self.wait(ticket)?.outcome {
            OpOutcome::Write { tag } => Ok(tag),
            OpOutcome::Read { .. } => unreachable!("write ticket yielded a read outcome"),
        }
    }

    fn read(&mut self, key: ObjectId) -> Result<Vec<u8>, StoreError> {
        let ticket = self.submit_read(key);
        match self.wait(ticket)?.outcome {
            OpOutcome::Read { value, .. } => Ok(value),
            OpOutcome::Write { .. } => unreachable!("read ticket yielded a write outcome"),
        }
    }

    fn submit_write(&mut self, key: ObjectId, value: &[u8]) -> OpTicket {
        self.submit(key, OpKind::Write(Value::from(value)))
    }

    fn submit_write_value(&mut self, key: ObjectId, value: Value) -> OpTicket {
        self.submit(key, OpKind::Write(value))
    }

    fn submit_read(&mut self, key: ObjectId) -> OpTicket {
        self.submit(key, OpKind::Read)
    }

    fn try_submit_write(&mut self, key: ObjectId, value: &[u8]) -> Result<OpTicket, StoreError> {
        self.try_submit(key, || OpKind::Write(Value::from(value)))
    }

    fn try_submit_read(&mut self, key: ObjectId) -> Result<OpTicket, StoreError> {
        self.try_submit(key, || OpKind::Read)
    }

    fn poll(&mut self) -> Result<Vec<Completion>, StoreError> {
        self.route.flush();
        self.pump_available()?;
        Ok(std::mem::take(&mut self.completions))
    }

    fn poll_wait(&mut self, max_wait: Duration) -> Result<Vec<Completion>, StoreError> {
        self.route.flush();
        self.pump_available()?;
        if self.completions.is_empty()
            && self.outstanding() > 0
            && !self.woken.load(Ordering::SeqCst)
        {
            self.pump_blocking(max_wait)?;
        }
        // Cleared on the way out, never before blocking. A wake this swap
        // overwrites happened before the return, so whatever it announced
        // is visible to the caller's own re-check; a later one stays set.
        self.woken.swap(false, Ordering::SeqCst);
        Ok(std::mem::take(&mut self.completions))
    }

    fn waker(&self) -> Waker {
        Waker {
            woken: Arc::clone(&self.woken),
            inbox: self.inbox_tx.clone(),
        }
    }

    fn wait(&mut self, ticket: OpTicket) -> Result<Completion, StoreError> {
        self.route.flush();
        let deadline = Instant::now().checked_add(self.timeout);
        loop {
            self.pump_available()?;
            if let Some(i) = self.completions.iter().position(|c| c.ticket == ticket) {
                return Ok(self.completions.remove(i));
            }
            if !self.is_outstanding(ticket) {
                return Err(StoreError::UnknownTicket);
            }
            self.pump_until(deadline)?;
        }
    }

    fn wait_next(&mut self) -> Result<Vec<Completion>, StoreError> {
        self.route.flush();
        let deadline = Instant::now().checked_add(self.timeout);
        self.pump_available()?;
        while self.completions.is_empty() && self.outstanding() > 0 {
            self.pump_until(deadline)?;
        }
        Ok(std::mem::take(&mut self.completions))
    }

    fn wait_all(&mut self) -> Result<Vec<Completion>, StoreError> {
        self.route.flush();
        let deadline = Instant::now().checked_add(self.timeout);
        loop {
            self.pump_available()?;
            if self.outstanding() == 0 {
                let mut done = std::mem::take(&mut self.completions);
                done.sort_by_key(|c| c.ticket);
                return Ok(done);
            }
            self.pump_until(deadline)?;
        }
    }

    fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    fn pending_ops(&self) -> usize {
        self.outstanding() + self.completions.len()
    }

    fn in_flight(&self) -> usize {
        self.write_ops.len() + self.read_ops.len()
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn last_tag(&self) -> Option<Tag> {
        self.last_tag
    }
}

impl Drop for StoreClient {
    fn drop(&mut self) {
        self.cluster.router().deregister(self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ServerRef, StoreBuilder, StoreHandle};
    use crate::transport::{Endpoint, FaultPlan, FaultRule};
    use lds_core::backend::BackendKind;

    fn small_store() -> StoreHandle {
        StoreBuilder::new().build().unwrap()
    }

    #[test]
    fn write_then_read_over_threads() {
        let store = small_store();
        let mut writer = store.client();
        let mut reader = store.client();
        let tag = writer.write(ObjectId(0), b"threaded").unwrap();
        assert_eq!(writer.last_tag(), Some(tag));
        let value = reader.read(ObjectId(0)).unwrap();
        assert_eq!(value, b"threaded");
        store.shutdown();
    }

    #[test]
    fn sequential_writes_are_ordered_by_tags() {
        let store = small_store();
        let mut client = store.client();
        let t1 = client.write(ObjectId(0), b"one").unwrap();
        let t2 = client.write(ObjectId(0), b"two").unwrap();
        assert!(t2 > t1);
        assert_eq!(client.read(ObjectId(0)).unwrap(), b"two");
        store.shutdown();
    }

    #[test]
    fn tolerates_allowed_failures() {
        let store = small_store();
        let mut client = store.client();
        store.admin().kill(ServerRef::l1(0)).unwrap();
        store.admin().kill(ServerRef::l2(4)).unwrap();
        client.write(ObjectId(3), b"still alive").unwrap();
        assert_eq!(client.read(ObjectId(3)).unwrap(), b"still alive");
        store.shutdown();
    }

    #[test]
    fn too_many_failures_time_out() {
        let store = small_store();
        let mut client = store.client();
        client.set_timeout(Duration::from_millis(300));
        // f1 = 1 but we kill 3 of the 4 L1 servers: quorums are unreachable.
        for j in 0..3 {
            store.admin().kill(ServerRef::l1(j)).unwrap();
        }
        assert_eq!(
            client.write(ObjectId(0), b"doomed"),
            Err(StoreError::Timeout)
        );
        assert_eq!(client.pending_ops(), 0, "timeout aborts outstanding ops");
        store.shutdown();
    }

    #[test]
    fn concurrent_clients_from_multiple_threads() {
        let store = small_store();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = store.client();
                for i in 0..5u64 {
                    let value = format!("writer-{t}-{i}").into_bytes();
                    client.write(ObjectId(0), &value).unwrap();
                    let read = client.read(ObjectId(0)).unwrap();
                    assert!(!read.is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        store.shutdown();
    }

    #[test]
    fn pipelined_ops_across_objects_complete() {
        let store = small_store();
        let mut client = store.client_with_depth(8);
        let mut tickets = Vec::new();
        for obj in 0..8u64 {
            tickets.push(client.submit_write(ObjectId(obj), format!("v{obj}").as_bytes()));
        }
        // More submissions than the depth allows: the rest queue up.
        for obj in 0..8u64 {
            tickets.push(client.submit_read(ObjectId(obj)));
        }
        let completions = client.wait_all().unwrap();
        assert_eq!(completions.len(), 16);
        // Ticket order is submission order.
        let got: Vec<OpTicket> = completions.iter().map(|c| c.ticket).collect();
        assert_eq!(got, tickets);
        // Every read (second half) observed its object's write (first half):
        // same-object FIFO means the read dispatched only after the write
        // completed.
        for c in &completions[8..] {
            match &c.outcome {
                OpOutcome::Read { value, .. } => {
                    assert_eq!(value, &format!("v{}", c.obj).into_bytes());
                }
                other => panic!("expected read outcome, got {other:?}"),
            }
        }
        store.shutdown();
    }

    #[test]
    fn same_object_submissions_run_fifo() {
        let store = small_store();
        let mut client = store.client_with_depth(8);
        for i in 0..6u64 {
            client.submit_write(ObjectId(0), format!("gen-{i}").as_bytes());
        }
        client.submit_read(ObjectId(0));
        let completions = client.wait_all().unwrap();
        assert_eq!(completions.len(), 7);
        // Writes committed in submission order: tags strictly increase.
        let tags: Vec<Tag> = completions[..6].iter().map(|c| c.outcome.tag()).collect();
        for pair in tags.windows(2) {
            assert!(pair[0] < pair[1], "same-object writes out of order");
        }
        // The trailing read sees the last write.
        match &completions[6].outcome {
            OpOutcome::Read { value, .. } => assert_eq!(value, b"gen-5"),
            other => panic!("expected read outcome, got {other:?}"),
        }
        store.shutdown();
    }

    #[test]
    fn poll_is_nonblocking_and_wait_harvests_the_rest() {
        let store = small_store();
        let mut client = store.client_with_depth(4);
        let t0 = client.submit_write(ObjectId(0), b"a");
        let t1 = client.submit_write(ObjectId(1), b"b");
        // poll() never blocks; harvest whatever is ready.
        let mut harvested: Vec<Completion> = client.poll().unwrap();
        // Waiting on the second ticket retains the first one's completion if
        // it arrives meanwhile.
        let c1 = client.wait(t1).unwrap();
        assert_eq!(c1.ticket, t1);
        harvested.extend(client.wait_all().unwrap());
        let mut seen: Vec<OpTicket> = harvested.iter().map(|c| c.ticket).collect();
        seen.push(c1.ticket);
        seen.sort();
        assert_eq!(seen, vec![t0, t1]);
        // An already-harvested ticket is unknown.
        assert_eq!(client.wait(t0), Err(StoreError::UnknownTicket));
        store.shutdown();
    }

    #[test]
    fn pipelined_client_on_sharded_cluster() {
        let store = StoreBuilder::new().shards(3).build().unwrap();
        let mut client = store.client_with_depth(16);
        for round in 0..3u64 {
            for obj in 0..16u64 {
                client.submit_write(ObjectId(obj), format!("r{round}-o{obj}").as_bytes());
            }
            let completions = client.wait_all().unwrap();
            assert_eq!(completions.len(), 16);
        }
        for obj in 0..16u64 {
            client.submit_read(ObjectId(obj));
        }
        let reads = client.wait_all().unwrap();
        for c in &reads {
            match &c.outcome {
                OpOutcome::Read { value, .. } => {
                    assert_eq!(value, &format!("r2-o{}", c.obj).into_bytes());
                }
                other => panic!("expected read outcome, got {other:?}"),
            }
        }
        store.shutdown();
    }

    #[test]
    fn poll_wait_times_out_without_aborting() {
        let store = small_store();
        let mut client = store.client_with_depth(4);
        // Nothing outstanding: returns immediately, empty.
        assert!(client
            .poll_wait(Duration::from_millis(50))
            .unwrap()
            .is_empty());
        let t = client.submit_write(ObjectId(0), b"x");
        // Harvest with short waits only; the op must survive expiries.
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(client.poll_wait(Duration::from_millis(10)).unwrap());
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ticket, t);
        // A wait of `Duration::MAX` has no deadline, not an instant overflow.
        let t = client.submit_write(ObjectId(0), b"y");
        let mut got = Vec::new();
        while got.is_empty() {
            got = client.poll_wait(Duration::MAX).unwrap();
        }
        assert_eq!(got[0].ticket, t);
        client.set_timeout(Duration::MAX);
        client.write(ObjectId(0), b"z").unwrap();
        assert_eq!(client.read(ObjectId(0)).unwrap(), b"z");
        store.shutdown();
    }

    #[test]
    fn try_submit_respects_pipeline_and_fifo() {
        // Every client → L1 message is held 200 ms, so the first write is
        // still in flight when the next `try_submit_*` runs, however fast
        // the host is.
        let hold = Duration::from_millis(200);
        let store = StoreBuilder::new()
            .fault_plan(
                FaultPlan::seeded(1).rule(
                    FaultRule::new()
                        .only_from(&[Endpoint::Clients])
                        .delay_prob(1.0)
                        .delay_window(hold, hold),
                ),
            )
            .build()
            .unwrap();
        let mut client = store.client_with_depth(2);
        let t0 = client.try_submit_write(ObjectId(0), b"a").unwrap();
        // Same object: refused while the first op is in flight.
        assert_eq!(
            client.try_submit_write(ObjectId(0), b"b"),
            Err(StoreError::WouldBlock)
        );
        let _t1 = client.try_submit_write(ObjectId(1), b"c").unwrap();
        // Depth 2 reached: anything else is refused.
        assert_eq!(
            client.try_submit_read(ObjectId(2)),
            Err(StoreError::WouldBlock)
        );
        let completions = client.wait_all().unwrap();
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].ticket, t0);
        store.shutdown();
    }

    /// Every dispatch follows one of the client's own completions, so a pure
    /// `poll()` loop — never a blocking wait — drives a depth-1 queue (held
    /// back by the pipeline and by per-object FIFO) to the end.
    #[test]
    fn poll_only_client_drains_its_queue() {
        let store = small_store();
        let mut client = store.client_with_depth(1);
        let tickets: Vec<_> = (0..8u64)
            .map(|i| client.submit_write(ObjectId(i % 3), format!("w{i}").as_bytes()))
            .collect();
        assert_eq!(client.in_flight(), 1, "depth 1: the rest stay queued");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut done = Vec::new();
        while done.len() < tickets.len() && Instant::now() < deadline {
            done.extend(client.poll().unwrap());
            std::thread::sleep(Duration::from_micros(200));
        }
        let order: Vec<_> = done.iter().map(|c| c.ticket).collect();
        assert_eq!(order, tickets, "every write completes, in submission order");
        assert_eq!(client.pending_ops(), 0);
        store.shutdown();
    }

    /// `wait_next` never returns empty while work is outstanding, whichever
    /// worker shard completes first.
    #[test]
    fn facade_wait_next_harvests_from_any_shard() {
        let store = StoreBuilder::new()
            .backend(BackendKind::Replication)
            .shards(2)
            .build()
            .unwrap();
        let mut client = store.client_with_depth(8);
        for obj in 0..8u64 {
            client.submit_write(ObjectId(obj), &[obj as u8; 8]);
        }
        let mut harvested = 0;
        while harvested < 8 {
            let batch = client.wait_next().unwrap();
            assert!(
                !batch.is_empty(),
                "wait_next returned empty with work outstanding"
            );
            harvested += batch.len();
        }
        assert!(
            client.wait_next().unwrap().is_empty(),
            "nothing outstanding"
        );
        drop(client);
        store.shutdown();
    }
}
