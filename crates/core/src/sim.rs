//! The paper's system (§II) as a deterministic discrete-event simulation:
//! `n1` L1 servers, `n2` L2 servers and any number of writer and reader
//! clients, all stepped from one event queue.
//!
//! * processes communicate over **reliable point-to-point channels** — every
//!   message sent to a non-faulty destination is eventually delivered;
//! * processes fail by **crashing** and take no further steps afterwards;
//! * a sender may crash after placing a message in a channel; delivery
//!   depends only on the destination being alive;
//! * a message's delay is set by its link class, read off its endpoints'
//!   layers as in the latency analysis of §V-A: τ1 between a client and L1,
//!   τ0 between two L1 servers and τ2 on any link to L2. Without jitter the
//!   delay is the class's bound; with jitter it is one draw per send,
//!   uniform in `[(1 − jitter)·τ, τ]`.
//!
//! The simulation is seeded and fully deterministic: the same configuration
//! and schedule produce the same execution, which makes protocol bugs
//! reproducible. The run counts the paper's communication cost (payload
//! bytes, metadata free) per message kind, and the probes read the servers'
//! storage straight from the automata.
//!
//! # Example
//!
//! ```rust
//! use lds_core::params::SystemParams;
//! use lds_core::sim::{SimConfig, Simulation};
//!
//! let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
//! let mut sim = Simulation::new(SimConfig::new(params).seed(1));
//! let w = sim.add_writer();
//! let r = sim.add_reader();
//! sim.invoke_write(w, 0.0, b"hello".to_vec());
//! sim.invoke_read(r, 100.0);
//! let report = sim.run();
//! assert_eq!(report.history.len(), 2);
//! report.history.check_atomicity().unwrap();
//! assert_eq!(sim.l1_storage_bytes(), 0, "the value lives on in L2 only");
//! ```

use crate::backend::{make_backend, BackendCodec, BackendKind};
use crate::consistency::History;
use crate::membership::Membership;
use crate::messages::{LdsMessage, ProtocolEvent};
use crate::params::{Profile, SystemParams};
use crate::process::{Context, DataSize, Process, ProcessId, SimTime};
use crate::reader::ReaderClient;
use crate::server1::L1Server;
use crate::server2::L2Server;
use crate::tag::{ClientId, ObjectId};
use crate::value::Value;
use crate::writer::WriterClient;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Safety cap on the number of processed events; exceeding it indicates a
/// livelock in the protocol and causes a panic.
const MAX_STEPS: u64 = 50_000_000;

/// Configuration of a simulated LDS deployment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    params: SystemParams,
    backend: BackendKind,
    profile: Profile,
    seed: u64,
    tau0: f64,
    tau1: f64,
    tau2: f64,
    jitter: f64,
}

impl SimConfig {
    /// Creates a configuration with the paper's default latency regime
    /// (τ0 = τ1 = 1, τ2 = 10), no jitter, an MBR back-end and
    /// [`Profile::PaperFaithful`] servers.
    pub fn new(params: SystemParams) -> Self {
        SimConfig {
            params,
            backend: BackendKind::Mbr,
            profile: Profile::PaperFaithful,
            seed: 0,
            tau0: 1.0,
            tau1: 1.0,
            tau2: 10.0,
            jitter: 0.0,
        }
    }

    /// Sets the seed of the generator that draws jittered delays.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the back-end code used in L2.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the three link-delay bounds: τ0 (L1 ↔ L1), τ1 (client ↔ L1)
    /// and τ2 (any link to L2).
    ///
    /// # Panics
    ///
    /// Panics unless every bound is finite and non-negative.
    pub fn latencies(mut self, tau0: f64, tau1: f64, tau2: f64) -> Self {
        for tau in [tau0, tau1, tau2] {
            assert!(tau.is_finite() && tau >= 0.0, "invalid latency {tau}");
        }
        self.tau0 = tau0;
        self.tau1 = tau1;
        self.tau2 = tau2;
        self
    }

    /// Sets the jitter fraction: each delay is drawn uniformly from
    /// `[(1 − jitter)·τ, τ]`. Zero (the default) gives the deterministic
    /// bounded-latency model of the paper's latency analysis.
    ///
    /// # Panics
    ///
    /// Panics unless `jitter` is within `[0, 1]`.
    pub fn jitter(mut self, jitter: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&jitter),
            "jitter must be within [0, 1]"
        );
        self.jitter = jitter;
        self
    }

    /// Sets the protocol profile of every server.
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }
}

/// Traffic counters of a run: the paper (§II-d) measures an operation's
/// communication cost as the *data* it sends, metadata excluded, so the
/// bytes are also kept per message kind.
#[derive(Debug, Clone, Default)]
pub struct NetworkMetrics {
    messages_sent: u64,
    messages_delivered: u64,
    data_bytes_sent: u64,
    data_bytes_by_kind: BTreeMap<&'static str, u64>,
}

impl NetworkMetrics {
    fn record_send(&mut self, kind: &'static str, data_bytes: usize) {
        self.messages_sent += 1;
        self.data_bytes_sent += data_bytes as u64;
        *self.data_bytes_by_kind.entry(kind).or_default() += data_bytes as u64;
    }

    /// Total messages placed into channels.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total messages delivered to live processes.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Total data bytes placed into channels (metadata excluded).
    pub fn data_bytes_sent(&self) -> u64 {
        self.data_bytes_sent
    }

    /// Data bytes sent for one message kind.
    pub fn data_bytes_for_kind(&self, kind: &str) -> u64 {
        self.data_bytes_by_kind.get(kind).copied().unwrap_or(0)
    }
}

/// The result of running a simulated workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Completed-operation history (input to the atomicity checkers).
    pub history: History,
    /// Traffic counters for the whole run.
    pub metrics: NetworkMetrics,
}

/// The four automata of the paper, one per simulated process.
enum Automaton {
    Writer(WriterClient),
    Reader(ReaderClient),
    L1(L1Server),
    L2(L2Server),
}

impl Automaton {
    fn process(&mut self) -> &mut dyn Process<LdsMessage, ProtocolEvent> {
        match self {
            Automaton::Writer(p) => p,
            Automaton::Reader(p) => p,
            Automaton::L1(p) => p,
            Automaton::L2(p) => p,
        }
    }
}

struct Slot {
    automaton: Automaton,
    alive: bool,
}

enum EventKind {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: LdsMessage,
    },
    Crash {
        process: ProcessId,
    },
}

struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so the BinaryHeap acts as a min-heap on (time, seq).
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

/// A complete simulated LDS deployment (see the module documentation for
/// the model and an example).
pub struct Simulation {
    config: SimConfig,
    membership: Membership,
    backend: Arc<dyn BackendCodec>,
    processes: Vec<Slot>,
    writers: Vec<ProcessId>,
    readers: Vec<ProcessId>,
    queue: BinaryHeap<QueuedEvent>,
    seq: u64,
    now: SimTime,
    steps: u64,
    rng: SmallRng,
    metrics: NetworkMetrics,
    events: Vec<(SimTime, ProcessId, ProtocolEvent)>,
}

impl Simulation {
    /// Builds the deployment described by `config`: process ids `0..n1` are
    /// the L1 servers, the next `n2` the L2 servers, and clients follow in
    /// the order they are added.
    pub fn new(config: SimConfig) -> Self {
        let params = config.params;
        let backend =
            make_backend(config.backend, &params).expect("backend construction for valid params");
        // Pre-warm the codec's memoized decode / repair plans for the
        // canonical quorums so measured operations run at steady-state speed.
        backend.warm_plans();
        let (n1, n2) = (params.n1(), params.n2());
        let membership = Membership::new(
            (0..n1).map(ProcessId).collect(),
            (n1..n1 + n2).map(ProcessId).collect(),
        );
        let l1 = (0..n1).map(|j| {
            let server = L1Server::new(
                j,
                params,
                membership.clone(),
                Arc::clone(&backend),
                config.profile,
            );
            Automaton::L1(server)
        });
        let l2 = (0..n2).map(|i| {
            let server = L2Server::new(i, membership.clone(), Arc::clone(&backend), config.profile);
            Automaton::L2(server)
        });
        let processes = l1
            .chain(l2)
            .map(|automaton| Slot {
                automaton,
                alive: true,
            })
            .collect();
        Simulation {
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            membership,
            backend,
            processes,
            writers: Vec::new(),
            readers: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            steps: 0,
            metrics: NetworkMetrics::default(),
            events: Vec::new(),
        }
    }

    fn spawn(&mut self, automaton: Automaton) -> ProcessId {
        self.processes.push(Slot {
            automaton,
            alive: true,
        });
        ProcessId(self.processes.len() - 1)
    }

    fn next_client_id(&self) -> ClientId {
        ClientId((self.writers.len() + self.readers.len() + 1) as u64)
    }

    /// Adds a writer client and returns its process id.
    pub fn add_writer(&mut self) -> ProcessId {
        let writer = WriterClient::new(
            self.next_client_id(),
            self.config.params,
            self.membership.clone(),
        );
        let pid = self.spawn(Automaton::Writer(writer));
        self.writers.push(pid);
        pid
    }

    /// Adds a reader client and returns its process id.
    pub fn add_reader(&mut self) -> ProcessId {
        let reader = ReaderClient::new(
            self.next_client_id(),
            self.config.params,
            self.membership.clone(),
            Arc::clone(&self.backend),
        );
        let pid = self.spawn(Automaton::Reader(reader));
        self.readers.push(pid);
        pid
    }

    /// All writer process ids added so far.
    pub fn writers(&self) -> &[ProcessId] {
        &self.writers
    }

    /// All reader process ids added so far.
    pub fn readers(&self) -> &[ProcessId] {
        &self.readers
    }

    /// Schedules a write of `value` to the default object at `time`. Accepts
    /// anything convertible into a [`Value`] — `Vec<u8>` is framed once,
    /// already-framed `Value`s (e.g. from a reuse-friendly
    /// [`ValueGenerator`](crate::generator::ValueGenerator)) are passed
    /// through without copying.
    pub fn invoke_write(&mut self, writer: ProcessId, time: f64, value: impl Into<Value>) {
        self.invoke_write_obj(writer, time, ObjectId(0), value);
    }

    /// Schedules a write to a specific object at `time`.
    pub fn invoke_write_obj(
        &mut self,
        writer: ProcessId,
        time: f64,
        obj: ObjectId,
        value: impl Into<Value>,
    ) {
        let value = value.into();
        self.inject_at(time, writer, LdsMessage::InvokeWrite { obj, value });
    }

    /// Schedules a read of the default object at `time`.
    pub fn invoke_read(&mut self, reader: ProcessId, time: f64) {
        self.invoke_read_obj(reader, time, ObjectId(0));
    }

    /// Schedules a read of a specific object at `time`.
    pub fn invoke_read_obj(&mut self, reader: ProcessId, time: f64, obj: ObjectId) {
        self.inject_at(time, reader, LdsMessage::InvokeRead { obj });
    }

    /// Crashes the L1 server with code index `index` at `time`.
    pub fn crash_l1(&mut self, index: usize, time: f64) {
        self.schedule_crash(time, self.membership.l1[index]);
    }

    /// Crashes the L2 server with code index `index` at `time`.
    pub fn crash_l2(&mut self, index: usize, time: f64) {
        self.schedule_crash(time, self.membership.l2[index]);
    }

    /// Delivers a command from the harness ([`ProcessId::EXTERNAL`]) to `to`
    /// at exactly `time`: no link delay, no cost accounting.
    fn inject_at(&mut self, time: f64, to: ProcessId, msg: LdsMessage) {
        let time = SimTime::new(time);
        assert!(
            time >= self.now,
            "cannot inject into the past ({time} < {})",
            self.now
        );
        assert!(to.index() < self.processes.len(), "unknown process {to}");
        let from = ProcessId::EXTERNAL;
        self.push_event(time, EventKind::Deliver { from, to, msg });
    }

    fn schedule_crash(&mut self, time: f64, process: ProcessId) {
        let time = SimTime::new(time);
        assert!(time >= self.now, "cannot schedule a crash in the past");
        self.push_event(time, EventKind::Crash { process });
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent { time, seq, kind });
    }

    /// The delay of one message from `from` to `to`: its link class's bound,
    /// or one jittered draw below it.
    fn link_delay(&mut self, from: ProcessId, to: ProcessId) -> f64 {
        use Automaton::{L1, L2};
        let c = &self.config;
        let ends = (
            &self.processes[from.index()].automaton,
            &self.processes[to.index()].automaton,
        );
        let tau = match ends {
            (L2(_), _) | (_, L2(_)) => c.tau2,
            (L1(_), L1(_)) => c.tau0,
            _ => c.tau1,
        };
        let min = tau * (1.0 - c.jitter);
        if min < tau {
            self.rng.gen_range(min..=tau)
        } else {
            tau
        }
    }

    /// Delivers `msg` to the live process `to`, then sends its outgoing
    /// messages into the network.
    fn deliver(&mut self, from: ProcessId, to: ProcessId, msg: LdsMessage) {
        let mut outgoing: Vec<(ProcessId, LdsMessage)> = Vec::new();
        let mut ctx = Context::standalone(to, self.now, &mut outgoing, &mut self.events);
        let automaton = &mut self.processes[to.index()].automaton;
        automaton.process().on_message(from, msg, &mut ctx);
        for (dest, msg) in outgoing {
            if dest.is_external() {
                // Replies addressed to the harness pseudo-process are not part
                // of the simulated network.
                continue;
            }
            assert!(
                dest.index() < self.processes.len(),
                "send to unknown process {dest}"
            );
            self.metrics.record_send(msg.kind(), msg.data_size());
            let at = self.now + self.link_delay(to, dest);
            let kind = EventKind::Deliver {
                from: to,
                to: dest,
                msg,
            };
            self.push_event(at, kind);
        }
    }

    fn process_one(&mut self, event: QueuedEvent) {
        self.now = event.time;
        self.steps += 1;
        assert!(
            self.steps <= MAX_STEPS,
            "simulation exceeded {MAX_STEPS} steps; the protocol is likely livelocked"
        );
        match event.kind {
            EventKind::Crash { process } => self.processes[process.index()].alive = false,
            // A message to a crashed process is dropped.
            EventKind::Deliver { from, to, msg } => {
                if self.processes[to.index()].alive {
                    self.metrics.messages_delivered += 1;
                    self.deliver(from, to, msg);
                }
            }
        }
    }

    /// Runs until quiescence and reports the whole run.
    pub fn run(&mut self) -> RunReport {
        while let Some(event) = self.queue.pop() {
            self.process_one(event);
        }
        RunReport {
            history: History::from_events(self.events.iter().map(|(t, _, e)| (e.clone(), *t))),
            metrics: self.metrics.clone(),
        }
    }

    /// Runs until the queue is empty or the next event is after `time`;
    /// afterwards the simulation clock is at least `time`.
    pub fn run_until(&mut self, time: f64) {
        let limit = SimTime::new(time);
        while self.queue.peek().is_some_and(|head| head.time <= limit) {
            let event = self.queue.pop().expect("peeked event exists");
            self.process_one(event);
        }
        self.now = self.now.max(limit);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters so far.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Events emitted by processes so far (in emission order).
    pub fn events(&self) -> &[(SimTime, ProcessId, ProtocolEvent)] {
        &self.events
    }

    /// The L1 servers, crashed ones included, in code-index order.
    pub fn l1_servers(&self) -> impl Iterator<Item = &L1Server> {
        self.processes
            .iter()
            .filter_map(|slot| match &slot.automaton {
                Automaton::L1(server) => Some(server),
                _ => None,
            })
    }

    /// The L2 servers, crashed ones included, in code-index order.
    pub fn l2_servers(&self) -> impl Iterator<Item = &L2Server> {
        self.processes
            .iter()
            .filter_map(|slot| match &slot.automaton {
                Automaton::L2(server) => Some(server),
                _ => None,
            })
    }

    /// Current total bytes of temporary storage across L1 servers.
    pub fn l1_storage_bytes(&self) -> usize {
        self.l1_servers()
            .map(L1Server::temporary_storage_bytes)
            .sum()
    }

    /// Current total bytes of permanent storage across L2 servers.
    pub fn l2_storage_bytes(&self) -> usize {
        self.l2_servers().map(L2Server::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn small_params() -> SystemParams {
        SystemParams::for_failures(1, 1, 2, 3).unwrap() // n1=4, n2=5, k=2, d=3
    }

    fn read_value(report: &RunReport) -> Vec<u8> {
        let read = report.history.operations().iter().find(|o| !o.is_write());
        read.expect("read completed").value().as_bytes().to_vec()
    }

    #[test]
    fn single_write_and_read_roundtrip() {
        let mut sim = Simulation::new(SimConfig::new(small_params()).seed(42));
        let w = sim.add_writer();
        let r = sim.add_reader();
        sim.invoke_write(w, 0.0, b"layered".to_vec());
        sim.invoke_read(r, 200.0);
        let report = sim.run();

        assert_eq!(report.history.len(), 2);
        report.history.check_atomicity().unwrap();
        assert_eq!(read_value(&report), b"layered");
        let registered: usize = sim.l1_servers().map(L1Server::registered_readers).sum();
        assert_eq!(registered, 0);
        // Every message reached a live process; the bytes add up per kind.
        let m = &report.metrics;
        assert_eq!(
            m.messages_sent(),
            m.messages_delivered() - 2,
            "2 invocations"
        );
        let kinds = [
            "PUT-DATA",
            "WRITE-CODE-ELEM",
            "DATA-RESP",
            "SEND-HELPER-ELEM",
        ];
        let by_kind: u64 = kinds.iter().map(|k| m.data_bytes_for_kind(k)).sum();
        assert_eq!(m.data_bytes_sent(), by_kind);
        assert_eq!(m.data_bytes_for_kind("missing"), 0);
    }

    #[test]
    fn read_with_no_prior_write_returns_initial_value() {
        let mut sim = Simulation::new(SimConfig::new(small_params()).seed(3));
        let r = sim.add_reader();
        sim.invoke_read(r, 0.0);
        let report = sim.run();
        assert_eq!(report.history.len(), 1);
        let read = &report.history.operations()[0];
        assert!(read.value().is_empty());
        assert!(read.tag.is_initial());
        report.history.check_atomicity().unwrap();
    }

    #[test]
    fn value_is_offloaded_to_l2_and_gc_from_l1() {
        let mut sim = Simulation::new(SimConfig::new(small_params()).seed(7));
        let w = sim.add_writer();
        sim.invoke_write(w, 0.0, vec![9u8; 900]);
        let report = sim.run();
        assert_eq!(report.history.len(), 1);
        // After quiescence the value lives only as coded elements in L2.
        assert_eq!(sim.l1_storage_bytes(), 0, "L1 storage is temporary");
        assert!(sim.l2_storage_bytes() > 0, "L2 holds the coded elements");
        // With the MBR code the total L2 storage is far below n2 full copies.
        assert!(sim.l2_storage_bytes() < 5 * 900);
    }

    #[test]
    fn read_concurrent_with_write_is_served_from_l1() {
        let mut sim = Simulation::new(SimConfig::new(small_params()).seed(1));
        let w = sim.add_writer();
        let r = sim.add_reader();
        sim.invoke_write(w, 0.0, b"concurrent".to_vec());
        // The read starts while the write is still in flight (write takes
        // ~6 time units under unit latencies).
        sim.invoke_read(r, 1.0);
        let report = sim.run();
        assert_eq!(report.history.len(), 2);
        report.history.check_atomicity().unwrap();
    }

    #[test]
    fn survives_maximum_failures_in_both_layers() {
        let mut sim = Simulation::new(SimConfig::new(small_params()).seed(5));
        let w = sim.add_writer();
        let r = sim.add_reader();
        // f1 = 1 crash in L1 and f2 = 1 crash in L2, before any operation.
        sim.crash_l1(0, 0.0);
        sim.crash_l2(4, 0.0);
        sim.invoke_write(w, 1.0, b"fault tolerant".to_vec());
        sim.invoke_read(r, 300.0);
        let report = sim.run();
        assert_eq!(
            report.history.len(),
            2,
            "operations complete despite crashes"
        );
        assert_eq!(read_value(&report), b"fault tolerant");
        report.history.check_atomicity().unwrap();
    }

    #[test]
    fn crash_drops_messages_and_stops_process() {
        let mut sim = Simulation::new(SimConfig::new(small_params()));
        let w = sim.add_writer();
        // Crash L1 server 0 before the write's first message arrives (τ1 = 1).
        sim.crash_l1(0, 0.5);
        sim.invoke_write(w, 0.0, b"x".to_vec());
        let report = sim.run();
        assert_eq!(report.history.len(), 1, "f1 = 1 crash is tolerated");
        let m = &report.metrics;
        assert!(
            m.messages_delivered() < m.messages_sent(),
            "messages to p0 drop"
        );
        let entries: Vec<usize> = sim.l1_servers().map(L1Server::metadata_entries).collect();
        assert_eq!(entries[0], 0, "a crashed process takes no step");
        assert!(entries[1..].iter().all(|&e| e > 0), "{entries:?}");
    }

    #[test]
    fn run_until_advances_clock_partially() {
        let mut sim = Simulation::new(SimConfig::new(small_params()));
        let w = sim.add_writer();
        sim.invoke_write(w, 0.0, b"x".to_vec());
        // The invocation lands at t = 0 and the n1 QUERY-TAGs at t = 1.
        sim.run_until(1.5);
        assert!(sim.events().is_empty());
        assert_eq!(sim.now(), SimTime::new(1.5));
        assert_eq!(sim.metrics().messages_delivered(), 1 + 4);
        sim.run();
        assert_eq!(sim.events().len(), 1);
    }

    #[test]
    fn injection_delivers_external_commands() {
        let mut sim = Simulation::new(SimConfig::new(small_params()));
        let r = sim.add_reader();
        sim.invoke_read(r, 5.0);
        let report = sim.run();
        let read = &report.history.operations()[0];
        assert_eq!(read.invoked_at, SimTime::new(5.0));
        // The injected command is delivered but crosses no channel.
        let m = &report.metrics;
        assert_eq!(m.messages_delivered(), m.messages_sent() + 1);
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn injecting_into_past_panics() {
        let mut sim = Simulation::new(SimConfig::new(small_params()));
        let r = sim.add_reader();
        sim.run_until(10.0);
        sim.invoke_read(r, 1.0);
    }

    #[test]
    fn class_latency_lookup_and_symmetry() {
        let config = SimConfig::new(small_params()).latencies(2.0, 3.0, 10.0);
        let mut sim = Simulation::new(config);
        let client = sim.add_writer();
        let (l1, l1_peer, l2) = (ProcessId(0), ProcessId(1), ProcessId(4));
        assert_eq!(sim.link_delay(client, l1), 3.0, "τ1");
        assert_eq!(sim.link_delay(l1, client), 3.0, "τ1 both ways");
        assert_eq!(sim.link_delay(l1, l1_peer), 2.0, "τ0");
        assert_eq!(sim.link_delay(l1, l2), 10.0, "τ2");
        assert_eq!(sim.link_delay(l2, l1), 10.0, "τ2 both ways");
        assert_eq!(sim.link_delay(client, l2), 10.0, "any link to L2 is τ2");
    }

    #[test]
    fn fixed_delays_are_constant_and_draw_nothing() {
        let mut sim = Simulation::new(SimConfig::new(small_params()).seed(1));
        let client = sim.add_reader();
        assert_eq!(sim.link_delay(client, ProcessId(0)), 1.0);
        assert_eq!(sim.link_delay(ProcessId(0), ProcessId(8)), 10.0);
        let mut untouched = SmallRng::seed_from_u64(1);
        assert_eq!(sim.rng.next_u64(), untouched.next_u64(), "no draw was made");
    }

    #[test]
    fn uniform_sampling_stays_in_range() {
        let config = SimConfig::new(small_params()).latencies(1.0, 3.0, 10.0);
        let mut sim = Simulation::new(config.jitter(0.5));
        let client = sim.add_reader();
        for _ in 0..1000 {
            let delay = sim.link_delay(client, ProcessId(0));
            assert!((1.5..=3.0).contains(&delay), "{delay}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid latency")]
    fn invalid_range_rejected() {
        let _ = SimConfig::new(small_params()).latencies(1.0, -1.0, 10.0);
    }

    #[test]
    fn high_throughput_sends_fewer_messages_for_the_same_history() {
        let run = |profile: Profile| {
            let config = SimConfig::new(small_params()).seed(9).profile(profile);
            let mut sim = Simulation::new(config);
            let w = sim.add_writer();
            let r = sim.add_reader();
            sim.invoke_write(w, 0.0, b"x".to_vec());
            sim.invoke_read(r, 100.0);
            let report = sim.run();
            report.history.check_atomicity().unwrap();
            assert_eq!(read_value(&report), b"x");
            report.metrics.messages_sent()
        };
        assert!(run(Profile::HighThroughput) < run(Profile::PaperFaithful));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(SimConfig::new(small_params()).seed(seed).jitter(0.3));
            let w = sim.add_writer();
            let r = sim.add_reader();
            sim.invoke_write(w, 0.0, b"det".to_vec());
            sim.invoke_read(r, 10.0);
            let report = sim.run();
            (report.metrics.messages_sent(), sim.now())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).1, run(12).1, "the seed draws the delays");
    }

    #[test]
    fn history_is_deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(SimConfig::new(small_params()).seed(seed).jitter(0.3));
            let w = sim.add_writer();
            let r = sim.add_reader();
            sim.invoke_write(w, 0.0, b"det".to_vec());
            sim.invoke_read(r, 10.0);
            sim.invoke_write(w, 20.0, b"det2".to_vec());
            sim.invoke_read(r, 20.0);
            let report = sim.run();
            report.history.check_atomicity().unwrap();
            let ops: Vec<_> = report
                .history
                .operations()
                .iter()
                .map(|o| (o.kind.clone(), o.tag, o.invoked_at, o.completed_at))
                .collect();
            (ops, report.metrics.data_bytes_sent())
        };
        let first = run(11);
        assert_eq!(first.0.len(), 4);
        assert_eq!(first, run(11));
    }

    #[test]
    fn counters_accumulate() {
        let mut m = NetworkMetrics::default();
        m.record_send("PUT-DATA", 100);
        m.record_send("PUT-DATA", 100);
        m.record_send("QUERY-TAG", 0);
        m.record_send("WRITE-CODE-ELEM", 10);
        m.messages_delivered += 1;

        assert_eq!(m.messages_sent(), 4);
        assert_eq!(m.messages_delivered(), 1);
        assert_eq!(m.data_bytes_sent(), 210);
        assert_eq!(m.data_bytes_for_kind("PUT-DATA"), 200);
        assert_eq!(m.data_bytes_for_kind("QUERY-TAG"), 0);
        assert_eq!(m.data_bytes_for_kind("WRITE-CODE-ELEM"), 10);
        assert_eq!(m.data_bytes_for_kind("missing"), 0);
    }
}
