//! Server-shard tasks, [`ClusterOptions`] and the crate-internal `Cluster`
//! engine behind every [`StoreHandle`](crate::api::StoreHandle).
//!
//! Each L1/L2 server process may run as several *worker shards*: identical
//! automaton instances that own disjoint partitions of the object space
//! (hash-routed by the [`Router`]). The LDS protocol keeps all per-object
//! state inside the server's per-object map, so cross-shard invariants are
//! trivial — a shard simply never sees messages for objects it does not own
//! — and independent objects are processed in parallel inside one node.
//! Every hosted shard is a task of the cluster's executor (`executor.rs`):
//! `min(cores, shards)` worker threads run them to completion.
//!
//! A client's work in flight is bounded by its own pipeline depth: there is
//! no admission step, and every channel is unbounded, so the protocol cannot
//! deadlock on a full peer inbox.

use crate::executor::{completion, Executor, Finished, Running, Task, Turn};
use crate::heal::HealState;
use crate::obs::{
    EventKind, FlightRecorder, MetricsSnapshot, ObsMetrics, TraceHandle, DEFAULT_TRACE_EVENTS,
};
use crate::repair::{RepairError, RepairLayer, RepairReport};
use crate::router::{DepthGauge, Envelope, Inbox, Router, RouterHandle};
use crate::sync::Mutex;
use crate::transport::MESSAGE_CLASSES;
use lds_core::backend::{make_backend, BackendCodec, BackendKind};
use lds_core::membership::Membership;
use lds_core::messages::{LdsMessage, ProtocolEvent};
use lds_core::params::{Profile, SystemParams};
use lds_core::server1::L1Server;
use lds_core::server2::L2Server;
use lds_sim::{Context, Process, ProcessId, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of a deployment.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Worker shards per L1 server. Each shard owns a disjoint object
    /// partition; `1` reproduces the original single-threaded server.
    pub l1_shards: usize,
    /// Worker shards per L2 server.
    pub l2_shards: usize,
    /// Which message flow both server layers run — the only protocol
    /// selector; set through
    /// [`StoreBuilder::paper_faithful`](crate::api::StoreBuilder::paper_faithful)
    /// (the default) or
    /// [`StoreBuilder::high_throughput`](crate::api::StoreBuilder::high_throughput).
    pub profile: Profile,
    /// Default maximum number of operations a client created by
    /// [`StoreHandle::client`](crate::api::StoreHandle::client) keeps in
    /// flight.
    pub pipeline_depth: usize,
    /// Capacity (in objects) of each client's tag-validated read cache;
    /// `0` (the default) disables it. When the read's committed-tag quorum
    /// reports a tag the client has cached, the data-transfer phase is
    /// skipped entirely — atomicity is unaffected because tag discovery and
    /// the put-tag write-back still run in full.
    pub read_cache_entries: usize,
    /// How long a repair coordinator waits for the replacement to report
    /// completion before returning the target to the crashed state with
    /// [`crate::RepairError::Timeout`] (default 60 s). Must be non-zero;
    /// [`crate::api::StoreBuilder::repair_timeout`] validates this at
    /// `build()` time.
    pub repair_timeout: Duration,
    /// Maximum [`crate::RepairReport`]s retained in the cluster's repair
    /// log (default 1024). Under continuous self-healing the log would
    /// otherwise grow without bound; the oldest reports are dropped first
    /// and the drop count is surfaced through
    /// [`crate::api::MetricsSnapshot::repair_reports_dropped`].
    pub repair_log_cap: usize,
    /// Flight-recorder switch (default off). When on, every server shard,
    /// client and heal thread records structured protocol events into its
    /// own bounded ring ([`crate::obs::FlightRecorder`]), merged on demand
    /// by [`crate::api::Admin::trace_dump`]. When off — the default — every
    /// recording site pays exactly one cached-flag branch and no ring is
    /// allocated.
    pub trace: bool,
}

/// Which slice of a deployment one process hosts, for multi-daemon
/// deployments over a real-network transport (see
/// [`TcpTransport`](crate::transport::TcpTransport)).
///
/// A scoped cluster runs automata only for the listed server
/// indices; every other pid of the shared membership lives on a peer daemon
/// and is reached through the transport. Client (and auxiliary) process ids
/// are allocated as `base + k·step` so they stay globally unique without
/// coordination — daemon `d` of `D` uses `base = d + 1`, `step = D`
/// ([`TcpTopology::client_base`](crate::transport::TcpTopology::client_base)).
///
/// The default in-process deployment is the trivial scope: every server
/// local, `base = 1`, `step = 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostScope {
    /// L1 server indices (`0..n1`) hosted by this process.
    pub l1: Vec<usize>,
    /// L2 server indices (`0..n2`) hosted by this process.
    pub l2: Vec<usize>,
    /// First client number this process allocates.
    pub client_base: u64,
    /// Stride between client numbers this process allocates.
    pub client_step: u64,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            l1_shards: 1,
            l2_shards: 1,
            profile: Profile::PaperFaithful,
            pipeline_depth: 16,
            read_cache_entries: 0,
            repair_timeout: Duration::from_secs(60),
            repair_log_cap: 1024,
            trace: false,
        }
    }
}

/// The slots one server shard publishes its numbers into when its worker
/// goes idle, and at least every 10 ms while it does not — so reading them
/// ([`Cluster::snapshot`]) never contends with the protocol hot path.
///
/// Every slot holds an *absolute* value of the shard's automaton, stored
/// wholesale at each publish. A repaired (replacement) server starts its
/// counters from zero — readers should treat dips as Prometheus-style
/// counter resets.
#[derive(Default)]
struct ShardStats {
    temp_bytes: AtomicU64,
    metadata_entries: AtomicU64,
    /// Bytes of the largest set of `n2` coded elements one `write-to-L2`
    /// produced (L1 only).
    peak_round_bytes: AtomicU64,
    gc_evicted_entries: AtomicU64,
    gc_evicted_bytes: AtomicU64,
    /// Messages this shard received, by protocol class (dense
    /// [`LdsMessage::class_index`] order; heartbeat pings in the final
    /// slot).
    msgs_by_class: [AtomicU64; LdsMessage::NUM_CLASSES],
}

/// Per-shard observability context of a [`NodeTask`]: the shard's
/// flight-recorder handle plus locally accumulated message-class counts,
/// published to the shard's stats slots with the occupancy gauges (counting
/// on the hot path is a plain array increment).
pub(crate) struct NodeObs {
    trace: TraceHandle,
    class_counts: [u64; LdsMessage::NUM_CLASSES],
    stats: Arc<ShardStats>,
}

impl NodeObs {
    fn new(trace: TraceHandle, stats: Arc<ShardStats>) -> Self {
        NodeObs {
            trace,
            class_counts: [0; LdsMessage::NUM_CLASSES],
            stats,
        }
    }

    #[inline]
    fn count(&mut self, msg: &LdsMessage) {
        self.class_counts[msg.class_index()] += 1;
    }

    #[inline]
    fn count_ping(&mut self) {
        self.class_counts[LdsMessage::NUM_CLASSES - 1] += 1;
    }

    fn publish_classes(&self) {
        for (slot, &count) in self.stats.msgs_by_class.iter().zip(&self.class_counts) {
            slot.store(count, Ordering::Relaxed);
        }
    }
}

/// Bounded history of successful repairs: a ring buffer capped at
/// [`ClusterOptions::repair_log_cap`] that counts what it evicts, so a
/// perpetually self-healing deployment cannot leak memory through its
/// report log while `repairs_completed` stays exact.
#[derive(Debug)]
struct RepairLog {
    reports: VecDeque<RepairReport>,
    cap: usize,
    dropped: u64,
}

impl RepairLog {
    fn new(cap: usize) -> Self {
        RepairLog {
            reports: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, report: RepairReport) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        while self.reports.len() >= self.cap {
            self.reports.pop_front();
            self.dropped += 1;
        }
        self.reports.push_back(report);
    }
}

/// One server-shard automaton as an executor [`Task`]: what the protocol needs
/// between two steps — the automaton, its inbox, the server's beat slot — and
/// the buffers every step reuses.
struct NodeTask<P, F> {
    process: P,
    pid: ProcessId,
    inbox: Inbox,
    /// The server's liveness beat (shared by its shards).
    beat: Arc<AtomicU64>,
    obs: NodeObs,
    /// Stores the automaton's gauges into the shard's stats slots.
    publish: F,
    outgoing: Vec<(ProcessId, LdsMessage)>,
    events: Vec<(SimTime, ProcessId, ProtocolEvent)>,
    /// Whether anything happened since the last publish. Starts raised, so a
    /// replacement's first publish zeroes the slots it inherits.
    dirty: bool,
    _running: Running,
}

impl<P, F> Task for NodeTask<P, F>
where
    P: Process<LdsMessage, ProtocolEvent> + Send,
    F: FnMut(&P, &mut NodeObs) + Send,
{
    /// Outgoing messages are flushed **once per turn**, after the whole
    /// claimed backlog: one routing-epoch check for everything, and all
    /// the backlog produced for one peer shard — most notably the
    /// COMMIT-TAG broadcasts of every write in it — reaches it in one locked
    /// append, in send order (see [`RouterHandle::send_batch`]).
    fn turn(&mut self, now_micros: u64, handle: &mut RouterHandle) -> Turn {
        // One timestamp per turn: the clock feeds event timestamps only, and
        // a backlog is processed within microseconds.
        let now = SimTime::new(now_micros as f64 / 1e6);
        let NodeTask {
            process,
            pid,
            inbox,
            obs,
            outgoing,
            events,
            ..
        } = self;
        let pid = *pid;
        let mut step = |obs: &mut NodeObs, from: ProcessId, msg: LdsMessage| {
            obs.count(&msg);
            let mut ctx = Context::standalone(pid, now, outgoing, events);
            process.on_message(from, msg, &mut ctx);
            // Server automata do not emit client events.
            events.clear();
        };
        let mut turn = Turn::default();
        // A single channel-lock acquisition claims every queued envelope.
        for envelope in inbox.rx.try_iter() {
            turn.envelopes += 1;
            match envelope {
                Envelope::Stop => {
                    turn.stop = true;
                    break;
                }
                // A heartbeat probe: claiming it is the beat; no protocol
                // work and no depth accounting.
                Envelope::Ping => obs.count_ping(),
                Envelope::Protocol { from, msg } => {
                    inbox.depth.sub(1);
                    step(obs, from, msg);
                }
            }
        }
        if turn.envelopes == 0 {
            return turn;
        }
        // The beat proves *this* automaton's inbox is being served — the
        // monitor's pings force even an idle one through here once per
        // interval. A turn that claimed nothing must not stamp it: the
        // traffic of the worker's other tasks would keep a partitioned
        // server's beat fresh.
        self.beat.store(now_micros, Ordering::Relaxed);
        self.dirty = true;
        if obs.trace.enabled() {
            for (dest, msg) in outgoing.iter() {
                obs.trace.record(
                    EventKind::RouterSend,
                    msg.class_index() as u64,
                    pid.0 as u64,
                    dest.0 as u64,
                );
            }
        }
        handle.send_batch(pid, outgoing.drain(..));
        turn
    }

    fn has_mail(&self) -> bool {
        !self.inbox.rx.is_empty()
    }

    fn publish(&mut self) {
        if std::mem::take(&mut self.dirty) {
            (self.publish)(&self.process, &mut self.obs);
            self.obs.publish_classes();
        }
    }

    fn finish(&mut self, router: &Router) {
        self.dirty = true;
        self.publish();
        router.deregister(self.pid);
    }
}

/// The publish step of an L1 shard: occupancy (field reads — the automaton
/// keeps running totals) and the internals counters.
fn l1_publisher(pid: ProcessId) -> impl FnMut(&L1Server, &mut NodeObs) + Send {
    let (mut gc_entries, mut gc_bytes) = (0, 0);
    move |p, obs| {
        let c = p.obs_counters();
        let NodeObs { trace, stats, .. } = obs;
        let relaxed = Ordering::Relaxed;
        stats
            .temp_bytes
            .store(p.temporary_storage_bytes() as u64, relaxed);
        stats
            .metadata_entries
            .store(p.metadata_entries() as u64, relaxed);
        stats
            .peak_round_bytes
            .store(p.peak_round_bytes() as u64, relaxed);
        stats
            .gc_evicted_entries
            .store(c.gc_evicted_entries, relaxed);
        stats.gc_evicted_bytes.store(c.gc_evicted_bytes, relaxed);
        if trace.enabled() && c.gc_evicted_entries > gc_entries {
            trace.record(
                EventKind::GcEvict,
                pid.0 as u64,
                c.gc_evicted_entries - gc_entries,
                c.gc_evicted_bytes - gc_bytes,
            );
        }
        (gc_entries, gc_bytes) = (c.gc_evicted_entries, c.gc_evicted_bytes);
    }
}

/// A running in-process LDS cluster: `n1 + n2` server processes, each split
/// into one or more worker-shard automata, all run by the cluster's executor
/// (`min(cores, automata)` worker threads). A deployment is one of these
/// behind a [`StoreHandle`](crate::api::StoreHandle), which creates the
/// clients; servers are crash-killed and regenerated *online* — restoring the
/// failure budget — through [`Admin`](crate::api::Admin).
pub(crate) struct Cluster {
    params: SystemParams,
    membership: Membership,
    backend: Arc<dyn BackendCodec>,
    router: Router,
    /// The worker threads running every hosted server-shard automaton.
    executor: Executor,
    /// First executor slot of each server (indexed by pid): hosted servers
    /// occupy consecutive slots, one per worker shard, and slot `n` runs on
    /// worker `n mod W` — see [`Cluster::worker_of`].
    slot_base: Vec<usize>,
    /// Completion signal of each hosted server's current tasks, so a single
    /// crashed server can be waited for (and replaced) without touching the
    /// others.
    finished: Mutex<HashMap<ProcessId, Finished>>,
    /// Servers killed via the crash-injection API and not yet repaired,
    /// with a per-pid kill generation (bumped on every kill, so a repair
    /// that races a *new* kill can tell the difference).
    killed: Mutex<HashMap<ProcessId, u64>>,
    /// Servers with a repair currently in progress (claimed by exactly one
    /// coordinator at a time — see [`crate::api::Admin::repair`]).
    repairing: Mutex<HashSet<ProcessId>>,
    /// Reports of the most recent successful repairs, in completion order
    /// (exposed through [`crate::api::Admin::repair_reports`]). Bounded by
    /// [`ClusterOptions::repair_log_cap`]: the oldest reports are dropped
    /// first and counted.
    repair_log: Mutex<RepairLog>,
    /// Per-server liveness beats, indexed by pid (`0..n1 + n2`):
    /// microseconds since [`Cluster::started`] at the last time any worker
    /// shard of that server claimed an envelope from its own inbox. The `Arc`s survive repair —
    /// a replacement publishes into the same slot.
    beats: Vec<Arc<AtomicU64>>,
    /// Suspicion/repair bookkeeping of the self-healing control plane,
    /// attached once by [`crate::api::StoreBuilder`] when the `self_heal`
    /// profile is on (see [`crate::heal`]).
    heal: std::sync::OnceLock<Arc<crate::heal::HealState>>,
    /// The next client number; repair coordinators draw from the same
    /// space as clients.
    client_numbers: AtomicU64,
    /// Stride between allocated client numbers (1 in-process; the daemon
    /// count on a multi-daemon deployment — see [`HostScope`]).
    client_step: u64,
    /// Server pids hosted by this process (`None` = all of them, the
    /// in-process default).
    hosted: Option<HashSet<ProcessId>>,
    started: Instant,
    options: ClusterOptions,
    /// Per L1 server, per shard occupancy stats. The `Arc`s survive repair:
    /// a replacement server publishes into the same slots.
    l1_stats: Vec<Vec<Arc<ShardStats>>>,
    /// Per L2 server, per shard internals stats (same slot-reuse discipline
    /// as `l1_stats`).
    l2_stats: Vec<Vec<Arc<ShardStats>>>,
    /// Per L1 server, per shard inbox depth gauges. Reused (reset) across
    /// repair so the metrics keep reading live gauges.
    l1_inboxes: Vec<Vec<Arc<DepthGauge>>>,
    /// Structured-event flight recorder shared by every thread of the
    /// cluster (server shards, clients, transport, heal). Disabled — and
    /// ring-free — unless [`ClusterOptions::trace`] is set.
    recorder: Arc<FlightRecorder>,
    /// Always-on latency histograms and cache counters, recorded by
    /// clients and snapshotted through [`crate::api::Admin::metrics`].
    obs: Arc<ObsMetrics>,
}

impl Cluster {
    /// Boots one cluster — its executor and every hosted server-shard
    /// automaton — and returns the shared handle: the engine entry point
    /// behind [`StoreBuilder::build`](crate::api::StoreBuilder::build), which
    /// validates everything but the backend construction surfaced here.
    ///
    /// * `fault_plan` — when present the router runs over a seeded
    ///   [`SimTransport`](crate::transport::SimTransport) instead of the
    ///   default fault-free in-process transport.
    /// * `transport` + `scope` — a *partial* cluster over an explicit
    ///   transport: only the servers named by `scope` run here; the rest of
    ///   the shared membership lives on peer processes reached through
    ///   `transport`.
    /// * `workers` — overrides the core count the executor is sized from
    ///   (tests only; the builder passes `None`): the cluster runs
    ///   `min(cores, hosted shard automata)` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if a shard count is zero (the builder validates this before
    /// calling).
    pub(crate) fn launch(
        params: SystemParams,
        backend_kind: BackendKind,
        options: ClusterOptions,
        fault_plan: Option<&crate::transport::FaultPlan>,
        transport: Option<Arc<dyn crate::transport::Transport>>,
        scope: Option<HostScope>,
        workers: Option<usize>,
    ) -> Result<Arc<Cluster>, lds_codes::CodeError> {
        assert!(options.l1_shards > 0, "l1_shards must be at least 1");
        assert!(options.l2_shards > 0, "l2_shards must be at least 1");
        let backend = make_backend(backend_kind, &params)?;
        // Pre-warm the codec's memoized plans (decode / repair inversions for
        // the canonical quorums) so the first client operation runs at
        // steady-state speed.
        backend.warm_plans();
        let recorder = FlightRecorder::new(options.trace, DEFAULT_TRACE_EVENTS);
        let obs = ObsMetrics::new();
        let (n1, n2) = (params.n1(), params.n2());
        let l1: Vec<ProcessId> = (0..n1).map(ProcessId).collect();
        let l2: Vec<ProcessId> = (n1..n1 + n2).map(ProcessId).collect();
        let membership = Membership::new(l1.clone(), l2.clone());
        let router = match (&transport, fault_plan) {
            (Some(transport), _) => Router::with_transport(Arc::clone(transport)),
            (None, None) => Router::new(),
            (None, Some(plan)) => {
                let transport = Arc::new(crate::transport::SimTransport::new(plan, &params));
                if recorder.enabled() {
                    transport.attach_trace(recorder.handle());
                }
                Router::with_transport(transport)
            }
        };
        // Which server pids this process hosts (None = all — the
        // in-process default), and how client numbers are strided.
        let (hosted, client_base, client_step) = match &scope {
            None => (None, 1, 1),
            Some(scope) => {
                let mut set = HashSet::new();
                for &j in &scope.l1 {
                    assert!(j < n1, "scoped L1 index {j} out of range");
                    set.insert(l1[j]);
                }
                for &i in &scope.l2 {
                    assert!(i < n2, "scoped L2 index {i} out of range");
                    set.insert(l2[i]);
                }
                assert!(scope.client_step > 0, "client_step must be non-zero");
                (Some(set), scope.client_base, scope.client_step)
            }
        };
        let is_hosted = |pid: ProcessId| hosted.as_ref().is_none_or(|set| set.contains(&pid));
        let started = Instant::now();
        // Hosted automata take consecutive executor slots in pid order.
        let mut tasks = 0;
        let slot_base: Vec<usize> = (0..n1 + n2)
            .map(|p| {
                let base = tasks;
                if is_hosted(ProcessId(p)) {
                    tasks += if p < n1 {
                        options.l1_shards
                    } else {
                        options.l2_shards
                    };
                }
                base
            })
            .collect();
        let cores =
            workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        // At least one worker, even hosting no automaton: a daemon's mesh
        // sockets are served by the workers.
        let executor = Executor::start(cores.min(tasks).max(1), &router, started);
        router.transport().host(&executor.handle());

        // Remote servers (scoped deployments) keep their stats/gauge slots —
        // indexed by layer position everywhere — but get no inbox and no
        // tasks here.
        let shard_stats = |servers: usize, shards: usize| -> Vec<Vec<Arc<ShardStats>>> {
            (0..servers)
                .map(|_| (0..shards).map(|_| Arc::default()).collect())
                .collect()
        };
        let l1_inboxes = (0..n1)
            .map(|_| (0..options.l1_shards).map(|_| Arc::default()).collect())
            .collect();

        let cluster = Arc::new(Cluster {
            params,
            membership,
            backend,
            router,
            executor,
            slot_base,
            finished: Mutex::new(HashMap::new()),
            killed: Mutex::new(HashMap::new()),
            repairing: Mutex::new(HashSet::new()),
            repair_log: Mutex::new(RepairLog::new(options.repair_log_cap)),
            beats: (0..n1 + n2).map(|_| Arc::default()).collect(),
            heal: std::sync::OnceLock::new(),
            client_numbers: AtomicU64::new(client_base),
            client_step,
            hosted,
            started,
            options,
            l1_stats: shard_stats(n1, options.l1_shards),
            l2_stats: shard_stats(n2, options.l2_shards),
            l1_inboxes,
            recorder,
            obs,
        });
        for (layer, count) in [(RepairLayer::L1, n1), (RepairLayer::L2, n2)] {
            for index in 0..count {
                if cluster.hosts_server(cluster.server_pid(layer, index)) {
                    cluster.install_server(layer, index, None);
                }
            }
        }
        Ok(cluster)
    }

    /// The cluster's system parameters.
    pub(crate) fn params(&self) -> SystemParams {
        self.params
    }

    /// The cluster's membership.
    pub(crate) fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The options the cluster was started with.
    pub(crate) fn options(&self) -> ClusterOptions {
        self.options
    }

    pub(crate) fn router(&self) -> &Router {
        &self.router
    }

    pub(crate) fn backend(&self) -> Arc<dyn BackendCodec> {
        Arc::clone(&self.backend)
    }

    pub(crate) fn elapsed(&self) -> SimTime {
        SimTime::new(self.started.elapsed().as_secs_f64())
    }

    /// The cluster's flight recorder (disabled unless started with
    /// [`ClusterOptions::trace`]).
    pub(crate) fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The cluster's always-on latency/cache metrics registry.
    pub(crate) fn obs_metrics(&self) -> &Arc<ObsMetrics> {
        &self.obs
    }

    /// This cluster's [`MetricsSnapshot`]: every field read once, from the
    /// slot its counting thread publishes into — the shard stats slots, the
    /// inbox gauges, the repair log, the heal loop's and the executor's
    /// counters, the transport, the client-side registry. The one place a
    /// metric's value comes from; what the fields mean is the table in
    /// `obs/metrics.rs`.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let load = |slot: &AtomicU64| slot.load(Ordering::Relaxed);
        let (l1_shards, l2_shards) = (
            self.l1_stats.iter().flatten(),
            self.l2_stats.iter().flatten(),
        );
        let l1 = |slot: fn(&ShardStats) -> &AtomicU64| -> u64 {
            l1_shards.clone().map(|s| load(slot(s))).sum()
        };
        let mut messages_by_class: Vec<_> = MESSAGE_CLASSES.iter().map(|&c| (c, 0)).collect();
        for stats in l1_shards.clone().chain(l2_shards.clone()) {
            for (total, slot) in messages_by_class.iter_mut().zip(&stats.msgs_by_class) {
                total.1 += load(slot);
            }
        }
        let live = |layer| self.live_servers(layer).filter(|&live| live).count();
        let heal = self.heal.get();
        let healed = |slot: fn(&HealState) -> &AtomicU64| heal.map_or(0, |h| load(slot(h)));
        let (repairs_completed, repair_reports_dropped) = {
            let log = self.repair_log.lock();
            (log.dropped as usize + log.reports.len(), log.dropped)
        };
        let gauges = self.l1_inboxes.iter().flatten();
        let executor = self.executor.stats();
        MetricsSnapshot {
            l1_metadata_entries: l1(|s| &s.metadata_entries) as usize,
            l1_temporary_bytes: l1(|s| &s.temp_bytes) as usize,
            l1_inbox_depth: gauges.clone().map(|g| g.current()).sum(),
            max_l1_inbox_depth: gauges.map(|g| g.max_seen()).max().unwrap_or(0),
            live_l1: live(RepairLayer::L1),
            live_l2: live(RepairLayer::L2),
            repairs_completed,
            repair_reports_dropped,
            heal_suspicions_raised: healed(|h| &h.suspicions_raised),
            heal_repairs_attempted: healed(|h| &h.repairs_attempted),
            heal_repairs_succeeded: healed(|h| &h.repairs_succeeded),
            heal_repairs_backed_off: healed(|h| &h.repairs_backed_off),
            heal_parked_events: healed(|h| &h.parked_events),
            heal_backoffs: heal.map_or_else(Vec::new, |h| h.backoff_snapshot()),
            transport_faults: self.router.transport().fault_counters(),
            cache_hits: load(&self.obs.cache_hits),
            cache_misses: load(&self.obs.cache_misses),
            gc_evicted_entries: l1(|s| &s.gc_evicted_entries),
            gc_evicted_bytes: l1(|s| &s.gc_evicted_bytes),
            peak_round_bytes: l1_shards
                .clone()
                .map(|s| load(&s.peak_round_bytes) as usize)
                .max()
                .unwrap_or(0),
            gf_kernel: lds_codes::gf_kernel(),
            executor_workers: executor.workers,
            executor_turns: executor.turns,
            executor_envelopes: executor.envelopes,
            executor_parks: executor.parks,
            executor_wakeups: executor.wakeups,
            messages_by_class,
            write_latency: self.obs.write_us.snapshot(),
            read_latency: self.obs.read_us.snapshot(),
            phase_tag_latency: self.obs.phase_tag_us.snapshot(),
            phase_data_latency: self.obs.phase_data_us.snapshot(),
            phase_commit_latency: self.obs.phase_commit_us.snapshot(),
        }
    }

    /// Messages currently queued in the inboxes of L1 server `index`
    /// (summed over its worker shards).
    pub(crate) fn l1_inbox_depth(&self, index: usize) -> usize {
        self.l1_inboxes[index].iter().map(|d| d.current()).sum()
    }

    /// Draws the next client number of the deployment.
    pub(crate) fn alloc_client_number(&self) -> u64 {
        self.client_numbers
            .fetch_add(self.client_step, Ordering::Relaxed)
    }

    /// The process id of client `number`: client process ids live above all
    /// server ids.
    pub(crate) fn client_pid(&self, number: u64) -> ProcessId {
        ProcessId(self.params.n1() + self.params.n2() + number as usize)
    }

    /// Engine crash injection: stops every worker shard of the server with
    /// layer index `index`. The server can later be regenerated online
    /// through [`Cluster::repair_server`].
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub(crate) fn kill_server(&self, layer: RepairLayer, index: usize) {
        let pid = self.server_pid(layer, index);
        *self.killed.lock().entry(pid).or_insert(0) += 1;
        self.router.send_stop(pid);
    }

    /// Whether the server with layer index `index` is live (never killed, or
    /// killed and successfully repaired).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub(crate) fn server_is_live(&self, layer: RepairLayer, index: usize) -> bool {
        let pid = self.server_pid(layer, index);
        !self.killed.lock().contains_key(&pid)
    }

    /// Engine entry point for online repair of either layer: regenerates the
    /// killed server `index` while client traffic keeps flowing and records
    /// the report in the cluster's repair log. `timeout` overrides
    /// [`ClusterOptions::repair_timeout`] for this call. Behind
    /// [`crate::api::Admin::repair`], [`crate::api::Admin::repair_with_timeout`]
    /// and the self-healing supervisor.
    pub(crate) fn repair_server(
        &self,
        layer: RepairLayer,
        index: usize,
        timeout: Option<Duration>,
    ) -> Result<RepairReport, RepairError> {
        let timeout = timeout.unwrap_or(self.options.repair_timeout);
        let report = crate::repair::repair_server(self, layer, index, timeout)?;
        self.repair_log.lock().push(report.clone());
        Ok(report)
    }

    /// The most recent successful repairs of this cluster (up to
    /// [`ClusterOptions::repair_log_cap`]), in completion order.
    pub(crate) fn repair_log(&self) -> Vec<RepairReport> {
        self.repair_log.lock().reports.iter().cloned().collect()
    }

    /// The backend kind this cluster encodes with.
    pub(crate) fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Stops every hosted server automaton, waits for each to finish, stops
    /// the executor's worker threads, then stops the transport's background
    /// machinery (a fault-injecting transport runs a delay pump; pending
    /// held messages are discarded).
    pub(crate) fn shutdown(&self) {
        for &pid in self.membership.l1.iter().chain(self.membership.l2.iter()) {
            // Scoped deployments stop only their own servers; peers own
            // (and stop) theirs.
            if self.hosts_server(pid) {
                self.router.send_stop(pid);
            }
        }
        let finished: Vec<Finished> = self.finished.lock().drain().map(|(_, f)| f).collect();
        for server in finished {
            server.wait();
        }
        self.executor.shutdown();
        self.router.transport().shutdown();
    }

    // ------------------------------------------------------------------
    // Crate-internal hooks for the repair coordinator (see `repair.rs`).
    // ------------------------------------------------------------------

    /// Waits until every task of server `pid`'s current incarnation has run
    /// its [`Task::finish`] and been dropped — the executor's equivalent of
    /// joining the server's threads. The caller must have stopped the server
    /// (or know it was); returns at once for a server nobody is running.
    pub(crate) fn await_server_exit(&self, pid: ProcessId) {
        let finished = self.finished.lock().remove(&pid);
        if let Some(finished) = finished {
            finished.wait();
        }
    }

    pub(crate) fn killed_set(&self) -> &Mutex<HashMap<ProcessId, u64>> {
        &self.killed
    }

    pub(crate) fn repairing_set(&self) -> &Mutex<HashSet<ProcessId>> {
        &self.repairing
    }

    /// Allocates a fresh process id above all server and client ids (repair
    /// coordinators draw from the same number space as clients).
    pub(crate) fn alloc_aux_pid(&self) -> ProcessId {
        self.client_pid(self.alloc_client_number())
    }

    /// Whether this process hosts the shard automata of server `pid`
    /// (always true on an in-process deployment; a scoped multi-daemon
    /// deployment hosts only its [`HostScope`] slice).
    pub(crate) fn hosts_server(&self, pid: ProcessId) -> bool {
        self.hosted.as_ref().is_none_or(|set| set.contains(&pid))
    }

    // ------------------------------------------------------------------
    // Crate-internal hooks for the self-healing control plane (`heal`).
    // ------------------------------------------------------------------

    /// Attaches the self-healing bookkeeping (suspicion flags, heal
    /// counters, per-target backoffs). Set at most once, by the builder,
    /// before any monitor thread starts; later calls are ignored.
    pub(crate) fn attach_heal(&self, state: Arc<crate::heal::HealState>) {
        let _ = self.heal.set(state);
    }

    /// The process id of the server with layer index `index`.
    pub(crate) fn server_pid(&self, layer: RepairLayer, index: usize) -> ProcessId {
        match layer {
            RepairLayer::L1 => self.membership.l1[index],
            RepairLayer::L2 => self.membership.l2[index],
        }
    }

    /// Microseconds since cluster start — the clock the beat slots use.
    pub(crate) fn now_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// The last beat published by any worker shard of `pid` (microseconds
    /// since cluster start).
    pub(crate) fn beat_micros(&self, pid: ProcessId) -> u64 {
        self.beats[pid.0].load(Ordering::Relaxed)
    }

    /// Sends a liveness probe to every worker shard of `pid` (dropped if the
    /// server crashed — exactly how its beat goes stale).
    pub(crate) fn ping_server(&self, pid: ProcessId) {
        self.router.send_ping(pid);
    }

    /// Liveness of every server of `layer`, in index order, *as observed* —
    /// the one view behind [`Admin::liveness`](crate::api::Admin::liveness),
    /// the `Liveness` RPC and the `live_l1`/`live_l2` metrics: the heartbeat
    /// monitor's (non-)suspicion when the self-healing control plane is
    /// attached, the engine's crash-injection ground truth otherwise
    /// ([`Admin::is_live`](crate::api::Admin::is_live) always reads the
    /// latter).
    pub(crate) fn live_servers(&self, layer: RepairLayer) -> impl Iterator<Item = bool> + '_ {
        let servers = match layer {
            RepairLayer::L1 => self.params.n1(),
            RepairLayer::L2 => self.params.n2(),
        };
        (0..servers).map(move |index| match self.heal.get() {
            Some(state) => !state.is_suspected(self.server_pid(layer, index)),
            None => self.server_is_live(layer, index),
        })
    }

    /// Live (never-killed or repaired) servers in `layer`, by ground truth.
    pub(crate) fn layer_live_count(&self, layer: RepairLayer) -> usize {
        let peers = match layer {
            RepairLayer::L1 => &self.membership.l1,
            RepairLayer::L2 => &self.membership.l2,
        };
        let killed = self.killed.lock();
        peers.iter().filter(|p| !killed.contains_key(p)).count()
    }

    /// Live helpers a repair in `layer` needs (1 metadata peer for L1, the
    /// backend's repair threshold for L2).
    pub(crate) fn repair_quorum(&self, layer: RepairLayer) -> usize {
        match layer {
            RepairLayer::L1 => 1,
            RepairLayer::L2 => self.backend.repair_threshold(),
        }
    }

    /// The executor worker that runs shard `shard` of server `pid`: a pure
    /// function of the two, shared by launch and repair — a replacement's
    /// inboxes must ring the worker its tasks are installed on.
    fn worker_of(&self, pid: ProcessId, shard: usize) -> usize {
        (self.slot_base[pid.0] + shard) % self.executor.workers()
    }

    /// Registers server `index` of `layer` and installs its worker-shard
    /// automata on the executor: fresh at launch; as a *rebuilding*
    /// replacement — `rebuild` is `(expected_dones, report_to)` — for the
    /// rejoin half of online repair, reusing the predecessor's depth gauges
    /// and stats slots.
    pub(crate) fn install_server(
        &self,
        layer: RepairLayer,
        index: usize,
        rebuild: Option<(usize, ProcessId)>,
    ) {
        let pid = self.server_pid(layer, index);
        let (membership, backend) = (&self.membership, &self.backend);
        match layer {
            RepairLayer::L1 => {
                let params = self.params;
                let profile = self.options.profile;
                let server = || match rebuild {
                    None => L1Server::new(
                        index,
                        params,
                        membership.clone(),
                        Arc::clone(backend),
                        profile,
                    ),
                    Some((expected_dones, report_to)) => L1Server::rebuilding(
                        index,
                        params,
                        membership.clone(),
                        Arc::clone(backend),
                        profile,
                        expected_dones,
                        report_to,
                    ),
                };
                let (gauges, stats) = (&self.l1_inboxes[index], &self.l1_stats[index]);
                self.install_shards(pid, gauges, stats, server, || l1_publisher(pid));
            }
            RepairLayer::L2 => {
                let profile = self.options.profile;
                let server = || match rebuild {
                    None => L2Server::new(index, membership.clone(), Arc::clone(backend), profile),
                    Some((expected_dones, report_to)) => L2Server::rebuilding(
                        index,
                        membership.clone(),
                        Arc::clone(backend),
                        profile,
                        expected_dones,
                        report_to,
                    ),
                };
                let gauges: Vec<Arc<DepthGauge>> = (0..self.options.l2_shards)
                    .map(|_| Arc::default())
                    .collect();
                let stats = &self.l2_stats[index];
                // An L2 shard publishes its message-class counts only.
                let publisher = || |_: &L2Server, _: &mut NodeObs| {};
                self.install_shards(pid, &gauges, stats, server, publisher);
            }
        }
    }

    /// Registers `pid` with one inbox per gauge — each ringing the worker
    /// its shard is placed on — and installs one [`NodeTask`] per shard.
    fn install_shards<P, F>(
        &self,
        pid: ProcessId,
        gauges: &[Arc<DepthGauge>],
        stats: &[Arc<ShardStats>],
        automaton: impl Fn() -> P,
        publisher: impl Fn() -> F,
    ) where
        P: Process<LdsMessage, ProtocolEvent> + Send,
        F: FnMut(&P, &mut NodeObs) + Send + 'static,
    {
        // A fresh (or replacement) server counts as beating from the moment
        // it is installed, so the heartbeat monitor never suspects a server
        // for the gap between install and its first envelope.
        let beat = &self.beats[pid.0];
        beat.store(self.now_micros(), Ordering::Relaxed);
        let bell_of = |s| Some(self.executor.bell(self.worker_of(pid, s)));
        let inboxes = self.router.register_shards(pid, gauges, bell_of);
        let (running, finished) = completion();
        for (s, inbox) in inboxes.into_iter().enumerate() {
            let task = NodeTask {
                process: automaton(),
                pid,
                inbox,
                beat: Arc::clone(beat),
                obs: NodeObs::new(self.recorder.handle(), Arc::clone(&stats[s])),
                publish: publisher(),
                outgoing: Vec::with_capacity(64),
                events: Vec::new(),
                dirty: true,
                _running: running.clone(),
            };
            self.executor
                .install(self.worker_of(pid, s), Box::new(task));
        }
        self.finished.lock().insert(pid, finished);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ObjectId, ServerRef, Store, StoreBuilder, StoreError};

    #[test]
    fn cluster_starts_and_shuts_down() {
        let store = StoreBuilder::new().build().unwrap();
        let cluster = &store.cluster;
        assert_eq!(cluster.params().n1(), 4);
        assert_eq!(cluster.membership().n2(), 5);
        assert_eq!(cluster.router().len(), 9);
        store.shutdown();
        // All server inboxes are deregistered after shutdown.
        assert_eq!(cluster.router().len(), 0);
    }

    #[test]
    fn sharded_cluster_starts_and_shuts_down() {
        let store = StoreBuilder::new()
            .l1_shards(4)
            .l2_shards(2)
            .build()
            .unwrap();
        let cluster = &store.cluster;
        // Shards do not change the process count.
        assert_eq!(cluster.router().len(), 9);
        let mut client = store.client();
        client.write(ObjectId(11), b"sharded").unwrap();
        assert_eq!(client.read(ObjectId(11)).unwrap(), b"sharded");
        drop(client);
        store.shutdown();
        assert_eq!(cluster.router().len(), 0);
    }

    #[test]
    fn stats_probes_publish_after_idle() {
        let store = StoreBuilder::new()
            .backend(BackendKind::Replication)
            .build()
            .unwrap();
        let mut client = store.client();
        for i in 0..5u64 {
            client.write(ObjectId(i), &[7u8; 64]).unwrap();
        }
        // Give the shards a moment to drain their inboxes and publish.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let entries = store.admin().metrics().l1_metadata_entries;
        assert!(entries > 0, "metadata probe never published");
        drop(client);
        store.shutdown();
    }

    /// A store whose executor is sized as on a `cores`-core machine (the
    /// parameter the builder does not expose).
    fn store_on(cores: usize, options: ClusterOptions) -> crate::api::StoreHandle {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let cluster = Cluster::launch(
            params,
            BackendKind::Mbr,
            options,
            None,
            None,
            None,
            Some(cores),
        )
        .unwrap();
        crate::api::StoreHandle {
            cluster,
            heal: None,
        }
    }

    #[test]
    fn one_worker_two_workers_and_a_worker_per_task_behave_alike() {
        let options = ClusterOptions {
            l1_shards: 2,
            l2_shards: 2,
            ..ClusterOptions::default()
        };
        let tasks = 2 * (4 + 5);
        for cores in [1, 2, usize::MAX] {
            let store = store_on(cores, options);
            let cluster = &store.cluster;
            assert_eq!(cluster.executor.stats().workers, cores.min(tasks));
            let admin = store.admin();
            let mut client = store.client();
            let value = |obj: u64, round: u8| vec![round ^ obj as u8; 200 + obj as usize];
            for obj in 0..8u64 {
                client.write(ObjectId(obj), &value(obj, 1)).unwrap();
            }
            admin.kill(ServerRef::l1(0)).unwrap();
            admin.kill(ServerRef::l2(1)).unwrap();
            for obj in 0..8u64 {
                assert_eq!(client.read(ObjectId(obj)).unwrap(), value(obj, 1));
                client.write(ObjectId(obj), &value(obj, 2)).unwrap();
            }
            admin.repair(ServerRef::l1(0)).expect("L1 repair");
            admin.repair(ServerRef::l2(1)).expect("L2 repair");
            // Budget restored: the replacements carry a different crash.
            admin.kill(ServerRef::l1(2)).unwrap();
            admin.kill(ServerRef::l2(3)).unwrap();
            for obj in 0..8u64 {
                assert_eq!(client.read(ObjectId(obj)).unwrap(), value(obj, 2));
            }
            drop(client);
            store.shutdown();
            assert_eq!(cluster.router().len(), 0, "cores = {cores}");
        }
    }

    #[test]
    fn a_crash_leaves_the_workers_other_automata_serving() {
        // One worker hosts all nine automata.
        let store = store_on(1, ClusterOptions::default());
        let cluster = &store.cluster;
        let admin = store.admin();
        let mut client = store.client();
        client.write(ObjectId(1), b"before the crash").unwrap();
        let dead = cluster.server_pid(RepairLayer::L2, 1);
        admin.kill(ServerRef::l2(1)).unwrap();
        // What repair does first. Once it returns, the dead task has run its
        // `finish`: the pid is deregistered, so re-registering it cannot be
        // undone by a late deregistration.
        cluster.await_server_exit(dead);
        assert!(!cluster.router().contains(dead));
        // Its eight co-tenants never noticed.
        client.write(ObjectId(2), b"during the outage").unwrap();
        assert_eq!(client.read(ObjectId(1)).unwrap(), b"before the crash");
        // The replacement is installed on the running worker and goes live.
        admin.repair(ServerRef::l2(1)).expect("repair succeeds");
        assert!(cluster.router().contains(dead));
        assert_eq!(cluster.executor.stats().workers, 1);
        admin.kill(ServerRef::l2(3)).unwrap();
        client.write(ObjectId(3), b"after the repair").unwrap();
        for (obj, value) in [
            (1, &b"before the crash"[..]),
            (2, b"during the outage"),
            (3, b"after the repair"),
        ] {
            assert_eq!(client.read(ObjectId(obj)).unwrap(), value);
        }
        assert!(
            cluster.router().contains(dead),
            "the replacement's route survived"
        );
        drop(client);
        store.shutdown();
    }

    #[test]
    fn kill_and_repair_l2_restores_budget() {
        let store = StoreBuilder::new().build().unwrap();
        let admin = store.admin();
        let mut client = store.client();
        for obj in 0..4u64 {
            client
                .write(ObjectId(obj), format!("pre-crash {obj}").as_bytes())
                .unwrap();
        }
        // A live server cannot be "repaired".
        assert!(matches!(
            admin.repair(ServerRef::l2(1)),
            Err(StoreError::Repair(RepairError::NotCrashed))
        ));
        admin.kill(ServerRef::l2(1)).unwrap();
        assert_eq!(admin.is_live(ServerRef::l2(1)), Ok(false));
        client.write(ObjectId(9), b"during the outage").unwrap();

        let report = admin.repair(ServerRef::l2(1)).expect("repair succeeds");
        assert_eq!(admin.is_live(ServerRef::l2(1)), Ok(true));
        assert_eq!(report.index, 1);
        assert_eq!(report.helpers, 4);
        assert!(report.objects >= 1, "committed objects regenerated");
        assert!(
            report.bytes_total < report.fallback_bytes,
            "MBR repair moves less than the full-element fallback: {} vs {}",
            report.bytes_total,
            report.fallback_bytes
        );
        // Budget restored: a *different* L2 crash is tolerated again.
        admin.kill(ServerRef::l2(3)).unwrap();
        client.write(ObjectId(2), b"after repair").unwrap();
        assert_eq!(client.read(ObjectId(2)).unwrap(), b"after repair");
        drop(client);
        store.shutdown();
    }

    #[test]
    fn kill_and_repair_l1_restores_budget() {
        let store = StoreBuilder::new()
            .backend(BackendKind::Replication)
            .l1_shards(2)
            .build()
            .unwrap();
        let admin = store.admin();
        let mut client = store.client();
        for obj in 0..6u64 {
            client
                .write(ObjectId(obj), format!("metadata {obj}").as_bytes())
                .unwrap();
        }
        admin.kill(ServerRef::l1(0)).unwrap();
        client.write(ObjectId(7), b"written while down").unwrap();

        // `Duration::MAX` is no deadline, not an instant overflow.
        let report = admin
            .repair_with_timeout(ServerRef::l1(0), Duration::MAX)
            .expect("repair succeeds");
        assert_eq!(report.layer, RepairLayer::L1);
        assert!(report.objects >= 6, "all written objects reconstructed");
        // Budget restored: a different L1 crash is tolerated again.
        admin.kill(ServerRef::l1(2)).unwrap();
        for obj in 0..6u64 {
            assert_eq!(
                client.read(ObjectId(obj)).unwrap(),
                format!("metadata {obj}").into_bytes()
            );
        }
        drop(client);
        store.shutdown();
    }

    #[test]
    fn concurrent_repairs_of_one_server_take_a_single_claim() {
        let store = StoreBuilder::new()
            .backend(BackendKind::Replication)
            .build()
            .unwrap();
        let admin = store.admin();
        let mut client = store.client();
        for obj in 0..3u64 {
            client.write(ObjectId(obj), &[obj as u8; 32]).unwrap();
        }
        admin.kill(ServerRef::l2(2)).unwrap();
        // Two coordinators race on the same repair: exactly one drives it;
        // the loser is refused (claim held) or finds the server already
        // repaired (claim released after the winner finished).
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let admin = admin.clone();
                std::thread::spawn(move || admin.repair(ServerRef::l2(2)))
            })
            .collect();
        let outcomes: Vec<_> = racers.into_iter().map(|h| h.join().unwrap()).collect();
        let ok = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(ok, 1, "exactly one concurrent repair wins: {outcomes:?}");
        assert!(outcomes.iter().any(|o| matches!(
            o,
            Err(StoreError::Repair(
                RepairError::RepairInProgress | RepairError::NotCrashed
            ))
        )));
        // The survivor is healthy: budget restored, traffic flows.
        assert_eq!(admin.is_live(ServerRef::l2(2)), Ok(true));
        admin.kill(ServerRef::l2(0)).unwrap();
        client.write(ObjectId(9), b"post-race").unwrap();
        assert_eq!(client.read(ObjectId(9)).unwrap(), b"post-race");
        drop(client);
        store.shutdown();
    }

    #[test]
    fn inbox_depth_probes_settle_to_zero() {
        let store = StoreBuilder::new()
            .backend(BackendKind::Replication)
            .build()
            .unwrap();
        let mut client = store.client();
        for i in 0..8u64 {
            client.submit_write(ObjectId(i), &[3u8; 32]);
        }
        client.wait_all().unwrap();
        // Everything the workload enqueued was eventually claimed.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let cluster = &store.cluster;
        for j in 0..cluster.params().n1() {
            assert_eq!(cluster.l1_inbox_depth(j), 0, "server {j} inbox drained");
            let max_seen = cluster.l1_inboxes[j].iter().map(|d| d.max_seen());
            assert!(max_seen.max().unwrap() > 0, "high-water mark recorded");
        }
        drop(client);
        store.shutdown();
    }
}
