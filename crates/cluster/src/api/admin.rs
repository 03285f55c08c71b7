//! The `Admin` control plane: crash injection, online repair, liveness,
//! inbox-depth probes and metrics, consolidated behind one handle.
//!
//! [`Admin`] addresses every server of the deployment with one
//! [`ServerRef`] — layer, index and cluster — and is the single seam a
//! failure detector drives: observe [`Admin::liveness`], decide, call
//! [`Admin::repair`].

use crate::api::StoreError;
use crate::node::Cluster;
use crate::obs::{HistSnapshot, TraceDump};
use crate::repair::{RepairLayer, RepairReport};
use crate::transport::MESSAGE_CLASSES;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Addresses one server process of a deployment: layer + layer index, plus
/// the cluster shard on sharded topologies (defaults to shard 0).
///
/// ```rust
/// use lds_cluster::api::ServerRef;
/// use lds_cluster::RepairLayer;
///
/// let edge = ServerRef::l1(3);
/// assert_eq!((edge.layer, edge.index, edge.cluster), (RepairLayer::L1, 3, 0));
/// let backend = ServerRef::l2(1).in_cluster(2);
/// assert_eq!((backend.layer, backend.index, backend.cluster), (RepairLayer::L2, 1, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerRef {
    /// The cluster shard hosting the server (always 0 on a single cluster).
    pub cluster: usize,
    /// The server's layer.
    pub layer: RepairLayer,
    /// The server's index within its layer (`0..n1` or `0..n2`).
    pub index: usize,
}

impl ServerRef {
    /// The L1 (edge) server with layer index `index`, in cluster shard 0.
    pub fn l1(index: usize) -> ServerRef {
        ServerRef {
            cluster: 0,
            layer: RepairLayer::L1,
            index,
        }
    }

    /// The L2 (back-end) server with layer index `index`, in cluster shard 0.
    pub fn l2(index: usize) -> ServerRef {
        ServerRef {
            cluster: 0,
            layer: RepairLayer::L2,
            index,
        }
    }

    /// The same server in cluster shard `cluster` of a sharded topology.
    pub fn in_cluster(mut self, cluster: usize) -> ServerRef {
        self.cluster = cluster;
        self
    }
}

impl fmt::Display for ServerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]@cluster{}", self.layer, self.index, self.cluster)
    }
}

/// Liveness of every server, per cluster shard (see [`Admin::liveness`]).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `l1[c][j]` is true iff L1 server `j` of cluster shard `c` is live.
    pub l1: Vec<Vec<bool>>,
    /// `l2[c][i]` is true iff L2 server `i` of cluster shard `c` is live.
    pub l2: Vec<Vec<bool>>,
}

impl Liveness {
    /// Whether every server of every cluster shard is live.
    pub fn all_live(&self) -> bool {
        self.l1.iter().chain(self.l2.iter()).flatten().all(|&b| b)
    }

    /// Crashed servers, as [`ServerRef`]s — the work list a failure detector
    /// would hand to [`Admin::repair`].
    pub fn crashed(&self) -> Vec<ServerRef> {
        let collect =
            |layers: &[Vec<bool>], layer: RepairLayer| {
                layers
                    .iter()
                    .enumerate()
                    .flat_map(move |(c, servers)| {
                        servers.iter().enumerate().filter(|(_, &live)| !live).map(
                            move |(index, _)| ServerRef {
                                cluster: c,
                                layer,
                                index,
                            },
                        )
                    })
                    .collect::<Vec<_>>()
            };
        let mut crashed = collect(&self.l1, RepairLayer::L1);
        crashed.extend(collect(&self.l2, RepairLayer::L2));
        crashed
    }
}

/// A point-in-time snapshot of the deployment's occupancy metrics (see
/// [`Admin::metrics`]). All values are aggregated across every cluster
/// shard; per-server breakdowns come from [`Admin::inbox_depths`] and
/// [`Admin::liveness`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Independent cluster shards in the deployment.
    pub clusters: usize,
    /// Per-tag metadata entries across every L1 server (bounded over long
    /// runs by committed-tag garbage collection).
    pub l1_metadata_entries: usize,
    /// Bytes of values in L1 temporary storage across every server.
    pub l1_temporary_bytes: usize,
    /// Messages currently queued across every L1 worker-shard inbox.
    pub l1_inbox_depth: usize,
    /// The largest queue length any single L1 worker-shard inbox has ever
    /// reached.
    pub max_l1_inbox_depth: usize,
    /// Client operations currently admitted across every L1 partition
    /// (bounded-inbox deployments only; zero otherwise).
    pub admitted_ops: usize,
    /// Live L1 servers (out of `clusters × n1`).
    pub live_l1: usize,
    /// Live L2 servers (out of `clusters × n2`).
    pub live_l2: usize,
    /// Successful online repairs since the store started (exact even after
    /// the bounded report log started evicting).
    pub repairs_completed: usize,
    /// [`RepairReport`]s evicted from the bounded log behind
    /// [`Admin::repair_reports`] (see
    /// [`StoreBuilder::repair_log_cap`](crate::api::StoreBuilder::repair_log_cap)).
    pub repair_reports_dropped: u64,
    /// Suspicion transitions the heartbeat monitor raised (self-healing
    /// deployments only; zero otherwise — likewise for every `heal_*`
    /// field below).
    pub heal_suspicions_raised: u64,
    /// Repair attempts the auto-repair supervisor started.
    pub heal_repairs_attempted: u64,
    /// Supervisor attempts that completed successfully.
    pub heal_repairs_succeeded: u64,
    /// Supervisor attempts that failed and entered (or escalated) an
    /// exponential backoff.
    pub heal_repairs_backed_off: u64,
    /// Times the supervisor parked a target because its layer had fewer
    /// live helpers than the repair quorum (more than `f` down).
    pub heal_parked_events: u64,
    /// The current backoff delay per target still waiting one out.
    pub heal_backoffs: Vec<(ServerRef, Duration)>,
    /// Faults injected by the transport under every cluster shard's router —
    /// all zero on the default in-process transport; non-zero only with a
    /// [`StoreBuilder::fault_plan`](crate::api::StoreBuilder::fault_plan)
    /// (see [`FaultCounters`](crate::transport::FaultCounters)).
    pub transport_faults: crate::transport::FaultCounters,
    /// Reads served from a client's tag-validated cache (data-transfer
    /// phase skipped). Folded in when each read completes, so a burst still
    /// in flight lags by at most one completion per client handle.
    pub cache_hits: u64,
    /// Cache-enabled reads that ran the full data-transfer phase (zero when
    /// no client has a cache, so [`MetricsSnapshot::cache_hit_ratio`] is
    /// meaningful whenever `cache_hits + cache_misses > 0`).
    pub cache_misses: u64,
    /// Stripe assemblies opened at L1 (cross-sender PUT-STRIPE reassembly).
    pub l1_assemblies_opened: u64,
    /// Stripe assemblies fully reassembled at L1.
    pub l1_assemblies_completed: u64,
    /// Malformed or mismatched stripe parts dropped at L1.
    pub l1_stripe_parts_dropped: u64,
    /// Code-stripe assemblies opened at L2 (WRITE-CODE-STRIPE reassembly).
    pub l2_assemblies_opened: u64,
    /// Code-stripe assemblies fully reassembled at L2.
    pub l2_assemblies_completed: u64,
    /// Whole assemblies dropped at L2 (superseded or malformed).
    pub l2_assemblies_dropped: u64,
    /// Temporary-store entries garbage-collected below the committed tag.
    pub gc_evicted_entries: u64,
    /// Value bytes released by committed-tag garbage collection.
    pub gc_evicted_bytes: u64,
    /// Largest single-round footprint any L1 shard's encode buffer pool
    /// ever reached, in bytes (see [`PoolStats`](lds_codes::PoolStats)).
    pub peak_round_bytes: usize,
    /// The instruction-set level this process's GF(2^8) coding kernels run
    /// at ([`lds_codes::gf_kernel`]): `"gfni"`, `"avx2"`, `"ssse3"` or
    /// `"portable"`. Encode and decode cost differ severalfold between
    /// levels, so a latency or throughput figure is attributable only with
    /// it.
    pub gf_kernel: &'static str,
    /// Messages received across every server shard, by protocol class
    /// (names per [`MESSAGE_CLASSES`]; heartbeat pings last). Published
    /// when the shard's worker goes idle and at least every 10 ms while it
    /// does not; reset to zero by a repair (Prometheus-style).
    pub messages_by_class: Vec<(&'static str, u64)>,
    /// Worker threads running the deployment's server-shard automata:
    /// `min(cores, hosted automata)` per cluster. The four `executor_*`
    /// counters below are sums over them, published like
    /// `messages_by_class`.
    pub executor_workers: usize,
    /// Automaton activations: turns in which a worker found at least one
    /// envelope in a hosted automaton's inbox and stepped it through the
    /// whole backlog.
    pub executor_turns: u64,
    /// Envelopes those turns claimed; `envelopes ÷ turns` is how many
    /// arrivals one activation amortises.
    pub executor_envelopes: u64,
    /// Times a worker found every hosted inbox empty and parked.
    pub executor_parks: u64,
    /// Wake-ups senders actually issued (one `unpark` each). Every other
    /// enqueue into a server inbox found its worker awake and cost one
    /// atomic load; `wakeups ÷ operations` is the system-call share of the
    /// message path.
    pub executor_wakeups: u64,
    /// End-to-end write latency histogram, µs buckets (≤ 12.5 % relative
    /// error — see [`crate::obs::hist`]).
    pub write_latency: HistSnapshot,
    /// End-to-end read latency histogram.
    pub read_latency: HistSnapshot,
    /// Tag-quorum phase latency (write QUERY-TAG or read QUERY-COMM-TAG
    /// round, submission to first data-phase message).
    pub phase_tag_latency: HistSnapshot,
    /// Data-transfer phase latency (write PUT-DATA fan-out through the
    /// commit-wait ack, or read QUERY-DATA through decode).
    pub phase_data_latency: HistSnapshot,
    /// Read commit phase latency (PUT-TAG write-back quorum).
    pub phase_commit_latency: HistSnapshot,
}

impl MetricsSnapshot {
    /// Fraction of cache-enabled reads served from the tag-validated cache
    /// (`hits / (hits + misses)`); 0.0 when no cached read has completed.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format: one
    /// `# HELP` and one `# TYPE` line per metric family, `lds_`-prefixed
    /// names, labelled samples for the per-layer and per-target families.
    ///
    /// ```rust
    /// use lds_cluster::api::StoreBuilder;
    ///
    /// let store = StoreBuilder::new().build().unwrap();
    /// let text = store.admin().metrics().to_prometheus();
    /// assert!(text.contains("# TYPE lds_live_servers gauge"));
    /// assert!(text.contains("lds_live_servers{layer=\"l1\"} 4"));
    /// store.shutdown();
    /// ```
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut family = |name: &str, kind: &str, help: &str, samples: &[(String, f64)]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in samples {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        };
        let plain = |v: f64| vec![(String::new(), v)];
        family(
            "lds_clusters",
            "gauge",
            "Independent cluster shards in the deployment.",
            &plain(self.clusters as f64),
        );
        family(
            "lds_l1_metadata_entries",
            "gauge",
            "Per-tag metadata entries across every L1 server.",
            &plain(self.l1_metadata_entries as f64),
        );
        family(
            "lds_l1_temporary_bytes",
            "gauge",
            "Bytes of values in L1 temporary storage.",
            &plain(self.l1_temporary_bytes as f64),
        );
        family(
            "lds_l1_inbox_depth",
            "gauge",
            "Messages queued across every L1 worker-shard inbox.",
            &plain(self.l1_inbox_depth as f64),
        );
        family(
            "lds_l1_inbox_depth_max",
            "gauge",
            "Largest queue length any single L1 worker-shard inbox reached.",
            &plain(self.max_l1_inbox_depth as f64),
        );
        family(
            "lds_admitted_ops",
            "gauge",
            "Client operations currently admitted (bounded-inbox mode).",
            &plain(self.admitted_ops as f64),
        );
        family(
            "lds_live_servers",
            "gauge",
            "Live servers per layer.",
            &[
                ("{layer=\"l1\"}".into(), self.live_l1 as f64),
                ("{layer=\"l2\"}".into(), self.live_l2 as f64),
            ],
        );
        family(
            "lds_repairs_completed",
            "counter",
            "Successful online repairs since the store started.",
            &plain(self.repairs_completed as f64),
        );
        family(
            "lds_repair_reports_dropped",
            "counter",
            "Repair reports evicted from the bounded history log.",
            &plain(self.repair_reports_dropped as f64),
        );
        family(
            "lds_heal_suspicions_raised",
            "counter",
            "Suspicion transitions raised by the heartbeat monitor.",
            &plain(self.heal_suspicions_raised as f64),
        );
        family(
            "lds_heal_repairs_attempted",
            "counter",
            "Repair attempts started by the auto-repair supervisor.",
            &plain(self.heal_repairs_attempted as f64),
        );
        family(
            "lds_heal_repairs_succeeded",
            "counter",
            "Supervisor repair attempts that completed successfully.",
            &plain(self.heal_repairs_succeeded as f64),
        );
        family(
            "lds_heal_repairs_backed_off",
            "counter",
            "Supervisor repair attempts that failed into exponential backoff.",
            &plain(self.heal_repairs_backed_off as f64),
        );
        family(
            "lds_heal_parked",
            "counter",
            "Times the supervisor parked a repair for lack of a quorum.",
            &plain(self.heal_parked_events as f64),
        );
        let backoffs: Vec<(String, f64)> = self
            .heal_backoffs
            .iter()
            .map(|(target, delay)| (format!("{{target=\"{target}\"}}"), delay.as_secs_f64()))
            .collect();
        family(
            "lds_heal_backoff_seconds",
            "gauge",
            "Current backoff delay per repair target still waiting one out.",
            &backoffs,
        );
        let faults = &self.transport_faults;
        family(
            "lds_transport_faults",
            "counter",
            "Faults injected by the fault-injecting transport, by kind.",
            &[
                ("{kind=\"dropped\"}".into(), faults.dropped as f64),
                ("{kind=\"duplicated\"}".into(), faults.duplicated as f64),
                ("{kind=\"delayed\"}".into(), faults.delayed as f64),
                ("{kind=\"reordered\"}".into(), faults.reordered as f64),
                ("{kind=\"partitioned\"}".into(), faults.partitioned as f64),
            ],
        );
        family(
            "lds_read_cache",
            "counter",
            "Completed reads by cache outcome (cache-enabled clients only).",
            &[
                ("{result=\"hit\"}".into(), self.cache_hits as f64),
                ("{result=\"miss\"}".into(), self.cache_misses as f64),
            ],
        );
        family(
            "lds_read_cache_hit_ratio",
            "gauge",
            "Fraction of cache-enabled reads served from the read cache.",
            &plain(self.cache_hit_ratio()),
        );
        family(
            "lds_assemblies",
            "counter",
            "Stripe assemblies by layer and outcome.",
            &[
                (
                    "{layer=\"l1\",event=\"opened\"}".into(),
                    self.l1_assemblies_opened as f64,
                ),
                (
                    "{layer=\"l1\",event=\"completed\"}".into(),
                    self.l1_assemblies_completed as f64,
                ),
                (
                    "{layer=\"l1\",event=\"parts_dropped\"}".into(),
                    self.l1_stripe_parts_dropped as f64,
                ),
                (
                    "{layer=\"l2\",event=\"opened\"}".into(),
                    self.l2_assemblies_opened as f64,
                ),
                (
                    "{layer=\"l2\",event=\"completed\"}".into(),
                    self.l2_assemblies_completed as f64,
                ),
                (
                    "{layer=\"l2\",event=\"dropped\"}".into(),
                    self.l2_assemblies_dropped as f64,
                ),
            ],
        );
        family(
            "lds_gc_evicted_entries",
            "counter",
            "Temporary-store entries evicted by committed-tag GC.",
            &plain(self.gc_evicted_entries as f64),
        );
        family(
            "lds_gc_evicted_bytes",
            "counter",
            "Value bytes released by committed-tag GC.",
            &plain(self.gc_evicted_bytes as f64),
        );
        family(
            "lds_pool_peak_round_bytes",
            "gauge",
            "Largest single-round footprint any L1 encode pool reached.",
            &plain(self.peak_round_bytes as f64),
        );
        family(
            "lds_gf_kernel",
            "gauge",
            "Instruction-set level of the GF(2^8) coding kernels (constant 1, level in the label).",
            &[(format!("{{level=\"{}\"}}", self.gf_kernel), 1.0)],
        );
        family(
            "lds_executor_workers",
            "gauge",
            "Worker threads running the server-shard automata.",
            &plain(self.executor_workers as f64),
        );
        family(
            "lds_executor_turns",
            "counter",
            "Automaton activations (turns that claimed at least one envelope).",
            &plain(self.executor_turns as f64),
        );
        family(
            "lds_executor_envelopes",
            "counter",
            "Envelopes claimed from server inboxes by executor turns.",
            &plain(self.executor_envelopes as f64),
        );
        family(
            "lds_executor_parks",
            "counter",
            "Times an executor worker found every inbox empty and parked.",
            &plain(self.executor_parks as f64),
        );
        family(
            "lds_executor_wakeups",
            "counter",
            "Wake-ups (unparks) senders issued to parked executor workers.",
            &plain(self.executor_wakeups as f64),
        );
        let classes: Vec<(String, f64)> = self
            .messages_by_class
            .iter()
            .map(|(name, count)| (format!("{{class=\"{name}\"}}"), *count as f64))
            .collect();
        family(
            "lds_messages_total",
            "counter",
            "Messages received across every server shard, by protocol class.",
            &classes,
        );
        // The latency families come last so `hist_family` can mutably borrow
        // `out` after `family`'s last use.
        let mut hist_family = |name: &str, help: &str, snap: &HistSnapshot| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (upper_us, count) in snap.nonzero_buckets() {
                cumulative += count;
                let le = upper_us as f64 * 1e-6;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}", snap.sum as f64 * 1e-6);
            let _ = writeln!(out, "{name}_count {cumulative}");
        };
        hist_family(
            "lds_write_latency_seconds",
            "End-to-end write latency.",
            &self.write_latency,
        );
        hist_family(
            "lds_read_latency_seconds",
            "End-to-end read latency.",
            &self.read_latency,
        );
        hist_family(
            "lds_phase_tag_latency_seconds",
            "Tag-quorum phase latency (writes and reads).",
            &self.phase_tag_latency,
        );
        hist_family(
            "lds_phase_data_latency_seconds",
            "Data-transfer phase latency (write commit wait included).",
            &self.phase_data_latency,
        );
        hist_family(
            "lds_phase_commit_latency_seconds",
            "Read commit (PUT-TAG round) phase latency.",
            &self.phase_commit_latency,
        );
        out
    }
}

/// The consolidated control plane of a store: one handle for crash
/// injection ([`Admin::kill`]), online repair ([`Admin::repair`]), liveness
/// ([`Admin::liveness`]), inbox-depth probes and a [`MetricsSnapshot`] —
/// for every cluster of the deployment, the cluster index carried by
/// [`ServerRef`].
///
/// Obtained from [`StoreHandle::admin`](crate::api::StoreHandle::admin).
/// Cheaply cloneable; all methods take `&self`.
///
/// ```rust
/// use lds_cluster::api::{ServerRef, Store, StoreBuilder};
///
/// let store = StoreBuilder::new().backend(lds_core::BackendKind::Mbr).build().unwrap();
/// let admin = store.admin();
/// let mut client = store.client();
/// client.write(0.into(), b"survives a repair").unwrap();
///
/// admin.kill(ServerRef::l2(1)).unwrap();
/// assert!(!admin.liveness().all_live());
/// let report = admin.repair(ServerRef::l2(1)).unwrap();
/// assert!(report.objects >= 1);
/// assert!(admin.liveness().all_live());
/// assert_eq!(admin.metrics().repairs_completed, 1);
/// store.shutdown();
/// ```
#[derive(Clone)]
pub struct Admin {
    /// The deployment's clusters, in cluster-index order (never empty).
    clusters: Arc<[Arc<Cluster>]>,
}

impl Admin {
    pub(crate) fn new(clusters: Arc<[Arc<Cluster>]>) -> Admin {
        Admin { clusters }
    }

    /// Number of clusters this admin oversees.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    fn cluster(&self, server: ServerRef) -> Result<&Cluster, StoreError> {
        match self.clusters.get(server.cluster) {
            Some(cluster) => Ok(cluster),
            None => Err(StoreError::InvalidConfig(format!(
                "server {server} names cluster shard {} of a {}-shard deployment",
                server.cluster,
                self.clusters.len()
            ))),
        }
    }

    fn check_index(&self, server: ServerRef) -> Result<(), StoreError> {
        let cluster = self.cluster(server)?;
        let n = match server.layer {
            RepairLayer::L1 => cluster.params().n1(),
            RepairLayer::L2 => cluster.params().n2(),
        };
        if server.index >= n {
            return Err(StoreError::InvalidConfig(format!(
                "server {server} is out of range: the {} layer has {n} servers",
                server.layer
            )));
        }
        Ok(())
    }

    /// Crash-kills `server`: every worker shard stops. The server can later
    /// be regenerated online with [`Admin::repair`].
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] if `server` names a cluster shard or
    /// index outside the deployment.
    pub fn kill(&self, server: ServerRef) -> Result<(), StoreError> {
        self.check_index(server)?;
        self.cluster(server)?
            .kill_server(server.layer, server.index);
        Ok(())
    }

    /// Regenerates the crashed `server` **online**, restoring its cluster's
    /// failure budget while client traffic keeps flowing:
    ///
    /// * an **L1** replacement reconstructs its metadata (committed tags and
    ///   lists) from every live L1 peer and catches up in-flight writes from
    ///   the normal PUT-DATA stream;
    /// * an **L2** replacement regenerates every object's coded element from
    ///   any `repair_threshold` live helpers — at MBR repair bandwidth
    ///   (`β`-sized helper symbols, a `1/α` traffic saving) when the backend
    ///   is MBR, by decode-and-re-encode otherwise — while absorbing
    ///   in-flight WRITE-CODE-ELEM traffic.
    ///
    /// Blocks until the replacement reports completion. The returned
    /// [`RepairReport`] records the bytes moved per helper and the
    /// full-element fallback comparison; it is also appended to the log
    /// behind [`Admin::repair_reports`].
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for an out-of-range reference;
    /// [`StoreError::Repair`] wrapping [`crate::RepairError::NotCrashed`],
    /// [`crate::RepairError::RepairInProgress`],
    /// [`crate::RepairError::TooFewHelpers`] or
    /// [`crate::RepairError::Timeout`] (the target returns to the crashed
    /// state).
    pub fn repair(&self, server: ServerRef) -> Result<RepairReport, StoreError> {
        self.check_index(server)?;
        Ok(self
            .cluster(server)?
            .repair_server(server.layer, server.index)?)
    }

    /// [`Admin::repair`] with an explicit per-call deadline instead of the
    /// deployment-wide
    /// [`StoreBuilder::repair_timeout`](crate::api::StoreBuilder::repair_timeout).
    /// On [`crate::RepairError::Timeout`] the claim is released and the
    /// target returns to the crashed state, so a later retry (with a more
    /// generous deadline) can succeed.
    ///
    /// # Errors
    ///
    /// As [`Admin::repair`], plus [`StoreError::InvalidConfig`] for a zero
    /// timeout.
    pub fn repair_with_timeout(
        &self,
        server: ServerRef,
        timeout: Duration,
    ) -> Result<RepairReport, StoreError> {
        self.check_index(server)?;
        if timeout.is_zero() {
            return Err(StoreError::InvalidConfig(
                "repair timeout must be non-zero".into(),
            ));
        }
        Ok(self
            .cluster(server)?
            .repair_server_with(server.layer, server.index, Some(timeout))?)
    }

    /// Whether `server` is live (never killed, or killed and successfully
    /// repaired).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for an out-of-range reference.
    pub fn is_live(&self, server: ServerRef) -> Result<bool, StoreError> {
        self.check_index(server)?;
        Ok(self
            .cluster(server)?
            .server_is_live(server.layer, server.index))
    }

    /// Liveness of every server of every cluster shard — the observation a
    /// failure detector feeds back into [`Admin::repair`] (see
    /// [`Liveness::crashed`]).
    ///
    /// On a self-healing deployment
    /// ([`StoreBuilder::self_heal`](crate::api::StoreBuilder::self_heal))
    /// this reports the heartbeat monitor's *suspicion* view: a server is
    /// live here iff its beats are fresh, so a crash shows up only after the
    /// detection latency (`beat_interval × suspicion_intervals`) and a
    /// repaired server reappears on its first beat. [`Admin::is_live`]
    /// always reads the engine's crash-injection ground truth.
    pub fn liveness(&self) -> Liveness {
        let per_cluster = |cluster: &Cluster| {
            let params = cluster.params();
            let l1 = (0..params.n1())
                .map(|j| cluster.server_is_live_observed(RepairLayer::L1, j))
                .collect();
            let l2 = (0..params.n2())
                .map(|i| cluster.server_is_live_observed(RepairLayer::L2, i))
                .collect();
            (l1, l2)
        };
        let (l1, l2) = self.clusters.iter().map(|c| per_cluster(c)).unzip();
        Liveness { l1, l2 }
    }

    /// Messages currently queued per L1 server inbox: `depths[c][j]` is the
    /// queue length of L1 server `j` in cluster shard `c` (summed over its
    /// worker shards). A persistently deep inbox identifies the saturated
    /// server behind [`StoreError::WouldBlock`] refusals.
    pub fn inbox_depths(&self) -> Vec<Vec<usize>> {
        let per_cluster = |cluster: &Cluster| {
            (0..cluster.params().n1())
                .map(|j| cluster.l1_inbox_depth(j))
                .collect::<Vec<_>>()
        };
        self.clusters.iter().map(|c| per_cluster(c)).collect()
    }

    /// Client operations currently admitted per L1 key partition (bounded
    /// deployments only; all zeros otherwise): `admitted[c][p]` is the
    /// budget in use on partition `p` of cluster shard `c`. Never exceeds
    /// the configured inbox cap.
    pub fn admitted_ops(&self) -> Vec<Vec<usize>> {
        let per_cluster = |cluster: &Cluster| {
            (0..cluster.options().l1_shards)
                .map(|p| cluster.l1_admitted_ops(p))
                .collect::<Vec<_>>()
        };
        self.clusters.iter().map(|c| per_cluster(c)).collect()
    }

    /// The largest queue length any single worker-shard inbox of each L1
    /// server has ever reached: `depths[c][j]` for server `j` of cluster
    /// shard `c`. On bounded deployments the stress tests assert this
    /// against `inbox_cap × msgs_per_op_bound × 2`.
    pub fn max_inbox_depths(&self) -> Vec<Vec<usize>> {
        let per_cluster = |cluster: &Cluster| {
            (0..cluster.params().n1())
                .map(|j| cluster.l1_max_inbox_depth(j))
                .collect::<Vec<_>>()
        };
        self.clusters.iter().map(|c| per_cluster(c)).collect()
    }

    /// Reports of every successful online repair since the store started —
    /// in completion order *within each cluster shard*, with the per-shard
    /// logs concatenated in shard-index order (repairs of different shards
    /// are independent and carry no global ordering).
    pub fn repair_reports(&self) -> Vec<RepairReport> {
        self.clusters.iter().flat_map(|c| c.repair_log()).collect()
    }

    /// A point-in-time aggregate of the deployment's occupancy and health
    /// metrics — the payload a metrics endpoint would export.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot {
            clusters: self.clusters.len(),
            l1_metadata_entries: 0,
            l1_temporary_bytes: 0,
            l1_inbox_depth: 0,
            max_l1_inbox_depth: 0,
            admitted_ops: 0,
            live_l1: 0,
            live_l2: 0,
            repairs_completed: 0,
            repair_reports_dropped: 0,
            heal_suspicions_raised: 0,
            heal_repairs_attempted: 0,
            heal_repairs_succeeded: 0,
            heal_repairs_backed_off: 0,
            heal_parked_events: 0,
            heal_backoffs: Vec::new(),
            transport_faults: crate::transport::FaultCounters::default(),
            cache_hits: 0,
            cache_misses: 0,
            l1_assemblies_opened: 0,
            l1_assemblies_completed: 0,
            l1_stripe_parts_dropped: 0,
            l2_assemblies_opened: 0,
            l2_assemblies_completed: 0,
            l2_assemblies_dropped: 0,
            gc_evicted_entries: 0,
            gc_evicted_bytes: 0,
            peak_round_bytes: 0,
            gf_kernel: lds_codes::gf_kernel(),
            messages_by_class: MESSAGE_CLASSES.iter().map(|&name| (name, 0u64)).collect(),
            executor_workers: 0,
            executor_turns: 0,
            executor_envelopes: 0,
            executor_parks: 0,
            executor_wakeups: 0,
            write_latency: HistSnapshot::empty(),
            read_latency: HistSnapshot::empty(),
            phase_tag_latency: HistSnapshot::empty(),
            phase_data_latency: HistSnapshot::empty(),
            phase_commit_latency: HistSnapshot::empty(),
        };
        for (c, cluster) in self.clusters.iter().enumerate() {
            let params = cluster.params();
            snapshot.l1_metadata_entries += cluster.total_l1_metadata_entries();
            snapshot.l1_temporary_bytes += cluster.total_l1_temporary_bytes();
            for j in 0..params.n1() {
                snapshot.l1_inbox_depth += cluster.l1_inbox_depth(j);
                snapshot.max_l1_inbox_depth = snapshot
                    .max_l1_inbox_depth
                    .max(cluster.l1_max_inbox_depth(j));
                if cluster.server_is_live(RepairLayer::L1, j) {
                    snapshot.live_l1 += 1;
                }
            }
            for shard in 0..cluster.options().l1_shards {
                snapshot.admitted_ops += cluster.l1_admitted_ops(shard);
            }
            for i in 0..params.n2() {
                if cluster.server_is_live(RepairLayer::L2, i) {
                    snapshot.live_l2 += 1;
                }
            }
            snapshot.repairs_completed += cluster.repairs_completed() as usize;
            snapshot.repair_reports_dropped += cluster.repair_reports_dropped();
            let faults = cluster.fault_counters();
            snapshot.transport_faults.dropped += faults.dropped;
            snapshot.transport_faults.duplicated += faults.duplicated;
            snapshot.transport_faults.delayed += faults.delayed;
            snapshot.transport_faults.reordered += faults.reordered;
            snapshot.transport_faults.partitioned += faults.partitioned;
            let internals = cluster.server_internals();
            snapshot.l1_assemblies_opened += internals.l1_assemblies_opened;
            snapshot.l1_assemblies_completed += internals.l1_assemblies_completed;
            snapshot.l1_stripe_parts_dropped += internals.l1_stripe_parts_dropped;
            snapshot.l2_assemblies_opened += internals.l2_assemblies_opened;
            snapshot.l2_assemblies_completed += internals.l2_assemblies_completed;
            snapshot.l2_assemblies_dropped += internals.l2_assemblies_dropped;
            snapshot.gc_evicted_entries += internals.gc_evicted_entries;
            snapshot.gc_evicted_bytes += internals.gc_evicted_bytes;
            snapshot.peak_round_bytes = snapshot.peak_round_bytes.max(internals.peak_round_bytes);
            for (slot, count) in snapshot
                .messages_by_class
                .iter_mut()
                .zip(internals.msgs_by_class.iter())
            {
                slot.1 += count;
            }
            let executor = cluster.executor_stats();
            snapshot.executor_workers += executor.workers;
            snapshot.executor_turns += executor.turns;
            snapshot.executor_envelopes += executor.envelopes;
            snapshot.executor_parks += executor.parks;
            snapshot.executor_wakeups += executor.wakeups;
            let obs = cluster.obs_metrics();
            snapshot.cache_hits += obs.cache_hits.load(Ordering::Relaxed);
            snapshot.cache_misses += obs.cache_misses.load(Ordering::Relaxed);
            snapshot.write_latency.merge(&obs.write_us.snapshot());
            snapshot.read_latency.merge(&obs.read_us.snapshot());
            snapshot
                .phase_tag_latency
                .merge(&obs.phase_tag_us.snapshot());
            snapshot
                .phase_data_latency
                .merge(&obs.phase_data_us.snapshot());
            snapshot
                .phase_commit_latency
                .merge(&obs.phase_commit_us.snapshot());
            if let Some(heal) = cluster.heal_state() {
                snapshot.heal_suspicions_raised += heal.suspicions_raised();
                snapshot.heal_repairs_attempted += heal.repairs_attempted();
                snapshot.heal_repairs_succeeded += heal.repairs_succeeded();
                snapshot.heal_repairs_backed_off += heal.repairs_backed_off();
                snapshot.heal_parked_events += heal.parked_events();
                for ((layer, index), delay) in heal.backoff_snapshot() {
                    let target = ServerRef {
                        cluster: c,
                        layer,
                        index,
                    };
                    snapshot.heal_backoffs.push((target, delay));
                }
            }
        }
        snapshot
    }

    /// Drains the flight recorder of every cluster shard into one
    /// time-ordered [`TraceDump`] — empty unless the store was built with
    /// [`StoreBuilder::trace`](crate::api::StoreBuilder::trace).
    ///
    /// Each call snapshots what the per-thread rings currently hold — the
    /// rings are bounded, so each holds the *most recent* events per thread
    /// (older ones are overwritten on wrap), which is exactly the
    /// flight-recorder contract: ask after something went wrong and see what
    /// led up to it. Export with [`TraceDump::to_jsonl`] or
    /// [`TraceDump::tail_jsonl`].
    pub fn trace_dump(&self) -> TraceDump {
        let mut dump = TraceDump::default();
        for cluster in self.clusters.iter() {
            dump.merge(cluster.recorder().dump());
        }
        dump
    }
}
