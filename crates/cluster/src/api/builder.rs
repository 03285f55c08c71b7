//! The fluent `StoreBuilder`: one validated construction path for every
//! profile.

use crate::api::{StoreError, StoreHandle};
use crate::heal::{HealConfig, HealRuntime};
use crate::node::{Cluster, ClusterOptions};
use crate::transport::{FaultPlan, Transport};
use lds_core::backend::BackendKind;
use lds_core::params::{Profile, SystemParams};
use std::sync::Arc;
use std::time::Duration;

/// Fluent, validating builder for a running LDS store.
///
/// One chain sets the code and failure parameters, the profile and every
/// knob of [`ClusterOptions`], and validates the *whole* configuration at
/// [`build()`](StoreBuilder::build) time — invalid quorum arithmetic,
/// impossible code parameters and zero-sized knobs are reported as
/// [`StoreError::InvalidConfig`] before any thread is spawned, instead of
/// panicking mid-boot.
///
/// Defaults: `f1 = f2 = 1`, `k = 2`, `d = 3` (the smallest symmetric test
/// deployment, `n1 = 4`, `n2 = 5`), MBR backend, one worker shard per
/// server, paper-faithful message flow, pipeline depth 16.
///
/// ```rust
/// use lds_cluster::api::{Store, StoreBuilder, StoreError};
/// use lds_core::BackendKind;
///
/// // A high-throughput deployment, two worker shards per server.
/// let store = StoreBuilder::new()
///     .failures(1, 1)
///     .code(2, 3)
///     .backend(BackendKind::Mbr)
///     .high_throughput(2)
///     .build()
///     .unwrap();
/// let mut client = store.client();
/// client.write(42.into(), b"built fluently").unwrap();
/// store.shutdown();
///
/// // Impossible quorum arithmetic (the MBR code needs k ≤ d) is rejected
/// // at build() time, before any thread is spawned.
/// let err = StoreBuilder::new().failures(1, 1).code(5, 3).build().unwrap_err();
/// assert!(matches!(err, StoreError::InvalidConfig(_)));
/// ```
#[derive(Clone)]
pub struct StoreBuilder {
    f1: usize,
    f2: usize,
    k: usize,
    d: usize,
    explicit_params: Option<SystemParams>,
    backend: BackendKind,
    /// What the cluster is launched with; the defaults are
    /// [`ClusterOptions::default`]'s.
    options: ClusterOptions,
    heal: Option<HealConfig>,
    fault_plan: Option<FaultPlan>,
    transport: Option<Arc<dyn Transport>>,
}

impl std::fmt::Debug for StoreBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreBuilder")
            .field("f1", &self.f1)
            .field("f2", &self.f2)
            .field("k", &self.k)
            .field("d", &self.d)
            .field("backend", &self.backend)
            .field("options", &self.options)
            .field("heal", &self.heal)
            .field("transport", &self.transport.as_ref().map(|_| "custom"))
            .finish_non_exhaustive()
    }
}

impl Default for StoreBuilder {
    fn default() -> Self {
        StoreBuilder {
            f1: 1,
            f2: 1,
            k: 2,
            d: 3,
            explicit_params: None,
            backend: BackendKind::Mbr,
            options: ClusterOptions::default(),
            heal: None,
            fault_plan: None,
            transport: None,
        }
    }
}

impl StoreBuilder {
    /// Starts a builder with the default small MBR deployment (see the
    /// [type docs](StoreBuilder)).
    pub fn new() -> StoreBuilder {
        StoreBuilder::default()
    }

    /// Sets the per-layer crash-fault tolerances: the store tolerates `f1`
    /// L1 and `f2` L2 crashes (layer sizes are derived as
    /// `n1 = 2·f1 + k`, `n2 = 2·f2 + d`).
    pub fn failures(mut self, f1: usize, f2: usize) -> StoreBuilder {
        self.f1 = f1;
        self.f2 = f2;
        self.explicit_params = None;
        self
    }

    /// Sets the regenerating code's reconstruction threshold `k` and repair
    /// degree `d` (the paper requires `k ≤ d`; validated at `build()`).
    pub fn code(mut self, k: usize, d: usize) -> StoreBuilder {
        self.k = k;
        self.d = d;
        self.explicit_params = None;
        self
    }

    /// Uses already-validated [`SystemParams`] verbatim instead of the
    /// `failures`/`code` axes.
    pub fn params(mut self, params: SystemParams) -> StoreBuilder {
        self.explicit_params = Some(params);
        self
    }

    /// Sets the erasure-code backend (default: [`BackendKind::Mbr`], the
    /// paper's design).
    pub fn backend(mut self, backend: BackendKind) -> StoreBuilder {
        self.backend = backend;
        self
    }

    /// [`Profile::PaperFaithful`] (the default): the paper's automata message
    /// for message — relayed COMMIT-TAG broadcast, every L1 server offloads,
    /// L2 acknowledges, the value becomes `⊥` after `f2 + d` acks — so the
    /// cost model of §V holds exactly. Sets the profile and nothing else:
    /// shards, depth and every other setting keep their values, in whichever
    /// order the calls are made.
    pub fn paper_faithful(mut self) -> StoreBuilder {
        self.options.profile = Profile::PaperFaithful;
        self
    }

    /// [`Profile::HighThroughput`]: direct COMMIT-TAG broadcast with inline
    /// self-delivery, `f1 + 1` offloaders, no L2 write acks (so every L1
    /// server keeps the committed value and serves reads without
    /// `regenerate-from-L2`) — plus `shards` worker shards per server and
    /// pipeline depth 32. Paper-exact cost accounting is traded away;
    /// atomicity is not (`tests/atomicity.rs`, the cluster stress tests).
    /// Touches the profile, the shard count and the depth only.
    pub fn high_throughput(mut self, shards: usize) -> StoreBuilder {
        self.options.profile = Profile::HighThroughput;
        self.options.shards = shards;
        self.options.pipeline_depth = 32;
        self
    }

    /// Worker shards per server, both layers: each shard owns a disjoint
    /// partition of the key space inside its server, so independent keys
    /// are processed in parallel within one node. `1` reproduces the
    /// original single-threaded servers.
    pub fn shards(mut self, shards: usize) -> StoreBuilder {
        self.options.shards = shards;
        self
    }

    /// Default maximum number of operations a client created by
    /// [`StoreHandle::client`](crate::api::StoreHandle::client) keeps in
    /// flight.
    pub fn pipeline_depth(mut self, depth: usize) -> StoreBuilder {
        self.options.pipeline_depth = depth;
        self
    }

    /// How long an online repair ([`crate::api::Admin::repair`], or one
    /// driven by the self-healing supervisor) may run before the claim is
    /// released and [`crate::RepairError::Timeout`] is returned (default
    /// 60 s). Must be non-zero (validated at `build()`). A single repair can
    /// still opt out per call with
    /// [`Admin::repair_with_timeout`](crate::api::Admin::repair_with_timeout).
    pub fn repair_timeout(mut self, timeout: Duration) -> StoreBuilder {
        self.options.repair_timeout = timeout;
        self
    }

    /// Bounds the repair-report history behind
    /// [`Admin::repair_reports`](crate::api::Admin::repair_reports) to the
    /// most recent `cap` reports (default 1024; `0` keeps
    /// no history at all). Evictions are counted in
    /// [`MetricsSnapshot::repair_reports_dropped`](crate::api::MetricsSnapshot::repair_reports_dropped),
    /// and
    /// [`MetricsSnapshot::repairs_completed`](crate::api::MetricsSnapshot::repairs_completed)
    /// stays exact regardless.
    pub fn repair_log_cap(mut self, cap: usize) -> StoreBuilder {
        self.options.repair_log_cap = cap;
        self
    }

    /// Enables the self-healing control plane with default tuning (see
    /// [`HealConfig`]): a heartbeat monitor that feeds per-server suspicion
    /// into [`Admin::liveness`](crate::api::Admin::liveness), and an
    /// auto-repair supervisor that drives online repairs of suspected
    /// servers with jittered exponential backoff — no operator
    /// [`Admin::repair`](crate::api::Admin::repair) call needed.
    pub fn self_heal(mut self) -> StoreBuilder {
        self.heal = Some(HealConfig::default());
        self
    }

    /// [`self_heal`](StoreBuilder::self_heal) with explicit tuning
    /// (validated at `build()`).
    pub fn self_heal_with(mut self, config: HealConfig) -> StoreBuilder {
        self.heal = Some(config);
        self
    }

    /// Installs a seeded fault-injecting transport under the router (a
    /// test/bench profile — see the
    /// [`transport`](crate::transport) module): the plan's per-link
    /// drop/duplicate/delay/reorder rules and scheduled partitions are
    /// applied to every protocol message and liveness ping. The plan is
    /// validated against the derived [`SystemParams`] at `build()`.
    /// Injected-fault counters surface in
    /// [`MetricsSnapshot`](crate::api::MetricsSnapshot). Without this call
    /// the store runs the default fault-free in-process transport.
    pub fn fault_plan(mut self, plan: FaultPlan) -> StoreBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs the cluster over an explicit [`Transport`] — the real-network
    /// path: a [`TcpTransport`](crate::transport::TcpTransport) carries
    /// every message whose destination pid lives on a peer daemon, while
    /// locally-hosted pids keep the in-process fast path. This process
    /// hosts the servers the transport's
    /// [`topology`](crate::transport::Transport::topology) calls local, and
    /// allocates client numbers from that topology's residue; the
    /// topology's `n1` / `n2` must be the params' (validated at `build()`).
    /// Mutually exclusive with [`fault_plan`](StoreBuilder::fault_plan).
    pub fn transport(mut self, transport: Arc<dyn Transport>) -> StoreBuilder {
        self.transport = Some(transport);
        self
    }

    /// Turns on the protocol flight recorder: every server shard, client
    /// and heal thread records structured events (op lifecycle and phase
    /// transitions, router sends, injected transport faults, GC,
    /// suspicion/repair) into bounded per-thread rings,
    /// merged on demand by [`Admin::trace_dump`](crate::api::Admin::trace_dump).
    /// Off by default — and when off, every recording site in the hot path
    /// costs exactly one branch on a cached flag. A ring keeps its thread's
    /// last [`DEFAULT_TRACE_EVENTS`](crate::obs::DEFAULT_TRACE_EVENTS)
    /// events; older ones are overwritten.
    pub fn trace(mut self, on: bool) -> StoreBuilder {
        self.options.trace = on;
        self
    }

    /// Validates the whole configuration and boots the deployment.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] if the quorum arithmetic is impossible
    /// (`f1 ≥ n1/2`, `f2 ≥ n2/3`, `k > d`, …), the backend cannot be
    /// constructed for the derived code parameters (e.g. product-matrix MSR
    /// needs `d ≥ 2k − 2`), the transport's topology sizes its layers
    /// differently, or a zero shard count, pipeline depth or repair timeout
    /// was requested. Nothing is spawned on error.
    pub fn build(self) -> Result<StoreHandle, StoreError> {
        let params = match self.explicit_params {
            Some(params) => params,
            None => SystemParams::for_failures(self.f1, self.f2, self.k, self.d)?,
        };
        let options = self.options;
        if options.shards == 0 {
            return Err(StoreError::InvalidConfig(
                "worker shard count must be at least 1".into(),
            ));
        }
        if options.pipeline_depth == 0 {
            return Err(StoreError::InvalidConfig(
                "pipeline depth must be at least 1".into(),
            ));
        }
        if options.repair_timeout.is_zero() {
            return Err(StoreError::InvalidConfig(
                "repair_timeout must be non-zero".into(),
            ));
        }
        if let Some(config) = &self.heal {
            config.validate().map_err(StoreError::InvalidConfig)?;
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(&params).map_err(StoreError::InvalidConfig)?;
        }
        if self.transport.is_some() && self.fault_plan.is_some() {
            return Err(StoreError::InvalidConfig(
                "transport and fault_plan are mutually exclusive".into(),
            ));
        }
        if let Some(topology) = self.transport.as_ref().and_then(|t| t.topology()) {
            if (topology.n1, topology.n2) != (params.n1(), params.n2()) {
                return Err(StoreError::InvalidConfig(format!(
                    "the transport's topology has n1 = {}, n2 = {}; the params have n1 = {}, n2 = {}",
                    topology.n1,
                    topology.n2,
                    params.n1(),
                    params.n2()
                )));
            }
        }
        let cluster = Cluster::launch(
            params,
            self.backend,
            options,
            self.fault_plan.as_ref(),
            self.transport,
            None,
        )?;
        let heal = self
            .heal
            .map(|config| HealRuntime::launch(Arc::clone(&cluster), config));
        Ok(StoreHandle { cluster, heal })
    }
}
