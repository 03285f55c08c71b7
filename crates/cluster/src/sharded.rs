//! Scale-out multi-cluster sharding: many independent [`Cluster`]s behind
//! one client facade.
//!
//! A single LDS membership caps throughput at one `n1 + n2` group's
//! capacity. [`ShardedCluster`] partitions the `ObjectId` space across `N`
//! independent clusters — each with its **own** L1/L2 membership, router
//! snapshot and failure budget (`f1` crashes in its L1 group, `f2` in its L2
//! group, per shard) — and [`ShardedClient`] routes every operation to the
//! cluster shard owning its object.
//!
//! # Why this preserves the paper's guarantees
//!
//! The LDS protocol is per-object: tags, the `L` lists, the committed tag
//! and the reader registry are all keyed by `ObjectId`, and linearizability
//! is per object (the paper's automaton is one atomic register per object).
//! Every object lives on exactly one cluster shard, so cross-shard
//! operations touch *different* objects and need no coordination at all —
//! composing per-object atomic registers over disjoint object sets is again
//! a collection of per-object atomic registers.
//!
//! # Placement
//!
//! Objects are placed with a **jump consistent hash** ([`cluster_of`],
//! Lamping & Veach): uniform spread, no lookup tables, and growing `N` to
//! `N + 1` moves only `1/(N + 1)` of the object space — the property that
//! makes offline resharding cheap.
//!
//! # Example
//!
//! ```rust
//! use lds_cluster::{ShardedCluster, ClusterOptions, OpOutcome};
//! use lds_core::{params::SystemParams, BackendKind};
//!
//! let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
//! // Two independent L1/L2 groups behind one facade, high-throughput knobs.
//! let sharded = ShardedCluster::start_with(
//!     2,
//!     params,
//!     BackendKind::Mbr,
//!     ClusterOptions::high_throughput(2),
//! );
//! let mut client = sharded.client_with_depth(8);
//! for obj in 0..8u64 {
//!     client.submit_write(obj, vec![obj as u8; 16]);
//! }
//! let completions = client.wait_all().unwrap();
//! assert_eq!(completions.len(), 8);
//! assert!(completions.iter().all(|c| matches!(c.outcome, OpOutcome::Write { .. })));
//! sharded.shutdown();
//! ```

use crate::client::{ClientError, ClusterClient, Completion, OpTicket, Waker, WouldBlock};
use crate::node::{Cluster, ClusterOptions};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use lds_core::tag::Tag;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cluster shard (of `clusters` many) that owns object `obj`, by jump
/// consistent hash (Lamping & Veach, 2014).
///
/// Deterministic, uniform, and *consistent*: re-evaluating with `clusters + 1`
/// moves exactly the expected `1/(clusters + 1)` fraction of keys, all of
/// them onto the new shard. Independent of the intra-cluster worker-shard
/// hash ([`crate::shard_of`]), so object partitions inside a cluster stay
/// balanced regardless of the cluster count.
///
/// # Panics
///
/// Panics if `clusters` is zero.
pub fn cluster_of(obj: u64, clusters: usize) -> usize {
    assert!(clusters > 0, "at least one cluster shard is required");
    if clusters == 1 {
        return 0;
    }
    let mut key = obj;
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < clusters as i64 {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = (((b + 1) as f64) * ((1u64 << 31) as f64 / (((key >> 33) + 1) as f64))) as i64;
    }
    b as usize
}

/// `N` independent [`Cluster`]s (each its own L1/L2 membership, router and
/// failure budget) serving disjoint partitions of the object space behind
/// one facade. See the [module docs](self).
pub struct ShardedCluster {
    shards: Vec<Arc<Cluster>>,
    options: ClusterOptions,
}

impl ShardedCluster {
    /// Starts `clusters` independent clusters with default options. Each
    /// gets its own `n1 + n2` server processes built from `params`.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or the backend cannot be constructed.
    #[deprecated(
        since = "0.1.0",
        note = "use lds_cluster::api::StoreBuilder with .clusters(n), which \
                validates the whole configuration at build() time"
    )]
    pub fn start(
        clusters: usize,
        params: SystemParams,
        backend_kind: BackendKind,
    ) -> Arc<ShardedCluster> {
        ShardedCluster::launch(clusters, params, backend_kind, ClusterOptions::default())
            .expect("backend construction for validated parameters")
    }

    /// Starts `clusters` independent clusters, each configured with
    /// `options` — composes directly with
    /// [`ClusterOptions::high_throughput`] and with bounded inboxes
    /// ([`ClusterOptions::inbox_cap`], enforced per shard).
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero, a shard count in `options` is zero, or
    /// the backend cannot be constructed.
    #[deprecated(
        since = "0.1.0",
        note = "use lds_cluster::api::StoreBuilder with .clusters(n), which \
                validates the whole configuration at build() time"
    )]
    pub fn start_with(
        clusters: usize,
        params: SystemParams,
        backend_kind: BackendKind,
        options: ClusterOptions,
    ) -> Arc<ShardedCluster> {
        ShardedCluster::launch(clusters, params, backend_kind, options)
            .expect("backend construction for validated parameters")
    }

    /// Engine entry point behind [`crate::api::StoreBuilder`] (and the
    /// deprecated `start`/`start_with` wrappers): boots `clusters`
    /// independent clusters, surfacing backend-construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or a shard count in `options` is zero
    /// (the builder validates both before calling).
    pub(crate) fn launch(
        clusters: usize,
        params: SystemParams,
        backend_kind: BackendKind,
        options: ClusterOptions,
    ) -> Result<Arc<ShardedCluster>, lds_codes::CodeError> {
        ShardedCluster::launch_with_plan(clusters, params, backend_kind, options, None)
    }

    /// [`ShardedCluster::launch`] with an optional fault plan. Every cluster
    /// shard gets its own fault-injecting transport with an independent
    /// fault stream: shard `c` runs the plan reseeded with a golden-ratio
    /// offset of `c`, so identical shards do not inject identical faults in
    /// lockstep (shard 0 keeps the plan's original seed).
    pub(crate) fn launch_with_plan(
        clusters: usize,
        params: SystemParams,
        backend_kind: BackendKind,
        options: ClusterOptions,
        fault_plan: Option<&crate::transport::FaultPlan>,
    ) -> Result<Arc<ShardedCluster>, lds_codes::CodeError> {
        assert!(clusters > 0, "at least one cluster shard is required");
        let shards = (0..clusters)
            .map(|c| {
                let shard_plan = fault_plan.map(|plan| {
                    plan.reseeded(
                        plan.seed
                            .wrapping_add((c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )
                });
                Cluster::launch_with_plan(params, backend_kind, options, shard_plan.as_ref())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Arc::new(ShardedCluster { shards, options }))
    }

    /// Number of cluster shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cluster shard that owns object `obj`.
    pub fn shard_for(&self, obj: u64) -> usize {
        cluster_of(obj, self.shards.len())
    }

    /// The underlying cluster of shard `index` (for probes and fault
    /// injection, e.g. [`Cluster::kill_l1`]).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn shard(&self, index: usize) -> &Arc<Cluster> {
        &self.shards[index]
    }

    /// Regenerates the killed L1 server `index` of cluster shard `shard`
    /// online; the shard's `f1` failure budget is restored. Other shards are
    /// unaffected throughout.
    ///
    /// # Errors
    ///
    /// As for the L1 arm of [`crate::api::Admin::repair`].
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[deprecated(
        since = "0.1.0",
        note = "use lds_cluster::api::Admin::repair with \
                ServerRef::l1(index).in_cluster(shard)"
    )]
    pub fn repair_l1(
        &self,
        shard: usize,
        index: usize,
    ) -> Result<crate::RepairReport, crate::RepairError> {
        self.shards[shard].repair_server(crate::RepairLayer::L1, index)
    }

    /// Regenerates the killed L2 server `index` of cluster shard `shard`
    /// online at the backend's repair bandwidth.
    ///
    /// # Errors
    ///
    /// As for the L2 arm of [`crate::api::Admin::repair`].
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[deprecated(
        since = "0.1.0",
        note = "use lds_cluster::api::Admin::repair with \
                ServerRef::l2(index).in_cluster(shard)"
    )]
    pub fn repair_l2(
        &self,
        shard: usize,
        index: usize,
    ) -> Result<crate::RepairReport, crate::RepairError> {
        self.shards[shard].repair_server(crate::RepairLayer::L2, index)
    }

    /// The control-plane handle for this sharded deployment: crash
    /// injection, online repair, liveness and metrics for every cluster
    /// shard through one [`crate::api::Admin`] facade ([`ServerRef`]s carry
    /// the shard index).
    ///
    /// [`ServerRef`]: crate::api::ServerRef
    pub fn admin(self: &Arc<Self>) -> crate::api::Admin {
        crate::api::Admin::for_sharded(Arc::clone(self))
    }

    /// The options every shard was started with.
    pub fn options(&self) -> ClusterOptions {
        self.options
    }

    /// Per-tag metadata entries across every L1 server of every shard
    /// (aggregated [`Cluster::total_l1_metadata_entries`]).
    pub fn total_l1_metadata_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|c| c.total_l1_metadata_entries())
            .sum()
    }

    /// Temporary-storage bytes across every L1 server of every shard
    /// (aggregated [`Cluster::total_l1_temporary_bytes`]).
    pub fn total_l1_temporary_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|c| c.total_l1_temporary_bytes())
            .sum()
    }

    /// The largest queue length any single L1 worker-shard inbox has
    /// reached, across every server of every shard.
    pub fn max_l1_inbox_depth(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|c| (0..c.params().n1()).map(|j| c.l1_max_inbox_depth(j)))
            .max()
            .unwrap_or(0)
    }

    /// Creates a facade client with the per-shard default pipeline depth.
    pub fn client(self: &Arc<Self>) -> ShardedClient {
        self.client_with_depth(self.options.pipeline_depth)
    }

    /// Creates a facade client keeping at most ~`depth` operations in
    /// flight in total: the budget is split evenly across the per-shard
    /// handles (each gets at least one slot).
    pub fn client_with_depth(self: &Arc<Self>, depth: usize) -> ShardedClient {
        assert!(depth > 0, "pipeline depth must be at least 1");
        let per_shard = depth.div_ceil(self.shards.len()).max(1);
        let clients = self
            .shards
            .iter()
            .map(|c| c.client_with_depth(per_shard))
            .collect();
        ShardedClient {
            clients,
            depth,
            next_ticket: 0,
            facade_to_inner: HashMap::new(),
            inner_to_facade: vec![HashMap::new(); self.shards.len()],
            stash: Vec::new(),
            timeout: Duration::from_secs(10),
            woken: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Stops every server thread of every shard and waits for them to exit.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.shutdown();
        }
    }
}

/// How long [`ShardedClient::wait_next`] blocks on one shard before giving
/// the other shards a turn.
const WAIT_SLICE: Duration = Duration::from_millis(1);

/// A client of a [`ShardedCluster`]: one [`ClusterClient`] per cluster
/// shard behind the same pipelined `submit / poll / wait` API, with
/// operations routed by [`cluster_of`] and tickets minted in one
/// facade-wide submission order.
///
/// Semantics match [`ClusterClient`]: same-object operations are FIFO (an
/// object lives on exactly one shard, so its inner handle serializes them),
/// distinct objects overlap — now across shards as well as within one. A
/// [`ClientError::Timeout`] from any wait aborts every outstanding operation
/// on every shard.
pub struct ShardedClient {
    clients: Vec<ClusterClient>,
    depth: usize,
    next_ticket: u64,
    /// Facade ticket → (shard, inner ticket) for every unharvested op.
    facade_to_inner: HashMap<OpTicket, (usize, OpTicket)>,
    /// Inner ticket → facade ticket, per shard.
    inner_to_facade: Vec<HashMap<OpTicket, OpTicket>>,
    /// Harvested-but-undelivered completions (facade ticket order restored
    /// by the wait_* methods where required).
    stash: Vec<Completion>,
    timeout: Duration,
    /// Set by this facade's [`Waker`]s; see [`ShardedClient::poll_wait`].
    woken: Arc<AtomicBool>,
}

impl ShardedClient {
    /// Sets the timeout for each blocking wait, on this facade and every
    /// per-shard handle.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
        for client in &mut self.clients {
            client.set_timeout(timeout);
        }
    }

    /// The total pipeline budget requested at construction.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of cluster shards this client fans out over.
    pub fn shard_count(&self) -> usize {
        self.clients.len()
    }

    /// The cluster shard that owns object `obj`.
    pub fn shard_for(&self, obj: u64) -> usize {
        cluster_of(obj, self.clients.len())
    }

    /// Operations submitted but not yet harvested, across all shards.
    pub fn pending_ops(&self) -> usize {
        self.stash.len()
            + self
                .clients
                .iter()
                .map(ClusterClient::pending_ops)
                .sum::<usize>()
    }

    /// Operations currently dispatched into automata, across all shards.
    pub fn in_flight(&self) -> usize {
        self.clients.iter().map(ClusterClient::in_flight).sum()
    }

    /// The tag of the most recently completed operation on any shard.
    /// Tags of *different* objects (and thus different shards) are not
    /// mutually ordered; this is a debugging aid, not a consistency anchor.
    pub fn last_tag(&self) -> Option<Tag> {
        self.clients
            .iter()
            .filter_map(ClusterClient::last_tag)
            .max()
    }

    /// Reads served from the per-shard tag-validated caches (summed across
    /// shards). Always 0 unless
    /// [`crate::ClusterOptions::read_cache_entries`] is non-zero.
    pub fn cache_hits(&self) -> u64 {
        self.clients.iter().map(ClusterClient::cache_hits).sum()
    }

    /// Cache-enabled reads that ran the full data-transfer phase (summed
    /// across shards; the complement of [`ShardedClient::cache_hits`]).
    pub fn cache_misses(&self) -> u64 {
        self.clients.iter().map(ClusterClient::cache_misses).sum()
    }

    // ------------------------------------------------------------------
    // Pipelined API (mirrors `ClusterClient`).
    // ------------------------------------------------------------------

    /// Enqueues a write of `value` to object `obj` on the owning shard and
    /// returns its facade ticket.
    pub fn submit_write(&mut self, obj: u64, value: Vec<u8>) -> OpTicket {
        self.submit_write_value(obj, lds_core::value::Value::new(value))
    }

    /// Enqueues a write of an already-framed [`lds_core::value::Value`] —
    /// the zero-copy submission path (see
    /// [`crate::ClusterClient::submit_write_value`]).
    pub fn submit_write_value(&mut self, obj: u64, value: lds_core::value::Value) -> OpTicket {
        let shard = self.shard_for(obj);
        let inner = self.clients[shard].submit_write_value(obj, value);
        self.map_ticket(shard, inner)
    }

    /// Enqueues a read of object `obj` on the owning shard and returns its
    /// facade ticket.
    pub fn submit_read(&mut self, obj: u64) -> OpTicket {
        let shard = self.shard_for(obj);
        let inner = self.clients[shard].submit_read(obj);
        self.map_ticket(shard, inner)
    }

    /// Starts a write right now on the owning shard or refuses with
    /// [`WouldBlock`] — never queues (see
    /// [`ClusterClient::try_submit_write`]).
    pub fn try_submit_write(&mut self, obj: u64, value: &[u8]) -> Result<OpTicket, WouldBlock> {
        let shard = self.shard_for(obj);
        let inner = self.clients[shard].try_submit_write(obj, value)?;
        Ok(self.map_ticket(shard, inner))
    }

    /// Starts a read right now on the owning shard or refuses with
    /// [`WouldBlock`].
    pub fn try_submit_read(&mut self, obj: u64) -> Result<OpTicket, WouldBlock> {
        let shard = self.shard_for(obj);
        let inner = self.clients[shard].try_submit_read(obj)?;
        Ok(self.map_ticket(shard, inner))
    }

    /// Processes every message already available on every shard without
    /// blocking and returns the completions harvested so far.
    pub fn poll(&mut self) -> Result<Vec<Completion>, ClientError> {
        self.harvest_all()?;
        Ok(std::mem::take(&mut self.stash))
    }

    /// Blocks up to `max_wait` for a completion on any shard and returns
    /// whatever was harvested (possibly nothing; at once when nothing is
    /// outstanding). Expiry is *not* an error and aborts nothing — see
    /// [`ClusterClient::poll_wait`]. A [`Waker::wake`] from another thread
    /// ends the wait within one multiplexing slice (1 ms).
    pub fn poll_wait(&mut self, max_wait: Duration) -> Result<Vec<Completion>, ClientError> {
        let done = self.harvest_until(Instant::now() + max_wait);
        // Cleared on the way out only (see `ClusterClient::poll_wait`).
        self.woken.swap(false, Ordering::SeqCst);
        done
    }

    /// A handle that wakes this client out of [`ShardedClient::poll_wait`]
    /// from another thread: it pings every shard's handle, so whichever one
    /// the facade is parked on returns.
    pub fn waker(&self) -> Waker {
        let inboxes = self.clients.iter().map(|c| c.inbox_sender()).collect();
        Waker::new(Arc::clone(&self.woken), inboxes)
    }

    /// Blocks until at least one completion is available on any shard (or
    /// nothing is outstanding) and returns all harvested completions.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] aborts every outstanding operation on every
    /// shard; [`ClientError::Disconnected`] after shutdown.
    pub fn wait_next(&mut self) -> Result<Vec<Completion>, ClientError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            let done = self.harvest_until(deadline)?;
            if !done.is_empty() || self.facade_to_inner.is_empty() {
                return Ok(done);
            }
            if Instant::now() >= deadline {
                return Err(self.fail(ClientError::Timeout));
            }
        }
    }

    /// The multiplexed wait under [`ShardedClient::poll_wait`] and
    /// [`ShardedClient::wait_next`]: harvests every shard, and while nothing
    /// is ready gives each shard with outstanding work a short blocking
    /// slice so one slow shard cannot starve the others. Returns the
    /// completions at hand — empty once nothing is outstanding, `deadline`
    /// has passed, or a [`Waker`] fired.
    fn harvest_until(&mut self, deadline: Instant) -> Result<Vec<Completion>, ClientError> {
        loop {
            self.harvest_all()?;
            if !self.stash.is_empty() || self.facade_to_inner.is_empty() {
                return Ok(std::mem::take(&mut self.stash));
            }
            for shard in 0..self.clients.len() {
                if self.clients[shard].pending_ops() == 0 {
                    continue;
                }
                let done = match self.clients[shard].poll_wait(WAIT_SLICE) {
                    Ok(done) => done,
                    Err(e) => return Err(self.fail(e)),
                };
                self.translate(shard, done);
                if !self.stash.is_empty() {
                    return Ok(std::mem::take(&mut self.stash));
                }
            }
            if self.woken.load(Ordering::SeqCst) || Instant::now() >= deadline {
                return Ok(Vec::new());
            }
        }
    }

    /// Blocks until the operation behind `ticket` completes and returns its
    /// completion; completions of other operations harvested along the way
    /// are retained for later `poll`/`wait` calls.
    ///
    /// # Errors
    ///
    /// As for [`ClusterClient::wait`]; a timeout aborts every outstanding
    /// operation on every shard.
    pub fn wait(&mut self, ticket: OpTicket) -> Result<Completion, ClientError> {
        if let Some(i) = self.stash.iter().position(|c| c.ticket == ticket) {
            return Ok(self.stash.remove(i));
        }
        let Some(&(shard, inner)) = self.facade_to_inner.get(&ticket) else {
            return Err(ClientError::UnknownTicket);
        };
        match self.clients[shard].wait(inner) {
            Ok(c) => {
                self.facade_to_inner.remove(&ticket);
                self.inner_to_facade[shard].remove(&inner);
                Ok(Completion { ticket, ..c })
            }
            Err(e) => Err(self.fail(e)),
        }
    }

    /// Blocks until every submitted operation has completed on every shard
    /// and returns all harvested completions in facade-ticket (submission)
    /// order. The configured timeout is one shared budget for the whole
    /// call, not per shard: each inner drain gets only the time remaining.
    ///
    /// # Errors
    ///
    /// As for [`ClusterClient::wait_all`]; a timeout aborts every
    /// outstanding operation on every shard.
    pub fn wait_all(&mut self) -> Result<Vec<Completion>, ClientError> {
        let deadline = Instant::now() + self.timeout;
        for shard in 0..self.clients.len() {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(self.fail(ClientError::Timeout));
            };
            self.clients[shard].set_timeout(remaining);
            let result = self.clients[shard].wait_all();
            self.clients[shard].set_timeout(self.timeout);
            let done = match result {
                Ok(done) => done,
                Err(e) => return Err(self.fail(e)),
            };
            self.translate(shard, done);
        }
        let mut done = std::mem::take(&mut self.stash);
        done.sort_by_key(|c| c.ticket);
        Ok(done)
    }

    /// Abandons every outstanding operation on every shard (tickets
    /// forgotten, admission tokens returned). Completions already harvested
    /// are retained for the next `poll`.
    pub fn cancel_all(&mut self) {
        // Pull completions that already arrived before forgetting tickets.
        let _ = self.harvest_all();
        for client in &mut self.clients {
            client.cancel_all();
        }
        self.facade_to_inner.clear();
        for map in &mut self.inner_to_facade {
            map.clear();
        }
    }

    // ------------------------------------------------------------------
    // Blocking wrappers.
    // ------------------------------------------------------------------

    /// Writes `value` to object `obj` on its owning shard, blocking until
    /// the write is atomic-committed there.
    ///
    /// # Errors
    ///
    /// As for [`ClusterClient::write`].
    pub fn write(&mut self, obj: u64, value: Vec<u8>) -> Result<Tag, ClientError> {
        let ticket = self.submit_write(obj, value);
        match self.wait(ticket)?.outcome {
            crate::OpOutcome::Write { tag } => Ok(tag),
            crate::OpOutcome::Read { .. } => unreachable!("write ticket yielded a read outcome"),
        }
    }

    /// Reads object `obj` from its owning shard, blocking until the read
    /// completes.
    ///
    /// # Errors
    ///
    /// As for [`ClusterClient::read`].
    pub fn read(&mut self, obj: u64) -> Result<Vec<u8>, ClientError> {
        let ticket = self.submit_read(obj);
        match self.wait(ticket)?.outcome {
            crate::OpOutcome::Read { value, .. } => Ok(value),
            crate::OpOutcome::Write { .. } => unreachable!("read ticket yielded a write outcome"),
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn map_ticket(&mut self, shard: usize, inner: OpTicket) -> OpTicket {
        let facade = OpTicket::from_raw(self.next_ticket);
        self.next_ticket += 1;
        self.facade_to_inner.insert(facade, (shard, inner));
        self.inner_to_facade[shard].insert(inner, facade);
        facade
    }

    /// Moves inner completions into the facade stash under facade tickets.
    fn translate(&mut self, shard: usize, completions: Vec<Completion>) {
        for c in completions {
            let facade = self.inner_to_facade[shard]
                .remove(&c.ticket)
                .expect("completion for a facade-mapped ticket");
            self.facade_to_inner.remove(&facade);
            self.stash.push(Completion {
                ticket: facade,
                ..c
            });
        }
    }

    /// Non-blocking harvest over every shard.
    fn harvest_all(&mut self) -> Result<(), ClientError> {
        for shard in 0..self.clients.len() {
            let done = match self.clients[shard].poll() {
                Ok(done) => done,
                Err(e) => return Err(self.fail(e)),
            };
            self.translate(shard, done);
        }
        Ok(())
    }

    /// Applies facade-wide failure semantics: a timeout on one shard aborts
    /// the outstanding work on every shard (matching the single-cluster
    /// handle, where a timeout aborts the whole handle).
    fn fail(&mut self, e: ClientError) -> ClientError {
        if e == ClientError::Timeout {
            self.cancel_all();
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpOutcome;

    fn params() -> SystemParams {
        SystemParams::for_failures(1, 1, 2, 3).unwrap()
    }

    #[test]
    fn jump_hash_is_uniform_and_consistent() {
        // Uniform-ish: every shard owns a reasonable share of 10k keys.
        for clusters in [2usize, 3, 5, 8] {
            let mut counts = vec![0usize; clusters];
            for obj in 0..10_000u64 {
                counts[cluster_of(obj, clusters)] += 1;
            }
            for (s, &n) in counts.iter().enumerate() {
                let expected = 10_000 / clusters;
                assert!(
                    n > expected / 2 && n < expected * 2,
                    "shard {s} of {clusters} owns {n} keys"
                );
            }
        }
        // Consistent: growing N to N+1 only moves keys onto the new shard.
        for clusters in 1usize..8 {
            let mut moved = 0usize;
            for obj in 0..10_000u64 {
                let before = cluster_of(obj, clusters);
                let after = cluster_of(obj, clusters + 1);
                if before != after {
                    assert_eq!(after, clusters, "keys only move to the new shard");
                    moved += 1;
                }
            }
            // Expected moved fraction is 1/(clusters+1).
            let expected = 10_000 / (clusters + 1);
            assert!(
                moved > expected / 2 && moved < expected * 2,
                "{moved} of 10k keys moved going from {clusters} to {} shards",
                clusters + 1
            );
        }
    }

    #[test]
    fn facade_routes_blocking_ops_to_owning_shards() {
        let sharded = ShardedCluster::launch(
            2,
            params(),
            BackendKind::Replication,
            ClusterOptions::default(),
        )
        .unwrap();
        let mut client = sharded.client();
        for obj in 0..8u64 {
            let tag = client
                .write(obj, format!("value {obj}").into_bytes())
                .unwrap();
            assert!(tag > Tag::initial());
            assert_eq!(
                client.read(obj).unwrap(),
                format!("value {obj}").into_bytes()
            );
        }
        // Both shards saw traffic: their L1 servers hold committed state.
        for s in 0..2 {
            let occupied = (0..8u64).any(|obj| cluster_of(obj, 2) == s);
            assert!(occupied, "8 consecutive objects span both shards");
        }
        drop(client);
        sharded.shutdown();
    }

    #[test]
    fn facade_pipelines_across_shards_and_orders_tickets() {
        let sharded =
            ShardedCluster::launch(3, params(), BackendKind::Mbr, ClusterOptions::default())
                .unwrap();
        let mut client = sharded.client_with_depth(12);
        for obj in 0..12u64 {
            client.submit_write(obj, format!("w{obj}").into_bytes());
        }
        for obj in 0..12u64 {
            client.submit_read(obj);
        }
        let completions = client.wait_all().unwrap();
        assert_eq!(completions.len(), 24);
        // wait_all returns facade submission order.
        let tickets: Vec<OpTicket> = completions.iter().map(|c| c.ticket).collect();
        let mut sorted = tickets.clone();
        sorted.sort();
        assert_eq!(tickets, sorted);
        // Same-object FIFO holds across the facade: every read (second half)
        // observes its object's write (first half).
        for c in &completions[12..] {
            match &c.outcome {
                OpOutcome::Read { value, .. } => {
                    assert_eq!(value, &format!("w{}", c.obj).into_bytes());
                }
                other => panic!("expected read outcome, got {other:?}"),
            }
        }
        drop(client);
        sharded.shutdown();
    }

    #[test]
    fn facade_wait_and_poll_mirror_cluster_client() {
        let sharded = ShardedCluster::launch(
            2,
            params(),
            BackendKind::Replication,
            ClusterOptions::default(),
        )
        .unwrap();
        let mut client = sharded.client_with_depth(8);
        let t0 = client.submit_write(0, b"a".to_vec());
        let t1 = client.submit_write(1, b"b".to_vec());
        let c1 = client.wait(t1).unwrap();
        assert_eq!(c1.ticket, t1);
        let c0 = client.wait(t0).unwrap();
        assert_eq!(c0.ticket, t0);
        assert_eq!(client.wait(t0), Err(ClientError::UnknownTicket));
        assert_eq!(client.pending_ops(), 0);
        drop(client);
        sharded.shutdown();
    }

    #[test]
    fn facade_survives_tolerated_failures_per_shard() {
        let sharded =
            ShardedCluster::launch(2, params(), BackendKind::Mbr, ClusterOptions::default())
                .unwrap();
        // Kill f1 = 1 L1 server in *each* shard: every partition still has
        // its quorums.
        sharded.shard(0).kill_server(crate::RepairLayer::L1, 0);
        sharded.shard(1).kill_server(crate::RepairLayer::L1, 3);
        let mut client = sharded.client();
        for obj in 0..6u64 {
            client.write(obj, b"resilient".to_vec()).unwrap();
            assert_eq!(client.read(obj).unwrap(), b"resilient");
        }
        drop(client);
        sharded.shutdown();
    }

    #[test]
    fn facade_wait_next_harvests_from_any_shard() {
        let sharded = ShardedCluster::launch(
            2,
            params(),
            BackendKind::Replication,
            ClusterOptions::default(),
        )
        .unwrap();
        let mut client = sharded.client_with_depth(8);
        for obj in 0..8u64 {
            client.submit_write(obj, vec![obj as u8; 8]);
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
        sharded.shutdown();
    }
}
