//! The built store: one handle over either topology.

use crate::api::{Admin, ObjectId, Store, StoreError};
use crate::client::{ClusterClient, Completion, OpTicket, Waker};
use crate::node::{Cluster, ClusterOptions};
use crate::sharded::{ShardedClient, ShardedCluster};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use lds_core::tag::Tag;
use lds_core::value::Value;
use std::sync::Arc;
use std::time::Duration;

/// Which concrete deployment a [`StoreHandle`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `n1 + n2` membership ([`Cluster`]).
    Single,
    /// `clusters` independent memberships behind a consistent hash
    /// ([`ShardedCluster`]).
    Sharded {
        /// Number of independent cluster shards.
        clusters: usize,
    },
}

#[derive(Clone)]
pub(crate) enum Topo {
    Single(Arc<Cluster>),
    Sharded(Arc<ShardedCluster>),
}

/// A running LDS store, built by
/// [`StoreBuilder::build`](crate::api::StoreBuilder::build): one handle type
/// whether the deployment is a single cluster or N sharded clusters.
///
/// `StoreHandle` is cheaply cloneable (it wraps shared ownership of the
/// deployment) and `Send + Sync`, so application threads clone it and create
/// their own [`StoreClient`]s:
///
/// ```rust
/// use lds_cluster::api::{ObjectId, Store, StoreBuilder};
///
/// let store = StoreBuilder::new().build().unwrap();
/// let worker = {
///     let store = store.clone();
///     std::thread::spawn(move || {
///         let mut client = store.client();
///         client.write(ObjectId(1), b"from a worker thread").unwrap()
///     })
/// };
/// let tag = worker.join().unwrap();
/// let mut client = store.client();
/// assert_eq!(client.read(ObjectId(1)).unwrap(), b"from a worker thread");
/// assert!(client.last_tag().unwrap() >= tag);
/// store.shutdown();
/// ```
#[derive(Clone)]
pub struct StoreHandle {
    pub(crate) topo: Topo,
    pub(crate) backend: BackendKind,
    /// The self-healing control plane, when built with
    /// [`StoreBuilder::self_heal`](crate::api::StoreBuilder::self_heal).
    pub(crate) heal: Option<Arc<crate::heal::HealRuntime>>,
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("topology", &self.topology())
            .field("backend", &self.backend)
            .field("params", &self.params())
            .finish_non_exhaustive()
    }
}

impl StoreHandle {
    /// The deployment's topology.
    pub fn topology(&self) -> Topology {
        match &self.topo {
            Topo::Single(_) => Topology::Single,
            Topo::Sharded(s) => Topology::Sharded {
                clusters: s.shard_count(),
            },
        }
    }

    /// Number of independent cluster shards (1 on a single cluster).
    pub fn clusters(&self) -> usize {
        match &self.topo {
            Topo::Single(_) => 1,
            Topo::Sharded(s) => s.shard_count(),
        }
    }

    /// The per-cluster system parameters.
    pub fn params(&self) -> SystemParams {
        match &self.topo {
            Topo::Single(c) => c.params(),
            Topo::Sharded(s) => s.shard(0).params(),
        }
    }

    /// The erasure-code backend the store encodes with.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The options every cluster was started with.
    pub fn options(&self) -> ClusterOptions {
        match &self.topo {
            Topo::Single(c) => c.options(),
            Topo::Sharded(s) => s.options(),
        }
    }

    /// Creates a data-plane client with the store's default pipeline depth.
    pub fn client(&self) -> StoreClient {
        self.client_with_depth(self.options().pipeline_depth)
    }

    /// Creates a data-plane client keeping at most `depth` operations in
    /// flight (on a sharded topology the budget is split across the
    /// per-shard handles).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn client_with_depth(&self, depth: usize) -> StoreClient {
        let inner = match &self.topo {
            Topo::Single(c) => ClientInner::Single(Box::new(c.client_with_depth(depth))),
            Topo::Sharded(s) => ClientInner::Sharded(Box::new(s.client_with_depth(depth))),
        };
        StoreClient { inner }
    }

    /// The control-plane handle: crash injection, online repair, liveness
    /// and metrics (see [`Admin`]).
    pub fn admin(&self) -> Admin {
        match &self.topo {
            Topo::Single(c) => Admin::for_cluster(Arc::clone(c)),
            Topo::Sharded(s) => Admin::for_sharded(Arc::clone(s)),
        }
    }

    /// Stops every server thread of every cluster and waits for them to
    /// exit. On a self-healing deployment the monitor and supervisor are
    /// stopped (and in-flight auto-repairs drained) first, so no repair
    /// races the teardown. Outstanding client operations fail with
    /// [`StoreError::Disconnected`](crate::api::StoreError::Disconnected).
    pub fn shutdown(&self) {
        if let Some(heal) = &self.heal {
            heal.stop();
        }
        match &self.topo {
            Topo::Single(c) => c.shutdown(),
            Topo::Sharded(s) => s.shutdown(),
        }
    }
}

enum ClientInner {
    Single(Box<ClusterClient>),
    Sharded(Box<ShardedClient>),
}

/// A topology-erased data-plane client produced by [`StoreHandle::client`].
///
/// Implements [`Store`] by delegating to the underlying [`ClusterClient`] or
/// [`ShardedClient`]; import the trait to use it:
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
    inner: ClientInner,
}

macro_rules! delegate {
    ($self:ident, $client:ident => $body:expr) => {
        match &mut $self.inner {
            ClientInner::Single($client) => $body,
            ClientInner::Sharded($client) => $body,
        }
    };
    (ref $self:ident, $client:ident => $body:expr) => {
        match &$self.inner {
            ClientInner::Single($client) => $body,
            ClientInner::Sharded($client) => $body,
        }
    };
}

impl Store for StoreClient {
    fn write(&mut self, key: ObjectId, value: &[u8]) -> Result<Tag, StoreError> {
        delegate!(self, c => Store::write(c.as_mut(), key, value))
    }

    fn read(&mut self, key: ObjectId) -> Result<Vec<u8>, StoreError> {
        delegate!(self, c => Store::read(c.as_mut(), key))
    }

    fn submit_write(&mut self, key: ObjectId, value: &[u8]) -> OpTicket {
        delegate!(self, c => Store::submit_write(c.as_mut(), key, value))
    }

    fn submit_write_value(&mut self, key: ObjectId, value: Value) -> OpTicket {
        delegate!(self, c => Store::submit_write_value(c.as_mut(), key, value))
    }

    fn submit_read(&mut self, key: ObjectId) -> OpTicket {
        delegate!(self, c => Store::submit_read(c.as_mut(), key))
    }

    fn try_submit_write(&mut self, key: ObjectId, value: &[u8]) -> Result<OpTicket, StoreError> {
        delegate!(self, c => Store::try_submit_write(c.as_mut(), key, value))
    }

    fn try_submit_read(&mut self, key: ObjectId) -> Result<OpTicket, StoreError> {
        delegate!(self, c => Store::try_submit_read(c.as_mut(), key))
    }

    fn poll(&mut self) -> Result<Vec<Completion>, StoreError> {
        delegate!(self, c => Store::poll(c.as_mut()))
    }

    fn poll_wait(&mut self, max_wait: Duration) -> Result<Vec<Completion>, StoreError> {
        delegate!(self, c => Store::poll_wait(c.as_mut(), max_wait))
    }

    fn waker(&self) -> Waker {
        delegate!(ref self, c => Store::waker(c.as_ref()))
    }

    fn wait(&mut self, ticket: OpTicket) -> Result<Completion, StoreError> {
        delegate!(self, c => Store::wait(c.as_mut(), ticket))
    }

    fn wait_next(&mut self) -> Result<Vec<Completion>, StoreError> {
        delegate!(self, c => Store::wait_next(c.as_mut()))
    }

    fn wait_all(&mut self) -> Result<Vec<Completion>, StoreError> {
        delegate!(self, c => Store::wait_all(c.as_mut()))
    }

    fn cancel_all(&mut self) {
        delegate!(self, c => Store::cancel_all(c.as_mut()))
    }

    fn set_timeout(&mut self, timeout: Duration) {
        delegate!(self, c => Store::set_timeout(c.as_mut(), timeout))
    }

    fn pending_ops(&self) -> usize {
        delegate!(ref self, c => Store::pending_ops(c.as_ref()))
    }

    fn in_flight(&self) -> usize {
        delegate!(ref self, c => Store::in_flight(c.as_ref()))
    }

    fn depth(&self) -> usize {
        delegate!(ref self, c => Store::depth(c.as_ref()))
    }

    fn last_tag(&self) -> Option<Tag> {
        delegate!(ref self, c => Store::last_tag(c.as_ref()))
    }

    fn cache_hits(&self) -> u64 {
        delegate!(ref self, c => Store::cache_hits(c.as_ref()))
    }

    fn cache_misses(&self) -> u64 {
        delegate!(ref self, c => Store::cache_misses(c.as_ref()))
    }
}
