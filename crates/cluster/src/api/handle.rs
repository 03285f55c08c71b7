//! The built store: one handle over one running cluster.

use crate::api::{Admin, StoreClient};
use crate::node::{Cluster, ClusterOptions};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use std::sync::Arc;

/// A running LDS store, built by
/// [`StoreBuilder::build`](crate::api::StoreBuilder::build): one `n1 + n2`
/// membership and the executor that runs its server shards.
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
    /// The running deployment.
    pub(crate) cluster: Arc<Cluster>,
    /// The self-healing control plane, when built with
    /// [`StoreBuilder::self_heal`](crate::api::StoreBuilder::self_heal).
    pub(crate) heal: Option<Arc<crate::heal::HealRuntime>>,
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("backend", &self.backend())
            .field("params", &self.params())
            .finish_non_exhaustive()
    }
}

impl StoreHandle {
    /// The system parameters.
    pub fn params(&self) -> SystemParams {
        self.cluster.params()
    }

    /// The erasure-code backend the store encodes with.
    pub fn backend(&self) -> BackendKind {
        self.cluster.backend_kind()
    }

    /// The options the store was started with.
    pub fn options(&self) -> ClusterOptions {
        self.cluster.options()
    }

    /// Creates a data-plane client with the store's default pipeline depth.
    pub fn client(&self) -> StoreClient {
        self.client_with_depth(self.options().pipeline_depth)
    }

    /// Creates a data-plane client keeping at most `depth` operations in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn client_with_depth(&self, depth: usize) -> StoreClient {
        StoreClient::new(&self.cluster, depth)
    }

    /// The control-plane handle: crash injection, online repair, liveness
    /// and metrics (see [`Admin`]).
    pub fn admin(&self) -> Admin {
        Admin::new(Arc::clone(&self.cluster))
    }

    /// Stops every server thread and waits for them to exit. On a self-healing deployment the monitor and supervisor are
    /// stopped (and in-flight auto-repairs drained) first, so no repair
    /// races the teardown. Outstanding client operations fail with
    /// [`StoreError::Disconnected`](crate::api::StoreError::Disconnected).
    pub fn shutdown(&self) {
        if let Some(heal) = &self.heal {
            heal.stop();
        }
        self.cluster.shutdown();
    }
}
