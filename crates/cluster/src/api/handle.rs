//! The built store: one handle over a deployment of `N ≥ 1` clusters.

use crate::api::{Admin, StoreClient};
use crate::node::{Cluster, ClusterOptions};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use std::sync::Arc;

/// A running LDS store, built by
/// [`StoreBuilder::build`](crate::api::StoreBuilder::build): `N ≥ 1`
/// independent clusters, all launched with the same parameters, backend and
/// options, with keys placed by [`cluster_of`](crate::cluster_of).
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
    /// The deployment's clusters, in cluster-index order (never empty).
    pub(crate) clusters: Arc<[Arc<Cluster>]>,
    /// The self-healing control plane, when built with
    /// [`StoreBuilder::self_heal`](crate::api::StoreBuilder::self_heal).
    pub(crate) heal: Option<Arc<crate::heal::HealRuntime>>,
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("clusters", &self.clusters())
            .field("backend", &self.backend())
            .field("params", &self.params())
            .finish_non_exhaustive()
    }
}

impl StoreHandle {
    /// Number of independent clusters in the deployment.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The per-cluster system parameters.
    pub fn params(&self) -> SystemParams {
        self.clusters[0].params()
    }

    /// The erasure-code backend the store encodes with.
    pub fn backend(&self) -> BackendKind {
        self.clusters[0].backend_kind()
    }

    /// The options every cluster was started with.
    pub fn options(&self) -> ClusterOptions {
        self.clusters[0].options()
    }

    /// Creates a data-plane client with the store's default pipeline depth.
    pub fn client(&self) -> StoreClient {
        self.client_with_depth(self.options().pipeline_depth)
    }

    /// Creates a data-plane client keeping at most `depth` operations in
    /// flight — one budget for the whole deployment, however the client's
    /// keys spread over its clusters.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn client_with_depth(&self, depth: usize) -> StoreClient {
        StoreClient::new(&self.clusters, depth)
    }

    /// The control-plane handle: crash injection, online repair, liveness
    /// and metrics (see [`Admin`]).
    pub fn admin(&self) -> Admin {
        Admin::new(Arc::clone(&self.clusters))
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
        for cluster in self.clusters.iter() {
            cluster.shutdown();
        }
    }
}
