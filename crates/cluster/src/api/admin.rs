//! The `Admin` control plane: crash injection, online repair, liveness,
//! inbox-depth probes and metrics, consolidated behind one handle.
//!
//! [`Admin`] addresses every server of the deployment with one
//! [`ServerRef`] — layer and index — and is the single seam a
//! failure detector drives: observe [`Admin::liveness`], decide, call
//! [`Admin::repair`].

use crate::api::StoreError;
use crate::node::Cluster;
use crate::obs::{MetricsSnapshot, TraceDump};
use crate::repair::{RepairLayer, RepairReport};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Addresses one server process of a deployment: layer + layer index.
///
/// ```rust
/// use lds_cluster::api::ServerRef;
/// use lds_cluster::RepairLayer;
///
/// let edge = ServerRef::l1(3);
/// assert_eq!((edge.layer, edge.index), (RepairLayer::L1, 3));
/// assert_eq!(ServerRef::l2(1).to_string(), "L2[1]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerRef {
    /// The server's layer.
    pub layer: RepairLayer,
    /// The server's index within its layer (`0..n1` or `0..n2`).
    pub index: usize,
}

impl ServerRef {
    /// The L1 (edge) server with layer index `index`.
    pub fn l1(index: usize) -> ServerRef {
        ServerRef {
            layer: RepairLayer::L1,
            index,
        }
    }

    /// The L2 (back-end) server with layer index `index`.
    pub fn l2(index: usize) -> ServerRef {
        ServerRef {
            layer: RepairLayer::L2,
            index,
        }
    }
}

impl fmt::Display for ServerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.layer, self.index)
    }
}

/// Liveness of every server (see [`Admin::liveness`]).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `l1[j]` is true iff L1 server `j` is live.
    pub l1: Vec<bool>,
    /// `l2[i]` is true iff L2 server `i` is live.
    pub l2: Vec<bool>,
}

impl Liveness {
    /// Whether every server is live.
    pub fn all_live(&self) -> bool {
        self.l1.iter().chain(&self.l2).all(|&b| b)
    }

    /// Crashed servers, as [`ServerRef`]s — the work list a failure detector
    /// would hand to [`Admin::repair`].
    pub fn crashed(&self) -> Vec<ServerRef> {
        let crashed = |servers: &[bool], layer| {
            let down = servers.iter().enumerate().filter(|(_, &live)| !live);
            down.map(move |(index, _)| ServerRef { layer, index })
                .collect::<Vec<_>>()
        };
        let mut down = crashed(&self.l1, RepairLayer::L1);
        down.extend(crashed(&self.l2, RepairLayer::L2));
        down
    }
}

/// The consolidated control plane of a store: one handle for crash
/// injection ([`Admin::kill`]), online repair ([`Admin::repair`]), liveness
/// ([`Admin::liveness`]), inbox-depth probes and a [`MetricsSnapshot`].
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
    cluster: Arc<Cluster>,
}

impl Admin {
    pub(crate) fn new(cluster: Arc<Cluster>) -> Admin {
        Admin { cluster }
    }

    fn check_index(&self, server: ServerRef) -> Result<(), StoreError> {
        let n = match server.layer {
            RepairLayer::L1 => self.cluster.params().n1(),
            RepairLayer::L2 => self.cluster.params().n2(),
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
    /// [`StoreError::InvalidConfig`] if `server` names an index outside the
    /// deployment.
    pub fn kill(&self, server: ServerRef) -> Result<(), StoreError> {
        self.check_index(server)?;
        self.cluster.kill_server(server.layer, server.index);
        Ok(())
    }

    /// Regenerates the crashed `server` **online**, restoring the failure
    /// budget while client traffic keeps flowing:
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
            .cluster
            .repair_server(server.layer, server.index, None)?)
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
            .cluster
            .repair_server(server.layer, server.index, Some(timeout))?)
    }

    /// Whether `server` is live (never killed, or killed and successfully
    /// repaired).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for an out-of-range reference.
    pub fn is_live(&self, server: ServerRef) -> Result<bool, StoreError> {
        self.check_index(server)?;
        Ok(self.cluster.server_is_live(server.layer, server.index))
    }

    /// Liveness of every server — the observation a failure detector feeds
    /// back into [`Admin::repair`] (see [`Liveness::crashed`]).
    ///
    /// On a self-healing deployment
    /// ([`StoreBuilder::self_heal`](crate::api::StoreBuilder::self_heal))
    /// this reports the heartbeat monitor's *suspicion* view: a server is
    /// live here iff its beats are fresh, so a crash shows up only after the
    /// detection latency (`beat_interval × suspicion_intervals`) and a
    /// repaired server reappears on its first beat. [`Admin::is_live`]
    /// always reads the engine's crash-injection ground truth.
    pub fn liveness(&self) -> Liveness {
        Liveness {
            l1: self.cluster.live_servers(RepairLayer::L1).collect(),
            l2: self.cluster.live_servers(RepairLayer::L2).collect(),
        }
    }

    /// Messages currently queued per L1 server inbox: `depths[j]` is the
    /// queue length of L1 server `j` (summed over its worker shards). A
    /// persistently deep inbox identifies a saturated server.
    pub fn inbox_depths(&self) -> Vec<usize> {
        let n1 = self.cluster.params().n1();
        (0..n1).map(|j| self.cluster.l1_inbox_depth(j)).collect()
    }

    /// Reports of every successful online repair since the store started,
    /// in completion order.
    pub fn repair_reports(&self) -> Vec<RepairReport> {
        self.cluster.repair_log()
    }

    /// A point-in-time snapshot of the deployment's occupancy, health and
    /// latency metrics — the payload `ldsd`'s `/metrics` exports, each field
    /// read once, from the slot its counting thread publishes into. Which
    /// families exist and what they mean is the metrics table
    /// ([`crate::obs::metrics`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.cluster.snapshot()
    }

    /// Drains the flight recorder into one time-ordered [`TraceDump`] —
    /// empty unless the store was built with
    /// [`StoreBuilder::trace`](crate::api::StoreBuilder::trace).
    ///
    /// Each call snapshots what the per-thread rings currently hold — the
    /// rings are bounded, so each holds the *most recent* events per thread
    /// (older ones are overwritten on wrap), which is exactly the
    /// flight-recorder contract: ask after something went wrong and see what
    /// led up to it. Export with [`TraceDump::to_jsonl`] or
    /// [`TraceDump::tail_jsonl`].
    pub fn trace_dump(&self) -> TraceDump {
        self.cluster.recorder().dump()
    }
}
