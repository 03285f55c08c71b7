//! # lds-cluster
//!
//! A thread-based, in-process cluster runtime for the LDS protocol, built
//! for throughput.
//!
//! The protocol automata in `lds-core` are sans-IO state machines; this crate
//! drives the *same* implementations used by the simulator over real OS
//! threads and [`sync::channel`]s, giving a deployment with genuine
//! concurrency and non-deterministic message interleavings:
//!
//! * every L1 and L2 server runs as one or more **worker shards** —
//!   automata that own disjoint partitions of the object space
//!   (hash-routed), so independent objects are processed in parallel inside
//!   one node ([`ClusterOptions::l1_shards`] /
//!   [`ClusterOptions::l2_shards`]);
//! * the shard automata of a cluster run **to completion on
//!   `min(cores, shards)` worker threads**: a worker sweeps the inboxes it
//!   hosts and parks only when all are empty, a sender rings the worker
//!   after enqueueing — one atomic load while it is awake — so a message
//!   between busy servers costs no system call;
//! * message routing uses an **epoch-swapped immutable snapshot** table:
//!   steady-state sends take no lock at all, and each node flushes its
//!   outgoing messages as one batch per protocol step;
//! * clients are handles ([`StoreClient`]) usable from any thread, with
//!   both blocking and **pipelined** operation;
//! * servers can be killed at runtime to exercise crash-fault tolerance, and
//!   **repaired online** ([`Admin::kill`] / [`Admin::repair`]): a
//!   replacement rejoins under the same process id, regenerates its state
//!   from live helpers — at MBR repair bandwidth for L2 coded elements —
//!   catches up in-flight writes, and restores the failure budget, all under
//!   concurrent client traffic (see the [`repair`] module);
//! * with the **self-healing control plane**
//!   ([`api::StoreBuilder::self_heal`]) the deployment detects crashes
//!   itself — a heartbeat monitor turns stale beats into per-server
//!   suspicion feeding [`api::Admin::liveness`] — and repairs itself: a
//!   supervisor drives online repairs under a concurrency budget with
//!   jittered exponential backoff (see the [`heal`] module);
//! * a shard's turn flushes all outgoing traffic in one pass, grouping
//!   same-destination metadata — notably the per-write **COMMIT-TAG
//!   broadcasts** — into one locked append per peer shard per flush, with
//!   one wake-up ([`router::RouterHandle::send_batch`]); an envelope is
//!   one message, so the in-process message path allocates nothing beyond
//!   the payloads;
//! * a client's work in flight is bounded by its own pipeline depth:
//!   [`Store::try_submit_write`] / [`Store::try_submit_read`] return
//!   [`StoreError::WouldBlock`] at that depth or on a key with an operation
//!   in flight; there is no admission step and every inbox is unbounded.
//!
//! # The public surface: the [`api`] module
//!
//! Applications program against the [`api`] module — [`StoreBuilder`] to
//! construct (named profiles replace options literals, everything validated
//! at `build()`), the
//! [`Store`] trait for the data plane (typed [`ObjectId`] keys, borrowed
//! `&[u8]` values, blocking and pipelined operation), and [`Admin`] for the
//! control plane (crash injection, online repair, liveness, metrics). It is
//! the only way in: a cluster is launched by the builder, its clients
//! are created by [`StoreHandle::client`], and its servers are killed and
//! repaired through [`Admin`].
//!
//! # Blocking usage
//!
//! ```rust
//! use lds_cluster::api::{ObjectId, Store, StoreBuilder};
//!
//! let store = StoreBuilder::new().failures(1, 1).code(2, 3).build().unwrap();
//! let mut alice = store.client();
//! let mut bob = store.client();
//!
//! alice.write(ObjectId(0), b"hello from a real thread").unwrap();
//! let value = bob.read(ObjectId(0)).unwrap();
//! assert_eq!(value, b"hello from a real thread");
//! store.shutdown();
//! ```
//!
//! # Pipelined usage
//!
//! One client handle can keep up to `depth` operations in flight.
//! Operations are submitted with [`Store::submit_write`] /
//! [`Store::submit_read`], which return an [`OpTicket`] immediately;
//! completions are harvested with [`Store::poll`] (non-blocking),
//! [`Store::wait_next`] (block for the next batch), [`Store::wait`] (one
//! ticket) or [`Store::wait_all`]. Operations on the same object keep
//! submission (FIFO) order — preserving per-writer tag monotonicity and
//! read-your-writes — while operations on distinct objects overlap freely:
//!
//! ```rust
//! use lds_cluster::api::{ObjectId, Store, StoreBuilder};
//! use lds_cluster::OpOutcome;
//!
//! let store = StoreBuilder::new()
//!     .l1_shards(2) // two worker shards per L1 server
//!     .build()
//!     .unwrap();
//! let mut client = store.client_with_depth(8);
//!
//! let tickets: Vec<_> = (0..8u64)
//!     .map(|obj| client.submit_write(ObjectId(obj), &[obj as u8; 16]))
//!     .collect();
//! let completions = client.wait_all().unwrap();
//! assert_eq!(completions.len(), tickets.len());
//! for c in &completions {
//!     assert!(matches!(c.outcome, OpOutcome::Write { .. }));
//! }
//! store.shutdown();
//! ```

// The one exception is `transport::sys`: the `poll(2)` / `eventfd(2)`
// declarations the mesh's readiness loop needs.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
mod executor;
pub mod heal;
pub mod node;
pub mod obs;
pub mod repair;
pub mod router;
pub mod sync;
pub mod transport;

pub use api::{
    Admin, Liveness, MetricsSnapshot, ObjectId, ServerRef, Store, StoreBuilder, StoreClient,
    StoreError, StoreHandle,
};
pub use client::{Completion, OpOutcome, OpTicket, Waker};
pub use heal::HealConfig;
pub use node::{ClusterOptions, HostScope};
pub use obs::{EventKind, FlightRecorder, HistSnapshot, TraceDump, TraceEvent, TraceHandle};
pub use repair::{RepairError, RepairLayer, RepairReport};
pub use router::shard_of;
pub use transport::{
    Decision, Endpoint, FaultCounters, FaultPlan, FaultRule, InProcTransport, PartitionDirection,
    PartitionSpec, SimTransport, Transport,
};
