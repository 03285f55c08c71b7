//! The public API of the LDS store: one builder, one client type and one
//! control plane.
//!
//! This module is the surface applications program against; everything else
//! in the crate is engine. It is layered exactly as the paper frames the
//! system — one client-facing read/write interface hiding the two-layer
//! machinery — and consists of:
//!
//! * [`StoreBuilder`] — the fluent, validating construction path. Named
//!   profiles ([`paper_faithful`](StoreBuilder::paper_faithful),
//!   [`high_throughput`](StoreBuilder::high_throughput)) replace
//!   hand-assembled options literals; every invalid combination is caught at
//!   [`build()`](StoreBuilder::build) before a thread spawns.
//! * [`Store`] — the data-plane trait: blocking `write`/`read` plus the
//!   pipelined `submit`/`try_submit`/`poll`/`wait` family, with typed
//!   [`ObjectId`] keys and borrowed `&[u8]` values.
//! * [`StoreHandle`] / [`StoreClient`] — the built deployment and its
//!   clients. `StoreClient` is the crate's one [`Store`] implementation (see
//!   [`crate::client`]).
//! * [`StoreError`] — every failure of the data plane, the builder and the
//!   control plane in one `#[non_exhaustive]` enum with error-source
//!   chains.
//! * [`Admin`] — the consolidated control plane: crash injection, online
//!   repair at regenerating-code bandwidth, liveness, inbox-depth probes,
//!   [`RepairReport`](crate::RepairReport) history and a
//!   [`MetricsSnapshot`] — the single seam a failure detector or operator
//!   tooling drives.
//!
//! # End to end
//!
//! ```rust
//! use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder};
//!
//! // Build: profile and shards are builder axes, validated together.
//! let store = StoreBuilder::new().high_throughput(2).build().unwrap();
//!
//! // Data plane: typed keys, borrowed values, pipelined submission.
//! let mut client = store.client_with_depth(8);
//! for key in 0..8u64 {
//!     client.submit_write(ObjectId(key), format!("value {key}").as_bytes());
//! }
//! assert_eq!(client.wait_all().unwrap().len(), 8);
//! assert_eq!(client.read(ObjectId(3)).unwrap(), b"value 3");
//!
//! // Control plane: kill a back-end server, repair it online.
//! let admin = store.admin();
//! admin.kill(ServerRef::l2(0)).unwrap();
//! let report = admin.repair(ServerRef::l2(0)).unwrap();
//! assert!(admin.liveness().all_live());
//! assert_eq!(admin.repair_reports().len(), 1);
//! assert!(report.helpers > 0);
//! store.shutdown();
//! ```

mod admin;
mod builder;
mod error;
mod handle;
mod store;

pub use admin::{Admin, Liveness, ServerRef};
pub use builder::StoreBuilder;
pub use error::StoreError;
pub use handle::StoreHandle;
pub use store::Store;

/// What [`Admin::metrics`] returns (generated from the metrics table in
/// [`crate::obs::metrics`]).
pub use crate::obs::MetricsSnapshot;

/// The client type and the handle [`Store::waker`] returns (defined in
/// [`crate::client`]).
pub use crate::client::{StoreClient, Waker};

/// The typed object key of the [`Store`] data plane (re-exported from
/// `lds_core`): a `u64` newtype with `From<u64>` for ergonomic literals.
pub use lds_core::tag::ObjectId;
