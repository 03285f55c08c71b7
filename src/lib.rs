//! # lds-storage
//!
//! Umbrella crate for the reproduction of *"A Layered Architecture for
//! Erasure-Coded Consistent Distributed Storage"* (Konwar, Prakash, Lynch,
//! Médard — PODC 2017).
//!
//! The implementation is split into focused crates; this crate re-exports them
//! under stable module names so applications can depend on a single crate.
//!
//! * [`gf`] — GF(2^8) arithmetic and linear algebra.
//! * [`codes`] — Reed–Solomon, product-matrix MBR / MSR regenerating codes and
//!   replication.
//! * [`core`] — the LDS protocol (writer / reader / L1 / L2 automata), the
//!   deterministic simulator of the whole deployment ([`core::sim`]) with
//!   its workload driver and cost measurements, the atomicity checker and
//!   the analytical cost model.
//! * [`cluster`] — a thread-based in-process cluster runtime driving the same
//!   state machines over real channels.
//!
//! # The bulk-kernel coding pipeline
//!
//! Every coded byte in the system flows through one execution stack, built
//! for throughput:
//!
//! * **Slice kernels** ([`gf::bulk`]) — a compile-time 256 × 256
//!   multiplication table, `u128`-word XOR for the `c = 1` path, a fused
//!   multi-source multiply-accumulate that applies up to four
//!   coefficient/source pairs per pass over the destination, and (on x86-64,
//!   detected at runtime) SSSE3/AVX2 nibble-table kernels that multiply 16 or
//!   32 bytes per shuffle-pair. The byte-at-a-time scalar path is retained as
//!   the property-test oracle.
//! * **One engine, compiled plans** ([`codes::linear`], [`codes::plan`]) —
//!   MBR, MSR and Reed–Solomon are constructions under one implementation of
//!   the code traits. Decode and repair matrices depend only on the survivor
//!   / helper *index sets*, so each is built once, compiled to the kernel's
//!   row form and memoized per sorted index set. Steady-state operations
//!   perform no matrix inversion and no temporary matrix allocation.
//! * **Buffer-reuse APIs** — `encode_share_into` / `decode_into` on the code
//!   traits, routed through [`core::backend::BackendCodec`]'s
//!   `encode_l2_element_into` / `decode_from_l1_into`, let the L1 server's
//!   `write-to-L2` and the reader's decode attempts reuse scratch buffers.
//!   Cluster and simulator start-up call `warm_plans()` so the first
//!   operation already runs at steady-state speed.
//!
//! The `gf.*` and `codes.*` rungs of `lds_benchmark`'s `--trace 1` ladder
//! time these paths.
//!
//! # The threaded cluster runtime and the `Store` facade
//!
//! The [`cluster`] crate turns the same automata into a throughput-oriented
//! deployment: pipelined clients, per-object worker-shard servers, an
//! epoch-swapped lock-free routing snapshot, grouped COMMIT-TAG metadata
//! broadcast (one locked inbox append per peer shard per flush), and online
//! node repair at regenerating-code bandwidth.
//!
//! Applications program against the [`cluster::api`] facade:
//! [`cluster::api::StoreBuilder`] constructs a deployment (named profiles
//! replace options literals; everything is validated at `build()`), the
//! [`cluster::api::Store`] trait is the unified data plane (typed
//! [`cluster::api::ObjectId`] keys, borrowed `&[u8]` values, blocking +
//! pipelined + non-blocking submission, one
//! [`cluster::api::StoreError`] for every failure), and
//! [`cluster::api::Admin`] is the control plane (crash injection, online
//! repair, liveness, metrics). `lds_benchmark/` times the store end to
//! end; `ARCHITECTURE.md` has the crate map and message-flow diagrams.
//!
//! ```rust
//! use lds_storage::cluster::api::{ObjectId, Store, StoreBuilder};
//!
//! let store = StoreBuilder::new().build().unwrap();
//! let mut client = store.client();
//! client.write(ObjectId(1), b"one facade").unwrap();
//! assert_eq!(client.read(ObjectId(1)).unwrap(), b"one facade");
//! store.shutdown();
//! ```
//!
//! # Quickstart
//!
//! ```rust
//! use lds_storage::core::params::SystemParams;
//! use lds_storage::core::sim::{SimConfig, Simulation};
//!
//! // A small two-layer system: 5 edge servers (f1 = 1), 7 back-end servers (f2 = 1).
//! let params = SystemParams::for_failures(1, 1, 3, 5).expect("valid parameters");
//! let mut sim = Simulation::new(SimConfig::new(params).seed(7));
//! let w = sim.add_writer();
//! let r = sim.add_reader();
//! sim.invoke_write(w, 0.0, b"hello edge".to_vec());
//! sim.invoke_read(r, 50.0);
//! let report = sim.run();
//! assert!(report.history.check_atomicity().is_ok());
//! ```

pub use lds_cluster as cluster;
pub use lds_codes as codes;
pub use lds_core as core;
pub use lds_gf as gf;
