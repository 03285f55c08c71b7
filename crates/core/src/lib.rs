//! # lds-core
//!
//! The **Layered Data Storage (LDS)** algorithm of Konwar, Prakash, Lynch and
//! Médard (PODC 2017): a two-layer erasure-coded fault-tolerant distributed
//! storage system providing multi-writer multi-reader **atomic** (linearizable)
//! read/write access.
//!
//! * Clients (writers and readers) talk only to the first layer **L1** (the
//!   "edge"), which provides fast, temporary storage.
//! * L1 servers talk to the second layer **L2** (the "back-end"), which
//!   provides permanent storage as coded elements of a **minimum bandwidth
//!   regenerating (MBR)** code.
//! * The algorithm tolerates `f1 < n1/2` crashes in L1 and `f2 < n2/3`
//!   crashes in L2.
//!
//! The protocol automata (writer, reader, L1 server, L2 server) are
//! [`Process`]es of the crate's own [`process`] contract, so the
//! deterministic simulator in [`sim`], the thread-based cluster runtime in
//! `lds-cluster` and unit tests all step the same code.
//!
//! [`sim::Simulation`] is the paper's whole system in one seeded event loop.
//! Beside it:
//!
//! * [`generator`] — value generators and the closed-loop workload driver;
//! * [`measure`] — single-number cost measurements (write cost, read cost at
//!   `δ = 0` and `δ > 0`, per-object storage, latencies), each with the
//!   closed form of Lemmas V.2–V.4 it must meet and a check that it does;
//! * [`multi_object`] — the multi-object storage experiment behind Fig. 6 /
//!   Lemma V.5.
//!
//! The crate also contains:
//!
//! * [`backend`] — the pluggable back-end codec (MBR / MSR / Reed–Solomon /
//!   replication) used for L2 storage, enabling the paper's ablations;
//! * [`consistency`] — operation histories and atomicity (linearizability)
//!   checkers;
//! * [`costs`] — the closed-form cost expressions of §V (Lemmas V.2–V.5)
//!   for every back-end, and of the single-layer ABD and CAS algorithms,
//!   which the measured costs are checked against;
//! * [`idmap`] — the seeded id hasher behind every map keyed by an object,
//!   operation or process id.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod consistency;
pub mod costs;
pub mod generator;
pub mod idmap;
pub mod measure;
pub mod membership;
pub mod messages;
pub mod multi_object;
pub mod params;
pub mod process;
pub mod reader;
pub mod server1;
pub mod server2;
pub mod sim;
pub mod tag;
pub mod value;
pub mod wire;
pub mod writer;

pub use backend::{BackendCodec, BackendKind};
pub use consistency::{History, Operation, OperationKind};
pub use idmap::{IdMap, IdSet};
pub use membership::{Membership, ServerSet};
pub use messages::{LdsMessage, ProtocolEvent, ReadPayload, RepairPayload};
pub use params::{Profile, SystemParams};
pub use process::{Context, DataSize, Process, ProcessId, SimTime};
pub use reader::ReaderClient;
pub use server1::L1Server;
pub use server2::L2Server;
pub use tag::{ClientId, ObjectId, OpId, Tag};
pub use value::Value;
pub use writer::WriterClient;
