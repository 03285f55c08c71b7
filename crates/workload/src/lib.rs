//! # lds-workload
//!
//! Workload generation and experiment running for the LDS reproduction.
//!
//! The central type is [`runner::SimRunner`]: it wires a full two-layer LDS
//! deployment (L1 servers, L2 servers, writer and reader clients) into the
//! deterministic simulator of `lds_core::sim`, injects client operations, and
//! returns a [`runner::RunReport`] with the operation history (for atomicity
//! checking), the traffic metrics (for the paper's communication-cost
//! accounting) and storage probes (for the storage-cost accounting).
//!
//! On top of the runner:
//!
//! * [`measure`] — single-number cost measurements (write cost, read cost at
//!   `δ = 0` and `δ > 0`, per-object storage, latencies), each with the
//!   closed form of Lemmas V.2–V.4 it must meet and a check that it does;
//! * [`generator`] — value generators and closed-loop workload drivers;
//! * [`multi_object`] — the multi-object storage experiment behind Fig. 6 /
//!   Lemma V.5;
//! * [`chaos`] — deterministic, budget-aware kill schedules for the
//!   self-healing chaos harness (seeded, never exceeding a layer's crash
//!   budget given the current down-set);
//! * [`seed`] — the one place seeded tests read `LDS_CHAOS_SEED` from, plus
//!   the [`seed::ReproGuard`] that prints a one-line repro command when a
//!   seeded test fails.
//!
//! # Example
//!
//! ```rust
//! use lds_core::params::SystemParams;
//! use lds_workload::runner::{RunnerConfig, SimRunner};
//!
//! let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
//! let mut runner = SimRunner::new(RunnerConfig::new(params).seed(1));
//! let w = runner.add_writer();
//! let r = runner.add_reader();
//! runner.invoke_write(w, 0.0, b"hello".to_vec());
//! runner.invoke_read(r, 100.0);
//! let report = runner.run();
//! assert_eq!(report.history.len(), 2);
//! report.history.check_atomicity().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod generator;
pub mod measure;
pub mod multi_object;
pub mod runner;
pub mod seed;

pub use chaos::{ChaosLayer, ChaosSchedule, ChaosScheduleConfig, ChaosTarget};
pub use generator::{ClosedLoopWorkload, ValueGenerator};
pub use measure::{CostMeasurement, CostReport, Relation};
pub use runner::{RunReport, RunnerConfig, SimRunner};
pub use seed::{chaos_seed, repro_guard, ReproGuard};
