//! # lds-workload
//!
//! The simulator names `lds_benchmark` imports, re-exported from
//! [`lds_core::sim`], [`lds_core::generator`] and [`lds_core::measure`],
//! where they live. Nothing else depends on this crate; it goes when the
//! benchmark imports them from `lds_core` directly.
//!
//! ```rust
//! use lds_core::params::SystemParams;
//! use lds_workload::{RunnerConfig, SimRunner};
//!
//! let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
//! let mut runner = SimRunner::new(RunnerConfig::new(params).seed(1));
//! let w = runner.add_writer();
//! let r = runner.add_reader();
//! runner.invoke_write(w, 0.0, b"hello".to_vec());
//! runner.invoke_read(r, 100.0);
//! let report = runner.run();
//! assert_eq!(report.history.len(), 2);
//! assert!(report.metrics.messages_delivered() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lds_core::generator::ClosedLoopWorkload;
pub use lds_core::measure;
pub use lds_core::sim::{SimConfig as RunnerConfig, Simulation as SimRunner};
