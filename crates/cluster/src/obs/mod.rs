//! Observability: two tables, the instruments that feed them, and nothing
//! hand-synchronised in between.
//!
//! Every metric family is one row of the metrics table ([`metrics`]) and
//! every trace event one row of the event table ([`events`]); the rows
//! generate [`MetricsSnapshot`] with its fold and Prometheus exposition,
//! [`EventKind`] with its names, and README's reference section. A number
//! takes two steps from where it is counted to where it is read: the
//! counting thread publishes it into a slot (a server shard's stats slots,
//! the [`ObsMetrics`] registry, the executor's and the heal loop's
//! counters), and `Cluster::snapshot` reads the slots straight into the
//! generated struct that [`crate::api::Admin::metrics`] returns.
//!
//! Two instruments with different cost models:
//!
//! * The **metrics registry** ([`ObsMetrics`]) is always on. It holds
//!   log-bucketed latency [`Histogram`]s (per-phase and end-to-end client
//!   latencies); recording is a pair of relaxed atomic adds per sample,
//!   so the registry needs no off switch.
//! * The **flight recorder** ([`FlightRecorder`]) is opt-in
//!   ([`crate::api::StoreBuilder::trace`]). When off, every recording site
//!   pays exactly one cached-flag branch — the same trick the router uses
//!   for its transport `faulty` flag. When on, each thread appends
//!   structured events to its own bounded ring; [`crate::api::Admin::
//!   trace_dump`] merges the rings into a time-ordered JSONL-exportable
//!   [`TraceDump`].
//!
//! ARCHITECTURE.md's "Observability" section walks the design.

pub mod events;
pub mod hist;
pub mod metrics;
pub mod recorder;

pub use events::EventKind;
pub use hist::{HistSnapshot, Histogram};
pub use metrics::{Family, MetricsSnapshot};
pub use recorder::{FlightRecorder, TraceDump, TraceEvent, TraceHandle, DEFAULT_TRACE_EVENTS};

use std::sync::Arc;

/// Client-op phase codes carried by [`EventKind::OpPhase`] events and used
/// to pick the phase histogram.
pub mod phase {
    /// Tag discovery: the first quorum round (`QUERY-TAG` / `QUERY-COMM-TAG`).
    pub const TAG: u64 = 0;
    /// Data transfer: `PUT-DATA` out (writes) or `QUERY-DATA`
    /// in flight (reads).
    pub const DATA: u64 = 1;
    /// Commit: the read's `PUT-TAG` write-back round. A write's commit wait
    /// is folded into its data phase — the client only observes the final
    /// `ACK-PUT-DATA`, which the servers send after commit.
    pub const COMMIT: u64 = 2;
    /// Each phase's name, indexed by its code.
    pub const NAMES: [&str; 3] = ["tag", "data", "commit"];
}

/// The always-on metrics registry: end-to-end and per-phase client latency
/// histograms. Shared by every client of a store; recording is wait-free.
pub struct ObsMetrics {
    /// End-to-end write latency (µs), submit to completion.
    pub write_us: Histogram,
    /// End-to-end read latency (µs).
    pub read_us: Histogram,
    /// Tag-discovery phase latency (µs), writes and reads combined.
    pub phase_tag_us: Histogram,
    /// Data-transfer phase latency (µs). For writes this includes the
    /// commit wait (see [`phase::COMMIT`]).
    pub phase_data_us: Histogram,
    /// Read commit (`PUT-TAG` round) latency (µs).
    pub phase_commit_us: Histogram,
}

impl ObsMetrics {
    /// An empty registry.
    pub fn new() -> Arc<ObsMetrics> {
        Arc::new(ObsMetrics {
            write_us: Histogram::new(),
            read_us: Histogram::new(),
            phase_tag_us: Histogram::new(),
            phase_data_us: Histogram::new(),
            phase_commit_us: Histogram::new(),
        })
    }

    /// Records one phase sample (µs) into the histogram `code` names.
    #[inline]
    pub fn record_phase(&self, code: u64, us: u64) {
        match code {
            phase::DATA => self.phase_data_us.record(us),
            phase::COMMIT => self.phase_commit_us.record(us),
            _ => self.phase_tag_us.record(us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_route_to_their_histograms() {
        let m = ObsMetrics::new();
        m.record_phase(phase::TAG, 10);
        m.record_phase(phase::DATA, 20);
        m.record_phase(phase::DATA, 30);
        m.record_phase(phase::COMMIT, 40);
        assert_eq!(m.phase_tag_us.snapshot().count(), 1);
        assert_eq!(m.phase_data_us.snapshot().count(), 2);
        assert_eq!(m.phase_commit_us.snapshot().count(), 1);
    }
}
