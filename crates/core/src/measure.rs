//! Single-number cost measurements used to reproduce Lemmas V.2–V.4.
//!
//! Communication costs are measured by attributing message kinds to
//! operations — exactly the decomposition the paper uses:
//!
//! * **write cost** = value transfers to L1 (`PUT-DATA`) plus the internal
//!   `write-to-L2` transfers (`WRITE-CODE-ELEM`), normalised by value size;
//! * **read cost** = responses to the reader (`DATA-RESP`) plus the
//!   regeneration traffic (`SEND-HELPER-ELEM`), normalised by value size.
//!
//! Latencies are measured as invocation-to-response durations under the
//! deterministic bounded-latency model.
//!
//! Every measurement carries the closed form it must meet and how
//! ([`Relation`]); [`CostMeasurement::holds`] is the one place that
//! comparison is made.

use crate::backend::BackendKind;
use crate::consistency::Operation;
use crate::costs::{CodeCosts, LatencyBounds};
use crate::params::SystemParams;
use crate::sim::{NetworkMetrics, RunReport, SimConfig, Simulation};

/// How a measurement must relate to its closed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// The measurement is the closed form.
    Equals,
    /// The closed form bounds the measurement from above.
    AtMost,
}

impl Relation {
    /// `=` or `<=`, for tables.
    pub fn symbol(self) -> &'static str {
        match self {
            Relation::Equals => "=",
            Relation::AtMost => "<=",
        }
    }
}

/// A measured value and the closed form it must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostMeasurement {
    /// Value measured from the simulated execution.
    pub measured: f64,
    /// Closed-form prediction from the paper (§V); costs at the value's
    /// framed length ([`CodeCosts::framed`]).
    pub predicted: f64,
    /// How `measured` must relate to `predicted`.
    pub relation: Relation,
}

impl CostMeasurement {
    /// A measurement that must equal `predicted`.
    pub fn equals(measured: f64, predicted: f64) -> Self {
        CostMeasurement {
            measured,
            predicted,
            relation: Relation::Equals,
        }
    }

    /// A measurement that `bound` must bound from above.
    pub fn at_most(measured: f64, bound: f64) -> Self {
        CostMeasurement {
            measured,
            predicted: bound,
            relation: Relation::AtMost,
        }
    }

    /// Whether the measurement meets its closed form. The only slack is
    /// floating-point rounding: a relative `1e-9`.
    pub fn holds(&self) -> bool {
        let slack = 1e-9 * self.predicted.abs().max(1.0);
        match self.relation {
            Relation::Equals => (self.measured - self.predicted).abs() <= slack,
            Relation::AtMost => self.measured <= self.predicted + slack,
        }
    }
}

/// Full cost report for one parameter point.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// System parameters used.
    pub params: SystemParams,
    /// Back-end code used.
    pub backend: BackendKind,
    /// Write communication cost (value-size units).
    pub write_cost: CostMeasurement,
    /// Read communication cost with no concurrency (δ = 0).
    pub read_cost_idle: CostMeasurement,
    /// Read communication cost under concurrency (δ > 0).
    pub read_cost_concurrent: CostMeasurement,
    /// Per-object permanent storage cost in L2 (value-size units).
    pub l2_storage: CostMeasurement,
    /// Write latency (time units) against the Lemma V.4 bound.
    pub write_latency: CostMeasurement,
    /// Read latency (time units) against the Lemma V.4 bound.
    pub read_latency: CostMeasurement,
}

impl CostReport {
    /// Every measurement of the report, named.
    pub fn checks(&self) -> [(&'static str, CostMeasurement); 6] {
        [
            ("write cost", self.write_cost),
            ("idle read cost", self.read_cost_idle),
            ("concurrent read cost", self.read_cost_concurrent),
            ("L2 storage", self.l2_storage),
            ("write latency", self.write_latency),
            ("read latency", self.read_latency),
        ]
    }
}

/// Size of values used by the measurement runs. The predictions include the
/// framing (8-byte header + padding), which at this size stays within 9 %
/// of the paper's counts up to `n1 = n2 = 100`.
pub const MEASURE_VALUE_SIZE: usize = 1 << 15;

/// Measures every cost of [`CostReport`] for one configuration.
///
/// The runs use the deterministic bounded-latency model with
/// `τ0 = τ1 = 1, τ2 = mu`.
pub fn measure_costs(params: SystemParams, backend: BackendKind, mu: f64) -> CostReport {
    let value_size = MEASURE_VALUE_SIZE;
    let bounds = LatencyBounds::new(1.0, 1.0, mu);
    // Bytes of `kinds` sent over a run, in value-size units.
    let cost = |metrics: &NetworkMetrics, kinds: [&str; 2]| {
        let bytes: u64 = kinds.iter().map(|k| metrics.data_bytes_for_kind(k)).sum();
        bytes as f64 / value_size as f64
    };
    let latency = |op: &Operation| op.completed_at - op.invoked_at;

    // A single write on an idle system: write cost, latency and the L2
    // storage it leaves behind.
    let (sim, report) = write_then_read(params, backend, mu, None);
    let write = &report.history.operations()[0];
    let write_cost = cost(&report.metrics, ["PUT-DATA", "WRITE-CODE-ELEM"]);
    let write_latency = latency(write);
    let l2_storage = sim.l2_storage_bytes() as f64 / value_size as f64;

    // δ = 0: the read starts long after the extended write finished.
    let (_, report) = write_then_read(params, backend, mu, Some(100.0 * (1.0 + mu)));
    let read = report.history.operations().iter().find(|o| !o.is_write());
    let read_latency = latency(read.expect("read completed"));
    let read_cost_idle = cost(&report.metrics, ["DATA-RESP", "SEND-HELPER-ELEM"]);

    // δ > 0: the read starts right after the write's put-data messages
    // land, so temporary storage still holds the value.
    let (_, report) = write_then_read(params, backend, mu, Some(3.0));
    let read_cost_concurrent = cost(&report.metrics, ["DATA-RESP", "SEND-HELPER-ELEM"]);

    let model = CodeCosts::framed(&params, backend, value_size);
    CostReport {
        params,
        backend,
        write_cost: CostMeasurement::equals(write_cost, model.write()),
        read_cost_idle: CostMeasurement::equals(read_cost_idle, model.read(0)),
        read_cost_concurrent: CostMeasurement::at_most(read_cost_concurrent, model.read(1)),
        l2_storage: CostMeasurement::equals(l2_storage, model.l2_storage()),
        write_latency: CostMeasurement::equals(write_latency, bounds.write_latency_bound()),
        read_latency: CostMeasurement::at_most(read_latency, bounds.read_latency_bound()),
    }
}

/// One measurement run on a fresh deployment at `τ0 = τ1 = 1, τ2 = mu`: a
/// write of a [`MEASURE_VALUE_SIZE`] value at `t = 0` and, if `read_at` is
/// given, a read invoked then, run to quiescence.
fn write_then_read(
    params: SystemParams,
    backend: BackendKind,
    mu: f64,
    read_at: Option<f64>,
) -> (Simulation, RunReport) {
    let config = SimConfig::new(params)
        .backend(backend)
        .latencies(1.0, 1.0, mu);
    let mut sim = Simulation::new(config);
    let w = sim.add_writer();
    let r = sim.add_reader();
    sim.invoke_write(w, 0.0, vec![0xA5; MEASURE_VALUE_SIZE]);
    if let Some(at) = read_at {
        sim.invoke_read(r, at);
    }
    let report = sim.run();
    (sim, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_all_hold(report: &CostReport) {
        for (name, check) in report.checks() {
            assert!(check.holds(), "{} {name}: {check:?}", report.backend);
        }
    }

    #[test]
    fn measured_costs_track_the_paper_formulas() {
        let params = SystemParams::for_failures(2, 2, 4, 6).unwrap(); // n1=8, n2=10
        let report = measure_costs(params, BackendKind::Mbr, 10.0);
        assert_all_hold(&report);
        // The idle read is far below the write cost (which is Θ(n1)), and
        // concurrency adds the value served from L1.
        assert!(report.read_cost_idle.measured < 0.5 * report.write_cost.measured);
        assert!(report.read_cost_concurrent.measured > report.read_cost_idle.measured);
    }

    #[test]
    fn replication_backend_inflates_l2_storage() {
        // n1 = n2 = 10, k = d = 6: MBR stores ≈ 2.86 per object, replication
        // stores n2 = 10.
        let params = SystemParams::symmetric(10, 2).unwrap();
        let mbr = measure_costs(params, BackendKind::Mbr, 5.0);
        let rep = measure_costs(params, BackendKind::Replication, 5.0);
        assert_all_hold(&mbr);
        assert_all_hold(&rep);
        assert!(rep.l2_storage.measured > 2.0 * mbr.l2_storage.measured);
    }
}
