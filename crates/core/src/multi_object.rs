//! The multi-object storage experiment behind Lemma V.5 and Fig. 6.
//!
//! `N` objects are implemented by `N` independent LDS instances hosted on the
//! same `n1 + n2` servers. A write workload with bounded concurrency `θ`
//! (concurrent writes per τ1 interval) runs for a while; we then measure the
//! peak temporary (L1) storage and the final permanent (L2) storage, both
//! normalised by the value size, and compare against the paper's bounds.

use crate::backend::BackendKind;
use crate::costs::{self, CodeCosts};
use crate::generator::ValueGenerator;
use crate::measure::CostMeasurement;
use crate::params::SystemParams;
use crate::sim::{SimConfig, Simulation};
use crate::tag::ObjectId;

/// Configuration of one multi-object run.
#[derive(Debug, Clone)]
pub struct MultiObjectConfig {
    /// System parameters.
    pub params: SystemParams,
    /// Number of objects `N`.
    pub objects: usize,
    /// Number of writer clients issuing concurrent writes (this bounds θ).
    pub concurrent_writers: usize,
    /// Writes performed by each writer.
    pub writes_per_writer: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// The τ2 / τ1 ratio µ.
    pub mu: f64,
    /// Simulation seed.
    pub seed: u64,
}

/// Result of a multi-object run, in value-size units.
#[derive(Debug, Clone, Copy)]
pub struct MultiObjectReport {
    /// Number of objects written.
    pub objects: usize,
    /// Peak temporary storage observed in L1 during the run, at most
    /// Lemma V.5's bound `⌈5 + 2µ⌉·θ·n1`.
    pub l1_storage: CostMeasurement,
    /// Final permanent storage in L2 after quiescence: Lemma V.3's per-object
    /// cost at the framed length for every object written (Lemma V.5's
    /// `2·N·n2 / (k + 1)` unframed, in the symmetric configuration).
    pub l2_storage: CostMeasurement,
}

/// Runs the multi-object write workload and measures storage.
///
/// Writers issue writes round-robin over the `N` objects; the simulation is
/// stepped in small increments so the peak L1 occupancy is observed rather
/// than just the final state.
pub fn run_multi_object(config: &MultiObjectConfig) -> MultiObjectReport {
    let sim_config = SimConfig::new(config.params)
        .seed(config.seed)
        .latencies(1.0, 1.0, config.mu);
    let mut sim = Simulation::new(sim_config);
    let writers: Vec<_> = (0..config.concurrent_writers)
        .map(|_| sim.add_writer())
        .collect();

    let mut values = ValueGenerator::new(config.value_size, config.seed);
    // Schedule writes: each writer performs its writes back-to-back with a
    // conservative spacing larger than the extended-write latency bound, so
    // clients stay well-formed without a closed loop.
    let spacing = 8.0 + 4.0 * config.mu;
    let mut next_obj = 0u64;
    for round in 0..config.writes_per_writer {
        for &w in &writers {
            let obj = ObjectId(next_obj % config.objects as u64);
            next_obj += 1;
            sim.invoke_write_obj(w, round as f64 * spacing, obj, values.next_value());
        }
    }

    // Step the simulation and record the peak L1 occupancy.
    let horizon = (config.writes_per_writer as f64 + 2.0) * spacing + 20.0 * config.mu;
    let mut peak_l1 = 0usize;
    let mut t = 0.0;
    while t < horizon {
        t += 1.0;
        sim.run_until(t);
        peak_l1 = peak_l1.max(sim.l1_storage_bytes());
    }
    sim.run();
    let vs = config.value_size as f64;

    // θ: writes that can overlap within a τ1 window is at most the number of
    // concurrent writers in this workload.
    let theta = config.concurrent_writers as f64;
    let written = config
        .objects
        .min(config.concurrent_writers * config.writes_per_writer);
    let per_object = CodeCosts::framed(&config.params, BackendKind::Mbr, config.value_size);
    MultiObjectReport {
        objects: config.objects,
        l1_storage: CostMeasurement::at_most(
            peak_l1 as f64 / vs,
            costs::l1_storage_bound_multi_object(&config.params, theta, config.mu),
        ),
        l2_storage: CostMeasurement::equals(
            sim.l2_storage_bytes() as f64 / vs,
            written as f64 * per_object.l2_storage(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_stays_within_paper_bounds() {
        let params = SystemParams::symmetric(6, 1).unwrap(); // n1 = n2 = 6, k = d = 4
        let config = MultiObjectConfig {
            objects: 4,
            writes_per_writer: 2,
            concurrent_writers: 2,
            value_size: 512,
            mu: 3.0,
            seed: 2,
            params,
        };
        let report = run_multi_object(&config);
        assert!(
            report.l1_storage.measured > 0.0,
            "writes must pass through L1"
        );
        assert!(report.l1_storage.holds(), "{:?}", report.l1_storage);
        assert!(report.l2_storage.holds(), "{:?}", report.l2_storage);
    }

    #[test]
    fn l2_storage_grows_linearly_with_objects() {
        let params = SystemParams::symmetric(6, 1).unwrap();
        let run = |objects, writes_per_writer| {
            let config = MultiObjectConfig {
                objects,
                writes_per_writer,
                concurrent_writers: 1,
                value_size: 256,
                mu: 2.0,
                seed: 3,
                params,
            };
            run_multi_object(&config).l2_storage
        };
        // Only written objects are stored: four of four take twice the
        // storage of two of four, and the same as four of eight.
        let (two, four) = (run(4, 2), run(4, 4));
        assert!(two.holds() && four.holds(), "{two:?} {four:?}");
        assert_eq!(four.measured, 2.0 * two.measured);
        assert_eq!(run(8, 4).measured, four.measured);
    }
}
