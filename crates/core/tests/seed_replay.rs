//! A seeded run of the simulator with jittered links replays bit for bit.
//!
//! The figures below were recorded from a closed-loop run (2 writers,
//! 2 readers, every link delay drawn uniformly from `[τ/2, τ]`). Any change
//! to how or in which order the simulator draws its delays moves the
//! message count, the final clock or an operation's instants or tag, so a
//! refactor of the event loop or the latency model that is meant to be pure
//! must leave this test passing unchanged. A failure is not a figure to
//! re-record: seeded runs are how protocol bugs are reproduced.

use lds_core::generator::ClosedLoopWorkload;
use lds_core::params::SystemParams;
use lds_core::sim::{SimConfig, Simulation};

/// Messages sent over the whole run.
const MESSAGES_SENT: u64 = 800;
/// The simulator's clock when the run is quiescent.
const FINISHED_AT: f64 = 43.002537820627765;
/// Every operation of the history, in completion order:
/// `(invoked at, completed at, tag.z, tag.writer)`.
const OPERATIONS: [(f64, f64, u64, u64); 12] = [
    (0.0, 8.038233942404357, 1, 1),
    (0.0, 8.233698113198766, 1, 3),
    (0.0, 10.480879824240422, 1, 1),
    (0.0, 10.618127611887676, 1, 3),
    (10.0, 17.08093471178393, 2, 1),
    (10.0, 18.08598787200207, 2, 3),
    (12.0, 20.91643068600995, 2, 3),
    (12.0, 21.821012866177846, 2, 1),
    (18.0, 25.537819108582706, 3, 1),
    (20.0, 27.7341755128134, 3, 3),
    (22.0, 31.564481417251123, 3, 1),
    (22.321012866177846, 31.90708974538701, 3, 3),
];

#[test]
fn a_jittered_seeded_run_replays_the_recorded_execution() {
    let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
    let config = SimConfig::new(params)
        .seed(2024)
        .latencies(1.0, 2.0, 10.0)
        .jitter(0.5);
    let mut sim = Simulation::new(config);
    for _ in 0..2 {
        sim.add_writer();
        sim.add_reader();
    }
    let workload = ClosedLoopWorkload {
        writes_per_writer: 3,
        reads_per_reader: 3,
        value_size: 64,
        think_time: 0.5,
        objects: 2,
        seed: 7,
    };
    let report = workload.run(&mut sim);
    report.history.check_atomicity().unwrap();

    assert_eq!(report.metrics.messages_sent(), MESSAGES_SENT);
    assert_eq!(sim.now().as_f64(), FINISHED_AT);
    let operations: Vec<_> = report
        .history
        .operations()
        .iter()
        .map(|op| {
            (
                op.invoked_at.as_f64(),
                op.completed_at.as_f64(),
                op.tag.z,
                op.tag.writer.0,
            )
        })
        .collect();
    assert_eq!(operations, OPERATIONS);
}
