//! Cross-crate integration tests for liveness and atomicity (Theorems IV.8
//! and IV.9): randomized concurrent workloads, crash injection, adversarial
//! link jitter and every back-end code — all executions must complete and be
//! atomic.

use lds_core::backend::BackendKind;
use lds_core::generator::{ClosedLoopWorkload, ValueGenerator};
use lds_core::params::{Profile, SystemParams};
use lds_core::sim::{SimConfig, Simulation};
use proptest::prelude::*;

fn small_params() -> SystemParams {
    SystemParams::for_failures(1, 1, 2, 3).unwrap() // n1 = 4, n2 = 5, k = 2, d = 3
}

#[test]
fn concurrent_readers_and_writers_are_atomic_across_seeds() {
    for seed in 0..10u64 {
        let mut sim = Simulation::new(SimConfig::new(small_params()).seed(seed).jitter(0.5));
        for _ in 0..2 {
            sim.add_writer();
        }
        for _ in 0..2 {
            sim.add_reader();
        }
        let workload = ClosedLoopWorkload {
            writes_per_writer: 4,
            reads_per_reader: 4,
            value_size: 48,
            think_time: 0.5,
            objects: 1,
            seed,
        };
        let report = workload.run(&mut sim);
        assert_eq!(
            report.history.len(),
            16,
            "liveness: every operation completes (seed {seed})"
        );
        report
            .history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("atomicity violated at seed {seed}: {v}"));
        report
            .history
            .check_linearizable_search()
            .unwrap_or_else(|v| panic!("linearizability search failed at seed {seed}: {v}"));
    }
}

#[test]
fn atomicity_holds_with_maximum_crashes_mid_execution() {
    for seed in 0..5u64 {
        let params = SystemParams::for_failures(2, 2, 3, 4).unwrap(); // n1 = 7, n2 = 8
        let mut sim = Simulation::new(SimConfig::new(params).seed(seed).jitter(0.3));
        let w1 = sim.add_writer();
        let w2 = sim.add_writer();
        let r1 = sim.add_reader();
        let r2 = sim.add_reader();

        // Crash the maximum tolerable number of servers at varied times.
        sim.crash_l1(seed as usize % 7, 5.0);
        sim.crash_l1((seed as usize + 3) % 7, 40.0);
        sim.crash_l2(seed as usize % 8, 10.0);
        sim.crash_l2((seed as usize + 5) % 8, 55.0);

        let mut values = ValueGenerator::new(40, seed);
        // Sequential per client, spaced far enough apart to stay well-formed.
        for round in 0..3 {
            let base = round as f64 * 120.0;
            sim.invoke_write(w1, base, values.next_value());
            sim.invoke_write(w2, base + 3.0, values.next_value());
            sim.invoke_read(r1, base + 5.0);
            sim.invoke_read(r2, base + 60.0);
        }
        let report = sim.run();
        assert_eq!(
            report.history.len(),
            12,
            "all operations complete despite crashes (seed {seed})"
        );
        report
            .history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("atomicity violated at seed {seed}: {v}"));
    }
}

#[test]
fn every_backend_kind_provides_atomic_storage() {
    for backend in [
        BackendKind::Mbr,
        BackendKind::MsrPoint,
        BackendKind::ProductMatrixMsr,
        BackendKind::Replication,
    ] {
        let params = SystemParams::for_failures(1, 1, 3, 5).unwrap(); // d = 5 >= 2k-2 = 4
        let mut sim = Simulation::new(SimConfig::new(params).backend(backend).seed(4));
        for _ in 0..2 {
            sim.add_writer();
        }
        sim.add_reader();
        let workload = ClosedLoopWorkload {
            writes_per_writer: 3,
            reads_per_reader: 3,
            value_size: 64,
            think_time: 1.0,
            objects: 1,
            seed: 9,
        };
        let report = workload.run(&mut sim);
        assert_eq!(report.history.len(), 9, "backend {backend:?}");
        report
            .history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("atomicity violated with backend {backend:?}: {v}"));
    }
}

#[test]
fn multi_object_workloads_are_atomic_per_object() {
    let mut sim = Simulation::new(SimConfig::new(small_params()).seed(21));
    for _ in 0..2 {
        sim.add_writer();
    }
    for _ in 0..2 {
        sim.add_reader();
    }
    let workload = ClosedLoopWorkload {
        writes_per_writer: 6,
        reads_per_reader: 6,
        value_size: 32,
        think_time: 1.0,
        objects: 3,
        seed: 13,
    };
    let report = workload.run(&mut sim);
    assert_eq!(report.history.len(), 24);
    assert_eq!(report.history.objects().len(), 3);
    report.history.check_atomicity().unwrap();
}

/// The profile the cluster runtime ships as `high_throughput(n)`, under the
/// real checker: per seed, one object, three objects, and three objects with
/// an L1 server (an offloader on half the seeds) crashed before the first
/// message arrives.
#[test]
fn high_throughput_profile_preserves_atomicity() {
    for seed in 0..16u64 {
        for (objects, crashed) in [(1, None), (3, None), (3, Some(seed as usize % 4))] {
            let mut sim = Simulation::new(
                SimConfig::new(small_params())
                    .seed(seed)
                    .profile(Profile::HighThroughput)
                    .jitter(0.4),
            );
            for _ in 0..2 {
                sim.add_writer();
                sim.add_reader();
            }
            if let Some(index) = crashed {
                sim.crash_l1(index, 0.0);
            }
            let workload = ClosedLoopWorkload {
                writes_per_writer: 4,
                reads_per_reader: 4,
                value_size: 64,
                think_time: 0.5,
                objects,
                seed: seed + 100,
            };
            let report = workload.run(&mut sim);
            let case = format!("seed {seed}, {objects} objects, crashed L1 {crashed:?}");
            assert_eq!(report.history.len(), 16, "liveness ({case})");
            report
                .history
                .check_atomicity()
                .unwrap_or_else(|v| panic!("atomicity violated ({case}): {v}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property-based end-to-end test: random seeds, jitter, latency ratios
    /// and value sizes never produce a non-atomic execution.
    #[test]
    fn randomized_executions_are_always_atomic(
        seed in any::<u64>(),
        jitter in 0.0f64..0.9,
        mu in 1.0f64..20.0,
        value_size in 16usize..256,
    ) {
        let mut sim = Simulation::new(
            SimConfig::new(small_params())
                .seed(seed)
                .jitter(jitter)
                .latencies(1.0, 1.0, mu),
        );
        sim.add_writer();
        sim.add_writer();
        sim.add_reader();
        let workload = ClosedLoopWorkload {
            writes_per_writer: 3,
            reads_per_reader: 3,
            value_size,
            think_time: 0.5,
            objects: 1,
            seed,
        };
        let report = workload.run(&mut sim);
        prop_assert_eq!(report.history.len(), 9);
        prop_assert!(report.history.check_atomicity().is_ok());
    }
}
