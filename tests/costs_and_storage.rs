//! Integration tests for the paper's quantitative claims (§V): measured
//! communication, storage and latency costs meet the closed-form lemmas
//! ([`CostMeasurement::holds`]: equal at the value's framed length, or
//! within an upper bound).

use lds_core::backend::BackendKind;
use lds_core::costs::{self, CodeCosts};
use lds_core::generator::ClosedLoopWorkload;
use lds_core::measure::{measure_costs, CostMeasurement, CostReport, Relation};
use lds_core::multi_object::{run_multi_object, MultiObjectConfig};
use lds_core::params::{Profile, SystemParams};
use lds_core::sim::{SimConfig, Simulation};
use std::collections::BTreeSet;

fn assert_all_hold(report: &CostReport) {
    for (name, check) in report.checks() {
        assert!(
            check.holds(),
            "{} n1={} {name}: {check:?}",
            report.backend,
            report.params.n1()
        );
    }
}

#[test]
fn lemma_v2_write_cost_scales_linearly_and_read_cost_stays_flat() {
    // Two sizes in the same asymptotic regime (k = d = 0.8 n).
    let small = SystemParams::symmetric(10, 1).unwrap();
    let large = SystemParams::symmetric(30, 3).unwrap();
    let small_report = measure_costs(small, BackendKind::Mbr, 10.0);
    let large_report = measure_costs(large, BackendKind::Mbr, 10.0);
    assert_all_hold(&small_report);
    assert_all_hold(&large_report);

    // Write cost grows roughly with n1 (×3 here).
    let write_growth = large_report.write_cost.measured / small_report.write_cost.measured;
    assert!(
        (2.0..4.5).contains(&write_growth),
        "write cost should scale ~linearly with n1, grew {write_growth}x"
    );

    // Idle read cost stays Θ(1): it must grow far slower than n1.
    let read_growth = large_report.read_cost_idle.measured / small_report.read_cost_idle.measured;
    assert!(
        read_growth < 1.6,
        "idle read cost should be ~constant in n1, grew {read_growth}x"
    );

    // Concurrent reads pay the extra n1 term.
    assert!(
        large_report.read_cost_concurrent.measured
            > large_report.read_cost_idle.measured + 0.5 * large.n1() as f64,
        "concurrent read cost should include an n1-sized term"
    );
}

#[test]
fn lemma_v3_l2_storage_is_constant_per_object() {
    let small = SystemParams::symmetric(10, 1).unwrap();
    let large = SystemParams::symmetric(30, 3).unwrap();
    let s = measure_costs(small, BackendKind::Mbr, 5.0).l2_storage;
    let l = measure_costs(large, BackendKind::Mbr, 5.0).l2_storage;
    assert!(s.holds(), "{s:?}");
    assert!(l.holds(), "{l:?}");
    // Θ(1): tripling the system size must not triple the storage cost.
    assert!(l.measured / s.measured < 1.5);
}

#[test]
fn lemma_v4_latencies_respect_bounds_and_write_is_mu_independent() {
    let params = SystemParams::symmetric(12, 1).unwrap();
    let near = measure_costs(params, BackendKind::Mbr, 2.0);
    let far = measure_costs(params, BackendKind::Mbr, 40.0);

    for report in [&near, &far] {
        assert!(report.write_latency.holds(), "{:?}", report.write_latency);
        assert!(report.read_latency.holds(), "{:?}", report.read_latency);
    }
    // Writes never wait on the back-end: their latency is unchanged when the
    // back-end moves 20x further away.
    assert_eq!(near.write_latency.measured, far.write_latency.measured);
    // Cold reads do pay for the extra distance.
    assert!(far.read_latency.measured > near.read_latency.measured);
}

#[test]
fn remark_1_and_2_mbr_vs_msr_point_tradeoff() {
    let params = SystemParams::symmetric(20, 2).unwrap();
    let mbr = measure_costs(params, BackendKind::Mbr, 10.0);
    let msr = measure_costs(params, BackendKind::MsrPoint, 10.0);
    assert_all_hold(&mbr);
    // Remark 1: at k = d the MSR-point idle read is its closed form
    // n1·(n2 + 1)/k, Ω(n1), far above MBR's.
    assert_all_hold(&msr);
    assert!(msr.read_cost_idle.measured > 3.0 * mbr.read_cost_idle.measured);
    // Remark 2: MBR storage is at most 2x MSR storage.
    let remark_2 = CostMeasurement::at_most(mbr.l2_storage.measured, 2.0 * msr.l2_storage.measured);
    assert!(remark_2.holds(), "{remark_2:?}");
    assert!(msr.l2_storage.measured < mbr.l2_storage.measured);
}

#[test]
fn figure_6_replication_comparison() {
    let params = SystemParams::symmetric(10, 1).unwrap();
    let mbr = measure_costs(params, BackendKind::Mbr, 5.0);
    let replication = measure_costs(params, BackendKind::Replication, 5.0);
    // Replication stores n2 value units per object; MBR stores ~2n2/(k+1).
    assert_all_hold(&mbr);
    assert_all_hold(&replication);
    assert_eq!(replication.l2_storage.measured, params.n2() as f64);
    assert!(replication.l2_storage.measured > 3.0 * mbr.l2_storage.measured);
}

#[test]
fn lemma_v5_temporary_storage_bounded_and_l2_linear_in_objects() {
    let params = SystemParams::symmetric(8, 1).unwrap();
    let mut l2_values = Vec::new();
    for objects in [2usize, 4, 8] {
        let report = run_multi_object(&MultiObjectConfig {
            params,
            objects,
            concurrent_writers: 2,
            writes_per_writer: objects,
            value_size: 512,
            mu: 5.0,
            seed: 6,
        });
        assert!(report.l1_storage.holds(), "{:?}", report.l1_storage);
        assert!(report.l2_storage.holds(), "{:?}", report.l2_storage);
        l2_values.push(report.l2_storage.measured);
    }
    // Permanent storage is linear in the number of objects.
    assert_eq!(l2_values[1], 2.0 * l2_values[0], "{l2_values:?}");
    assert_eq!(l2_values[2], 2.0 * l2_values[1], "{l2_values:?}");
}

/// At quiescence a jittered closed loop leaves what the lemmas say and
/// nothing more:
/// * under `PaperFaithful`, L1's temporary storage is empty (every value
///   was offloaded, so the committed value is ⊥);
/// * under both profiles, Γ keeps at most one registration per reader and
///   object on each L1 server (the bound `on_put_tag` argues);
/// * L2 holds Lemma V.3's framed per-object cost for every object written,
///   as one element per object on every L2 server.
#[test]
fn quiescent_storage_is_the_lemmas_and_nothing_more() {
    let params = SystemParams::for_failures(1, 1, 2, 3).unwrap(); // n1 = 4, n2 = 5
    let (writers, readers, value_size) = (2, 2, 96);
    let per_object = CodeCosts::framed(&params, BackendKind::Mbr, value_size).l2_storage();
    for profile in [Profile::PaperFaithful, Profile::HighThroughput] {
        for seed in 0..4u64 {
            for objects in [1, 3] {
                let config = SimConfig::new(params).seed(seed).jitter(0.5);
                let mut sim = Simulation::new(config.profile(profile));
                for _ in 0..writers {
                    sim.add_writer();
                }
                for _ in 0..readers {
                    sim.add_reader();
                }
                let workload = ClosedLoopWorkload {
                    writes_per_writer: 3,
                    reads_per_reader: 3,
                    value_size,
                    think_time: 0.5,
                    objects,
                    seed,
                };
                let report = workload.run(&mut sim);
                let case = format!("{profile:?}, seed {seed}, {objects} objects");
                let total = workload.total_ops(writers, readers);
                assert_eq!(report.history.len(), total, "liveness ({case})");

                if profile == Profile::PaperFaithful {
                    assert_eq!(sim.l1_storage_bytes(), 0, "L1 temporary storage ({case})");
                }
                for server in sim.l1_servers() {
                    let registered = server.registered_readers();
                    assert!(
                        registered <= readers * objects,
                        "Γ holds {registered} ({case})"
                    );
                }
                let ops = report.history.operations();
                let written: BTreeSet<_> =
                    ops.iter().filter(|o| o.is_write()).map(|o| o.obj).collect();
                assert!(
                    sim.l2_servers().all(|s| s.object_count() == written.len()),
                    "{case}"
                );
                let l2 = CostMeasurement::equals(
                    sim.l2_storage_bytes() as f64 / value_size as f64,
                    written.len() as f64 * per_object,
                );
                assert!(l2.holds(), "L2 storage ({case}): {l2:?}");
            }
        }
    }
}

/// The checks bite: the framing term is all that separates a measurement
/// from the paper's unframed formula, and that is enough to fail it. At
/// n = 10 with 32 KiB values the term is 0.085 % of a coded payload.
#[test]
fn a_prediction_without_the_framing_term_fails() {
    let params = SystemParams::symmetric(10, 1).unwrap();
    let report = measure_costs(params, BackendKind::Mbr, 10.0);
    assert_all_hold(&report);
    for (name, check, unframed) in [
        ("write", report.write_cost, costs::write_cost(&params)),
        (
            "idle read",
            report.read_cost_idle,
            costs::read_cost(&params, 0),
        ),
        ("L2", report.l2_storage, costs::l2_storage_cost(&params)),
    ] {
        assert_eq!(check.relation, Relation::Equals);
        let lemma = CostMeasurement::equals(check.measured, unframed);
        assert!(!lemma.holds(), "{name}: {lemma:?} holds without framing");
    }

    // Fig. 6's 1 KiB values pad by 2 %.
    let fig6 = run_multi_object(&MultiObjectConfig {
        params,
        objects: 1,
        concurrent_writers: 2,
        writes_per_writer: 2,
        value_size: 1024,
        mu: 10.0,
        seed: 1,
    });
    assert!(fig6.l2_storage.holds(), "{:?}", fig6.l2_storage);
    let lemma = CostMeasurement::equals(fig6.l2_storage.measured, costs::l2_storage_cost(&params));
    assert!(!lemma.holds(), "{lemma:?}");

    // An upper bound bites as soon as the measurement exceeds it.
    let bound = report.read_latency.predicted;
    assert!(!CostMeasurement::at_most(bound + 1e-6, bound).holds());
}
