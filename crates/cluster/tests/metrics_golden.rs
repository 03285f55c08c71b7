//! Golden exposition: the exact text `MetricsSnapshot::to_prometheus`
//! renders for one fixed, hand-built snapshot — every family with a
//! non-zero value, a non-terminating ratio, two backoff targets, sparse
//! histograms.
//!
//! `tests/observability.rs` shows the families move; only this file shows
//! the exposition is *the same text as before*: family names, order, help
//! strings, label sets and float formatting. `golden/metrics.prom` was
//! recorded from the hand-written renderer that preceded the `metrics!`
//! table. A byte that moves here changes what scrapers and dashboards see:
//! rename on purpose, then replace the file with the `got` of the failing
//! assertion. The test touches public API only, so it compiles unchanged
//! against any commit that has these `MetricsSnapshot` fields.

use lds_cluster::obs::Histogram;
use lds_cluster::transport::MESSAGE_CLASSES;
use lds_cluster::{FaultCounters, HistSnapshot, MetricsSnapshot, ServerRef};
use std::time::Duration;

fn hist(samples_us: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &us in samples_us {
        h.record(us);
    }
    h.snapshot()
}

fn fixed_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        l1_metadata_entries: 37,
        l1_temporary_bytes: 1 << 20,
        l1_inbox_depth: 5,
        max_l1_inbox_depth: 56,
        live_l1: 7,
        live_l2: 9,
        repairs_completed: 4,
        repair_reports_dropped: 1,
        heal_suspicions_raised: 6,
        heal_repairs_attempted: 5,
        heal_repairs_succeeded: 4,
        heal_repairs_backed_off: 2,
        heal_parked_events: 1,
        heal_backoffs: vec![
            (ServerRef::l1(3), Duration::from_millis(150)),
            (ServerRef::l2(1), Duration::from_micros(2_500_001)),
        ],
        transport_faults: FaultCounters {
            dropped: 11,
            duplicated: 12,
            delayed: 13,
            reordered: 14,
            partitioned: 15,
        },
        gc_evicted_entries: 400,
        gc_evicted_bytes: 123_456_789,
        peak_round_bytes: 1_310_720,
        gf_kernel: "avx2",
        messages_by_class: MESSAGE_CLASSES
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, 3 * i as u64))
            .collect(),
        executor_workers: 2,
        executor_turns: 1_000,
        executor_envelopes: 4_321,
        executor_parks: 17,
        executor_wakeups: 16,
        write_latency: hist(&[3, 3, 90, 310, 2_100, 1_000_000]),
        read_latency: hist(&[1, 64, 65, 177]),
        phase_tag_latency: hist(&[12]),
        phase_data_latency: hist(&[0, 15, 16, 17, 4_000_000_000]),
        phase_commit_latency: hist(&[]),
    }
}

#[test]
fn exposition_of_a_fixed_snapshot_is_byte_identical_to_the_recorded_one() {
    let got = fixed_snapshot().to_prometheus();
    let want = include_str!("golden/metrics.prom");
    assert!(got == want, "exposition moved; got:\n{got}");
}
