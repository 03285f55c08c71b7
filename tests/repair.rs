//! Integration tests for **online node repair & rejoin**, driven through
//! the `Admin` control plane: a killed server is regenerated while
//! pipelined writers and readers keep streaming, the recorded history passes
//! `History::check_atomicity`, the failure budget is restored (a subsequent
//! crash is tolerated), and the recorded MBR repair bandwidth undercuts the
//! full-object decode fallback — under both protocol profiles.

mod common;

use common::{profiles, Recorder, Workload};
use lds_cluster::api::{ObjectId, ServerRef, Store, StoreHandle};
use lds_cluster::RepairLayer;
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use std::time::Duration;

fn params() -> SystemParams {
    SystemParams::for_failures(1, 1, 2, 3).unwrap() // n1=4, n2=5, k=2, d=3
}

/// The objects the recorded workload's writers contend on.
const WORKLOAD_OBJECTS: [u64; 6] = [10, 11, 12, 20, 21, 22];

#[test]
fn online_l2_repair_under_pipelined_load_at_mbr_bandwidth() {
    for (label, builder) in profiles() {
        let store = builder
            .params(params())
            .backend(BackendKind::Mbr)
            .shards(2) // exercises the repair fan-out across worker shards
            .build()
            .unwrap();
        l2_repair_under_load(label, &store);
        store.shutdown();
    }
}

fn l2_repair_under_load(label: &str, store: &StoreHandle) {
    let admin = store.admin();
    // Settled pre-crash state so the repair has committed objects to move:
    // a 20-object 1-KiB population that no concurrent writer touches. (The
    // streaming workload's own hot objects may be mid-commit at snapshot
    // time — helpers split across two adjacent tags, neither reaching the
    // repair quorum; those are caught up by the concurrent WRITE-CODE-ELEM
    // stream instead, and any *completed* offload keeps n2 - f2 live
    // holders regardless, so quorums stay safe either way.)
    let recorder = Recorder::new();
    let mut client = recorder.wrap(store.client_with_depth(8));
    client.set_timeout(Duration::from_secs(30));
    for obj in 100..120u64 {
        client.submit_write(ObjectId(obj), &vec![obj as u8; 1024]);
    }
    client.wait_all().unwrap();
    let workload = Workload::spawn(store, &recorder, 2, &WORKLOAD_OBJECTS);
    std::thread::sleep(Duration::from_millis(150));

    // Crash an L2 server mid-stream, let the workload run degraded…
    admin.kill(ServerRef::l2(1)).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // …then regenerate it online, under the running load.
    let report = admin
        .repair(ServerRef::l2(1))
        .expect("online L2 repair succeeds");
    assert_eq!(report.layer, RepairLayer::L2);
    assert_eq!(report.helpers, 4, "[{label}] all live L2 peers helped");
    assert!(
        report.objects >= 20,
        "[{label}] the settled population regenerated ({} objects)",
        report.objects
    );
    // The paper's claim, measured: MBR repair bandwidth per object is
    // strictly below the full-object decode fallback for the same
    // parameters (same helpers shipping whole elements). The settled 1-KiB
    // population dominates the byte counts, so the ratio sits near
    // 1/alpha = 1/d = 1/3 with only small noise from the hot objects.
    assert!(
        report.bytes_total < report.fallback_bytes,
        "[{label}] MBR repair moved {} B, full-decode fallback {} B",
        report.bytes_total,
        report.fallback_bytes
    );
    assert!(report.bytes_per_object() > 0.0);
    assert!(
        report.bandwidth_ratio() < 0.5,
        "[{label}] expected a clear MBR saving, got ratio {}",
        report.bandwidth_ratio()
    );
    // The control plane remembers the repair.
    assert_eq!(admin.repair_reports().len(), 1);
    assert_eq!(admin.metrics().repairs_completed, 1);

    // Budget restored: a SUBSEQUENT L2 failure is tolerated. With it dead,
    // every regenerate-from-L2 quorum must include the repaired server.
    std::thread::sleep(Duration::from_millis(100));
    admin.kill(ServerRef::l2(3)).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    workload.finish();
    // Reads after the second crash exercise the repaired server's elements:
    // with another L2 server dead, every regenerate-from-L2 quorum now
    // includes the replacement's regenerated shares.
    for obj in (100..120u64).chain(WORKLOAD_OBJECTS) {
        client.read(ObjectId(obj)).expect("read after second crash");
    }
    recorder.check();
}

#[test]
fn online_l1_repair_under_pipelined_load_restores_budget() {
    for (label, builder) in profiles() {
        let store = builder
            .params(params())
            .backend(BackendKind::Mbr)
            .shards(2)
            .build()
            .unwrap();
        l1_repair_under_load(label, &store);
        store.shutdown();
    }
}

fn l1_repair_under_load(label: &str, store: &StoreHandle) {
    let admin = store.admin();
    let recorder = Recorder::new();
    let workload = Workload::spawn(store, &recorder, 2, &WORKLOAD_OBJECTS);
    std::thread::sleep(Duration::from_millis(150));

    admin.kill(ServerRef::l1(0)).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let report = admin
        .repair(ServerRef::l1(0))
        .expect("online L1 repair succeeds");
    assert_eq!(report.layer, RepairLayer::L1);
    assert_eq!(report.helpers, 3, "[{label}] all live L1 peers helped");
    assert!(
        report.objects >= 6,
        "[{label}] committed metadata reconstructed for every object"
    );

    // Budget restored: a SUBSEQUENT L1 failure is tolerated — and with only
    // 3 live L1 servers, every quorum of f1 + k = 3 must now include the
    // repaired server, so its reconstructed metadata is load-bearing.
    std::thread::sleep(Duration::from_millis(100));
    admin.kill(ServerRef::l1(2)).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    workload.finish();
    let mut client = recorder.wrap(store.client());
    client.set_timeout(Duration::from_secs(30));
    for obj in WORKLOAD_OBJECTS {
        client
            .read(ObjectId(obj))
            .expect("read through the repaired quorum");
    }
    recorder.check();
}
