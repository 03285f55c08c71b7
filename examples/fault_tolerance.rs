//! Crash-fault tolerance and **online repair** demo, on the `Store` facade.
//!
//! The algorithm tolerates `f1 < n1/2` crashes in the edge layer and
//! `f2 < n2/3` crashes in the back-end layer — but in a long-lived cluster a
//! fixed budget is eventually spent. This example runs the real threaded
//! store, burns part of the budget with crashes, then *repairs* the crashed
//! servers online through the `Admin` control plane: replacements rejoin
//! under the same process ids, regenerate their state from live helpers —
//! the L2 share at MBR repair bandwidth, a `β`-sized helper symbol per
//! object per helper instead of whole elements — and restore the budget, so
//! the store survives a *second* round of failures.
//!
//! Runs entirely offline (in-process threads, no network).
//! Run with: `cargo run --example fault_tolerance`

use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder};
use lds_core::backend::BackendKind;
use lds_core::generator::ValueGenerator;

fn main() {
    // n1 = 4 (f1 = 1, k = 2), n2 = 7 (f2 = 1, d = 5): MBR repair helpers are
    // 1/α = 1/5 of an element.
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 5)
        .backend(BackendKind::Mbr)
        .build()
        .expect("valid configuration");
    println!("system parameters: {}", store.params());
    let admin = store.admin();
    let mut client = store.client();
    let mut values = ValueGenerator::new(2048, 5);

    for obj in 0..8u64 {
        client
            .write(ObjectId(obj), values.next_value().as_bytes())
            .unwrap();
    }
    println!("wrote 8 objects of 2 KiB");

    // Spend the failure budget: one crash in each layer.
    admin.kill(ServerRef::l1(0)).unwrap();
    admin.kill(ServerRef::l2(2)).unwrap();
    client
        .write(ObjectId(0), values.next_value().as_bytes())
        .unwrap();
    let readback = client.read(ObjectId(3)).unwrap();
    println!(
        "after f1 + f2 crashes: operations still complete ({}-byte read)",
        readback.len()
    );

    // The budget is spent — repair both servers online. The L2 replacement
    // regenerates every object's coded element from any d live helpers at
    // MBR repair bandwidth; the L1 replacement reconstructs its metadata
    // (committed tags + lists) from its live peers.
    let l2_report = admin.repair(ServerRef::l2(2)).expect("online L2 repair");
    println!(
        "repaired L2 server 2: {} objects from {} helpers, {} B moved \
         (full-decode fallback: {} B — {:.1}x saving)",
        l2_report.objects,
        l2_report.helpers,
        l2_report.bytes_total,
        l2_report.fallback_bytes,
        l2_report.fallback_bytes as f64 / l2_report.bytes_total.max(1) as f64,
    );
    assert!(
        l2_report.bytes_total < l2_report.fallback_bytes,
        "MBR repair must undercut full-object decode"
    );
    let l1_report = admin.repair(ServerRef::l1(0)).expect("online L1 repair");
    println!(
        "repaired L1 server 0: metadata for {} objects from {} peers",
        l1_report.objects, l1_report.helpers,
    );
    assert!(admin.liveness().all_live());
    assert_eq!(admin.metrics().repairs_completed, 2);

    // Budget restored: the store survives a SECOND round of failures — and
    // with them dead, quorums must route through the repaired servers.
    admin.kill(ServerRef::l1(3)).unwrap();
    admin.kill(ServerRef::l2(5)).unwrap();
    client
        .write(ObjectId(4), b"second failure round survived")
        .unwrap();
    assert_eq!(
        client.read(ObjectId(4)).unwrap(),
        b"second failure round survived".to_vec()
    );
    for obj in 0..8u64 {
        assert!(
            !client.read(ObjectId(obj)).unwrap().is_empty(),
            "object {obj} lost after repair + second failures"
        );
    }
    println!("second f1 + f2 crash round tolerated: the repair restored the budget.");

    drop(client);
    store.shutdown();
}
