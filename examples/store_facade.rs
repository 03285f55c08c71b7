//! The `Store` facade end to end: one generic workload function runs
//! unchanged over a single cluster and over a sharded multi-cluster
//! deployment — the cluster count is a builder axis, not an API fork.
//!
//! Demonstrates the three layers of the public API:
//!
//! * `StoreBuilder` — fluent construction with named profiles and
//!   validation at `build()` time;
//! * `Store` — the unified data plane (typed keys, borrowed values,
//!   blocking + pipelined + non-blocking submission);
//! * `Admin` — the consolidated control plane (liveness, metrics, online
//!   repair).
//!
//! Run with: `cargo run --example store_facade`

use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder, StoreError, StoreHandle};
use lds_core::backend::BackendKind;

/// A mixed workload written ONCE against the `Store` trait: pipelined
/// writes, a non-blocking burst that respects backpressure, and blocking
/// read-back. Works identically over any number of clusters.
fn run_workload<S: Store>(client: &mut S, keys: u64) -> usize {
    // Pipelined: fill the window, then drain.
    for k in 0..keys {
        client.submit_write(ObjectId(k), format!("pipelined value {k}").as_bytes());
    }
    let completed = client.wait_all().expect("pipelined writes complete").len();

    // Non-blocking: submit as long as the pipeline accepts, never queue.
    let mut accepted = 0;
    for k in 0..keys {
        match client.try_submit_read(ObjectId(k)) {
            Ok(_) => accepted += 1,
            Err(StoreError::WouldBlock) => break, // pipeline full: back off
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    client.wait_all().expect("burst reads complete");

    // Blocking: read-your-writes on every key.
    for k in 0..keys {
        assert_eq!(
            client.read(ObjectId(k)).expect("read completes"),
            format!("pipelined value {k}").into_bytes()
        );
    }
    completed + accepted
}

fn demo(label: &str, store: &StoreHandle) {
    println!(
        "[{label}] clusters = {}, backend = {}, n1 = {}, n2 = {}",
        store.clusters(),
        store.backend(),
        store.params().n1(),
        store.params().n2()
    );

    let mut client = store.client_with_depth(8);
    let ops = run_workload(&mut client, 12);
    println!("[{label}] generic workload completed {ops} operations");

    // Control plane: crash + online repair restores the failure budget.
    let admin = store.admin();
    admin.kill(ServerRef::l2(1)).unwrap();
    assert!(!admin.liveness().all_live());
    let report = admin.repair(ServerRef::l2(1)).expect("online repair");
    println!(
        "[{label}] repaired L2[1]: {} objects, {} B moved (ratio {:.3} of full decode)",
        report.objects,
        report.bytes_total,
        report.bandwidth_ratio()
    );
    assert!(admin.liveness().all_live());

    let metrics = admin.metrics();
    println!(
        "[{label}] metrics: {} clusters, {} live L1 + {} live L2, {} repairs, \
         {} metadata entries",
        metrics.clusters,
        metrics.live_l1,
        metrics.live_l2,
        metrics.repairs_completed,
        metrics.l1_metadata_entries
    );
    store.shutdown();
}

fn main() {
    // The same builder chain, differing only in the `clusters` axis.
    let single = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Mbr)
        .build()
        .expect("valid configuration");
    demo("single", &single);

    let sharded = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Mbr)
        .high_throughput(2)
        .clusters(2)
        .build()
        .expect("valid configuration");
    demo("sharded", &sharded);

    // Misconfiguration is caught before anything boots.
    match StoreBuilder::new().code(5, 3).build() {
        Err(StoreError::InvalidConfig(reason)) => {
            println!("invalid configuration rejected at build(): {reason}");
        }
        other => panic!("k > d must be rejected, got {other:?}"),
    }
    println!("done.");
}
