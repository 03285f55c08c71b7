//! The `Store` facade end to end: one generic workload function runs
//! unchanged under the paper-faithful profile and under the high-throughput
//! profile with sharded servers — the profile is a builder axis, not an API
//! fork.
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
/// read-back. Works identically under either profile.
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
        "[{label}] profile = {:?}, shards = {}, backend = {}, n1 = {}, n2 = {}",
        store.options().profile,
        store.options().shards,
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
        "[{label}] metrics: {} live L1 + {} live L2, {} repairs, {} metadata entries",
        metrics.live_l1, metrics.live_l2, metrics.repairs_completed, metrics.l1_metadata_entries
    );
    store.shutdown();
}

fn main() {
    // The same builder chain, differing only in the profile.
    let builder = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Mbr);
    let faithful = builder
        .clone()
        .paper_faithful()
        .build()
        .expect("valid configuration");
    demo("paper-faithful", &faithful);

    let tuned = builder
        .high_throughput(2)
        .build()
        .expect("valid configuration");
    demo("high-throughput", &tuned);

    // Misconfiguration is caught before anything boots.
    match StoreBuilder::new().code(5, 3).build() {
        Err(StoreError::InvalidConfig(reason)) => {
            println!("invalid configuration rejected at build(): {reason}");
        }
        other => panic!("k > d must be rejected, got {other:?}"),
    }
    println!("done.");
}
