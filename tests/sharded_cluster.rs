//! Cross-shard stress tests for a store whose servers run two worker shards:
//! multi-client pipelined writes/reads spanning both key partitions,
//! asserting (a) the recorded history passes `History::check_atomicity` and
//! (b) the bounded-inbox backpressure actually bounds — admission never exceeds the
//! configured cap and no worker inbox grows past its derived depth limit,
//! while `try_submit_*` pushes back with `StoreError::WouldBlock` instead of
//! queueing.

mod common;

use common::{profiles, Recorder};
use lds_cluster::api::{ObjectId, Store, StoreBuilder, StoreError};
use lds_cluster::{msgs_per_op_bound, shard_of, OpOutcome};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use lds_core::tag::Tag;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn params() -> SystemParams {
    SystemParams::for_failures(1, 1, 2, 3).unwrap()
}

/// Multi-client pipelined writes and reads over a 2-shard store, under both
/// profiles: three writers and two readers contend on objects that span
/// both shards, and everything they complete is atomic.
#[test]
fn cross_shard_pipelined_atomicity_under_concurrent_clients() {
    const SHARDS: usize = 2;
    const OBJECTS: u64 = 12;
    const WRITERS: usize = 3;
    const WRITES_PER_WRITER: usize = 48;
    // The object set must genuinely span both shards or the test shows
    // nothing about cross-shard traffic.
    assert!((0..OBJECTS).any(|o| shard_of(ObjectId(o), SHARDS) == 0));
    assert!((0..OBJECTS).any(|o| shard_of(ObjectId(o), SHARDS) == 1));
    for (_, builder) in profiles() {
        let store = builder
            .params(params())
            .backend(BackendKind::Mbr)
            .shards(SHARDS)
            .build()
            .unwrap();
        let recorder = Recorder::new();
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let (store, recorder) = (store.clone(), recorder.clone());
            writer_handles.push(std::thread::spawn(move || {
                let mut client = recorder.wrap(store.client_with_depth(8));
                client.set_timeout(Duration::from_secs(60));
                for i in 0..WRITES_PER_WRITER {
                    let obj = (w as u64 + 3 * i as u64) % OBJECTS;
                    client.submit_write(ObjectId(obj), format!("{i:020}:{w}").as_bytes());
                    if client.pending_ops() >= 8 {
                        client.wait_next().expect("writer pipeline");
                    }
                }
                client.wait_all().expect("writer drain");
            }));
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut reader_handles = Vec::new();
        for _ in 0..2 {
            let (store, recorder, stop) = (store.clone(), recorder.clone(), Arc::clone(&stop));
            reader_handles.push(std::thread::spawn(move || {
                let mut client = recorder.wrap(store.client_with_depth(8));
                client.set_timeout(Duration::from_secs(60));
                let mut rounds = 0usize;
                while !stop.load(Ordering::Relaxed) || rounds < 10 {
                    for obj in 0..OBJECTS {
                        client.submit_read(ObjectId(obj));
                    }
                    client.wait_all().expect("reader drain");
                    rounds += 1;
                }
            }));
        }

        for h in writer_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in reader_handles {
            h.join().unwrap();
        }
        recorder.check();
        store.shutdown();
    }
}

/// Overload a bounded 2-shard store through the non-blocking facade path:
/// `try_submit_*` must push back with `StoreError::WouldBlock` under
/// saturation, the admission gauge must never exceed the configured cap,
/// every worker-shard inbox must stay below its derived depth bound, and —
/// backpressure being flow control, not load shedding — every accepted
/// operation must complete.
#[test]
fn backpressure_bounds_inbox_depth_and_pushes_back() {
    const SHARDS: usize = 2;
    const CAP: usize = 2;
    const OBJECTS: u64 = 8;
    const OPS_PER_CLIENT: usize = 150;
    const CLIENTS: usize = 4;
    let store = StoreBuilder::new()
        .params(params())
        .backend(BackendKind::Replication)
        .high_throughput(SHARDS)
        .inbox_cap(CAP)
        .build()
        .unwrap();
    let admin = store.admin();

    // A monitor samples the admission gauges while the load runs: the
    // budget in use must never exceed the cap (the invariant "inbox depth
    // never exceeds its configured cap", measured in admitted operations).
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let admin = admin.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_admitted = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for admitted in admin.admitted_ops() {
                    assert!(
                        admitted <= CAP,
                        "admission gauge exceeded the cap: {admitted} > {CAP}"
                    );
                    max_admitted = max_admitted.max(admitted);
                }
                std::thread::yield_now();
            }
            max_admitted
        })
    };

    let would_blocks = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let store = store.clone();
        let would_blocks = Arc::clone(&would_blocks);
        handles.push(std::thread::spawn(move || {
            let mut client = store.client_with_depth(16);
            client.set_timeout(Duration::from_secs(60));
            let mut accepted = 0usize;
            let mut completed = 0usize;
            let mut i = 0usize;
            while completed < OPS_PER_CLIENT {
                if accepted < OPS_PER_CLIENT {
                    let obj = ObjectId((c as u64 + i as u64) % OBJECTS);
                    let outcome = if i.is_multiple_of(2) {
                        client.try_submit_write(obj, format!("v{c}:{i}").as_bytes())
                    } else {
                        client.try_submit_read(obj)
                    };
                    match outcome {
                        Ok(_) => accepted += 1,
                        Err(StoreError::WouldBlock) => {
                            would_blocks.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected submission error: {other}"),
                    }
                    i += 1;
                }
                // Harvest so saturation resolves; block briefly when nothing
                // is ready to avoid a pure spin.
                let done = if client.in_flight() > 0 && accepted == OPS_PER_CLIENT {
                    client.wait_next().expect("drain")
                } else {
                    client.poll().expect("poll")
                };
                completed += done.len();
            }
            assert_eq!(completed, OPS_PER_CLIENT, "accepted ops all complete");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let max_admitted = monitor.join().unwrap();

    // Saturation was actually reached: with 4 clients racing 16-deep
    // pipelines into budgets of 2 ops per partition, refusals must occur.
    assert!(
        would_blocks.load(Ordering::Relaxed) > 0,
        "overload never produced a WouldBlock"
    );
    assert!(max_admitted > 0, "monitor never saw an admitted op");

    // The enforced bound: every L1 worker inbox stayed within the derived
    // depth limit — admission stops below cap × msgs_per_op_bound queued
    // messages, and the at-most-cap admitted ops in flight can add at most
    // one more per-op complement each before completing.
    let limit = CAP * msgs_per_op_bound(&params()) * 2;
    for (j, max_depth) in admin.max_inbox_depths().into_iter().enumerate() {
        assert!(
            max_depth <= limit,
            "L1 server {j} inbox reached {max_depth} > {limit}"
        );
    }
    // Flow control released everything: budgets drain back to zero.
    std::thread::sleep(Duration::from_millis(100));
    assert!(admin.admitted_ops().iter().all(|&admitted| admitted == 0));
    store.shutdown();
}

/// The queueing `submit_*` path also respects the budget: operations wait
/// client-side for admission instead of flooding the servers, and still
/// complete in submission order per object.
#[test]
fn bounded_cluster_queued_submissions_complete_in_order() {
    let store = StoreBuilder::new()
        .params(params())
        .backend(BackendKind::Mbr)
        .inbox_cap(1)
        .shards(2)
        .build()
        .unwrap();
    let mut client = store.client_with_depth(8);
    client.set_timeout(Duration::from_secs(60));
    // Six writes to one object: budget 1 forces them through one at a time.
    for i in 0..6 {
        client.submit_write(ObjectId(7), format!("gen-{i}").as_bytes());
    }
    client.submit_read(ObjectId(7));
    let done = client.wait_all().unwrap();
    assert_eq!(done.len(), 7);
    let tags: Vec<Tag> = done[..6].iter().map(|c| c.outcome.tag()).collect();
    for pair in tags.windows(2) {
        assert!(pair[0] < pair[1], "bounded same-object writes out of order");
    }
    match &done[6].outcome {
        OpOutcome::Read { value, .. } => assert_eq!(value, b"gen-5"),
        other => panic!("expected read outcome, got {other:?}"),
    }
    drop(client);
    store.shutdown();
}
