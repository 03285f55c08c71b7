//! Integration tests for the thread-based cluster runtime, driven entirely
//! through the `Store` facade: the same automata that run in the simulator
//! provide atomic storage over real threads and channels, under concurrency
//! and crash failures — including the pipelined client API and per-object
//! server sharding, in both the paper-faithful and the high-throughput
//! store profiles. Concurrent runs end in `History::check_atomicity` over
//! everything their clients completed.

mod common;

use common::{profiles, Recorder};
use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder, StoreError, StoreHandle};
use lds_cluster::OpOutcome;
use lds_core::backend::BackendKind;
use lds_core::consistency::{AtomicityViolation, History, Operation, OperationKind};
use lds_core::params::SystemParams;
use lds_core::tag::Tag;
use lds_core::value::Value;
use std::time::Duration;

fn params() -> SystemParams {
    SystemParams::for_failures(1, 1, 2, 3).unwrap()
}

/// The store profiles every stress test runs under: both protocol profiles
/// with two shards per server.
fn stress_profiles(backend: BackendKind) -> Vec<(&'static str, StoreHandle)> {
    profiles()
        .into_iter()
        .map(|(label, builder)| {
            let builder = builder.params(params()).backend(backend).shards(2);
            (label, builder.build().unwrap())
        })
        .collect()
}

#[test]
fn read_your_writes_across_clients() {
    let store = StoreBuilder::new().params(params()).build().unwrap();
    let mut a = store.client();
    let mut b = store.client();
    for i in 0..10u64 {
        let value = format!("generation {i}").into_bytes();
        a.write(ObjectId(0), &value).unwrap();
        assert_eq!(
            b.read(ObjectId(0)).unwrap(),
            value,
            "a completed write is visible to every later read"
        );
    }
    store.shutdown();
}

/// Two writers race on one object while a third client reads it.
#[test]
fn monotonic_reads_under_concurrent_writers() {
    let store = StoreBuilder::new().params(params()).build().unwrap();
    let recorder = Recorder::new();
    let mut writers = Vec::new();
    for w in 0..2u64 {
        let (store, recorder) = (store.clone(), recorder.clone());
        writers.push(std::thread::spawn(move || {
            let mut client = recorder.wrap(store.client());
            for i in 0..30u64 {
                let value = format!("{i:020}:{w}").into_bytes();
                client.write(ObjectId(0), &value).unwrap();
            }
        }));
    }
    let mut reader = recorder.wrap(store.client());
    for _ in 0..40 {
        reader.read(ObjectId(0)).unwrap();
    }
    for handle in writers {
        handle
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
    }
    recorder.check();
    store.shutdown();
}

/// The oracle bites on runtime histories: a recorded run passes, and the
/// same history fails once doctored (a) to serve a read the value of a
/// write that a newer, already completed write superseded before the read
/// was invoked, or (b) to serve a read bytes no write produced.
#[test]
fn the_atomicity_oracle_rejects_doctored_runtime_histories() {
    let store = StoreBuilder::new().params(params()).build().unwrap();
    let recorder = Recorder::new();
    let mut writer = recorder.wrap(store.client());
    let mut reader = recorder.wrap(store.client());
    reader.read(ObjectId(0)).unwrap();
    writer.write(ObjectId(0), b"old").unwrap();
    writer.write(ObjectId(0), b"new").unwrap();
    reader.read(ObjectId(0)).unwrap();
    recorder.check();

    // One operation at a time, so the log is in real-time order, and each
    // operation is recorded as preceding the next.
    let ops = recorder.history().operations().to_vec();
    for (a, b) in ops.iter().zip(&ops[1..]) {
        assert!(a.precedes(b), "{a:?} then {b:?}");
    }
    let (initial, old, new, last) = (&ops[0], &ops[1], &ops[2], &ops[3]);
    assert!(initial.tag.is_initial() && old.tag < new.tag);
    let doctored = |read: &Operation, tag: Tag, value: &Value| {
        let mut history = History::new();
        for op in &ops {
            let mut op = op.clone();
            if op.op == read.op {
                (op.tag, op.kind) = (tag, OperationKind::Read(value.clone()));
            }
            history.record(op);
        }
        history.check_atomicity()
    };
    assert_eq!(
        doctored(last, old.tag, old.value()),
        Err(AtomicityViolation::RealTimeViolation {
            earlier: new.op,
            later: last.op
        })
    );
    assert_eq!(
        doctored(initial, initial.tag, &Value::from("ghost")),
        Err(AtomicityViolation::UnknownValue { read: initial.op })
    );
    drop((writer, reader));
    store.shutdown();
}

#[test]
fn operations_survive_tolerated_crashes_but_not_more() {
    let store = StoreBuilder::new().params(params()).build().unwrap();
    let admin = store.admin();
    let mut client = store.client();
    client.write(ObjectId(5), b"before crashes").unwrap();

    // Tolerated: f1 = 1, f2 = 1.
    admin.kill(ServerRef::l1(1)).unwrap();
    admin.kill(ServerRef::l2(0)).unwrap();
    client
        .write(ObjectId(5), b"after tolerated crashes")
        .unwrap();
    assert_eq!(
        client.read(ObjectId(5)).unwrap(),
        b"after tolerated crashes"
    );
    assert!(!admin.liveness().all_live());
    assert_eq!(admin.liveness().crashed().len(), 2);

    // One more L1 crash exceeds f1: quorums of f1 + k = 3 out of the 2
    // remaining servers are impossible, so operations time out.
    admin.kill(ServerRef::l1(2)).unwrap();
    client.set_timeout(Duration::from_millis(300));
    assert_eq!(
        client.write(ObjectId(5), b"doomed"),
        Err(StoreError::Timeout)
    );

    store.shutdown();
}

/// Multi-client, multi-object stress through the pipelined client API on a
/// sharded cluster, in every stress profile: each client's private objects
/// hold the per-key FIFO contract (a read queued behind two writes returns
/// the second), a fifth client keeps reading the object every client
/// writes, and the whole run ends in the atomicity checker.
#[test]
fn pipelined_multi_object_stress_preserves_atomicity() {
    const SHARED: ObjectId = ObjectId(7);
    for (label, store) in stress_profiles(BackendKind::Mbr) {
        let rounds = 6u64;
        let recorder = Recorder::new();
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let (store, recorder) = (store.clone(), recorder.clone());
            handles.push(std::thread::spawn(move || {
                let mut client = recorder.wrap(store.client_with_depth(8));
                // Four private objects plus one object shared by every client.
                let private: Vec<u64> = (0..4).map(|o| 10 * (c + 1) + o).collect();
                for round in 0..rounds {
                    for &obj in &private {
                        client.submit_write(ObjectId(obj), format!("{obj}-{round}-a").as_bytes());
                        client.submit_write(ObjectId(obj), format!("{obj}-{round}-b").as_bytes());
                        client.submit_read(ObjectId(obj));
                    }
                    client.submit_write(SHARED, format!("shared-{c}-{round}").as_bytes());
                    for completion in client.wait_all().expect("round completes") {
                        if let OpOutcome::Read { value, .. } = &completion.outcome {
                            assert_eq!(
                                value,
                                &format!("{}-{round}-b", completion.obj).into_bytes(),
                                "[{label}] client {c} read stale private data"
                            );
                        }
                    }
                }
                // Final blocking check per private object.
                for &obj in &private {
                    let value = client.read(ObjectId(obj)).expect("final read");
                    assert_eq!(value, format!("{obj}-{}-b", rounds - 1).into_bytes());
                }
            }));
        }
        let mut reader = recorder.wrap(store.client());
        for _ in 0..40 {
            reader.read(SHARED).expect("shared read");
        }
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
        recorder.check();
        drop(reader);
        store.shutdown();
    }
}

/// The pipelined stress keeps completing when `f1` L1 servers are killed
/// mid-stream (in both profiles; in the high-throughput profile this also
/// kills one of the `f1 + 1` offloaders).
#[test]
fn pipelined_stress_survives_l1_crash_mid_stream() {
    for (_label, store) in stress_profiles(BackendKind::Mbr) {
        let mut handles = Vec::new();
        for c in 0..2u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let admin = store.admin();
                let mut client = store.client_with_depth(8);
                for round in 0..10u64 {
                    for obj in 0..4u64 {
                        let obj = ObjectId(10 * (c + 1) + obj);
                        client.submit_write(obj, format!("{obj}-{round}").as_bytes());
                    }
                    client.wait_all().expect("operations survive f1 crashes");
                    if round == 4 && c == 0 {
                        // Kill one L1 server (= f1) while operations stream.
                        admin.kill(ServerRef::l1(0)).unwrap();
                    }
                }
                for obj in 0..4u64 {
                    let obj = ObjectId(10 * (c + 1) + obj);
                    assert_eq!(
                        client.read(obj).expect("read after crash"),
                        format!("{obj}-9").into_bytes()
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
        store.shutdown();
    }
}

/// Regression test for the L1 metadata leak: over a sustained ≥10k-operation
/// run, the per-tag metadata (broadcast dedup sets, commit counters, list
/// keys, pending acks) and the temporary value storage stay bounded by the
/// number of objects and in-flight operations — not by the number of
/// operations ever performed. Before committed-tag garbage collection the
/// `relayed`/`consumed` sets alone grew by ~8 entries per write per server.
#[test]
fn l1_metadata_and_storage_stay_bounded_over_sustained_run() {
    for (label, store) in stress_profiles(BackendKind::Replication) {
        let admin = store.admin();
        let objects = 8u64;
        let value_size = 16usize;
        let mut client_a = store.client_with_depth(16);
        let mut client_b = store.client_with_depth(16);
        let mut completed = 0usize;
        let mut seq = 0u64;
        while completed < 10_200 {
            for _ in 0..64 {
                let obj = ObjectId(seq % objects);
                client_a.submit_write(obj, &vec![(seq % 251) as u8; value_size]);
                client_b.submit_read(obj);
                seq += 1;
            }
            completed += client_a.wait_all().expect("writer batch").len();
            completed += client_b.wait_all().expect("reader batch").len();
        }
        assert!(completed >= 10_200, "run was not sustained");
        // Let every shard drain its inbox and publish its stats.
        std::thread::sleep(Duration::from_millis(200));

        let metrics = admin.metrics();
        let entries = metrics.l1_metadata_entries;
        // Bound: a handful of entries per object per server (committed tag,
        // current broadcast round, in-flight residue) — far below the ~8
        // entries *per write* per server the leak used to accumulate (10k+
        // writes would exceed 80_000).
        assert!(
            entries < 4_000,
            "[{label}] L1 metadata grew with operation count: {entries} entries"
        );
        let bytes = metrics.l1_temporary_bytes;
        // Bound: at most the committed value per object per server (the
        // high-throughput profile caches exactly that) plus in-flight slack.
        let cache_bound = 4 * objects as usize * value_size;
        assert!(
            bytes <= 4 * cache_bound,
            "[{label}] L1 temporary storage unbounded: {bytes} bytes"
        );
        store.shutdown();
    }
}

/// Large values round-trip byte-identically on every backend, at sizes on
/// both sides of a 4 KiB boundary, a ragged multiple of it, 64 KiB and
/// 1 MiB — each one `PUT-DATA` per L1 server and one `WRITE-CODE-ELEM` per
/// L2 server — plus 4 MiB on MBR alone (one backend keeps debug-build test
/// time flat).
#[test]
fn large_values_roundtrip_on_every_backend() {
    const KIB4: usize = 1 << 12;
    for backend in [
        BackendKind::Mbr,
        BackendKind::MsrPoint,
        BackendKind::ProductMatrixMsr,
        BackendKind::Replication,
    ] {
        let store = StoreBuilder::new()
            .params(params())
            .backend(backend)
            .build()
            .unwrap();
        let mut writer = store.client();
        let mut reader = store.client();
        let mut sizes = vec![
            (1u64, KIB4 - 1),
            (2, KIB4),
            (3, 5 * KIB4 + 7),
            (4, 16 * KIB4),
            (5, 1 << 20),
        ];
        if backend == BackendKind::Mbr {
            sizes.push((6, 4 << 20));
        }
        for (obj, len) in sizes {
            let value: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            writer.write(ObjectId(obj), &value).unwrap();
            assert_eq!(
                reader.read(ObjectId(obj)).unwrap(),
                value,
                "{backend:?}: {len}-byte value corrupted"
            );
        }
        store.shutdown();
    }
}

#[test]
fn distinct_objects_are_independent() {
    let store = StoreBuilder::new().params(params()).build().unwrap();
    let mut handles = Vec::new();
    for obj in 0..4u64 {
        let store = store.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = store.client();
            for i in 0..5u64 {
                client
                    .write(ObjectId(obj), format!("obj{obj}-v{i}").as_bytes())
                    .unwrap();
            }
            client.read(ObjectId(obj)).unwrap()
        }));
    }
    for (obj, handle) in handles.into_iter().enumerate() {
        let final_value = handle.join().unwrap();
        assert_eq!(final_value, format!("obj{obj}-v4").into_bytes());
    }
    store.shutdown();
}
