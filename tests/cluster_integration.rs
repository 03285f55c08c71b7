//! Integration tests for the thread-based cluster runtime, driven entirely
//! through the `Store` facade: the same automata that run in the simulator
//! provide atomic storage over real threads and channels, under concurrency
//! and crash failures — including the pipelined client API and per-object
//! server sharding, in both the paper-faithful and the high-throughput
//! store profiles.

use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder, StoreError, StoreHandle};
use lds_cluster::OpOutcome;
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use lds_core::tag::Tag;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn params() -> SystemParams {
    SystemParams::for_failures(1, 1, 2, 3).unwrap()
}

/// The store profiles every stress test runs under: paper-faithful
/// messaging, the high-throughput profile, and the high-throughput profile
/// with the tag-validated read cache enabled — so the atomicity assertions
/// cover the cached flow too.
fn stress_profiles(backend: BackendKind) -> Vec<(&'static str, StoreHandle)> {
    vec![
        (
            "faithful",
            StoreBuilder::new()
                .params(params())
                .backend(backend)
                .paper_faithful()
                .shards(2)
                .build()
                .unwrap(),
        ),
        (
            "high-throughput",
            StoreBuilder::new()
                .params(params())
                .backend(backend)
                .high_throughput(2)
                .build()
                .unwrap(),
        ),
        (
            "cached",
            StoreBuilder::new()
                .params(params())
                .backend(backend)
                .high_throughput(2)
                .read_cache(8)
                .build()
                .unwrap(),
        ),
    ]
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

#[test]
fn monotonic_reads_under_concurrent_writers() {
    let store = StoreBuilder::new().params(params()).build().unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Two writers race on the same object with self-describing values.
    let mut writer_handles = Vec::new();
    for w in 0..2u64 {
        let store = store.clone();
        let stop = Arc::clone(&stop);
        writer_handles.push(std::thread::spawn(move || {
            let mut client = store.client();
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) && i < 30 {
                let value = format!("{:020}:{w}", i).into_bytes();
                client.write(ObjectId(0), &value).unwrap();
                i += 1;
            }
        }));
    }

    // A reader checks that observed tags never go backwards, and that each
    // writer's sequence numbers are observed in order (the consequences of
    // atomicity for sequential reads by one client). Sequence numbers of
    // *different* writers are not globally ordered: a slow writer may commit
    // its i-th value with a newer tag than a fast writer's much later value.
    let reader_store = store.clone();
    let reader = std::thread::spawn(move || {
        let mut client = reader_store.client();
        let mut last_tag = None;
        let mut last_seq_per_writer = [-1i64; 2];
        for _ in 0..40 {
            let value = client.read(ObjectId(0)).unwrap();
            let tag = client.last_tag().unwrap();
            if let Some(last) = last_tag {
                assert!(
                    tag >= last,
                    "observed tags went backwards: {tag:?} < {last:?}"
                );
            }
            last_tag = Some(tag);
            if value.is_empty() {
                continue; // initial value
            }
            let text = String::from_utf8(value).unwrap();
            let mut parts = text.split(':');
            let seq: i64 = parts.next().unwrap().parse().unwrap();
            let writer: usize = parts.next().unwrap().parse().unwrap();
            assert!(
                seq >= last_seq_per_writer[writer],
                "writer {writer}'s sequence went backwards: {seq} < {}",
                last_seq_per_writer[writer]
            );
            last_seq_per_writer[writer] = seq;
        }
    });

    reader.join().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for handle in writer_handles {
        handle.join().unwrap();
    }
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
/// sharded cluster: checks per-object tag monotonicity, per-writer order and
/// read-your-writes under load, in both store profiles.
#[test]
fn pipelined_multi_object_stress_preserves_atomicity() {
    for (_label, store) in stress_profiles(BackendKind::Mbr) {
        let rounds = 6u64;
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = store.client_with_depth(8);
                // Four private objects plus one object shared by every client.
                let private: Vec<u64> = (0..4).map(|o| 10 * (c + 1) + o).collect();
                let shared = ObjectId(7);
                let mut last_write_tag: HashMap<u64, Tag> = HashMap::new();
                for round in 0..rounds {
                    for &obj in &private {
                        // Two queued writes and a read per object per round:
                        // same-object FIFO makes the read observe the second.
                        client.submit_write(ObjectId(obj), format!("{obj}-{round}-a").as_bytes());
                        client.submit_write(ObjectId(obj), format!("{obj}-{round}-b").as_bytes());
                        client.submit_read(ObjectId(obj));
                    }
                    client.submit_write(shared, format!("shared-{c}-{round}").as_bytes());
                    for completion in client.wait_all().expect("round completes") {
                        match &completion.outcome {
                            OpOutcome::Write { tag } => {
                                // Per-writer, per-object order: this client's
                                // write tags on one object strictly increase.
                                if let Some(prev) = last_write_tag.insert(completion.obj, *tag) {
                                    assert!(
                                        *tag > prev,
                                        "client {c} write tags went backwards on obj {}",
                                        completion.obj
                                    );
                                }
                            }
                            OpOutcome::Read { value, .. } => {
                                // Read-your-writes through the pipeline: the
                                // read was queued behind both writes.
                                assert_eq!(
                                    value,
                                    &format!("{}-{round}-b", completion.obj).into_bytes(),
                                    "client {c} read stale private data"
                                );
                            }
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
        // A checker on the shared object: tags must never go backwards and
        // each writer's round counter must be non-decreasing.
        let checker_store = store.clone();
        let checker = std::thread::spawn(move || {
            let mut client = checker_store.client();
            let mut last_tag: Option<Tag> = None;
            let mut last_round: HashMap<u64, u64> = HashMap::new();
            for _ in 0..40 {
                let value = client.read(ObjectId(7)).expect("shared read");
                let tag = client.last_tag().unwrap();
                if let Some(prev) = last_tag {
                    assert!(tag >= prev, "shared tags went backwards");
                }
                last_tag = Some(tag);
                if value.is_empty() {
                    continue; // initial value
                }
                let text = String::from_utf8(value).unwrap();
                let mut parts = text.split('-').skip(1);
                let writer: u64 = parts.next().unwrap().parse().unwrap();
                let round: u64 = parts.next().unwrap().parse().unwrap();
                let prev = last_round.entry(writer).or_insert(0);
                assert!(round >= *prev, "writer {writer} round went backwards");
                *prev = round;
            }
        });
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
        checker
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
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

/// Regression test for cross-client admission fairness on a bounded-inbox
/// store: a greedy pipelined client hammering `try_submit_*` must not starve
/// a blocking client. Freed budget is granted in waiter-queue order, so
/// after the blocking client's first refusal the greedy one is held back
/// until the blocking client has had its turn.
///
/// The blocking client starts only once the greedy one holds its first
/// grant, so the competition is real however the threads are scheduled: on
/// one CPU the greedy thread may otherwise not run at all before the
/// blocking client is done.
#[test]
fn greedy_pipelined_client_cannot_starve_a_blocking_one() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let store = StoreBuilder::new()
        .params(params())
        .backend(BackendKind::Replication)
        .inbox_cap(1) // a single admission slot per partition
        .build()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let granted = Arc::new(AtomicU64::new(0));
    // The greedy client: re-submits the moment anything completes, across a
    // pool of objects, through the never-queueing try_submit path.
    let greedy = {
        let store = store.clone();
        let (stop, granted) = (Arc::clone(&stop), Arc::clone(&granted));
        std::thread::spawn(move || {
            let mut client = store.client_with_depth(8);
            while !stop.load(Ordering::Relaxed) {
                for obj in 100..108u64 {
                    if client
                        .try_submit_write(ObjectId(obj), b"greedy traffic")
                        .is_ok()
                    {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = client.poll().expect("greedy poll");
            }
            let _ = client.wait_all();
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while granted.load(Ordering::Relaxed) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "greedy client was never granted a slot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The blocking client: sequential writes that must all complete within
    // the timeout despite the greedy competition for the single slot.
    let mut blocking = store.client();
    blocking.set_timeout(Duration::from_secs(20));
    for i in 0..25u64 {
        blocking
            .write(ObjectId(7), format!("blocking {i}").as_bytes())
            .expect("blocking client starved by greedy pipelined client");
    }
    stop.store(true, Ordering::Relaxed);
    greedy.join().unwrap();
    assert!(
        granted.load(Ordering::Relaxed) > 0,
        "greedy client made progress too (fairness, not lockout)"
    );
    assert_eq!(blocking.read(ObjectId(7)).unwrap(), b"blocking 24".to_vec());
    drop(blocking);
    store.shutdown();
}

/// Large values round-trip byte-identically on every backend, at sizes on
/// both sides of a 4 KiB boundary, a ragged multiple of it, 64 KiB and
/// 1 MiB — each one `PUT-DATA` per L1 server and one `WRITE-CODE-ELEM` per
/// L2 server.
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
        for (obj, len) in [
            (1u64, KIB4 - 1),
            (2, KIB4),
            (3, 5 * KIB4 + 7),
            (4, 16 * KIB4),
            (5, 1 << 20),
        ] {
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

/// The tag-validated read cache serves repeat reads of an unchanged object
/// without the data-transfer phase, misses when another client overwrites
/// (the quorum-confirmed tag no longer matches), and re-validates afterwards
/// — reads always return the latest committed value.
#[test]
fn read_cache_hits_skip_data_transfer_and_stay_coherent() {
    let store = StoreBuilder::new()
        .params(params())
        .read_cache(4)
        .build()
        .unwrap();
    let mut a = store.client();
    let mut b = store.client();
    a.write(ObjectId(1), b"generation one").unwrap();
    // a's completed write seeded its cache with the committed (tag, value):
    // a quiescent re-read confirms the tag by quorum and hits.
    assert_eq!(a.read(ObjectId(1)).unwrap(), b"generation one");
    assert!(
        a.cache_hits() >= 1,
        "quiescent re-read should hit the cache"
    );
    // Another client overwrites: a's cached tag is stale, so its next read
    // misses the cache and fetches the new value — never the cached one.
    b.write(ObjectId(1), b"generation two").unwrap();
    let hits_before_miss = a.cache_hits();
    assert_eq!(a.read(ObjectId(1)).unwrap(), b"generation two");
    assert_eq!(
        a.cache_hits(),
        hits_before_miss,
        "a read after a foreign overwrite must not be served from cache"
    );
    // The miss refreshed the cache at the new tag: the next read hits again.
    assert_eq!(a.read(ObjectId(1)).unwrap(), b"generation two");
    assert!(a.cache_hits() > hits_before_miss);
    store.shutdown();
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
