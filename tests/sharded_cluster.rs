//! Cross-shard stress test for a store whose servers run two worker shards:
//! multi-client pipelined writes/reads spanning both key partitions, and
//! the recorded history passes `History::check_atomicity`.

mod common;

use common::{profiles, Recorder};
use lds_cluster::api::{ObjectId, Store};
use lds_cluster::shard_of;
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use std::sync::atomic::{AtomicBool, Ordering};
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
