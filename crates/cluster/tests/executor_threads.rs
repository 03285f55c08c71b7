//! The thread budget of a deployment: `min(cores, hosted shard automata)`
//! executor workers, whatever the shard count. Alone in its file — the
//! process-wide thread count is only meaningful while no other test runs.

#![cfg(target_os = "linux")]

use lds_cluster::api::{ObjectId, Store, StoreBuilder};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn nine_servers_of_two_shards_add_min_cores_eighteen_threads() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = threads();
    let store = StoreBuilder::new().shards(2).build().unwrap();
    assert_eq!(threads() - before, cores.min(18), "{cores} cores");
    assert_eq!(store.admin().metrics().executor_workers, cores.min(18));
    // Clients bring no thread of their own, and all 18 automata serve.
    let mut client = store.client();
    for obj in 0..16u64 {
        client.write(ObjectId(obj), &[obj as u8; 64]).unwrap();
        assert_eq!(client.read(ObjectId(obj)).unwrap(), [obj as u8; 64]);
    }
    assert_eq!(threads() - before, cores.min(18));
    drop(client);
    store.shutdown();
    // Joined threads leave the kernel's count a moment after `join` returns.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() != before && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), before, "shutdown joins every worker");
}
