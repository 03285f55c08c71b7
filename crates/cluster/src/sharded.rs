//! Placement for multi-cluster deployments: which of `N` independent
//! clusters owns an object.
//!
//! A single LDS membership caps throughput at one `n1 + n2` group's
//! capacity. A deployment built with
//! [`StoreBuilder::clusters`](crate::api::StoreBuilder::clusters)` > 1`
//! partitions the `ObjectId` space across `N` independent [`crate::Cluster`]s
//! — each with its **own** L1/L2 membership, router and failure budget (`f1`
//! crashes in its L1 group, `f2` in its L2 group, per cluster) — and every
//! [`StoreClient`](crate::api::StoreClient) routes each operation to the
//! cluster owning its object.
//!
//! # Why this preserves the paper's guarantees
//!
//! The LDS protocol is per-object: tags, the `L` lists, the committed tag
//! and the reader registry are all keyed by `ObjectId`, and linearizability
//! is per object (the paper's automaton is one atomic register per object).
//! Every object lives on exactly one cluster, so operations on different
//! clusters touch *different* objects and need no coordination at all —
//! composing per-object atomic registers over disjoint object sets is again
//! a collection of per-object atomic registers.
//!
//! # Placement
//!
//! Objects are placed with a **jump consistent hash** ([`cluster_of`],
//! Lamping & Veach): uniform spread, no lookup tables, and growing `N` to
//! `N + 1` moves only `1/(N + 1)` of the object space — the property that
//! makes offline resharding cheap.
//!
//! # Example
//!
//! ```rust
//! use lds_cluster::api::{Store, StoreBuilder};
//! use lds_cluster::{cluster_of, OpOutcome};
//!
//! // Two independent L1/L2 groups behind one client, high-throughput profile.
//! let store = StoreBuilder::new().high_throughput(2).clusters(2).build().unwrap();
//! let mut client = store.client_with_depth(8);
//! for obj in 0..8u64 {
//!     client.submit_write(obj.into(), &[obj as u8; 16]);
//! }
//! let completions = client.wait_all().unwrap();
//! assert_eq!(completions.len(), 8);
//! assert!(completions.iter().all(|c| matches!(c.outcome, OpOutcome::Write { .. })));
//! // Each cluster owns some of the eight keys.
//! assert!((0..2).all(|c| (0..8).any(|obj| cluster_of(obj, 2) == c)));
//! store.shutdown();
//! ```

/// The cluster shard (of `clusters` many) that owns object `obj`, by jump
/// consistent hash (Lamping & Veach, 2014).
///
/// Deterministic, uniform, and *consistent*: re-evaluating with `clusters + 1`
/// moves exactly the expected `1/(clusters + 1)` fraction of keys, all of
/// them onto the new shard. Independent of the intra-cluster worker-shard
/// hash ([`crate::shard_of`]), so object partitions inside a cluster stay
/// balanced regardless of the cluster count.
///
/// # Panics
///
/// Panics if `clusters` is zero.
pub fn cluster_of(obj: u64, clusters: usize) -> usize {
    assert!(clusters > 0, "at least one cluster shard is required");
    if clusters == 1 {
        return 0;
    }
    let mut key = obj;
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < clusters as i64 {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = (((b + 1) as f64) * ((1u64 << 31) as f64 / (((key >> 33) + 1) as f64))) as i64;
    }
    b as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ObjectId, ServerRef, Store, StoreBuilder, StoreError, StoreHandle};
    use crate::{OpOutcome, OpTicket};
    use lds_core::backend::BackendKind;
    use lds_core::tag::Tag;

    fn store(clusters: usize, backend: BackendKind) -> StoreHandle {
        StoreBuilder::new()
            .backend(backend)
            .clusters(clusters)
            .build()
            .unwrap()
    }

    #[test]
    fn jump_hash_is_uniform_and_consistent() {
        // Uniform-ish: every shard owns a reasonable share of 10k keys.
        for clusters in [2usize, 3, 5, 8] {
            let mut counts = vec![0usize; clusters];
            for obj in 0..10_000u64 {
                counts[cluster_of(obj, clusters)] += 1;
            }
            for (s, &n) in counts.iter().enumerate() {
                let expected = 10_000 / clusters;
                assert!(
                    n > expected / 2 && n < expected * 2,
                    "shard {s} of {clusters} owns {n} keys"
                );
            }
        }
        // Consistent: growing N to N+1 only moves keys onto the new shard.
        for clusters in 1usize..8 {
            let mut moved = 0usize;
            for obj in 0..10_000u64 {
                let before = cluster_of(obj, clusters);
                let after = cluster_of(obj, clusters + 1);
                if before != after {
                    assert_eq!(after, clusters, "keys only move to the new shard");
                    moved += 1;
                }
            }
            // Expected moved fraction is 1/(clusters+1).
            let expected = 10_000 / (clusters + 1);
            assert!(
                moved > expected / 2 && moved < expected * 2,
                "{moved} of 10k keys moved going from {clusters} to {} shards",
                clusters + 1
            );
        }
    }

    #[test]
    fn facade_routes_blocking_ops_to_owning_shards() {
        let store = store(2, BackendKind::Replication);
        let mut client = store.client();
        for obj in 0..8u64 {
            let tag = client
                .write(ObjectId(obj), format!("value {obj}").as_bytes())
                .unwrap();
            assert!(tag > Tag::initial());
            assert_eq!(
                client.read(ObjectId(obj)).unwrap(),
                format!("value {obj}").into_bytes()
            );
        }
        // Both clusters saw traffic: each served the writes of its own keys
        // and of no others.
        let m = store.admin().metrics();
        assert_eq!(m.write_latency.count(), 8);
        for c in 0..2 {
            let owned = (0..8u64).filter(|&obj| cluster_of(obj, 2) == c).count();
            assert!(owned > 0, "8 consecutive objects span both clusters");
            let served = store.clusters[c].obs_metrics().write_us.snapshot().count();
            assert_eq!(served, owned as u64, "cluster {c}");
        }
        drop(client);
        store.shutdown();
    }

    #[test]
    fn facade_pipelines_across_shards_and_orders_tickets() {
        let store = store(3, BackendKind::Mbr);
        let mut client = store.client_with_depth(12);
        for obj in 0..12u64 {
            client.submit_write(ObjectId(obj), format!("w{obj}").as_bytes());
        }
        for obj in 0..12u64 {
            client.submit_read(ObjectId(obj));
        }
        let completions = client.wait_all().unwrap();
        assert_eq!(completions.len(), 24);
        // wait_all returns submission order.
        let tickets: Vec<OpTicket> = completions.iter().map(|c| c.ticket).collect();
        let mut sorted = tickets.clone();
        sorted.sort();
        assert_eq!(tickets, sorted);
        // Same-object FIFO holds across clusters: every read (second half)
        // observes its object's write (first half).
        for c in &completions[12..] {
            match &c.outcome {
                OpOutcome::Read { value, .. } => {
                    assert_eq!(value, &format!("w{}", c.obj).into_bytes());
                }
                other => panic!("expected read outcome, got {other:?}"),
            }
        }
        drop(client);
        store.shutdown();
    }

    #[test]
    fn facade_wait_and_poll_mirror_cluster_client() {
        let store = store(2, BackendKind::Replication);
        let mut client = store.client_with_depth(8);
        let t0 = client.submit_write(ObjectId(0), b"a");
        let t1 = client.submit_write(ObjectId(1), b"b");
        let c1 = client.wait(t1).unwrap();
        assert_eq!(c1.ticket, t1);
        let c0 = client.wait(t0).unwrap();
        assert_eq!(c0.ticket, t0);
        assert_eq!(client.wait(t0), Err(StoreError::UnknownTicket));
        assert_eq!(client.pending_ops(), 0);
        drop(client);
        store.shutdown();
    }

    #[test]
    fn facade_survives_tolerated_failures_per_shard() {
        let store = store(2, BackendKind::Mbr);
        // Kill f1 = 1 L1 server in *each* cluster: every partition still has
        // its quorums.
        let admin = store.admin();
        admin.kill(ServerRef::l1(0).in_cluster(0)).unwrap();
        admin.kill(ServerRef::l1(3).in_cluster(1)).unwrap();
        let mut client = store.client();
        for obj in 0..6u64 {
            client.write(ObjectId(obj), b"resilient").unwrap();
            assert_eq!(client.read(ObjectId(obj)).unwrap(), b"resilient");
        }
        drop(client);
        store.shutdown();
    }

    #[test]
    fn facade_wait_next_harvests_from_any_shard() {
        let store = store(2, BackendKind::Replication);
        let mut client = store.client_with_depth(8);
        for obj in 0..8u64 {
            client.submit_write(ObjectId(obj), &[obj as u8; 8]);
        }
        let mut harvested = 0;
        while harvested < 8 {
            let batch = client.wait_next().unwrap();
            assert!(
                !batch.is_empty(),
                "wait_next returned empty with work outstanding"
            );
            harvested += batch.len();
        }
        assert!(
            client.wait_next().unwrap().is_empty(),
            "nothing outstanding"
        );
        drop(client);
        store.shutdown();
    }
}
