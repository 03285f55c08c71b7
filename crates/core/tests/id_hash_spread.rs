//! The id hasher spreads structured keys.
//!
//! A table picks a key's bucket by the low bits of its hash. Under a plain
//! multiply by an odd constant the low `b` bits of the product depend only on
//! the low `b` bits of the key, so keys that differ only above bit 12 — object
//! ids a client mints as `i << 32`, `i << 48` or `i * 4096` — would all land
//! in one of 4 096 buckets. The folded multiply brings the high half of the
//! product down; this file checks that each such family, and the operation
//! ids of many clients, fill at least half of the 4 096 low-12-bit buckets (a
//! random function fills about 63 %) under each of eight maps' seeds. Its own
//! file because the allocation tests of this crate count process-wide.

use lds_core::idmap::IdHashState;
use lds_core::{ClientId, ObjectId, OpId};
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash};

const KEYS: u64 = 4096;
const BUCKETS: u64 = 4096;
/// Maps, each with a seed of its own, a family is hashed under.
const SEEDS: usize = 8;

/// The fewest distinct low-12-bit buckets the hashes of `keys` fall into
/// under any of [`SEEDS`] maps' seeds.
fn buckets<K: Hash>(keys: impl Iterator<Item = K> + Clone) -> usize {
    (0..SEEDS)
        .map(|_| {
            let state = IdHashState::default();
            keys.clone()
                .map(|key| state.hash_one(key) % BUCKETS)
                .collect::<HashSet<_>>()
                .len()
        })
        .min()
        .expect("at least one seed")
}

#[test]
fn structured_key_families_fill_at_least_half_the_buckets() {
    let families = [
        (
            "ObjectId(i << 32)",
            buckets((0..KEYS).map(|i| ObjectId(i << 32))),
        ),
        (
            "ObjectId(i << 48)",
            buckets((0..KEYS).map(|i| ObjectId(i << 48))),
        ),
        (
            "ObjectId(i * 4096)",
            buckets((0..KEYS).map(|i| ObjectId(i * 4096))),
        ),
        (
            "OpId { client: i, seq: 0 }",
            buckets((0..KEYS).map(|i| OpId::new(ClientId(i), 0))),
        ),
    ];
    for (family, filled) in families {
        println!("{family}: at least {filled} of {BUCKETS} buckets");
        assert!(
            filled as u64 >= BUCKETS / 2,
            "{family}: {KEYS} keys fill only {filled} of {BUCKETS} buckets"
        );
    }
}
