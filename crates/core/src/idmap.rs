//! Maps and sets keyed by protocol ids ([`ObjectId`](crate::ObjectId),
//! [`OpId`](crate::OpId), `ProcessId`), hashed without SipHash.
//!
//! Every message an automaton or a client handles is looked up by its
//! object, operation or destination two to four times, so the hash of a
//! one- or two-word id sits on the message path. [`IdHasher`] hashes a word
//! with one folded 64×64→128-bit multiply. Object ids arrive from remote
//! clients, though, so a key family a client picks must not be able to
//! collapse the table's buckets: the multiply's operands are mixed with a
//! seed drawn from [`RandomState`]. As with `RandomState`, every map gets a
//! seed of its own, so one map's iteration order says nothing about where
//! its keys land in another: the repair path fills an empty map with a
//! helper's objects in that helper's iteration order, which under one
//! shared seed would pack them into a run of neighbouring buckets.
//! A client that does not know the seed cannot pick colliding keys. Unlike
//! SipHash the hash is not a keyed pseudo-random function, so a client
//! that could observe many hashes might learn enough of the seed to do so;
//! hashes never leave the process.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by ids, hashed by [`IdHasher`]. Build with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, IdHashState>;

/// A `HashSet` of ids, hashed by [`IdHasher`]. Build with
/// `IdSet::default()`.
pub type IdSet<K> = HashSet<K, IdHashState>;

/// The seed and multiplier of one map's [`IdHasher`]s.
#[derive(Debug, Clone, Copy)]
pub struct IdHashState {
    seed: u64,
    /// Odd, so the multiply loses no input bit before the fold.
    multiplier: u64,
}

impl Default for IdHashState {
    /// A fresh seed per map, the way `RandomState::new` makes one: keys
    /// drawn once per thread, and a counter folded in for each new map.
    fn default() -> Self {
        thread_local! {
            static KEYS: Cell<(u64, u64)> = {
                let random = RandomState::new();
                Cell::new((random.hash_one(0u64), random.hash_one(1u64) | 1))
            };
        }
        KEYS.with(|keys| {
            let (k0, multiplier) = keys.get();
            keys.set((k0.wrapping_add(1), multiplier));
            IdHashState {
                seed: folded_multiply(k0, multiplier),
                multiplier,
            }
        })
    }
}

impl BuildHasher for IdHashState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// The low and high halves of `a · b`, xored.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// The hasher of [`IdMap`] / [`IdSet`]: each word is xored into the state,
/// which is then multiplied by the seeded multiplier into 128 bits and
/// folded back to 64. One fold leaves the low bits of keys that differ only
/// in their high bits (`i << 32`) in as few as a few hundred of 4 096
/// buckets for an unlucky seed, so `finish` folds once more by a fixed odd
/// constant: then every input bit reaches the low bits a bucket is picked
/// by, and the high ones a probe's tag is taken from.
#[derive(Debug, Clone)]
pub struct IdHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.multiplier);
    }

    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Any other key: eight bytes at a time, the tail zero-padded and
    /// marked with its length so `[0]` and `[0, 0]` differ.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.write_u64(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 59));
    }

    fn finish(&self) -> u64 {
        folded_multiply(self.state, 0x9E37_79B9_7F4A_7C15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{ClientId, ObjectId, OpId};

    #[test]
    fn ids_hash_apart() {
        let state = IdHashState::default();
        let op = OpId::new(ClientId(3), 9);
        assert_eq!(state.hash_one(op), state.hash_one(op));
        assert_ne!(
            state.hash_one(op),
            state.hash_one(OpId::new(ClientId(9), 3))
        );
        assert_ne!(state.hash_one(ObjectId(0)), state.hash_one(ObjectId(1)));
        assert_ne!(
            state.hash_one([0u8].as_slice()),
            state.hash_one([0u8, 0].as_slice())
        );
    }

    /// Two maps put a key in unrelated buckets: of 4 096 keys, about one
    /// shares its low-12-bit bucket across two maps, as for independent
    /// random functions, not all 4 096 as under one shared seed.
    #[test]
    fn every_map_places_keys_its_own_way() {
        let (a, b) = (IdHashState::default(), IdHashState::default());
        let bucket = |state: &IdHashState, i: u64| state.hash_one(ObjectId(i)) % 4096;
        let shared = (0..4096)
            .filter(|&i| bucket(&a, i) == bucket(&b, i))
            .count();
        assert!(shared < 16, "{shared} of 4096 keys share a bucket");
    }

    #[test]
    fn maps_and_sets_behave_as_maps_and_sets() {
        let mut map: IdMap<ObjectId, u64> = IdMap::default();
        let mut set: IdSet<OpId> = IdSet::default();
        for i in 0..1000u64 {
            map.insert(ObjectId(i << 40), i);
            assert!(set.insert(OpId::new(ClientId(i), 0)));
        }
        assert!(!set.insert(OpId::new(ClientId(7), 0)));
        assert_eq!(map.len(), 1000);
        assert!((0..1000u64).all(|i| map[&ObjectId(i << 40)] == i));
    }
}
