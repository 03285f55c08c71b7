//! Self-describing values: every written value starts with a header naming
//! its object, writer and per-writer sequence number, sealed by a checksum
//! over header and payload, so a read can be checked without remembering
//! what was written.

use crate::ops::Rng;

pub const HEADER_LEN: usize = 48;
const MAGIC: u64 = 0x4C44_535F_5641_4C31; // "LDS_VAL1"

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub obj: u64,
    pub writer: u64,
    pub seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampError {
    Length,
    Magic,
    Object,
    Checksum,
}

/// A four-lane multiply-rotate sum: one pass at memory speed, and every
/// step is a bijection of its lane, so a changed word changes the result.
pub fn payload_sum(payload: &[u8]) -> u64 {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word).wrapping_mul(MUL).rotate_left(29);
        }
    }
    for &byte in blocks.remainder() {
        lanes[0] = (lanes[0] ^ byte as u64).wrapping_mul(MUL).rotate_left(29);
    }
    lanes.iter().fold(payload.len() as u64, |acc, lane| {
        (acc ^ lane).wrapping_mul(MUL).rotate_left(31)
    })
}

fn header_sum(stamp: Stamp, payload_sum: u64) -> u64 {
    let words = [MAGIC, stamp.obj, stamp.writer, stamp.seq, payload_sum];
    let mut bytes = [0u8; 40];
    for (slot, word) in bytes.chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    self::payload_sum(&bytes)
}

/// Writes the header for `stamp` into the front of `value`, whose payload
/// (everything after the header) sums to `payload_sum`.
pub fn seal(value: &mut [u8], stamp: Stamp, payload_sum: u64) {
    let words = [
        MAGIC,
        stamp.obj,
        stamp.writer,
        stamp.seq,
        payload_sum,
        header_sum(stamp, payload_sum),
    ];
    for (slot, word) in value[..HEADER_LEN].chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
}

/// Checks a value read back from `obj`: length, magic, object id, and the
/// checksum over the header and every payload byte.
pub fn verify(value: &[u8], obj: u64, len: usize) -> Result<Stamp, StampError> {
    if value.len() != len || len < HEADER_LEN {
        return Err(StampError::Length);
    }
    let mut words = [0u64; 6];
    for (word, slot) in words.iter_mut().zip(value[..HEADER_LEN].chunks_exact(8)) {
        *word = u64::from_le_bytes(slot.try_into().expect("8-byte chunk"));
    }
    let [magic, stamped_obj, writer, seq, stored_payload_sum, stored_header_sum] = words;
    if magic != MAGIC {
        return Err(StampError::Magic);
    }
    if stamped_obj != obj {
        return Err(StampError::Object);
    }
    let stamp = Stamp { obj, writer, seq };
    if payload_sum(&value[HEADER_LEN..]) != stored_payload_sum
        || header_sum(stamp, stored_payload_sum) != stored_header_sum
    {
        return Err(StampError::Checksum);
    }
    Ok(stamp)
}

/// Values made before the measured window: random payloads with their sums,
/// so a write inside the window only rewrites 48 header bytes.
pub struct ValuePool {
    values: Vec<Vec<u8>>,
    sums: Vec<u64>,
    next: usize,
}

impl ValuePool {
    /// About 2 MiB of distinct payloads, at least four values.
    pub fn new(value_size: usize, rng: &mut Rng) -> ValuePool {
        assert!(
            value_size >= HEADER_LEN,
            "values must hold the stamp header"
        );
        let count = ((2 << 20) / value_size).clamp(4, 256);
        let values: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let mut value = vec![0u8; value_size];
                rng.fill(&mut value[HEADER_LEN..]);
                value
            })
            .collect();
        let sums = values
            .iter()
            .map(|v| payload_sum(&v[HEADER_LEN..]))
            .collect();
        ValuePool {
            values,
            sums,
            next: 0,
        }
    }

    /// The next pooled value, sealed for `stamp`.
    pub fn sealed(&mut self, stamp: Stamp) -> &[u8] {
        let slot = self.next;
        self.next = (slot + 1) % self.values.len();
        seal(&mut self.values[slot], stamp, self.sums[slot]);
        &self.values[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_values_verify_and_any_corruption_is_caught() {
        let mut pool = ValuePool::new(256, &mut Rng::new(5));
        let stamp = Stamp {
            obj: 17,
            writer: 2,
            seq: 99,
        };
        let value = pool.sealed(stamp).to_vec();
        assert_eq!(verify(&value, 17, 256), Ok(stamp));
        assert_eq!(verify(&value, 18, 256), Err(StampError::Object));
        assert_eq!(verify(&value[..255], 17, 256), Err(StampError::Length));
        assert_eq!(verify(&value, 17, 255), Err(StampError::Length));
        // Every single-byte flip — header, payload, the 32-byte-block tail —
        // must fail.
        for index in 0..value.len() {
            let mut broken = value.clone();
            broken[index] ^= 0x40;
            assert!(verify(&broken, 17, 256).is_err(), "flip at {index} passed");
        }
        let mut broken = value.clone();
        broken[0] ^= 1;
        assert_eq!(verify(&broken, 17, 256), Err(StampError::Magic));
    }

    #[test]
    fn resealing_a_pooled_value_changes_only_the_header() {
        let mut pool = ValuePool::new(4096, &mut Rng::new(1));
        let slots = pool.values.len();
        let first = pool
            .sealed(Stamp {
                obj: 1,
                writer: 1,
                seq: 1,
            })
            .to_vec();
        for _ in 1..slots {
            pool.sealed(Stamp {
                obj: 0,
                writer: 0,
                seq: 0,
            });
        }
        let again = pool
            .sealed(Stamp {
                obj: 2,
                writer: 1,
                seq: 2,
            })
            .to_vec();
        assert_eq!(first[HEADER_LEN..], again[HEADER_LEN..]);
        assert_eq!(verify(&again, 2, 4096).map(|s| s.seq), Ok(2));
    }

    #[test]
    fn odd_sized_payloads_cover_their_tail() {
        let mut a = vec![7u8; 61];
        let before = payload_sum(&a);
        a[60] ^= 1;
        assert_ne!(before, payload_sum(&a));
        assert_ne!(payload_sum(&[0u8; 32]), payload_sum(&[0u8; 64]));
    }
}
