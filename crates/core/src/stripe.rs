//! Chunk-striped encode/decode over a [`BackendCodec`].
//!
//! The large-value streaming path splits a value into fixed-size stripes and
//! encodes each stripe independently, so the L1 offload's peak scratch is
//! O(stripe × n2) instead of O(value × n2) and the encode of stripe `s`
//! overlaps with the delivery of stripe `s − 1`. A striped coded element is
//! simply the concatenation of the per-stripe encodes with a
//! [`Share::layout`] recording the stripe boundaries — self-describing, so
//! every consumer (helper computation, regeneration, decode: the
//! [`BackendCodec`] operations themselves) runs stripe-wise over the segments
//! where they lie. One tag still covers the whole logical write; striping
//! never appears in the protocol's metadata.

use crate::backend::BackendCodec;
use crate::value::Value;
use lds_codes::{CodeError, Share};
use std::ops::Range;

/// Default stripe size for the chunk-striped write path: 256 KiB keeps one
/// stripe's frame and its `n2` element outputs comfortably inside the L2
/// cache while still amortising per-stripe overheads.
pub const DEFAULT_STRIPE_SIZE: usize = 256 * 1024;

/// Splits `0..len` into consecutive spans of at most `stripe_size` bytes.
/// Always yields at least one span, so the empty value is representable
/// (`len == 0` → a single `0..0` span).
///
/// # Panics
///
/// Panics if `stripe_size == 0`.
pub fn stripe_spans(len: usize, stripe_size: usize) -> Vec<Range<usize>> {
    assert!(stripe_size > 0, "stripe_size must be positive");
    (0..len.div_ceil(stripe_size).max(1))
        .map(|s| s * stripe_size..((s + 1) * stripe_size).min(len))
        .collect()
}

/// Encodes `value` stripe by stripe, emitting each L2 server's per-stripe
/// coded part as soon as it is computed — the shape that lets delivery
/// overlap with the encode of the next stripe.
///
/// Buffer discipline: per stripe the function allocates the `n2` element
/// buffers the emitted [`Share`]s then own (they become message payloads)
/// and nothing else — the encode reads the stripe where it lies in the
/// value. Those buffers are one *round*; the function returns the bytes of
/// the largest round, the encode's peak allocation: one stripe's `n2`
/// elements, whatever the value's size.
///
/// `emit` receives `(l2_index, seq, count, part)` with `seq ∈ 0..count` and
/// parts emitted in stripe order.
///
/// # Errors
///
/// As for [`BackendCodec::encode_l2_elements_into`]; already-emitted parts
/// are not recalled.
pub fn encode_elements_striped<F>(
    backend: &dyn BackendCodec,
    value: &Value,
    stripe_size: usize,
    mut emit: F,
) -> Result<usize, CodeError>
where
    F: FnMut(usize, u32, u32, Share),
{
    let spans = stripe_spans(value.len(), stripe_size);
    let count = spans.len() as u32;
    let n1 = backend.n1();
    let mut peak_round_bytes = 0;
    for (seq, span) in spans.into_iter().enumerate() {
        let stripe = value.slice(span);
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); backend.n2()];
        backend.encode_l2_elements_into(&stripe, &mut bufs)?;
        peak_round_bytes = peak_round_bytes.max(bufs.iter().map(Vec::len).sum());
        for (i, buf) in bufs.into_iter().enumerate() {
            emit(i, seq as u32, count, Share::new(n1 + i, buf));
        }
    }
    Ok(peak_round_bytes)
}

/// Assembles the per-stripe parts of one L2 server's element (in stripe
/// order) into a single share. A single part stays monolithic; several parts
/// become a striped share whose layout records the stripe boundaries.
pub fn assemble_share(index: usize, parts: Vec<Share>) -> Share {
    if parts.len() == 1 {
        let mut parts = parts;
        let mut only = parts.pop().expect("one part");
        only.index = index;
        return only;
    }
    let layout: Vec<usize> = parts.iter().map(|p| p.data.len()).collect();
    let mut data = Vec::with_capacity(layout.iter().sum());
    for part in &parts {
        data.extend_from_slice(&part.data);
    }
    Share::striped(index, data, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{make_backend, BackendKind};
    use crate::params::SystemParams;
    use lds_codes::HelperData;
    use std::collections::BTreeMap;

    #[test]
    fn spans_cover_the_value_exactly() {
        assert_eq!(stripe_spans(0, 64), vec![0..0]);
        assert_eq!(stripe_spans(63, 64), vec![0..63]);
        assert_eq!(stripe_spans(64, 64), vec![0..64]);
        assert_eq!(stripe_spans(65, 64), vec![0..64, 64..65]);
        let spans = stripe_spans(3 * 64 + 7, 64);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.last().unwrap().clone(), 192..199);
    }

    #[test]
    #[should_panic(expected = "stripe_size must be positive")]
    fn zero_stripe_size_panics() {
        let _ = stripe_spans(10, 0);
    }

    fn sample_value(len: usize) -> Value {
        Value::new((0..len).map(|i| (i * 37 % 251) as u8).collect())
    }

    /// The satellite property test: a striped write/read roundtrips
    /// byte-identically with the monolithic path across all four backends at
    /// the edge sizes around the stripe boundary.
    #[test]
    fn striped_roundtrip_matches_monolithic_across_backends() {
        const STRIPE: usize = 64;
        let p = SystemParams::for_failures(1, 1, 3, 5).unwrap(); // n1=5, n2=7
        for kind in [
            BackendKind::Mbr,
            BackendKind::MsrPoint,
            BackendKind::ProductMatrixMsr,
            BackendKind::Replication,
        ] {
            let backend = make_backend(kind, &p).unwrap();
            let mut peak_round_bytes = 0;
            for len in [0usize, 1, STRIPE - 1, STRIPE, STRIPE + 1, 3 * STRIPE + 7] {
                let value = sample_value(len);

                // Striped write path → per-L2 assembled elements.
                let mut parts: BTreeMap<usize, Vec<Share>> = BTreeMap::new();
                let peak = encode_elements_striped(&*backend, &value, STRIPE, |l2, seq, _, p| {
                    let slot = parts.entry(l2).or_default();
                    assert_eq!(slot.len(), seq as usize, "parts arrive in stripe order");
                    slot.push(p);
                })
                .unwrap();
                peak_round_bytes = peak_round_bytes.max(peak);
                let elements: Vec<Share> = parts
                    .into_iter()
                    .map(|(l2, parts)| assemble_share(backend.n1() + l2, parts))
                    .collect();
                assert_eq!(elements.len(), backend.n2());

                // Striped read path: regenerate k C1 elements, then decode.
                let mut c1 = Vec::new();
                for l1 in 0..backend.decode_threshold() {
                    let helpers: Vec<HelperData> = elements
                        .iter()
                        .enumerate()
                        .take(backend.repair_threshold())
                        .map(|(i, e)| backend.helper_for_l1(e, i, l1).unwrap())
                        .collect();
                    c1.push(backend.regenerate_l1(l1, &helpers).unwrap());
                }
                let mut decoded = Vec::new();
                backend.decode_from_l1_into(&c1, &mut decoded).unwrap();
                assert_eq!(decoded, value.as_bytes(), "{kind} len={len}");

                // Byte-identical with the monolithic path: a small value
                // (single stripe) produces exactly the monolithic elements.
                if len <= STRIPE {
                    let mut mono: Vec<Vec<u8>> = vec![Vec::new(); backend.n2()];
                    backend.encode_l2_elements_into(&value, &mut mono).unwrap();
                    for (e, m) in elements.iter().zip(&mono) {
                        assert_eq!(&e.data, m, "{kind} len={len}");
                        assert!(e.layout.is_none(), "single stripe stays monolithic");
                    }
                }
            }
            // A round never held more than one stripe's n2 elements (the
            // largest stripe is 64 bytes: at most 8 + 64 + padding bytes per
            // element).
            assert!(
                peak_round_bytes <= backend.n2() * (8 + STRIPE + 12),
                "{kind}: peak {peak_round_bytes}"
            );
        }
    }

    #[test]
    fn striped_l2_repair_regenerates_the_striped_element() {
        const STRIPE: usize = 32;
        let p = SystemParams::for_failures(1, 1, 3, 5).unwrap();
        let value = sample_value(3 * STRIPE + 5);
        for kind in [BackendKind::Mbr, BackendKind::Replication] {
            let backend = make_backend(kind, &p).unwrap();
            let mut parts: BTreeMap<usize, Vec<Share>> = BTreeMap::new();
            encode_elements_striped(&*backend, &value, STRIPE, |l2, _, _, p| {
                parts.entry(l2).or_default().push(p);
            })
            .unwrap();
            let elements: Vec<Share> = parts
                .into_iter()
                .map(|(l2, parts)| assemble_share(backend.n1() + l2, parts))
                .collect();
            let failed = 2usize;
            let helpers: Vec<HelperData> = (0..backend.n2())
                .filter(|&i| i != failed)
                .take(backend.repair_threshold())
                .map(|i| backend.helper_for_l2(&elements[i], i, failed).unwrap())
                .collect();
            let regenerated = backend.regenerate_l2(failed, &helpers).unwrap();
            assert_eq!(regenerated, elements[failed], "{kind}");
        }
    }

    #[test]
    fn inconsistent_stripe_structures_are_rejected() {
        let p = SystemParams::for_failures(1, 1, 3, 5).unwrap();
        let backend = make_backend(BackendKind::Mbr, &p).unwrap(); // k = 3, α = 5
        let striped = |i| Share::striped(i, vec![1; 10], vec![5, 5]);
        let mono = Share::new(2, vec![1; 10]);
        let mut out = Vec::new();
        assert!(backend
            .decode_from_l1_into(&[striped(0), striped(1), mono], &mut out)
            .is_err());
    }
}
