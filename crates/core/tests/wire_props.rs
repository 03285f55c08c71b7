//! Property tests for the wire codec: every `LdsMessage` class roundtrips
//! byte-exactly at edge payload sizes, and truncated or corrupted frames
//! decode to errors — never panics. `read_frame`, the one framing loop of
//! every socket, returns the same frame sequence however the byte stream is
//! chopped into `read` results.

use lds_codes::share::{HelperData, Share};
use lds_core::messages::{LdsMessage, ReadPayload, RepairPayload, MESSAGE_CLASSES};
use lds_core::tag::{ClientId, ObjectId, OpId, Tag};
use lds_core::value::Value;
use lds_core::wire::{
    decode_framed, encode_frame, read_frame, Frame, Request, Response, WireError, HEADER_LEN,
    MAX_FRAME, READ_BUF_LEN,
};
use lds_core::{DataSize, ProcessId};
use proptest::prelude::*;
use std::io::{BufReader, Read};

/// Number of `LdsMessage` classes (the PING pseudo-class is transport-only
/// and has no message body). Taken from the protocol table, so a new row
/// without a generator arm below fails every test here instead of being
/// skipped.
const CLASSES: usize = LdsMessage::NUM_CLASSES - 1;

/// Deterministically builds one message of class `class` from generated
/// primitives, exercising every field of every variant. `bytes` lands in
/// whatever payload slot the class has (value, share, helper), so
/// driving its length through edge sizes exercises the codec's
/// length-prefix handling per class.
///
/// This list is written by hand, not generated from `protocol_messages!`,
/// on purpose. The table already generates the enum, its codec, its names
/// and its cost-model sizes; what it generates is what these tests check, so
/// the instances and the expectations ([`assert_class_facts`]: which classes
/// carry payload, which `DATA-RESP` shapes do) have to come from somewhere
/// else. A generated instance arm would also have to be public, unhidden
/// code in `lds_core` (an integration test cannot see `cfg(test)` items) and
/// a sampling trait over a dozen field types, for this one caller. The table
/// still guards the list: [`CLASSES`] comes from it, so a new row without an
/// arm here fails every test of this file.
fn message_for(class: usize, a: u64, b: u64, bytes: Vec<u8>, flag: bool) -> LdsMessage {
    let obj = ObjectId(a ^ 0x9E37);
    let op = OpId::new(ClientId(b), a);
    let tag = Tag::new(a, ClientId(b ^ 1));
    let share = Share::new((b % 97) as usize, bytes.clone());
    let helper = HelperData::new((a % 89) as usize, (b % 83) as usize, bytes.clone());
    match class {
        0 => LdsMessage::InvokeWrite {
            obj,
            value: Value::new(bytes),
        },
        1 => LdsMessage::InvokeRead { obj },
        2 => LdsMessage::QueryTag { obj, op },
        3 => LdsMessage::TagResp { obj, op, tag },
        4 => LdsMessage::PutData {
            obj,
            op,
            tag,
            value: Value::new(bytes),
        },
        5 => LdsMessage::AckPutData { obj, op, tag },
        6 => LdsMessage::BcastSend {
            obj,
            tag,
            origin: ProcessId(b as usize % 1024),
        },
        7 => LdsMessage::BcastDeliver {
            obj,
            tag,
            origin: ProcessId(a as usize % 1024),
        },
        8 => LdsMessage::QueryCommTag { obj, op },
        9 => LdsMessage::CommTagResp { obj, op, tag },
        10 => LdsMessage::QueryData { obj, op, treq: tag },
        11 => LdsMessage::DataResp {
            obj,
            op,
            tag: flag.then_some(tag),
            payload: match a % 3 {
                0 => ReadPayload::Value(Value::new(bytes)),
                1 => ReadPayload::Coded(share),
                _ => ReadPayload::None,
            },
        },
        12 => LdsMessage::PutTag { obj, op, tag },
        13 => LdsMessage::AckPutTag { obj, op },
        14 => LdsMessage::WriteCodeElem {
            obj,
            tag,
            element: share,
        },
        15 => LdsMessage::AckCodeElem { obj, tag },
        16 => LdsMessage::QueryCodeElem {
            obj,
            reader: ProcessId(a as usize % 1024),
            op,
        },
        17 => LdsMessage::SendHelperElem {
            obj,
            reader: ProcessId(b as usize % 1024),
            op,
            tag,
            helper,
        },
        18 => LdsMessage::RepairHelp {
            obj,
            failed: ProcessId(a as usize % 1024),
        },
        19 => LdsMessage::RepairShare {
            obj,
            payload: if flag {
                RepairPayload::Element {
                    tag,
                    element_len: a,
                    helper,
                }
            } else {
                RepairPayload::Meta {
                    tc: tag,
                    entries: vec![
                        (tag, Some(Value::new(bytes))),
                        (Tag::new(b, ClientId(a)), None),
                    ],
                }
            },
        },
        20 => LdsMessage::RepairDone {
            obj,
            objects: a,
            bytes_by_helper: vec![(ProcessId(b as usize % 1024), a), (ProcessId(7), b)],
            fallback_bytes: b,
        },
        _ => unreachable!("class out of range"),
    }
}

/// Checks everything the protocol table derives for `msg`, built by
/// `message_for(class, a, _, <len bytes>, _)`: its index and name agree with
/// the table position, and its cost-model size is exactly the payload bytes
/// the generator put in.
fn assert_class_facts(msg: &LdsMessage, class: usize, a: u64, len: usize) {
    assert_eq!(msg.class_index(), class);
    assert_eq!(MESSAGE_CLASSES[class], msg.kind());
    // The classes with a payload slot; every other class is metadata.
    let carried = match class {
        0 | 4 | 14 | 17 | 19 => len,
        11 if a % 3 != 2 => len,
        _ => 0,
    };
    let kind = msg.kind();
    assert_eq!(msg.data_size(), carried, "{kind}: cost-model size");
}

/// Edge payload sizes: empty, tiny, symbol-odd, and around powers of two.
const EDGE_SIZES: &[usize] = &[0, 1, 3, 16, 255, 256, 1024, 4096];

#[test]
fn every_class_roundtrips_at_edge_sizes() {
    for class in 0..CLASSES {
        for &size in EDGE_SIZES {
            let payload: Vec<u8> = (0..size).map(|i| (i * 31 + class) as u8).collect();
            for flag in [false, true] {
                let msg = message_for(class, 0xDEAD_BEEF, 0x1234, payload.clone(), flag);
                assert_class_facts(&msg, class, 0xDEAD_BEEF, size);
                let frame = Frame::Msg {
                    from: 3,
                    to: 11,
                    msg: msg.clone(),
                };
                let mut buf = Vec::new();
                encode_frame(&frame, &mut buf).unwrap();
                let (decoded, consumed) = decode_framed(&buf).unwrap();
                assert_eq!(consumed, buf.len(), "class {class} size {size}");
                assert_eq!(decoded, frame, "class {class} size {size}");
                // Byte-exact: re-encoding the decoded frame reproduces the
                // original bytes.
                let mut buf2 = Vec::new();
                encode_frame(&decoded, &mut buf2).unwrap();
                assert_eq!(buf, buf2, "class {class} size {size} not byte-stable");
            }
        }
    }
}

#[test]
fn large_payload_roundtrips() {
    // One megabyte through the data-bearing classes.
    let payload = vec![0xA5u8; 1 << 20];
    for class in [0usize, 4, 11, 14, 17, 19] {
        let msg = message_for(class, 1, 2, payload.clone(), true);
        let frame = Frame::Msg {
            from: 0,
            to: 1,
            msg,
        };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf).unwrap();
        let (decoded, _) = decode_framed(&buf).unwrap();
        assert_eq!(decoded, frame, "class {class}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Any generated message of any class survives encode → decode →
    /// re-encode byte-exactly.
    #[test]
    fn random_messages_roundtrip(
        class in 0usize..CLASSES,
        a in any::<u64>(),
        b in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        flag in any::<bool>(),
    ) {
        let len = bytes.len();
        let msg = message_for(class, a, b, bytes, flag);
        // All three `DATA-RESP` payload shapes occur here (`a % 3`).
        assert_class_facts(&msg, class, a, len);
        let frame = Frame::Msg { from: a % 64, to: b % 64, msg };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf).unwrap();
        let (decoded, consumed) = decode_framed(&buf).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(&decoded, &frame);
        let mut buf2 = Vec::new();
        encode_frame(&decoded, &mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);
    }

    /// Every strict prefix of a valid frame decodes to `Truncated` — never
    /// a panic, never a bogus success.
    #[test]
    fn truncated_frames_error(
        class in 0usize..CLASSES,
        a in any::<u64>(),
        b in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<u64>(),
    ) {
        let msg = message_for(class, a, b, bytes, false);
        let frame = Frame::Msg { from: 1, to: 2, msg };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf).unwrap();
        let cut = (cut as usize) % buf.len();
        prop_assert_eq!(decode_framed(&buf[..cut]), Err(WireError::Truncated));
    }

    /// Flipping any single byte of a valid frame never panics the decoder:
    /// it either still decodes (a payload byte changed) or returns a
    /// `WireError`.
    #[test]
    fn corrupted_frames_never_panic(
        class in 0usize..CLASSES,
        a in any::<u64>(),
        b in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let msg = message_for(class, a, b, bytes, true);
        let frame = Frame::Msg { from: 1, to: 2, msg };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf).unwrap();
        let pos = (pos as usize) % buf.len();
        buf[pos] ^= xor;
        // Corrupting the length prefix may announce more bytes than exist
        // (Truncated), fewer (TrailingBytes), or an oversize length; body
        // corruption may hit a discriminant. All must return, not panic.
        let _ = decode_framed(&buf);
    }

    /// A stream of frames — small metadata and payloads larger than the
    /// read buffer, mixed — reads back identically whether the transport
    /// hands over 1 byte per `read`, random chunks, or everything at once,
    /// through a `BufReader` as every socket uses it or without one.
    #[test]
    fn read_frame_is_chunking_invariant(
        seeds in proptest::collection::vec((0usize..CLASSES, any::<u64>(), 0usize..4), 1..24),
        chunks in proptest::collection::vec(1usize..9000, 1..32),
    ) {
        let frames: Vec<Frame> = seeds
            .iter()
            .map(|&(class, a, size)| {
                let len = [0, 17, 300, READ_BUF_LEN + 1234][size];
                let bytes = (0..len).map(|i| (i as u64 ^ a) as u8).collect();
                Frame::Msg { from: a % 64, to: a % 7, msg: message_for(class, a, !a, bytes, a % 2 == 0) }
            })
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut stream).unwrap();
        }
        let whole = vec![usize::MAX];
        for pattern in [&[1usize][..], &chunks, &whole] {
            let chopped = Chopped { bytes: &stream, at: 0, chunks: pattern, next: 0 };
            prop_assert_eq!(&read_all(chopped).0, &frames);
            let chopped = Chopped { bytes: &stream, at: 0, chunks: pattern, next: 0 };
            let buffered = BufReader::with_capacity(READ_BUF_LEN, chopped);
            prop_assert_eq!(&read_all(buffered).0, &frames);
        }
    }

    /// A stream cut anywhere inside its last frame yields every complete
    /// frame before the cut and then ends — a truncated tail is an EOF, not
    /// an error and not a bogus frame.
    #[test]
    fn read_frame_ends_the_stream_at_a_truncated_tail(
        count in 1usize..6,
        a in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let frames: Vec<Frame> = (0..count)
            .map(|i| Frame::Ping { to: a.wrapping_add(i as u64) })
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut stream).unwrap();
        }
        let last = stream.len() / count * (count - 1);
        let cut = last + 1 + (cut as usize) % (stream.len() - last - 1);
        let (got, error) = read_all(&stream[..cut]);
        prop_assert_eq!(&got[..], &frames[..count - 1]);
        prop_assert_eq!(error, None);
    }

    /// RPC frames roundtrip for every request/response shape.
    #[test]
    fn rpc_frames_roundtrip(
        id in any::<u64>(),
        which in 0usize..6,
        obj in any::<u64>(),
        idx in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let req = match which {
            0 => Request::Write { obj: ObjectId(obj), value: bytes.clone() },
            1 => Request::Read { obj: ObjectId(obj) },
            2 => Request::Kill { layer: (idx % 2) as u8, index: idx },
            3 => Request::Repair { layer: (idx % 2) as u8, index: idx },
            4 => Request::Liveness,
            _ => Request::Shutdown,
        };
        let resp = match which {
            0 => Response::Written { tag: Tag::new(obj, ClientId(idx)) },
            1 => Response::Value { bytes: bytes.clone() },
            2 => Response::Killed,
            3 => Response::Repaired { objects: idx },
            4 => Response::Liveness { live_l1: obj, live_l2: idx },
            _ => Response::Error { message: format!("err {idx}") },
        };
        for frame in [Frame::Request { id, req }, Frame::Response { id, resp }] {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf).unwrap();
            let (decoded, consumed) = decode_framed(&buf).unwrap();
            prop_assert_eq!(consumed, buf.len());
            prop_assert_eq!(decoded, frame);
        }
    }
}

/// A reader that hands out `bytes` in the chunk sizes of `chunks`, cycled —
/// the way a socket returns whatever happens to have arrived.
struct Chopped<'a> {
    bytes: &'a [u8],
    at: usize,
    chunks: &'a [usize],
    next: usize,
}

impl Read for Chopped<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.next % self.chunks.len()];
        self.next += 1;
        let n = chunk.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Drains `reader` through `read_frame`: the frames before the stream
/// ended, and the typed error if that is what ended it.
fn read_all(mut reader: impl Read) -> (Vec<Frame>, Option<WireError>) {
    let mut body = Vec::new();
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut reader, &mut body) {
            Some(Ok(frame)) => frames.push(frame),
            Some(Err(error)) => return (frames, Some(error)),
            None => return (frames, None),
        }
    }
}

#[test]
fn read_frame_rejects_an_oversize_header_before_reading_a_body() {
    let mut stream = Vec::new();
    encode_frame(&Frame::Ping { to: 3 }, &mut stream).unwrap();
    stream.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    stream.extend_from_slice(&[0xAB; 64]);
    let (frames, error) = read_all(&stream[..]);
    assert_eq!(frames, vec![Frame::Ping { to: 3 }]);
    assert_eq!(
        error,
        Some(WireError::Oversize {
            len: MAX_FRAME as u64 + 1
        })
    );
    // A zero length cannot even hold the kind byte.
    let (frames, error) = read_all(&[0u8; 8][..]);
    assert!(frames.is_empty());
    assert_eq!(error, Some(WireError::Truncated));
}

#[test]
fn unknown_class_is_an_error() {
    let frame = Frame::Msg {
        from: 0,
        to: 1,
        msg: LdsMessage::InvokeRead { obj: ObjectId(0) },
    };
    let mut buf = Vec::new();
    encode_frame(&frame, &mut buf).unwrap();
    // The class byte sits after header + kind + from + to.
    let class_at = HEADER_LEN + 1 + 8 + 8;
    for bad in [LdsMessage::NUM_CLASSES as u8 - 1, 42, 255] {
        let mut corrupt = buf.clone();
        corrupt[class_at] = bad;
        assert_eq!(
            decode_framed(&corrupt),
            Err(WireError::UnknownClass { class: bad })
        );
    }
}
