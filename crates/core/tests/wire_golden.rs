//! Golden frames: the exact bytes `encode_frame` produces under
//! `WIRE_VERSION = 2`, for one fixed message of every `LdsMessage` class
//! (each with its optional parts absent and present), every RPC
//! request/response, `Hello` and `Ping`.
//!
//! `wire_props.rs` shows the codec is its own inverse; only this file shows
//! it is *the same codec as before*. A byte that moves here is a wire-format
//! break: bump `WIRE_VERSION`, then replace the literal with the `got` of the
//! failing assertion. The test touches public API only, so it compiles
//! unchanged against any commit that speaks version 2.

use lds_codes::share::{HelperData, Share};
use lds_core::messages::{LdsMessage, ReadPayload, RepairPayload};
use lds_core::tag::{ClientId, ObjectId, OpId, Tag};
use lds_core::value::Value;
use lds_core::wire::{decode_framed, encode_frame, Frame, Request, Response};
use lds_core::{DataSize, ProcessId};

/// The 6-byte payload every data-bearing golden message carries.
const PAYLOAD: [u8; 6] = [0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5];

/// One fixed message per class. `flag` turns the optional parts on:
/// `DATA-RESP`'s tag and coded payload, the `Element` shape of
/// `REPAIR-SHARE` (off: the `Meta` shape) and `REPAIR-DONE`'s per-helper
/// bytes.
fn message(class: usize, flag: bool) -> LdsMessage {
    let obj = ObjectId(0x0102);
    let op = OpId::new(ClientId(0x0A), 0x0B);
    let tag = Tag::new(0x0C, ClientId(0x0D));
    let pid = ProcessId(0x0E);
    let value = Value::new(PAYLOAD.to_vec());
    let share = Share::new(5, PAYLOAD.to_vec());
    let helper = HelperData::new(6, 7, PAYLOAD.to_vec());
    match class {
        0 => LdsMessage::InvokeWrite { obj, value },
        1 => LdsMessage::InvokeRead { obj },
        2 => LdsMessage::QueryTag { obj, op },
        3 => LdsMessage::TagResp { obj, op, tag },
        4 => LdsMessage::PutData {
            obj,
            op,
            tag,
            value,
        },
        5 => LdsMessage::AckPutData { obj, op, tag },
        6 => LdsMessage::BcastSend {
            obj,
            tag,
            origin: pid,
        },
        7 => LdsMessage::BcastDeliver {
            obj,
            tag,
            origin: pid,
        },
        8 => LdsMessage::QueryCommTag { obj, op },
        9 => LdsMessage::CommTagResp { obj, op, tag },
        10 => LdsMessage::QueryData { obj, op, treq: tag },
        11 => LdsMessage::DataResp {
            obj,
            op,
            tag: flag.then_some(tag),
            payload: if flag {
                ReadPayload::Coded(share)
            } else {
                ReadPayload::None
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
            reader: pid,
            op,
        },
        17 => LdsMessage::SendHelperElem {
            obj,
            reader: pid,
            op,
            tag,
            helper,
        },
        18 => LdsMessage::RepairHelp { obj, failed: pid },
        19 => LdsMessage::RepairShare {
            obj,
            payload: if flag {
                RepairPayload::Element {
                    tag,
                    element_len: 0x0F,
                    helper,
                }
            } else {
                RepairPayload::Meta {
                    tc: tag,
                    entries: vec![(tag, Some(value)), (Tag::new(0x10, ClientId(0x11)), None)],
                }
            },
        },
        20 => LdsMessage::RepairDone {
            obj,
            objects: 0x12,
            bytes_by_helper: if flag {
                vec![(pid, 0x13), (ProcessId(0x14), 0x15)]
            } else {
                vec![]
            },
            fallback_bytes: 0x16,
        },
        _ => unreachable!("class out of range"),
    }
}

/// Every golden frame, named. The `LdsMessage` rows are named by `kind()`,
/// so a class whose name or position moved fails here by name too.
fn frames() -> Vec<(String, Frame)> {
    let mut frames = Vec::new();
    let msg = |msg| Frame::Msg {
        from: 3,
        to: 0x0B,
        msg,
    };
    for class in 0..LdsMessage::NUM_CLASSES - 1 {
        for flag in [false, true] {
            let m = message(class, flag);
            frames.push((format!("{}/{}", m.kind(), flag as u8), msg(m)));
        }
    }
    // The third `ReadPayload` shape: a full value served from the L1 list.
    frames.push((
        "DATA-RESP/value".into(),
        msg(LdsMessage::DataResp {
            obj: ObjectId(0x0102),
            op: OpId::new(ClientId(0x0A), 0x0B),
            tag: Some(Tag::new(0x0C, ClientId(0x0D))),
            payload: ReadPayload::Value(Value::new(PAYLOAD.to_vec())),
        }),
    ));
    frames.push(("hello".into(), Frame::Hello { daemon: 2 }));
    frames.push(("hello/client".into(), Frame::Hello { daemon: u64::MAX }));
    frames.push(("ping".into(), Frame::Ping { to: 0x0E }));
    let obj = ObjectId(0x0102);
    let requests = [
        Request::Write {
            obj,
            value: PAYLOAD.to_vec(),
        },
        Request::Read { obj },
        Request::Kill {
            layer: 1,
            index: 0x17,
        },
        Request::Repair {
            layer: 0,
            index: 0x18,
        },
        Request::Liveness,
        Request::Shutdown,
    ];
    for (i, req) in requests.into_iter().enumerate() {
        frames.push((format!("request/{i}"), Frame::Request { id: 0x19, req }));
    }
    let responses = [
        Response::Written {
            tag: Tag::new(0x0C, ClientId(0x0D)),
        },
        Response::Value {
            bytes: PAYLOAD.to_vec(),
        },
        Response::Killed,
        Response::Repaired { objects: 0x1A },
        Response::Liveness {
            live_l1: 4,
            live_l2: 5,
        },
        Response::ShuttingDown,
        Response::Error {
            message: "böom".into(),
        },
    ];
    for (i, resp) in responses.into_iter().enumerate() {
        frames.push((format!("response/{i}"), Frame::Response { id: 0x19, resp }));
    }
    frames
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn frames_are_byte_identical_to_the_recorded_encoding() {
    let frames = frames();
    assert_eq!(
        frames.len(),
        GOLDEN.len(),
        "a frame was added or removed without its golden row"
    );
    for ((name, frame), (want_name, want)) in frames.into_iter().zip(GOLDEN) {
        assert_eq!(&name, want_name, "golden rows out of order");
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf).unwrap();
        let got = hex(&buf);
        assert_eq!(&got, want, "{name}: wire bytes changed");
        assert_eq!(decode_framed(&buf), Ok((frame, buf.len())), "{name}");
    }
}

/// `(name, hex of the whole frame: u32 LE length, kind byte, body)`.
const GOLDEN: &[(&str, &str)] = &[
    ("INVOKE-WRITE/0", "240000000103000000000000000b0000000000000000020100000000000006000000a0a1a2a3a4a5"),
    ("INVOKE-WRITE/1", "240000000103000000000000000b0000000000000000020100000000000006000000a0a1a2a3a4a5"),
    ("INVOKE-READ/0", "1a0000000103000000000000000b00000000000000010201000000000000"),
    ("INVOKE-READ/1", "1a0000000103000000000000000b00000000000000010201000000000000"),
    ("QUERY-TAG/0", "2a0000000103000000000000000b000000000000000202010000000000000a000000000000000b00000000000000"),
    ("QUERY-TAG/1", "2a0000000103000000000000000b000000000000000202010000000000000a000000000000000b00000000000000"),
    ("TAG-RESP/0", "3a0000000103000000000000000b000000000000000302010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("TAG-RESP/1", "3a0000000103000000000000000b000000000000000302010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("PUT-DATA/0", "440000000103000000000000000b000000000000000402010000000000000a000000000000000b000000000000000c000000000000000d0000000000000006000000a0a1a2a3a4a5"),
    ("PUT-DATA/1", "440000000103000000000000000b000000000000000402010000000000000a000000000000000b000000000000000c000000000000000d0000000000000006000000a0a1a2a3a4a5"),
    ("ACK-PUT-DATA/0", "3a0000000103000000000000000b000000000000000502010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("ACK-PUT-DATA/1", "3a0000000103000000000000000b000000000000000502010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("BCAST-SEND/0", "320000000103000000000000000b000000000000000602010000000000000c000000000000000d000000000000000e00000000000000"),
    ("BCAST-SEND/1", "320000000103000000000000000b000000000000000602010000000000000c000000000000000d000000000000000e00000000000000"),
    ("COMMIT-TAG/0", "320000000103000000000000000b000000000000000702010000000000000c000000000000000d000000000000000e00000000000000"),
    ("COMMIT-TAG/1", "320000000103000000000000000b000000000000000702010000000000000c000000000000000d000000000000000e00000000000000"),
    ("QUERY-COMM-TAG/0", "2a0000000103000000000000000b000000000000000802010000000000000a000000000000000b00000000000000"),
    ("QUERY-COMM-TAG/1", "2a0000000103000000000000000b000000000000000802010000000000000a000000000000000b00000000000000"),
    ("COMM-TAG-RESP/0", "3a0000000103000000000000000b000000000000000902010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("COMM-TAG-RESP/1", "3a0000000103000000000000000b000000000000000902010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("QUERY-DATA/0", "3a0000000103000000000000000b000000000000000a02010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("QUERY-DATA/1", "3a0000000103000000000000000b000000000000000a02010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("DATA-RESP/0", "2c0000000103000000000000000b000000000000000b02010000000000000a000000000000000b000000000000000002"),
    ("DATA-RESP/1", "4e0000000103000000000000000b000000000000000b02010000000000000a000000000000000b00000000000000010c000000000000000d0000000000000001050000000000000006000000a0a1a2a3a4a5"),
    ("PUT-TAG/0", "3a0000000103000000000000000b000000000000000c02010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("PUT-TAG/1", "3a0000000103000000000000000b000000000000000c02010000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
    ("ACK-PUT-TAG/0", "2a0000000103000000000000000b000000000000000d02010000000000000a000000000000000b00000000000000"),
    ("ACK-PUT-TAG/1", "2a0000000103000000000000000b000000000000000d02010000000000000a000000000000000b00000000000000"),
    ("WRITE-CODE-ELEM/0", "3c0000000103000000000000000b000000000000000e02010000000000000c000000000000000d00000000000000050000000000000006000000a0a1a2a3a4a5"),
    ("WRITE-CODE-ELEM/1", "3c0000000103000000000000000b000000000000000e02010000000000000c000000000000000d00000000000000050000000000000006000000a0a1a2a3a4a5"),
    ("ACK-CODE-ELEM/0", "2a0000000103000000000000000b000000000000000f02010000000000000c000000000000000d00000000000000"),
    ("ACK-CODE-ELEM/1", "2a0000000103000000000000000b000000000000000f02010000000000000c000000000000000d00000000000000"),
    ("QUERY-CODE-ELEM/0", "320000000103000000000000000b000000000000001002010000000000000e000000000000000a000000000000000b00000000000000"),
    ("QUERY-CODE-ELEM/1", "320000000103000000000000000b000000000000001002010000000000000e000000000000000a000000000000000b00000000000000"),
    ("SEND-HELPER-ELEM/0", "5c0000000103000000000000000b000000000000001102010000000000000e000000000000000a000000000000000b000000000000000c000000000000000d000000000000000600000000000000070000000000000006000000a0a1a2a3a4a5"),
    ("SEND-HELPER-ELEM/1", "5c0000000103000000000000000b000000000000001102010000000000000e000000000000000a000000000000000b000000000000000c000000000000000d000000000000000600000000000000070000000000000006000000a0a1a2a3a4a5"),
    ("REPAIR-HELP/0", "220000000103000000000000000b000000000000001202010000000000000e00000000000000"),
    ("REPAIR-HELP/1", "220000000103000000000000000b000000000000001202010000000000000e00000000000000"),
    ("REPAIR-SHARE/0", "5b0000000103000000000000000b00000000000000130201000000000000010c000000000000000d00000000000000020000000c000000000000000d000000000000000106000000a0a1a2a3a4a51000000000000000110000000000000000"),
    ("REPAIR-SHARE/1", "4d0000000103000000000000000b00000000000000130201000000000000000c000000000000000d000000000000000f000000000000000600000000000000070000000000000006000000a0a1a2a3a4a5"),
    ("REPAIR-DONE/0", "2e0000000103000000000000000b000000000000001402010000000000001200000000000000000000001600000000000000"),
    ("REPAIR-DONE/1", "4e0000000103000000000000000b000000000000001402010000000000001200000000000000020000000e000000000000001300000000000000140000000000000015000000000000001600000000000000"),
    ("DATA-RESP/value", "460000000103000000000000000b000000000000000b02010000000000000a000000000000000b00000000000000010c000000000000000d000000000000000006000000a0a1a2a3a4a5"),
    ("hello", "0f000000004c44530102000200000000000000"),
    ("hello/client", "0f000000004c4453010200ffffffffffffffff"),
    ("ping", "09000000020e00000000000000"),
    ("request/0", "1c00000003190000000000000000020100000000000006000000a0a1a2a3a4a5"),
    ("request/1", "12000000031900000000000000010201000000000000"),
    ("request/2", "1300000003190000000000000002011700000000000000"),
    ("request/3", "1300000003190000000000000003001800000000000000"),
    ("request/4", "0a00000003190000000000000004"),
    ("request/5", "0a00000003190000000000000005"),
    ("response/0", "1a000000041900000000000000000c000000000000000d00000000000000"),
    ("response/1", "140000000419000000000000000106000000a0a1a2a3a4a5"),
    ("response/2", "0a00000004190000000000000002"),
    ("response/3", "12000000041900000000000000031a00000000000000"),
    ("response/4", "1a0000000419000000000000000404000000000000000500000000000000"),
    ("response/5", "0a00000004190000000000000005"),
    ("response/6", "13000000041900000000000000060500000062c3b66f6d"),
];
