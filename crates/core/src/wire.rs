//! The versioned, length-prefixed binary wire codec for the real-network
//! transport and the `ldsd` daemon RPC plane.
//!
//! Everything that crosses a TCP link — protocol traffic between daemons,
//! liveness pings, and the client RPC plane — travels as one [`Frame`]:
//!
//! ```text
//!   ┌──────────────┬───────────────┬──────────────────────────────┐
//!   │ len: u32 LE  │ kind: u8      │ body (len − 1 bytes)         │
//!   └──────────────┴───────────────┴──────────────────────────────┘
//!     length of           frame        kind-specific fields,
//!     kind + body         tag          little-endian throughout
//! ```
//!
//! * Every integer is **little-endian**. `usize` fields travel as `u64`.
//! * Byte strings and vectors carry a `u32` length/count prefix.
//! * `Option<T>` is a `u8` flag (0 = `None`, 1 = `Some`) followed by `T`.
//! * An [`LdsMessage`] body starts with its [`LdsMessage::class_index`] as
//!   a `u8`, followed by the variant's fields in declaration order.
//!
//! The codec is hand-rolled (no serde — the build has no crates.io access)
//! and hardened against untrusted input: every read is bounds-checked, a
//! frame longer than [`MAX_FRAME`] is rejected before any allocation, and
//! corrupt length prefixes can never cause an out-of-bounds access or an
//! attacker-sized allocation — decoding returns [`WireError`], never
//! panics.
//!
//! Encoding appends to a caller-owned `Vec<u8>` so writer threads can reuse
//! one buffer per link.

use crate::messages::{LdsMessage, ReadPayload, RepairPayload};
use crate::tag::{ClientId, ObjectId, OpId, Tag};
use crate::value::Value;
use lds_codes::share::{HelperData, Share};
use lds_sim::ProcessId;
use std::fmt;
use std::io::Read;

/// Magic number opening every [`Frame::Hello`] (`b"LDS\x01"` as a LE u32).
pub const WIRE_MAGIC: u32 = 0x0153_444C;

/// Wire-format version negotiated in the handshake. Bumped on any breaking
/// change to the frame layout; a peer speaking a different version is
/// rejected at [`Frame::Hello`] time with [`WireError::BadVersion`].
pub const WIRE_VERSION: u16 = 1;

/// Hard cap on one frame's payload (`kind` byte + body), in bytes.
///
/// A corrupt or hostile length prefix above this is rejected *before* any
/// buffer is sized from it. 64 MiB comfortably covers the largest legitimate
/// message (a full coded element of the biggest benchmarked value class).
pub const MAX_FRAME: usize = 64 << 20;

/// Size of the length prefix preceding every frame.
pub const HEADER_LEN: usize = 4;

/// Capacity of the `BufReader` every socket reader wraps its stream in, so
/// one `read` syscall can yield many small frames. A body larger than this
/// bypasses the buffer and lands directly in the caller's body buffer.
pub const READ_BUF_LEN: usize = 64 << 10;

/// A decoding (or framing) failure. Decoding never panics on untrusted
/// bytes — every malformed input maps to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the announced structure was complete.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversize {
        /// The announced length.
        len: u64,
    },
    /// A `Hello` frame carried the wrong magic number.
    BadMagic {
        /// The magic actually read.
        got: u32,
    },
    /// The peer speaks a different wire-format version.
    BadVersion {
        /// The version actually read.
        got: u16,
    },
    /// Unknown frame kind tag.
    UnknownFrame {
        /// The kind byte actually read.
        kind: u8,
    },
    /// Unknown [`LdsMessage`] class index.
    UnknownClass {
        /// The class byte actually read.
        class: u8,
    },
    /// Unknown enum discriminant inside a message body.
    UnknownDiscriminant {
        /// Which enum was being decoded.
        what: &'static str,
        /// The discriminant actually read.
        value: u8,
    },
    /// The frame body decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A `Frame::Hello` was expected but another kind arrived.
    ExpectedHello,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::BadMagic { got } => write!(f, "bad handshake magic {got:#010x}"),
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "peer speaks wire version {got}, this build speaks {WIRE_VERSION}"
                )
            }
            WireError::UnknownFrame { kind } => write!(f, "unknown frame kind {kind}"),
            WireError::UnknownClass { class } => write!(f, "unknown message class {class}"),
            WireError::UnknownDiscriminant { what, value } => {
                write!(f, "unknown {what} discriminant {value}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::ExpectedHello => write!(f, "expected a Hello handshake frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// A client → daemon RPC request (the network `Store`/`Admin` plane).
///
/// Requests are asynchronous: the client stamps each with a connection-local
/// id ([`Frame::Request`]) and matches the daemon's [`Frame::Response`] by
/// that id, which is what makes pipelined submits a single code path.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Write `value` under `obj` (blocking semantics decided by the client).
    Write {
        /// Target object.
        obj: ObjectId,
        /// The bytes to write.
        value: Vec<u8>,
    },
    /// Read the latest committed value of `obj`.
    Read {
        /// Target object.
        obj: ObjectId,
    },
    /// Crash the server at (`layer`, `index`) — admin crash injection.
    /// Valid only on the daemon hosting that server.
    Kill {
        /// 0 = L1, 1 = L2.
        layer: u8,
        /// Index within the layer.
        index: u64,
    },
    /// Repair the server at (`layer`, `index`) — admin online repair.
    /// Valid only on the daemon hosting that server.
    Repair {
        /// 0 = L1, 1 = L2.
        layer: u8,
        /// Index within the layer.
        index: u64,
    },
    /// Report per-layer liveness as this daemon observes it.
    Liveness,
    /// Ask the daemon to shut down cleanly (teardown path for tests and
    /// drills; a production deployment would gate this).
    Shutdown,
}

/// A daemon → client RPC response, matched to its [`Request`] by id.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// A write committed under `tag`.
    Written {
        /// The tag the write committed under.
        tag: Tag,
    },
    /// A read returned these bytes.
    Value {
        /// The committed value.
        bytes: Vec<u8>,
    },
    /// The kill was injected.
    Killed,
    /// The repair completed, restoring `objects` objects.
    Repaired {
        /// Number of objects restored.
        objects: u64,
    },
    /// Liveness counts as this daemon observes them.
    Liveness {
        /// Live L1 servers.
        live_l1: u64,
        /// Live L2 servers.
        live_l2: u64,
    },
    /// The daemon acknowledges the shutdown and will exit.
    ShuttingDown,
    /// The request failed; `message` is the daemon-side error rendering.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// One unit of traffic on a TCP link (see the [module docs](self) for the
/// byte layout).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Frame {
    /// Connection handshake: magic, version, and the sender's daemon index.
    /// First frame on every link, in both directions.
    Hello {
        /// The sending daemon's index in the membership (or `u64::MAX` for
        /// a client connection).
        daemon: u64,
    },
    /// One routed protocol message: deliver `msg` from `from` to `to` on
    /// the receiving daemon's router.
    Msg {
        /// Sending process id.
        from: u64,
        /// Destination process id.
        to: u64,
        /// The protocol message.
        msg: LdsMessage,
    },
    /// A liveness ping for process `to` (payload-free, but it must cross
    /// the wire so remote heartbeats age realistically).
    Ping {
        /// Destination process id.
        to: u64,
    },
    /// A client RPC request stamped with a connection-local id.
    Request {
        /// Connection-local request id, echoed in the response.
        id: u64,
        /// The request.
        req: Request,
    },
    /// The daemon's response to the request with the same `id`.
    Response {
        /// The id of the request this answers.
        id: u64,
        /// The response.
        resp: Response,
    },
}

// ---------------------------------------------------------------------------
// Frame kinds
// ---------------------------------------------------------------------------

const KIND_HELLO: u8 = 0;
const KIND_MSG: u8 = 1;
const KIND_PING: u8 = 2;
const KIND_REQUEST: u8 = 3;
const KIND_RESPONSE: u8 = 4;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends one length-prefixed frame to `buf`.
///
/// Returns [`WireError::Oversize`] (leaving `buf` exactly as it was) if the
/// encoded frame would exceed [`MAX_FRAME`]; no legitimate message does.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; HEADER_LEN]);
    match frame {
        Frame::Hello { daemon } => {
            buf.push(KIND_HELLO);
            put_u32(buf, WIRE_MAGIC);
            put_u16(buf, WIRE_VERSION);
            put_u64(buf, *daemon);
        }
        Frame::Msg { from, to, msg } => {
            buf.push(KIND_MSG);
            put_u64(buf, *from);
            put_u64(buf, *to);
            encode_message(msg, buf);
        }
        Frame::Ping { to } => {
            buf.push(KIND_PING);
            put_u64(buf, *to);
        }
        Frame::Request { id, req } => {
            buf.push(KIND_REQUEST);
            put_u64(buf, *id);
            encode_request(req, buf);
        }
        Frame::Response { id, resp } => {
            buf.push(KIND_RESPONSE);
            put_u64(buf, *id);
            encode_response(resp, buf);
        }
    }
    let payload = buf.len() - start - HEADER_LEN;
    if payload > MAX_FRAME {
        buf.truncate(start);
        return Err(WireError::Oversize {
            len: payload as u64,
        });
    }
    let len = (payload as u32).to_le_bytes();
    buf[start..start + HEADER_LEN].copy_from_slice(&len);
    Ok(())
}

/// Parses a frame's 4-byte length prefix, validating it against
/// [`MAX_FRAME`]. The returned length is the number of payload bytes that
/// follow the header (kind byte included).
pub fn frame_len(header: [u8; HEADER_LEN]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversize { len: len as u64 });
    }
    if len == 0 {
        // A frame is at least its kind byte.
        return Err(WireError::Truncated);
    }
    Ok(len)
}

/// Decodes one frame body (the bytes *after* the length prefix — kind byte
/// first). The body must be consumed exactly; leftover bytes are an error.
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(body);
    let kind = r.u8()?;
    let frame = match kind {
        KIND_HELLO => {
            let magic = r.u32()?;
            if magic != WIRE_MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = r.u16()?;
            if version != WIRE_VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            Frame::Hello { daemon: r.u64()? }
        }
        KIND_MSG => {
            let from = r.u64()?;
            let to = r.u64()?;
            let msg = decode_message(&mut r)?;
            Frame::Msg { from, to, msg }
        }
        KIND_PING => Frame::Ping { to: r.u64()? },
        KIND_REQUEST => {
            let id = r.u64()?;
            let req = decode_request(&mut r)?;
            Frame::Request { id, req }
        }
        KIND_RESPONSE => {
            let id = r.u64()?;
            let resp = decode_response(&mut r)?;
            Frame::Response { id, resp }
        }
        kind => return Err(WireError::UnknownFrame { kind }),
    };
    r.finish()?;
    Ok(frame)
}

/// Reads one `[len][kind][body]` frame off `reader`, decoding out of the
/// caller's reusable `body` buffer. The one framing loop of every socket in
/// the tree: mesh links, the RPC server and `ldsd::NetClient` all call it
/// over a `BufReader` of [`READ_BUF_LEN`] bytes.
///
/// `None` means the stream ended or failed — including mid-frame, so a
/// truncated tail ends the stream like a clean EOF does. `Some(Err(_))` is
/// an invalid length prefix or an undecodable body; framing is lost at that
/// point and the caller must drop the connection.
pub fn read_frame(reader: &mut impl Read, body: &mut Vec<u8>) -> Option<Result<Frame, WireError>> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header).ok()?;
    let len = match frame_len(header) {
        Ok(len) => len,
        Err(e) => return Some(Err(e)),
    };
    body.resize(len, 0);
    reader.read_exact(body).ok()?;
    Some(decode_frame(body))
}

/// Convenience for one-shot decoding of a `[header][body]` byte string (as
/// produced by [`encode_frame`]): returns the frame and the total number of
/// bytes consumed.
pub fn decode_framed(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let len = frame_len(header)?;
    let end = HEADER_LEN + len;
    if bytes.len() < end {
        return Err(WireError::Truncated);
    }
    let frame = decode_frame(&bytes[HEADER_LEN..end])?;
    Ok((frame, end))
}

// ---------------------------------------------------------------------------
// LdsMessage
// ---------------------------------------------------------------------------

/// Appends the body encoding of one protocol message (class byte + fields)
/// to `buf`. The inverse of [`decode_message`] — used by [`Frame::Msg`] and
/// directly testable per class.
pub fn encode_message(msg: &LdsMessage, buf: &mut Vec<u8>) {
    buf.push(msg.class_index() as u8);
    match msg {
        LdsMessage::InvokeWrite { obj, value } => {
            put_u64(buf, obj.0);
            put_value(buf, value);
        }
        LdsMessage::InvokeRead { obj } => put_u64(buf, obj.0),
        LdsMessage::QueryTag { obj, op } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
        }
        LdsMessage::TagResp { obj, op, tag } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_tag(buf, tag);
        }
        LdsMessage::PutData {
            obj,
            op,
            tag,
            value,
        } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_tag(buf, tag);
            put_value(buf, value);
        }
        LdsMessage::PutStripe {
            obj,
            op,
            tag,
            seq,
            count,
            stripe,
        } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_tag(buf, tag);
            put_u32(buf, *seq);
            put_u32(buf, *count);
            put_value(buf, stripe);
        }
        LdsMessage::AckPutData { obj, op, tag } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_tag(buf, tag);
        }
        LdsMessage::BcastSend { obj, tag, origin }
        | LdsMessage::BcastDeliver { obj, tag, origin } => {
            put_u64(buf, obj.0);
            put_tag(buf, tag);
            put_u64(buf, origin.0 as u64);
        }
        LdsMessage::QueryCommTag { obj, op } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
        }
        LdsMessage::CommTagResp { obj, op, tag } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_tag(buf, tag);
        }
        LdsMessage::QueryData { obj, op, treq } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_tag(buf, treq);
        }
        LdsMessage::DataResp {
            obj,
            op,
            tag,
            payload,
        } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_opt_tag(buf, tag);
            match payload {
                ReadPayload::Value(v) => {
                    buf.push(0);
                    put_value(buf, v);
                }
                ReadPayload::Coded(share) => {
                    buf.push(1);
                    put_share(buf, share);
                }
                ReadPayload::None => buf.push(2),
            }
        }
        LdsMessage::PutTag { obj, op, tag } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
            put_tag(buf, tag);
        }
        LdsMessage::AckPutTag { obj, op } => {
            put_u64(buf, obj.0);
            put_op(buf, op);
        }
        LdsMessage::WriteCodeElem { obj, tag, element } => {
            put_u64(buf, obj.0);
            put_tag(buf, tag);
            put_share(buf, element);
        }
        LdsMessage::WriteCodeStripe {
            obj,
            tag,
            seq,
            count,
            part,
        } => {
            put_u64(buf, obj.0);
            put_tag(buf, tag);
            put_u32(buf, *seq);
            put_u32(buf, *count);
            put_share(buf, part);
        }
        LdsMessage::AckCodeElem { obj, tag } => {
            put_u64(buf, obj.0);
            put_tag(buf, tag);
        }
        LdsMessage::QueryCodeElem { obj, reader, op } => {
            put_u64(buf, obj.0);
            put_u64(buf, reader.0 as u64);
            put_op(buf, op);
        }
        LdsMessage::SendHelperElem {
            obj,
            reader,
            op,
            tag,
            helper,
        } => {
            put_u64(buf, obj.0);
            put_u64(buf, reader.0 as u64);
            put_op(buf, op);
            put_tag(buf, tag);
            put_helper(buf, helper);
        }
        LdsMessage::RepairHelp { obj, failed } => {
            put_u64(buf, obj.0);
            put_u64(buf, failed.0 as u64);
        }
        LdsMessage::RepairShare { obj, payload } => {
            put_u64(buf, obj.0);
            match payload {
                RepairPayload::Element {
                    tag,
                    element_len,
                    helper,
                } => {
                    buf.push(0);
                    put_tag(buf, tag);
                    put_u64(buf, *element_len);
                    put_helper(buf, helper);
                }
                RepairPayload::Meta { tc, entries } => {
                    buf.push(1);
                    put_tag(buf, tc);
                    put_u32(buf, entries.len() as u32);
                    for (tag, value) in entries {
                        put_tag(buf, tag);
                        match value {
                            Some(v) => {
                                buf.push(1);
                                put_value(buf, v);
                            }
                            None => buf.push(0),
                        }
                    }
                }
            }
        }
        LdsMessage::RepairDone {
            obj,
            objects,
            bytes_by_helper,
            fallback_bytes,
        } => {
            put_u64(buf, obj.0);
            put_u64(buf, *objects);
            put_u32(buf, bytes_by_helper.len() as u32);
            for (pid, bytes) in bytes_by_helper {
                put_u64(buf, pid.0 as u64);
                put_u64(buf, *bytes);
            }
            put_u64(buf, *fallback_bytes);
        }
    }
}

/// Decodes one protocol message from `r` (class byte first). The inverse of
/// [`encode_message`].
pub fn decode_message(r: &mut Reader<'_>) -> Result<LdsMessage, WireError> {
    let class = r.u8()?;
    let msg = match class {
        0 => LdsMessage::InvokeWrite {
            obj: ObjectId(r.u64()?),
            value: get_value(r)?,
        },
        1 => LdsMessage::InvokeRead {
            obj: ObjectId(r.u64()?),
        },
        2 => LdsMessage::QueryTag {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
        },
        3 => LdsMessage::TagResp {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
            tag: get_tag(r)?,
        },
        4 => LdsMessage::PutData {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
            tag: get_tag(r)?,
            value: get_value(r)?,
        },
        5 => LdsMessage::PutStripe {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
            tag: get_tag(r)?,
            seq: r.u32()?,
            count: r.u32()?,
            stripe: get_value(r)?,
        },
        6 => LdsMessage::AckPutData {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
            tag: get_tag(r)?,
        },
        7 => LdsMessage::BcastSend {
            obj: ObjectId(r.u64()?),
            tag: get_tag(r)?,
            origin: get_pid(r)?,
        },
        8 => LdsMessage::BcastDeliver {
            obj: ObjectId(r.u64()?),
            tag: get_tag(r)?,
            origin: get_pid(r)?,
        },
        9 => LdsMessage::QueryCommTag {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
        },
        10 => LdsMessage::CommTagResp {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
            tag: get_tag(r)?,
        },
        11 => LdsMessage::QueryData {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
            treq: get_tag(r)?,
        },
        12 => {
            let obj = ObjectId(r.u64()?);
            let op = get_op(r)?;
            let tag = get_opt_tag(r)?;
            let payload = match r.u8()? {
                0 => ReadPayload::Value(get_value(r)?),
                1 => ReadPayload::Coded(get_share(r)?),
                2 => ReadPayload::None,
                value => {
                    return Err(WireError::UnknownDiscriminant {
                        what: "ReadPayload",
                        value,
                    })
                }
            };
            LdsMessage::DataResp {
                obj,
                op,
                tag,
                payload,
            }
        }
        13 => LdsMessage::PutTag {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
            tag: get_tag(r)?,
        },
        14 => LdsMessage::AckPutTag {
            obj: ObjectId(r.u64()?),
            op: get_op(r)?,
        },
        15 => LdsMessage::WriteCodeElem {
            obj: ObjectId(r.u64()?),
            tag: get_tag(r)?,
            element: get_share(r)?,
        },
        16 => LdsMessage::WriteCodeStripe {
            obj: ObjectId(r.u64()?),
            tag: get_tag(r)?,
            seq: r.u32()?,
            count: r.u32()?,
            part: get_share(r)?,
        },
        17 => LdsMessage::AckCodeElem {
            obj: ObjectId(r.u64()?),
            tag: get_tag(r)?,
        },
        18 => LdsMessage::QueryCodeElem {
            obj: ObjectId(r.u64()?),
            reader: get_pid(r)?,
            op: get_op(r)?,
        },
        19 => LdsMessage::SendHelperElem {
            obj: ObjectId(r.u64()?),
            reader: get_pid(r)?,
            op: get_op(r)?,
            tag: get_tag(r)?,
            helper: get_helper(r)?,
        },
        20 => LdsMessage::RepairHelp {
            obj: ObjectId(r.u64()?),
            failed: get_pid(r)?,
        },
        21 => {
            let obj = ObjectId(r.u64()?);
            let payload = match r.u8()? {
                0 => RepairPayload::Element {
                    tag: get_tag(r)?,
                    element_len: r.u64()?,
                    helper: get_helper(r)?,
                },
                1 => {
                    let tc = get_tag(r)?;
                    let count = r.count(/* min bytes per entry: tag + flag */ 17)?;
                    let mut entries = Vec::with_capacity(count);
                    for _ in 0..count {
                        let tag = get_tag(r)?;
                        let value = match r.u8()? {
                            0 => None,
                            1 => Some(get_value(r)?),
                            value => {
                                return Err(WireError::UnknownDiscriminant {
                                    what: "Option<Value>",
                                    value,
                                })
                            }
                        };
                        entries.push((tag, value));
                    }
                    RepairPayload::Meta { tc, entries }
                }
                value => {
                    return Err(WireError::UnknownDiscriminant {
                        what: "RepairPayload",
                        value,
                    })
                }
            };
            LdsMessage::RepairShare { obj, payload }
        }
        22 => {
            let obj = ObjectId(r.u64()?);
            let objects = r.u64()?;
            let count = r.count(16)?;
            let mut bytes_by_helper = Vec::with_capacity(count);
            for _ in 0..count {
                let pid = get_pid(r)?;
                let bytes = r.u64()?;
                bytes_by_helper.push((pid, bytes));
            }
            let fallback_bytes = r.u64()?;
            LdsMessage::RepairDone {
                obj,
                objects,
                bytes_by_helper,
                fallback_bytes,
            }
        }
        class => return Err(WireError::UnknownClass { class }),
    };
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Request / Response
// ---------------------------------------------------------------------------

const REQ_WRITE: u8 = 0;
const REQ_READ: u8 = 1;
const REQ_KILL: u8 = 2;
const REQ_REPAIR: u8 = 3;
const REQ_LIVENESS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

fn encode_request(req: &Request, buf: &mut Vec<u8>) {
    match req {
        Request::Write { obj, value } => {
            buf.push(REQ_WRITE);
            put_u64(buf, obj.0);
            put_bytes(buf, value);
        }
        Request::Read { obj } => {
            buf.push(REQ_READ);
            put_u64(buf, obj.0);
        }
        Request::Kill { layer, index } => {
            buf.push(REQ_KILL);
            buf.push(*layer);
            put_u64(buf, *index);
        }
        Request::Repair { layer, index } => {
            buf.push(REQ_REPAIR);
            buf.push(*layer);
            put_u64(buf, *index);
        }
        Request::Liveness => buf.push(REQ_LIVENESS),
        Request::Shutdown => buf.push(REQ_SHUTDOWN),
    }
}

fn decode_request(r: &mut Reader<'_>) -> Result<Request, WireError> {
    Ok(match r.u8()? {
        REQ_WRITE => Request::Write {
            obj: ObjectId(r.u64()?),
            value: get_bytes(r)?,
        },
        REQ_READ => Request::Read {
            obj: ObjectId(r.u64()?),
        },
        REQ_KILL => Request::Kill {
            layer: r.u8()?,
            index: r.u64()?,
        },
        REQ_REPAIR => Request::Repair {
            layer: r.u8()?,
            index: r.u64()?,
        },
        REQ_LIVENESS => Request::Liveness,
        REQ_SHUTDOWN => Request::Shutdown,
        value => {
            return Err(WireError::UnknownDiscriminant {
                what: "Request",
                value,
            })
        }
    })
}

const RESP_WRITTEN: u8 = 0;
const RESP_VALUE: u8 = 1;
const RESP_KILLED: u8 = 2;
const RESP_REPAIRED: u8 = 3;
const RESP_LIVENESS: u8 = 4;
const RESP_SHUTTING_DOWN: u8 = 5;
const RESP_ERROR: u8 = 6;

fn encode_response(resp: &Response, buf: &mut Vec<u8>) {
    match resp {
        Response::Written { tag } => {
            buf.push(RESP_WRITTEN);
            put_tag(buf, tag);
        }
        Response::Value { bytes } => {
            buf.push(RESP_VALUE);
            put_bytes(buf, bytes);
        }
        Response::Killed => buf.push(RESP_KILLED),
        Response::Repaired { objects } => {
            buf.push(RESP_REPAIRED);
            put_u64(buf, *objects);
        }
        Response::Liveness { live_l1, live_l2 } => {
            buf.push(RESP_LIVENESS);
            put_u64(buf, *live_l1);
            put_u64(buf, *live_l2);
        }
        Response::ShuttingDown => buf.push(RESP_SHUTTING_DOWN),
        Response::Error { message } => {
            buf.push(RESP_ERROR);
            put_bytes(buf, message.as_bytes());
        }
    }
}

fn decode_response(r: &mut Reader<'_>) -> Result<Response, WireError> {
    Ok(match r.u8()? {
        RESP_WRITTEN => Response::Written { tag: get_tag(r)? },
        RESP_VALUE => Response::Value {
            bytes: get_bytes(r)?,
        },
        RESP_KILLED => Response::Killed,
        RESP_REPAIRED => Response::Repaired { objects: r.u64()? },
        RESP_LIVENESS => Response::Liveness {
            live_l1: r.u64()?,
            live_l2: r.u64()?,
        },
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_ERROR => Response::Error {
            message: String::from_utf8(get_bytes(r)?).map_err(|_| WireError::BadUtf8)?,
        },
        value => {
            return Err(WireError::UnknownDiscriminant {
                what: "Response",
                value,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    put_bytes(buf, value.as_bytes());
}

fn put_tag(buf: &mut Vec<u8>, tag: &Tag) {
    put_u64(buf, tag.z);
    put_u64(buf, tag.writer.0);
}

fn put_opt_tag(buf: &mut Vec<u8>, tag: &Option<Tag>) {
    match tag {
        Some(t) => {
            buf.push(1);
            put_tag(buf, t);
        }
        None => buf.push(0),
    }
}

fn put_op(buf: &mut Vec<u8>, op: &OpId) {
    put_u64(buf, op.client.0);
    put_u64(buf, op.seq);
}

fn put_share(buf: &mut Vec<u8>, share: &Share) {
    put_u64(buf, share.index as u64);
    put_bytes(buf, &share.data);
    put_layout(buf, &share.layout);
}

fn put_helper(buf: &mut Vec<u8>, helper: &HelperData) {
    put_u64(buf, helper.helper_index as u64);
    put_u64(buf, helper.failed_index as u64);
    put_bytes(buf, &helper.data);
    put_layout(buf, &helper.layout);
}

fn put_layout(buf: &mut Vec<u8>, layout: &Option<Vec<usize>>) {
    match layout {
        Some(lens) => {
            buf.push(1);
            put_u32(buf, lens.len() as u32);
            for &len in lens {
                put_u64(buf, len as u64);
            }
        }
        None => buf.push(0),
    }
}

// ---------------------------------------------------------------------------
// Primitive readers
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a frame body. Every accessor returns
/// [`WireError::Truncated`] instead of reading past the end, so decoding
/// hostile input can never panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only if the buffer was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32` element count and validates it against the bytes
    /// actually remaining (each element needs at least `min_elem_bytes`),
    /// so a corrupt count can never size an allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }
}

fn get_bytes(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    let len = r.u32()? as usize;
    Ok(r.take(len)?.to_vec())
}

fn get_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    Ok(Value::new(get_bytes(r)?))
}

fn get_tag(r: &mut Reader<'_>) -> Result<Tag, WireError> {
    let z = r.u64()?;
    let writer = ClientId(r.u64()?);
    Ok(Tag { z, writer })
}

fn get_opt_tag(r: &mut Reader<'_>) -> Result<Option<Tag>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_tag(r)?)),
        value => Err(WireError::UnknownDiscriminant {
            what: "Option<Tag>",
            value,
        }),
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<OpId, WireError> {
    let client = ClientId(r.u64()?);
    let seq = r.u64()?;
    Ok(OpId { client, seq })
}

fn get_pid(r: &mut Reader<'_>) -> Result<ProcessId, WireError> {
    Ok(ProcessId(r.u64()? as usize))
}

fn get_share(r: &mut Reader<'_>) -> Result<Share, WireError> {
    let index = r.u64()? as usize;
    let data = get_bytes(r)?;
    let layout = get_layout(r)?;
    Ok(Share {
        index,
        data,
        layout,
    })
}

fn get_helper(r: &mut Reader<'_>) -> Result<HelperData, WireError> {
    let helper_index = r.u64()? as usize;
    let failed_index = r.u64()? as usize;
    let data = get_bytes(r)?;
    let layout = get_layout(r)?;
    Ok(HelperData {
        helper_index,
        failed_index,
        data,
        layout,
    })
}

fn get_layout(r: &mut Reader<'_>) -> Result<Option<Vec<usize>>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let count = r.count(8)?;
            let mut lens = Vec::with_capacity(count);
            for _ in 0..count {
                lens.push(r.u64()? as usize);
            }
            Ok(Some(lens))
        }
        value => Err(WireError::UnknownDiscriminant {
            what: "Option<Vec<usize>>",
            value,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf).unwrap();
        let (decoded, consumed) = decode_framed(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn hello_roundtrips() {
        roundtrip(Frame::Hello { daemon: 2 });
        roundtrip(Frame::Hello { daemon: u64::MAX });
    }

    #[test]
    fn msg_roundtrips() {
        roundtrip(Frame::Msg {
            from: 9,
            to: 1,
            msg: LdsMessage::PutData {
                obj: ObjectId(7),
                op: OpId::new(ClientId(3), 44),
                tag: Tag::new(12, ClientId(3)),
                value: Value::new(vec![1, 2, 3]),
            },
        });
    }

    #[test]
    fn ping_and_rpc_roundtrip() {
        roundtrip(Frame::Ping { to: 5 });
        roundtrip(Frame::Request {
            id: 77,
            req: Request::Write {
                obj: ObjectId(1),
                value: vec![9; 100],
            },
        });
        roundtrip(Frame::Response {
            id: 77,
            resp: Response::Error {
                message: "boom".into(),
            },
        });
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Hello { daemon: 0 }, &mut buf).unwrap();
        // Corrupt the magic (first body byte after header + kind).
        buf[HEADER_LEN + 1] ^= 0xFF;
        assert!(matches!(
            decode_framed(&buf),
            Err(WireError::BadMagic { .. })
        ));
        let mut buf2 = Vec::new();
        encode_frame(&Frame::Hello { daemon: 0 }, &mut buf2).unwrap();
        // Corrupt the version.
        buf2[HEADER_LEN + 5] ^= 0xFF;
        assert!(matches!(
            decode_framed(&buf2),
            Err(WireError::BadVersion { .. })
        ));
    }

    #[test]
    fn oversize_header_is_rejected_before_allocation() {
        let header = ((MAX_FRAME as u32) + 1).to_le_bytes();
        assert!(matches!(frame_len(header), Err(WireError::Oversize { .. })));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Ping { to: 1 }, &mut buf).unwrap();
        // Stretch the announced length by one and append a stray byte.
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) + 1;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        buf.push(0xAB);
        assert!(matches!(
            decode_framed(&buf),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn corrupt_count_cannot_allocate() {
        // A RepairDone claiming u32::MAX helper entries in a tiny frame.
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Msg {
                from: 0,
                to: 1,
                msg: LdsMessage::RepairDone {
                    obj: ObjectId(0),
                    objects: 0,
                    bytes_by_helper: vec![],
                    fallback_bytes: 0,
                },
            },
            &mut buf,
        )
        .unwrap();
        // The entry count sits after header(4) + kind(1) + from(8) + to(8)
        // + class(1) + obj(8) + objects(8).
        let count_at = HEADER_LEN + 1 + 8 + 8 + 1 + 8 + 8;
        buf[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_framed(&buf), Err(WireError::Truncated)));
    }
}
