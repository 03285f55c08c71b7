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
//! * A struct is its fields in declaration order; an enum — [`LdsMessage`]
//!   (whose discriminant is its [`LdsMessage::class_index`]), [`Request`],
//!   [`Response`] and the payload enums — is a `u8` discriminant followed
//!   by the variant's fields in declaration order.
//!
//! That list is the whole format. Each field type has exactly one codec
//! impl (the crate-private `Wire` trait below) and the three enums are
//! declared through the `wire_enum!` table macro, which generates their
//! encode and decode from the declaration — so no message has a
//! hand-written codec arm that could disagree with its definition. Only the
//! five [`Frame`] kinds and the framing functions are written out, because
//! they validate input (magic, version, length cap, trailing bytes) rather
//! than describe structure.
//!
//! The codec is self-contained (no serde — the build has no crates.io
//! access) and hardened against untrusted input: every read is
//! bounds-checked, a frame longer than [`MAX_FRAME`] is rejected before any
//! allocation, and corrupt length prefixes can never cause an out-of-bounds
//! access or an attacker-sized allocation — decoding returns [`WireError`],
//! never panics.
//!
//! Encoding appends to a caller-owned `Vec<u8>` so writer threads can reuse
//! one buffer per link.

use crate::messages::{LdsMessage, ReadPayload};
use crate::process::ProcessId;
use crate::tag::{ClientId, ObjectId, OpId, Tag};
use crate::value::Value;
use lds_codes::share::{HelperData, Share};
use std::fmt;
use std::io::Read;

/// Magic number opening every [`Frame::Hello`] (`b"LDS\x01"` as a LE u32).
pub const WIRE_MAGIC: u32 = 0x0153_444C;

/// Wire-format version negotiated in the handshake. Bumped on any breaking
/// change to the frame layout; a peer speaking a different version is
/// rejected at [`Frame::Hello`] time with [`WireError::BadVersion`].
pub const WIRE_VERSION: u16 = 2;

/// Hard cap on one frame's payload (`kind` byte + body), in bytes.
///
/// A corrupt or hostile length prefix above this is rejected *before* any
/// buffer is sized from it. 64 MiB comfortably covers the largest legitimate
/// message (a full coded element of the biggest benchmarked value class).
pub const MAX_FRAME: usize = 64 << 20;

/// Size of the length prefix preceding every frame.
pub const HEADER_LEN: usize = 4;

/// How long an accepted connection — a peer daemon on the mesh, or a client
/// on the RPC port — has to send its `Hello` before it is dropped.
pub const HELLO_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

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

// ---------------------------------------------------------------------------
// The enums that cross the wire, declared as tables
// ---------------------------------------------------------------------------

/// Declares an enum whose wire form *is* its declaration: each row states a
/// variant's discriminant byte, doc comments and fields once, and the enum,
/// its [`Wire`] codec (discriminant, then the fields in order) and its
/// cost-model size (the fields' payloads summed) are generated from it. The
/// trailing `unknown` clause names the error for a discriminant no row has.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $disc:literal => $variant:ident $({
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
        unknown $value:ident => $unknown:expr
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({
                    $( $(#[$fmeta])* $field: $ty ),*
                })?
            ),*
        }

        // A discriminant is a position (`MESSAGE_CLASSES`, per-class
        // counters and fault-rule bit sets index by it): reject a table
        // whose rows are not numbered 0..N in declaration order.
        const _: () = {
            let discriminants: &[u8] = &[$($disc),*];
            let mut i = 0;
            while i < discriminants.len() {
                assert!(
                    discriminants[i] as usize == i,
                    "discriminants must be 0..N in declaration order"
                );
                i += 1;
            }
        };

        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 1;
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $(
                        Self::$variant $({ $($field),* })? => {
                            buf.push($disc);
                            $($( $crate::wire::Wire::put($field, buf); )*)?
                        }
                    )*
                }
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::get(r)? {
                    $(
                        $disc => Self::$variant $({
                            $( $field: $crate::wire::Wire::get(r)? ),*
                        })?,
                    )*
                    $value => return Err($unknown),
                })
            }
            #[inline]
            fn payload(&self) -> usize {
                match self {
                    $(
                        Self::$variant $({ $($field),* })? => {
                            0 $($( + $crate::wire::Wire::payload($field) )*)?
                        }
                    )*
                }
            }
        }
    };
}
pub(crate) use wire_enum;

wire_enum! {
    /// A client → daemon RPC request (the network `Store`/`Admin` plane).
    ///
    /// Requests are asynchronous: the client stamps each with a connection-local
    /// id ([`Frame::Request`]) and matches the daemon's [`Frame::Response`] by
    /// that id, which is what makes pipelined submits a single code path.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum Request {
        /// Write `value` under `obj` (blocking semantics decided by the client).
        0 => Write {
            /// Target object.
            obj: ObjectId,
            /// The bytes to write.
            value: Vec<u8>,
        },
        /// Read the latest committed value of `obj`.
        1 => Read {
            /// Target object.
            obj: ObjectId,
        },
        /// Crash the server at (`layer`, `index`) — admin crash injection.
        /// Valid only on the daemon hosting that server.
        2 => Kill {
            /// 0 = L1, 1 = L2.
            layer: u8,
            /// Index within the layer.
            index: u64,
        },
        /// Repair the server at (`layer`, `index`) — admin online repair.
        /// Valid only on the daemon hosting that server.
        3 => Repair {
            /// 0 = L1, 1 = L2.
            layer: u8,
            /// Index within the layer.
            index: u64,
        },
        /// Report per-layer liveness as this daemon observes it.
        4 => Liveness,
        /// Ask the daemon to shut down cleanly (teardown path for tests and
        /// drills; a production deployment would gate this).
        5 => Shutdown,
    }
    unknown value => WireError::UnknownDiscriminant { what: "Request", value }
}

wire_enum! {
    /// A daemon → client RPC response, matched to its [`Request`] by id.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum Response {
        /// A write committed under `tag`.
        0 => Written {
            /// The tag the write committed under.
            tag: Tag,
        },
        /// A read returned these bytes.
        1 => Value {
            /// The committed value.
            bytes: Vec<u8>,
        },
        /// The kill was injected.
        2 => Killed,
        /// The repair completed, restoring `objects` objects.
        3 => Repaired {
            /// Number of objects restored.
            objects: u64,
        },
        /// Liveness counts as this daemon observes them.
        4 => Liveness {
            /// Live L1 servers.
            live_l1: u64,
            /// Live L2 servers.
            live_l2: u64,
        },
        /// The daemon acknowledges the shutdown and will exit.
        5 => ShuttingDown,
        /// The request failed; `message` is the daemon-side error rendering
        /// (rejected on arrival unless valid UTF-8).
        6 => Error {
            /// Human-readable failure description.
            message: String,
        },
    }
    unknown value => WireError::UnknownDiscriminant { what: "Response", value }
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
// Framing (hand-written: it validates input, it does not describe structure)
// ---------------------------------------------------------------------------

const KIND_HELLO: u8 = 0;
const KIND_MSG: u8 = 1;
const KIND_PING: u8 = 2;
const KIND_REQUEST: u8 = 3;
const KIND_RESPONSE: u8 = 4;

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
            WIRE_MAGIC.put(buf);
            WIRE_VERSION.put(buf);
            daemon.put(buf);
        }
        Frame::Msg { from, to, msg } => {
            buf.push(KIND_MSG);
            from.put(buf);
            to.put(buf);
            msg.put(buf);
        }
        Frame::Ping { to } => {
            buf.push(KIND_PING);
            to.put(buf);
        }
        Frame::Request { id, req } => {
            buf.push(KIND_REQUEST);
            id.put(buf);
            req.put(buf);
        }
        Frame::Response { id, resp } => {
            buf.push(KIND_RESPONSE);
            id.put(buf);
            resp.put(buf);
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
    let r = &mut Reader::new(body);
    let frame = match u8::get(r)? {
        KIND_HELLO => {
            let magic = u32::get(r)?;
            if magic != WIRE_MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = u16::get(r)?;
            if version != WIRE_VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            Frame::Hello {
                daemon: Wire::get(r)?,
            }
        }
        KIND_MSG => Frame::Msg {
            from: Wire::get(r)?,
            to: Wire::get(r)?,
            msg: Wire::get(r)?,
        },
        KIND_PING => Frame::Ping { to: Wire::get(r)? },
        KIND_REQUEST => Frame::Request {
            id: Wire::get(r)?,
            req: Wire::get(r)?,
        },
        KIND_RESPONSE => Frame::Response {
            id: Wire::get(r)?,
            resp: Wire::get(r)?,
        },
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
// The codec: one impl per type that crosses the wire
// ---------------------------------------------------------------------------

/// The one codec of a type that crosses the wire.
///
/// The format is purely structural: a struct is its fields in declaration
/// order, an enum is a discriminant byte followed by the fields of the
/// variant, and each field type has exactly one impl below. A message's wire
/// form and cost-model size are therefore functions of its declaration —
/// nothing per message is written by hand.
pub(crate) trait Wire: Sized {
    /// Fewest bytes any encoding of the type occupies: what a claimed
    /// element count is multiplied by ([`Reader::count`]) before a vector
    /// is sized from it.
    const MIN_LEN: usize;

    /// Appends the encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decodes one value; every read is bounds-checked.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Object-data bytes carried, per the paper's cost model (§II-d): the
    /// length of a value, coded element or helper payload. Tags, counters
    /// and other metadata are free; containers sum their contents.
    #[inline]
    fn payload(&self) -> usize {
        0
    }

    /// Appends the elements of a counted vector (the count is already
    /// written). `u8` overrides this and [`Wire::get_all`] with one copy.
    fn put_all(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.put(buf);
        }
    }

    /// Decodes `count` elements, `count` having passed [`Reader::count`].
    fn get_all(r: &mut Reader<'_>, count: usize) -> Result<Vec<Self>, WireError> {
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// A bounds-checked cursor over a frame body. Every accessor returns
/// [`WireError::Truncated`] instead of reading past the end, so decoding
/// hostile input can never panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only if the buffer was consumed exactly.
    fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    /// Reads a `u32` element count and validates it against the bytes
    /// actually remaining (each element needs at least `min_elem_bytes`),
    /// so a corrupt count can never size an allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = u32::get(self)? as usize;
        if count.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }
}

/// Appends a `u32` count followed by the elements.
fn put_counted<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).put(buf);
    T::put_all(items, buf);
}

impl Wire for u8 {
    const MIN_LEN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(1)?[0])
    }
    fn put_all(items: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
    fn get_all(r: &mut Reader<'_>, count: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(count)?.to_vec())
    }
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_int!(u16, u32, u64);

/// `usize` travels as `u64`.
impl Wire for usize {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u64::get(r)? as usize)
    }
}

/// A counted vector — and, through the `u8` overrides, a byte string.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, buf: &mut Vec<u8>) {
        put_counted(self, buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.count(T::MIN_LEN)?;
        T::get_all(r, count)
    }
    fn payload(&self) -> usize {
        self.iter().map(Wire::payload).sum()
    }
}

impl Wire for String {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, buf: &mut Vec<u8>) {
        put_counted(self.as_bytes(), buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(Vec::get(r)?).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(inner) => {
                buf.push(1);
                inner.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            value => Err(WireError::UnknownDiscriminant {
                what: "Option",
                value,
            }),
        }
    }
    #[inline]
    fn payload(&self) -> usize {
        self.as_ref().map_or(0, Wire::payload)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
    #[inline]
    fn payload(&self) -> usize {
        self.0.payload() + self.1.payload()
    }
}

/// The codec of a struct whose fields are all wire types, listed in wire
/// order. `carries $data` names the byte field that is the struct's object
/// data; without it the struct is metadata (payload 0).
macro_rules! wire_struct {
    ($name:ident { $($field:tt: $ty:ty),* } $(carries $data:ident)?) => {
        impl Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty>::MIN_LEN)*;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name { $($field: Wire::get(r)?),* })
            }
            $(
                #[inline]
                fn payload(&self) -> usize {
                    self.$data.len()
                }
            )?
        }
    };
}
wire_struct!(ObjectId { 0: u64 });
wire_struct!(ClientId { 0: u64 });
wire_struct!(ProcessId { 0: usize });
wire_struct!(Tag {
    z: u64,
    writer: ClientId
});
wire_struct!(OpId {
    client: ClientId,
    seq: u64
});
wire_struct!(Share {
    index: usize,
    data: Vec<u8>
} carries data);
wire_struct!(HelperData {
    helper_index: usize,
    failed_index: usize,
    data: Vec<u8>
} carries data);

impl Wire for Value {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, buf: &mut Vec<u8>) {
        put_counted(self.as_bytes(), buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Value::new(Vec::get(r)?))
    }
    #[inline]
    fn payload(&self) -> usize {
        self.len()
    }
}

impl Wire for ReadPayload {
    const MIN_LEN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            ReadPayload::Value(value) => {
                buf.push(0);
                value.put(buf);
            }
            ReadPayload::Coded(share) => {
                buf.push(1);
                share.put(buf);
            }
            ReadPayload::None => buf.push(2),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(ReadPayload::Value(Wire::get(r)?)),
            1 => Ok(ReadPayload::Coded(Wire::get(r)?)),
            2 => Ok(ReadPayload::None),
            value => Err(WireError::UnknownDiscriminant {
                what: "ReadPayload",
                value,
            }),
        }
    }
    #[inline]
    fn payload(&self) -> usize {
        match self {
            ReadPayload::Value(value) => value.payload(),
            ReadPayload::Coded(share) => share.payload(),
            ReadPayload::None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RepairPayload;

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
        // Each of the three counted vectors, claiming u32::MAX entries in a
        // tiny frame. Every count sits after header(4) + kind(1) + from(8)
        // + to(8) + class(1) + obj(8), then:
        let prefix = HEADER_LEN + 1 + 8 + 8 + 1 + 8;
        let (obj, tag) = (ObjectId(0), Tag::initial());
        let cases = [
            (
                LdsMessage::RepairDone {
                    obj,
                    objects: 0,
                    bytes_by_helper: vec![],
                    fallback_bytes: 0,
                },
                prefix + 8, // objects(8)
            ),
            (
                LdsMessage::WriteCodeElem {
                    obj,
                    tag,
                    element: Share::new(0, vec![]),
                },
                prefix + 16 + 8, // tag(16) + index(8)
            ),
            (
                LdsMessage::RepairShare {
                    obj,
                    payload: RepairPayload::Meta {
                        tc: tag,
                        entries: vec![],
                    },
                },
                prefix + 1 + 16, // payload shape(1) + tc(16)
            ),
        ];
        for (msg, count_at) in cases {
            let mut buf = Vec::new();
            encode_frame(
                &Frame::Msg {
                    from: 0,
                    to: 1,
                    msg,
                },
                &mut buf,
            )
            .unwrap();
            buf[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(decode_framed(&buf), Err(WireError::Truncated)));
        }
    }
}
