//! Protocol messages and harness events.
//!
//! One message enum covers all four automata (writer, reader, L1 server, L2
//! server) plus the harness commands that start client operations. Message
//! names follow the paper's pseudocode (Figs. 1–3).
//!
//! [`LdsMessage`] is declared once, as a table: each row states a class's
//! discriminant, kind string, doc comments and fields, and everything that
//! is a function of the class alone — [`LdsMessage::class_index`], the kind
//! string, [`MESSAGE_CLASSES`], [`LdsMessage::NUM_CLASSES`], the wire codec
//! ([`crate::wire`]) and the cost-model size — is generated from that row.
//!
//! The [`DataSize`] implementation encodes the paper's cost model
//! (§II-d): only object data (values, coded elements, helper payloads) counts;
//! tags, counters and other metadata are free. It is the sum of the fields'
//! payload bytes, so a new data-bearing field is counted without being named
//! anywhere but in its row.

use crate::process::{DataSize, ProcessId, SimTime};
use crate::tag::{ObjectId, OpId, Tag};
use crate::value::Value;
use crate::wire::{wire_enum, Wire, WireError};
use lds_codes::{HelperData, Share};

wire_enum! {
    /// Payload of a [`LdsMessage::RepairShare`]: what one live server contributes
    /// to the online regeneration of a crashed peer.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RepairPayload {
        /// L2 → replacement L2: a repair symbol for the failed server's coded
        /// element, computed from the helper's own committed `(tag, element)`
        /// pair. With an MBR backend this is the bandwidth-optimal `β`-sized
        /// helper; other backends ship enough for decode-and-re-encode.
        0 => Element {
            /// Tag of the element the helper symbol was computed from.
            tag: Tag,
            /// Length of the helper's full stored element in bytes — what this
            /// payload would have cost under the decode-and-re-encode fallback.
            /// Summed by the replacement into the repair's `fallback_bytes`
            /// accounting (covering every payload, whether or not its object
            /// ultimately reaches a repair quorum).
            element_len: u64,
            /// The repair symbol.
            helper: HelperData,
        },
        /// L1 → replacement L1: one live peer's per-object metadata snapshot —
        /// the committed tag plus every `(tag, value?)` entry of its list `L`.
        /// The union over a quorum of peers covers every tag the crashed server
        /// could have acknowledged, which is what keeps get-tag quorums monotonic
        /// after the rejoin. Tags are free in the cost model; only the live
        /// values count.
        1 => Meta {
            /// The peer's committed tag `t_c` for the object.
            tc: Tag,
            /// The peer's list entries (`None` encodes `⊥`, a tag whose value
            /// was already offloaded to L2).
            entries: Vec<(Tag, Option<Value>)>,
        },
    }
    unknown value => WireError::UnknownDiscriminant { what: "RepairPayload", value }
}

/// Payload of a server's response to a reader's `QUERY-DATA` (or of a late
/// response sent while serving a registered reader).
#[derive(Debug, Clone, PartialEq)]
pub enum ReadPayload {
    /// A full `(tag, value)` pair served from the server's temporary list.
    Value(Value),
    /// A `(tag, coded-element)` pair regenerated from L2.
    Coded(Share),
    /// `(⊥, ⊥)` — regeneration failed at this server.
    None,
}

/// Declares [`LdsMessage`] from the protocol table below. A row states one
/// message class once — `discriminant "KIND" => Variant { fields }`, with its
/// doc comments — and is forwarded to [`wire_enum!`] for the enum, its codec
/// and its cost-model size; the per-class lookups are generated here. Every
/// row must carry an `obj` field: the cluster runtime routes by it.
macro_rules! protocol_messages {
    ($(
        $(#[$doc:meta])*
        $class:literal $kind:literal => $variant:ident { $($fields:tt)* }
    ),* $(,)?) => {
        wire_enum! {
            /// All LDS protocol messages.
            #[derive(Debug, Clone, PartialEq)]
            pub enum LdsMessage {
                $( $(#[$doc])* $class => $variant { $($fields)* } ),*
            }
            unknown class => WireError::UnknownClass { class }
        }

        /// The name of every message class, indexed by
        /// [`LdsMessage::class_index`]: the [`DataSize::kind`] strings of the
        /// protocol messages in table order, then `"PING"` — the transport's
        /// payload-free liveness probe, which has no message body — as the
        /// final class. The one list behind fault-plan class names, trace
        /// events and the `lds_messages_total` metric labels.
        pub const MESSAGE_CLASSES: &[&str] = &[$($kind,)* "PING"];

        impl LdsMessage {
            /// Number of message classes: every [`LdsMessage::class_index`]
            /// value plus the transport-level `"PING"` probe at index
            /// `NUM_CLASSES - 1`.
            pub const NUM_CLASSES: usize = MESSAGE_CLASSES.len();

            /// Dense per-class index of this message — its row's discriminant,
            /// which is also its class byte on the wire and its position in
            /// [`MESSAGE_CLASSES`]. Observability counters and fault rules
            /// index by this instead of comparing [`DataSize::kind`] strings.
            pub fn class_index(&self) -> usize {
                match self {
                    $( LdsMessage::$variant { .. } => $class, )*
                }
            }

            /// The object this message concerns.
            ///
            /// Every protocol message carries its object id; the cluster
            /// runtime uses it to route messages to the server shard owning
            /// the object's partition.
            pub fn object(&self) -> ObjectId {
                match self {
                    $( LdsMessage::$variant { obj, .. } => *obj, )*
                }
            }
        }
    };
}

protocol_messages! {
    // ------------------------------------------------------------------
    // Harness commands (injected from `ProcessId::EXTERNAL`, no link cost).
    // ------------------------------------------------------------------
    /// Ask a writer client to perform a write operation.
    0 "INVOKE-WRITE" => InvokeWrite {
        /// Target object.
        obj: ObjectId,
        /// Value to write.
        value: Value,
    },
    /// Ask a reader client to perform a read operation.
    1 "INVOKE-READ" => InvokeRead {
        /// Target object.
        obj: ObjectId,
    },

    // ------------------------------------------------------------------
    // Writer <-> L1 (Fig. 1 / Fig. 2).
    // ------------------------------------------------------------------
    /// Writer `get-tag` query.
    2 "QUERY-TAG" => QueryTag {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
    },
    /// Server response to [`LdsMessage::QueryTag`]: the maximum tag in its
    /// list.
    3 "TAG-RESP" => TagResp {
        /// Target object.
        obj: ObjectId,
        /// Operation id echoed back.
        op: OpId,
        /// Maximum tag in the server's list.
        tag: Tag,
    },
    /// Writer `put-data`: the new `(tag, value)` pair.
    4 "PUT-DATA" => PutData {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// The new tag.
        tag: Tag,
        /// The value being written.
        value: Value,
    },
    /// Server acknowledgment of a write (sent from `put-data-resp` when the
    /// tag is stale, or from `broadcast-resp` once enough COMMIT-TAG
    /// broadcasts have been consumed).
    5 "ACK-PUT-DATA" => AckPutData {
        /// Target object.
        obj: ObjectId,
        /// Operation id echoed back.
        op: OpId,
        /// The written tag.
        tag: Tag,
    },

    // ------------------------------------------------------------------
    // Metadata broadcast primitive among L1 servers (§III, from ref. [17]).
    // ------------------------------------------------------------------
    /// First hop: the broadcasting server sends to the fixed relay set
    /// `S_{f1+1}`.
    6 "BCAST-SEND" => BcastSend {
        /// Target object.
        obj: ObjectId,
        /// The committed tag being announced.
        tag: Tag,
        /// The server that initiated this broadcast.
        origin: ProcessId,
    },
    /// Second hop: a relay forwards to every L1 server; consuming this
    /// message triggers the `broadcast-resp` action.
    7 "COMMIT-TAG" => BcastDeliver {
        /// Target object.
        obj: ObjectId,
        /// The committed tag being announced.
        tag: Tag,
        /// The server that initiated this broadcast.
        origin: ProcessId,
    },

    // ------------------------------------------------------------------
    // Reader <-> L1 (Fig. 1 / Fig. 2).
    // ------------------------------------------------------------------
    /// Reader `get-committed-tag` query.
    8 "QUERY-COMM-TAG" => QueryCommTag {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
    },
    /// Server response to [`LdsMessage::QueryCommTag`]: its committed tag.
    9 "COMM-TAG-RESP" => CommTagResp {
        /// Target object.
        obj: ObjectId,
        /// Operation id echoed back.
        op: OpId,
        /// The server's committed tag `t_c`.
        tag: Tag,
    },
    /// Reader `get-data` request for tag at least `treq`.
    10 "QUERY-DATA" => QueryData {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// The requested tag.
        treq: Tag,
    },
    /// Server response to [`LdsMessage::QueryData`] — possibly sent later
    /// than the request if the reader was registered and served during a
    /// subsequent `broadcast-resp` / `put-tag-resp`.
    11 "DATA-RESP" => DataResp {
        /// Target object.
        obj: ObjectId,
        /// Operation id echoed back.
        op: OpId,
        /// Tag of the payload (`None` encodes the paper's `⊥`).
        tag: Option<Tag>,
        /// The payload.
        payload: ReadPayload,
    },
    /// Reader `put-tag` write-back (tag only — no value, which is what keeps
    /// the read cost low).
    12 "PUT-TAG" => PutTag {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// The tag being written back.
        tag: Tag,
    },
    /// Server acknowledgment of a [`LdsMessage::PutTag`].
    13 "ACK-PUT-TAG" => AckPutTag {
        /// Target object.
        obj: ObjectId,
        /// Operation id echoed back.
        op: OpId,
    },

    // ------------------------------------------------------------------
    // L1 <-> L2 internal operations (Fig. 2 / Fig. 3).
    // ------------------------------------------------------------------
    /// `write-to-L2`: an L1 server offloads a coded element to an L2 server.
    14 "WRITE-CODE-ELEM" => WriteCodeElem {
        /// Target object.
        obj: ObjectId,
        /// Tag of the value the element encodes.
        tag: Tag,
        /// The coded element `c_{n1+i}`.
        element: Share,
    },
    /// L2 acknowledgment of a [`LdsMessage::WriteCodeElem`].
    15 "ACK-CODE-ELEM" => AckCodeElem {
        /// Target object.
        obj: ObjectId,
        /// The acknowledged tag.
        tag: Tag,
    },
    /// `regenerate-from-L2`: an L1 server asks an L2 server for helper data
    /// on behalf of reader `reader` / operation `op`.
    16 "QUERY-CODE-ELEM" => QueryCodeElem {
        /// Target object.
        obj: ObjectId,
        /// The reader being served (metadata, used to key the helper set).
        reader: ProcessId,
        /// The reader's operation id.
        op: OpId,
    },
    /// L2 response to [`LdsMessage::QueryCodeElem`]: helper data computed
    /// from its stored coded element.
    17 "SEND-HELPER-ELEM" => SendHelperElem {
        /// Target object.
        obj: ObjectId,
        /// The reader being served.
        reader: ProcessId,
        /// The reader's operation id.
        op: OpId,
        /// Tag of the stored element the helper data was computed from.
        tag: Tag,
        /// The helper payload `h_{n1+i, j}`.
        helper: HelperData,
    },

    // ------------------------------------------------------------------
    // Online node repair & rejoin (cluster runtime extension; not part of
    // the paper's static-membership automata).
    // ------------------------------------------------------------------
    /// Repair coordinator → live peers of a crashed server: stream your
    /// repair contributions for `failed` to the (already re-registered)
    /// replacement. Delivered to *every* worker shard of each helper (see
    /// [`LdsMessage::fanout`]); the `obj` field exists only to satisfy the
    /// uniform routing interface.
    18 "REPAIR-HELP" => RepairHelp {
        /// Routing placeholder (fan-out messages address a process, not an
        /// object).
        obj: ObjectId,
        /// The crashed server being regenerated.
        failed: ProcessId,
    },
    /// One live server's per-object repair contribution, sent to the
    /// replacement server. Routed by `obj`, so with sharded servers each
    /// contribution arrives directly at the worker shard owning the object.
    19 "REPAIR-SHARE" => RepairShare {
        /// The object this contribution restores.
        obj: ObjectId,
        /// The contribution (coded helper symbol for L2, metadata snapshot
        /// for L1).
        payload: RepairPayload,
    },
    /// End-of-stream marker and completion report. Two uses: a helper shard
    /// sends it (fan-out, after all its [`LdsMessage::RepairShare`]s) to tell
    /// every replacement shard it is done; a finished replacement shard sends
    /// it to the repair coordinator with the accounting fields filled in.
    20 "REPAIR-DONE" => RepairDone {
        /// Routing placeholder.
        obj: ObjectId,
        /// Shares contributed (helper → replacement) or objects restored
        /// (replacement → coordinator).
        objects: u64,
        /// Repair bytes received per helper process (replacement →
        /// coordinator only; empty otherwise).
        bytes_by_helper: Vec<(ProcessId, u64)>,
        /// What the same repair — same helpers participating — would have
        /// moved had each shipped its full stored element (the
        /// decode-and-re-encode fallback), for the MBR-vs-full-decode
        /// bandwidth comparison (replacement → coordinator only).
        fallback_bytes: u64,
    },
}

impl LdsMessage {
    /// Whether the message addresses a whole *process* rather than one
    /// object, and must therefore be delivered to **every** worker shard of
    /// a sharded destination (the cluster transport's per-object routing
    /// would otherwise hand it to a single shard).
    ///
    /// A fan-out message takes its place, in send order, among the messages
    /// of its burst for every shard: a repair helper's end-of-stream
    /// [`LdsMessage::RepairDone`] stays behind the
    /// [`LdsMessage::RepairShare`]s it terminates on every channel.
    pub fn fanout(&self) -> bool {
        matches!(
            self,
            LdsMessage::RepairHelp { .. } | LdsMessage::RepairDone { .. }
        )
    }
}

impl DataSize for LdsMessage {
    fn data_size(&self) -> usize {
        self.payload()
    }

    fn kind(&self) -> &'static str {
        MESSAGE_CLASSES[self.class_index()]
    }
}

/// Events emitted by client automata to the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolEvent {
    /// A write operation completed.
    WriteCompleted {
        /// Operation id.
        op: OpId,
        /// Target object.
        obj: ObjectId,
        /// The tag the writer created.
        tag: Tag,
        /// The written value.
        value: Value,
        /// Invocation time.
        invoked_at: SimTime,
    },
    /// A read operation completed.
    ReadCompleted {
        /// Operation id.
        op: OpId,
        /// Target object.
        obj: ObjectId,
        /// The tag associated with the returned value.
        tag: Tag,
        /// The returned value.
        value: Value,
        /// Invocation time.
        invoked_at: SimTime,
    },
}

impl ProtocolEvent {
    /// The operation id of the completed operation.
    pub fn op(&self) -> OpId {
        match self {
            ProtocolEvent::WriteCompleted { op, .. } | ProtocolEvent::ReadCompleted { op, .. } => {
                *op
            }
        }
    }

    /// The object the operation acted on.
    pub fn object(&self) -> ObjectId {
        match self {
            ProtocolEvent::WriteCompleted { obj, .. }
            | ProtocolEvent::ReadCompleted { obj, .. } => *obj,
        }
    }

    /// The tag associated with the operation.
    pub fn tag(&self) -> Tag {
        match self {
            ProtocolEvent::WriteCompleted { tag, .. }
            | ProtocolEvent::ReadCompleted { tag, .. } => *tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ClientId;

    #[test]
    fn data_sizes_follow_cost_model() {
        let obj = ObjectId(0);
        let op = OpId::new(ClientId(1), 0);
        let tag = Tag::initial();
        let value = Value::new(vec![0u8; 100]);

        let put = LdsMessage::PutData {
            obj,
            op,
            tag,
            value: value.clone(),
        };
        assert_eq!(put.data_size(), 100);
        assert_eq!(put.kind(), "PUT-DATA");

        let query = LdsMessage::QueryTag { obj, op };
        assert_eq!(query.data_size(), 0, "metadata is free");

        let coded = LdsMessage::DataResp {
            obj,
            op,
            tag: Some(tag),
            payload: ReadPayload::Coded(Share::new(0, vec![1; 25])),
        };
        assert_eq!(coded.data_size(), 25);

        let miss = LdsMessage::DataResp {
            obj,
            op,
            tag: None,
            payload: ReadPayload::None,
        };
        assert_eq!(miss.data_size(), 0);

        let helper = LdsMessage::SendHelperElem {
            obj,
            reader: ProcessId(9),
            op,
            tag,
            helper: HelperData::new(5, 1, vec![0; 7]),
        };
        assert_eq!(helper.data_size(), 7);
        assert_eq!(helper.kind(), "SEND-HELPER-ELEM");

        let bcast = LdsMessage::BcastDeliver {
            obj,
            tag,
            origin: ProcessId(2),
        };
        assert_eq!(bcast.data_size(), 0);
        assert_eq!(bcast.kind(), "COMMIT-TAG");
    }

    #[test]
    fn metadata_classification_matches_cost_model() {
        let obj = ObjectId(0);
        let op = OpId::new(ClientId(1), 0);
        let tag = Tag::initial();
        // Metadata messages carry no object data: broadcasts, queries, acks.
        assert_eq!(
            LdsMessage::BcastSend {
                obj,
                tag,
                origin: ProcessId(1)
            }
            .data_size(),
            0
        );
        assert_eq!(
            LdsMessage::BcastDeliver {
                obj,
                tag,
                origin: ProcessId(1)
            }
            .data_size(),
            0
        );
        assert_eq!(LdsMessage::QueryTag { obj, op }.data_size(), 0);
        assert_eq!(LdsMessage::AckPutData { obj, op, tag }.data_size(), 0);
        assert_eq!(LdsMessage::AckCodeElem { obj, tag }.data_size(), 0);
        // Data-carrying messages count their payload.
        assert!(
            LdsMessage::PutData {
                obj,
                op,
                tag,
                value: Value::from("payload")
            }
            .data_size()
                > 0
        );
        assert!(
            LdsMessage::WriteCodeElem {
                obj,
                tag,
                element: Share::new(0, vec![1, 2, 3])
            }
            .data_size()
                > 0
        );
    }

    #[test]
    fn repair_messages_classify_for_batching_and_fanout() {
        let obj = ObjectId(3);
        let tag = Tag::new(2, ClientId(1));
        let help = LdsMessage::RepairHelp {
            obj,
            failed: ProcessId(7),
        };
        assert_eq!(help.data_size(), 0);
        assert!(help.fanout());
        assert_eq!(help.kind(), "REPAIR-HELP");

        let done = LdsMessage::RepairDone {
            obj,
            objects: 5,
            bytes_by_helper: vec![(ProcessId(4), 100)],
            fallback_bytes: 300,
        };
        assert_eq!(done.data_size(), 0);
        assert!(done.fanout());

        // Coded repair symbols count their payload bytes and route by object.
        let share = LdsMessage::RepairShare {
            obj,
            payload: RepairPayload::Element {
                tag,
                element_len: 9,
                helper: HelperData::new(5, 2, vec![1, 2, 3]),
            },
        };
        assert_eq!(share.data_size(), 3);
        assert!(!share.fanout());
        assert_eq!(share.object(), obj);

        // Metadata snapshots count only the live values, not the tags.
        let meta = LdsMessage::RepairShare {
            obj,
            payload: RepairPayload::Meta {
                tc: tag,
                entries: vec![
                    (tag, Some(Value::from("live"))),
                    (Tag::new(1, ClientId(1)), None),
                ],
            },
        };
        assert_eq!(meta.data_size(), 4);
    }

    #[test]
    fn event_accessors() {
        let e = ProtocolEvent::WriteCompleted {
            op: OpId::new(ClientId(3), 7),
            obj: ObjectId(2),
            tag: Tag::new(4, ClientId(3)),
            value: Value::from("x"),
            invoked_at: SimTime::ZERO,
        };
        assert_eq!(e.op(), OpId::new(ClientId(3), 7));
        assert_eq!(e.object(), ObjectId(2));
        assert_eq!(e.tag(), Tag::new(4, ClientId(3)));
    }
}
