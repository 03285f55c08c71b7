//! The writer client automaton — left column of Fig. 1.
//!
//! A write is two phases, both against L1 only:
//!
//! 1. **get-tag**: query all L1 servers for the maximum tag in their lists,
//!    wait for `f1 + k` responses, pick the maximum `t` and form the new tag
//!    `t_w = (t.z + 1, w)`.
//! 2. **put-data**: send `(t_w, v)` to all L1 servers and wait for `f1 + k`
//!    acknowledgments.
//!
//! The write completes without waiting for any interaction with L2 — that is
//! the key latency property of the layered design.
//!
//! # Pipelining
//!
//! The automaton supports several writes in flight at once, keyed by
//! [`OpId`], as long as they target *distinct* objects. Two concurrent writes
//! by the same writer to the same object could mint the same tag `(z + 1, w)`
//! for different values — an atomicity violation — so well-formedness is now
//! *per object*: a new invocation for an object with an outstanding write
//! panics, exactly like the old single-op well-formedness rule.

use crate::idmap::{IdMap, IdSet};
use crate::membership::{Membership, ServerSet};
use crate::messages::{LdsMessage, ProtocolEvent};
use crate::params::SystemParams;
use crate::process::{Context, Process, ProcessId, SimTime};
use crate::tag::{ClientId, ObjectId, OpId, Tag};
use crate::value::Value;

#[derive(Debug, Clone, PartialEq, Eq)]
enum WritePhase {
    GetTag,
    PutData,
}

#[derive(Debug, Clone)]
struct WriteOp {
    op: OpId,
    obj: ObjectId,
    value: Value,
    invoked_at: SimTime,
    phase: WritePhase,
    /// L1 servers that answered get-tag, and the highest tag they reported.
    tag_responders: ServerSet,
    max_tag: Tag,
    tag: Option<Tag>,
    acks: ServerSet,
}

/// The writer client automaton.
///
/// Writers are *well-formed per object*: the harness must not start a new
/// write for an object before the previous write to that object completed (a
/// completion is signalled by a [`ProtocolEvent::WriteCompleted`] event).
/// Writes to distinct objects may be pipelined freely.
pub struct WriterClient {
    id: ClientId,
    params: SystemParams,
    membership: Membership,
    next_seq: u64,
    ops: IdMap<OpId, WriteOp>,
    busy_objects: IdSet<ObjectId>,
    completed: u64,
}

impl WriterClient {
    /// Creates a writer with the given client id.
    pub fn new(id: ClientId, params: SystemParams, membership: Membership) -> Self {
        assert_eq!(
            membership.n1(),
            params.n1(),
            "membership/params n1 mismatch"
        );
        WriterClient {
            id,
            params,
            membership,
            next_seq: 0,
            ops: IdMap::default(),
            busy_objects: IdSet::default(),
            completed: 0,
        }
    }

    /// The writer's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Whether any write is currently in progress.
    pub fn is_busy(&self) -> bool {
        !self.ops.is_empty()
    }

    /// Number of writes currently in flight.
    pub fn in_flight(&self) -> usize {
        self.ops.len()
    }

    /// Whether a write to `obj` is currently in flight.
    pub fn is_object_busy(&self, obj: ObjectId) -> bool {
        self.busy_objects.contains(&obj)
    }

    /// Number of writes completed by this client.
    pub fn completed_ops(&self) -> u64 {
        self.completed
    }

    /// Starts a write of `value` to `obj` and returns its operation id.
    ///
    /// This is the entry point used by pipelined drivers; injecting an
    /// [`LdsMessage::InvokeWrite`] is equivalent.
    ///
    /// # Panics
    ///
    /// Panics if a write to the same object is already in flight (writers
    /// must be well-formed per object).
    pub fn start_write(
        &mut self,
        obj: ObjectId,
        value: Value,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) -> OpId {
        assert!(
            self.busy_objects.insert(obj),
            "writer {} received a new invocation for {} while busy (clients must be well-formed per object)",
            self.id,
            obj
        );
        let op = OpId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.ops.insert(
            op,
            WriteOp {
                op,
                obj,
                value,
                invoked_at: ctx.now(),
                phase: WritePhase::GetTag,
                tag_responders: ServerSet::default(),
                max_tag: Tag::initial(),
                tag: None,
                acks: ServerSet::default(),
            },
        );
        ctx.send_all(
            self.membership.l1.iter().copied(),
            LdsMessage::QueryTag { obj, op },
        );
        op
    }

    /// Abandons the in-flight write `op` (used by drivers on timeout).
    /// Returns `true` if the operation existed.
    pub fn cancel(&mut self, op: OpId) -> bool {
        match self.ops.remove(&op) {
            Some(w) => {
                self.busy_objects.remove(&w.obj);
                true
            }
            None => false,
        }
    }

    /// Abandons every in-flight write.
    pub fn cancel_all(&mut self) {
        self.ops.clear();
        self.busy_objects.clear();
    }

    fn on_tag_resp(
        &mut self,
        from: ProcessId,
        op: OpId,
        tag: Tag,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let quorum = self.params.write_quorum();
        let id = self.id;
        let (Some(current), Some(server)) =
            (self.ops.get_mut(&op), self.membership.l1_index_of(from))
        else {
            return;
        };
        if current.phase != WritePhase::GetTag || !current.tag_responders.insert(server) {
            return;
        }
        current.max_tag = current.max_tag.max(tag);
        if current.tag_responders.len() < quorum {
            return;
        }
        // Quorum reached: create the new tag and move to put-data.
        let new_tag = current.max_tag.next(id);
        current.tag = Some(new_tag);
        current.phase = WritePhase::PutData;
        let (obj, op, value) = (current.obj, current.op, current.value.clone());
        let msg = LdsMessage::PutData {
            obj,
            op,
            tag: new_tag,
            value,
        };
        ctx.send_all(self.membership.l1.iter().copied(), msg);
    }

    fn on_ack_put_data(
        &mut self,
        from: ProcessId,
        op: OpId,
        tag: Tag,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let quorum = self.params.write_quorum();
        let (Some(current), Some(server)) =
            (self.ops.get_mut(&op), self.membership.l1_index_of(from))
        else {
            return;
        };
        if current.phase != WritePhase::PutData || current.tag != Some(tag) {
            return;
        }
        current.acks.insert(server);
        if current.acks.len() < quorum {
            return;
        }
        let finished = self.ops.remove(&op).expect("checked above");
        self.busy_objects.remove(&finished.obj);
        self.completed += 1;
        ctx.emit(ProtocolEvent::WriteCompleted {
            op: finished.op,
            obj: finished.obj,
            tag: finished.tag.expect("tag chosen before put-data"),
            value: finished.value,
            invoked_at: finished.invoked_at,
        });
    }
}

impl Process<LdsMessage, ProtocolEvent> for WriterClient {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: LdsMessage,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        match msg {
            LdsMessage::InvokeWrite { obj, value } => {
                self.start_write(obj, value, ctx);
            }
            LdsMessage::TagResp { op, tag, .. } => self.on_tag_resp(from, op, tag, ctx),
            LdsMessage::AckPutData { op, tag, .. } => self.on_ack_put_data(from, op, tag, ctx),
            // Writers ignore everything else (e.g. stray reader messages).
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SystemParams, Membership) {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap(); // n1=4, quorum 3
        let l1: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let l2: Vec<ProcessId> = (4..9).map(ProcessId).collect();
        (params, Membership::new(l1, l2))
    }

    fn step(
        w: &mut WriterClient,
        from: ProcessId,
        msg: LdsMessage,
    ) -> (Vec<(ProcessId, LdsMessage)>, Vec<ProtocolEvent>) {
        let mut outgoing = Vec::new();
        let mut events = Vec::new();
        let mut ctx = Context::standalone(ProcessId(42), SimTime::ZERO, &mut outgoing, &mut events);
        w.on_message(from, msg, &mut ctx);
        (outgoing, events.into_iter().map(|(_, _, e)| e).collect())
    }

    #[test]
    fn full_write_happy_path() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(9), params, membership);
        assert!(!w.is_busy());

        // Invocation broadcasts QUERY-TAG to all 4 L1 servers.
        let (out, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("hello"),
            },
        );
        assert_eq!(out.len(), 4);
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, LdsMessage::QueryTag { .. })));
        assert!(w.is_busy());
        let op = match &out[0].1 {
            LdsMessage::QueryTag { op, .. } => *op,
            _ => unreachable!(),
        };

        // Three TAG-RESP messages (quorum) trigger PUT-DATA with tag (6, 9).
        let mut put_data = Vec::new();
        for (i, z) in [2u64, 5, 3].iter().enumerate() {
            let (out, _) = step(
                &mut w,
                ProcessId(i),
                LdsMessage::TagResp {
                    obj: ObjectId(0),
                    op,
                    tag: Tag::new(*z, ClientId(1)),
                },
            );
            put_data = out;
        }
        assert_eq!(put_data.len(), 4);
        match &put_data[0].1 {
            LdsMessage::PutData { tag, .. } => assert_eq!(*tag, Tag::new(6, ClientId(9))),
            other => panic!("expected PUT-DATA, got {other:?}"),
        }

        // Three ACKs complete the write and emit the completion event.
        let tag = Tag::new(6, ClientId(9));
        let mut events = Vec::new();
        for i in 0..3 {
            let (_, evs) = step(
                &mut w,
                ProcessId(i),
                LdsMessage::AckPutData {
                    obj: ObjectId(0),
                    op,
                    tag,
                },
            );
            events = evs;
        }
        assert_eq!(events.len(), 1);
        match &events[0] {
            ProtocolEvent::WriteCompleted { tag: t, value, .. } => {
                assert_eq!(*t, tag);
                assert_eq!(value.as_bytes(), b"hello");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(!w.is_busy());
        assert_eq!(w.completed_ops(), 1);
    }

    /// However large the value, put-data is one PUT-DATA per L1 server,
    /// and every one of them carries the writer's buffer, not a copy.
    #[test]
    fn large_value_is_one_put_data_per_server_sharing_the_writers_buffer() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(9), params, membership);
        let source = Value::new((0..1 << 20).map(|b| b as u8).collect());
        let (out, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(1),
                value: source.clone(),
            },
        );
        let op = match &out[0].1 {
            LdsMessage::QueryTag { op, .. } => *op,
            _ => unreachable!(),
        };
        let mut put_out = Vec::new();
        for i in 0..3 {
            let (out, _) = step(
                &mut w,
                ProcessId(i),
                LdsMessage::TagResp {
                    obj: ObjectId(1),
                    op,
                    tag: Tag::initial(),
                },
            );
            put_out.extend(out);
        }
        assert_eq!(put_out.len(), 4, "one PUT-DATA per L1 server");
        for (_, msg) in &put_out {
            let LdsMessage::PutData { value, .. } = msg else {
                panic!("expected PUT-DATA, got {msg:?}");
            };
            assert_eq!(value.as_bytes().as_ptr(), source.as_bytes().as_ptr());
        }
    }

    #[test]
    fn duplicate_and_stale_responses_are_ignored() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(2), params, membership);
        let (out, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("x"),
            },
        );
        let op = match &out[0].1 {
            LdsMessage::QueryTag { op, .. } => *op,
            _ => unreachable!(),
        };
        // The same server responding repeatedly does not advance the quorum.
        for _ in 0..5 {
            let (out, _) = step(
                &mut w,
                ProcessId(0),
                LdsMessage::TagResp {
                    obj: ObjectId(0),
                    op,
                    tag: Tag::initial(),
                },
            );
            assert!(out.is_empty());
        }
        // A response for an unknown op id is ignored too.
        let other_op = OpId::new(ClientId(2), 99);
        let (out, _) = step(
            &mut w,
            ProcessId(1),
            LdsMessage::TagResp {
                obj: ObjectId(0),
                op: other_op,
                tag: Tag::initial(),
            },
        );
        assert!(out.is_empty());
        // Acks during the get-tag phase are ignored.
        let (out, _) = step(
            &mut w,
            ProcessId(1),
            LdsMessage::AckPutData {
                obj: ObjectId(0),
                op,
                tag: Tag::new(1, ClientId(2)),
            },
        );
        assert!(out.is_empty());
        assert!(w.is_busy());
    }

    /// A quorum counts distinct L1 servers: neither an L2 server, nor a
    /// client, nor the harness advances get-tag or put-data, and a member
    /// answering twice counts once.
    #[test]
    fn only_distinct_l1_servers_advance_a_quorum() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(2), params, membership);
        let (out, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("x"),
            },
        );
        let LdsMessage::QueryTag { op, .. } = out[0].1 else {
            unreachable!()
        };
        let outsiders = [
            ProcessId(4),
            ProcessId(8),
            ProcessId(42),
            ProcessId::EXTERNAL,
        ];
        let tag_resp = |z| LdsMessage::TagResp {
            obj: ObjectId(0),
            op,
            tag: Tag::new(z, ClientId(1)),
        };
        for from in [ProcessId(0), ProcessId(1), ProcessId(1)] {
            let (out, _) = step(&mut w, from, tag_resp(7));
            assert!(out.is_empty(), "TAG-RESP from {from:?} completed get-tag");
        }
        for from in outsiders {
            let (out, _) = step(&mut w, from, tag_resp(99));
            assert!(out.is_empty(), "TAG-RESP from {from:?} completed get-tag");
        }
        // The third distinct L1 server completes get-tag; the outsiders'
        // tag never entered the maximum.
        let (out, _) = step(
            &mut w,
            ProcessId(3),
            LdsMessage::TagResp {
                obj: ObjectId(0),
                op,
                tag: Tag::initial(),
            },
        );
        let tag = Tag::new(8, ClientId(2));
        assert!(matches!(out[0].1, LdsMessage::PutData { tag: t, .. } if t == tag));

        let ack = LdsMessage::AckPutData {
            obj: ObjectId(0),
            op,
            tag,
        };
        for from in [ProcessId(2), ProcessId(0), ProcessId(0)]
            .into_iter()
            .chain(outsiders)
        {
            let (_, events) = step(&mut w, from, ack.clone());
            assert!(
                events.is_empty(),
                "ACK-PUT-DATA from {from:?} completed the write"
            );
        }
        let (_, events) = step(&mut w, ProcessId(3), ack);
        assert_eq!(events.len(), 1);
        assert!(!w.is_busy());
    }

    #[test]
    #[should_panic(expected = "well-formed")]
    fn overlapping_invocations_panic() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(2), params, membership);
        let invoke = LdsMessage::InvokeWrite {
            obj: ObjectId(0),
            value: Value::from("x"),
        };
        step(&mut w, ProcessId::EXTERNAL, invoke.clone());
        step(&mut w, ProcessId::EXTERNAL, invoke);
    }

    #[test]
    fn writes_to_distinct_objects_pipeline() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(4), params, membership);
        // Two concurrent writes on different objects are allowed.
        let (out_a, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("a"),
            },
        );
        let (out_b, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(1),
                value: Value::from("b"),
            },
        );
        assert_eq!(w.in_flight(), 2);
        assert!(w.is_object_busy(ObjectId(0)));
        assert!(w.is_object_busy(ObjectId(1)));
        let op_a = match &out_a[0].1 {
            LdsMessage::QueryTag { op, .. } => *op,
            _ => unreachable!(),
        };
        let op_b = match &out_b[0].1 {
            LdsMessage::QueryTag { op, .. } => *op,
            _ => unreachable!(),
        };
        assert_ne!(op_a, op_b);

        // Drive both writes to completion in interleaved order (B first).
        for (obj, op) in [(ObjectId(1), op_b), (ObjectId(0), op_a)] {
            let mut tag = Tag::initial();
            for i in 0..3 {
                let (out, _) = step(
                    &mut w,
                    ProcessId(i),
                    LdsMessage::TagResp {
                        obj,
                        op,
                        tag: Tag::initial(),
                    },
                );
                if let Some((_, LdsMessage::PutData { tag: t, .. })) = out.first() {
                    tag = *t;
                }
            }
            let mut events = Vec::new();
            for i in 0..3 {
                let (_, evs) = step(
                    &mut w,
                    ProcessId(i),
                    LdsMessage::AckPutData { obj, op, tag },
                );
                events.extend(evs);
            }
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].object(), obj);
        }
        assert_eq!(w.completed_ops(), 2);
        assert!(!w.is_busy());
    }

    #[test]
    fn cancel_frees_the_object() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(5), params, membership);
        let (out, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("x"),
            },
        );
        let op = match &out[0].1 {
            LdsMessage::QueryTag { op, .. } => *op,
            _ => unreachable!(),
        };
        assert!(w.cancel(op));
        assert!(!w.cancel(op), "second cancel is a no-op");
        assert!(!w.is_busy());
        // The object is free again: a fresh write may start.
        let (out, _) = step(
            &mut w,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("y"),
            },
        );
        assert_eq!(out.len(), 4);
        // Responses to the cancelled op are ignored.
        let (out, _) = step(
            &mut w,
            ProcessId(0),
            LdsMessage::TagResp {
                obj: ObjectId(0),
                op,
                tag: Tag::initial(),
            },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn tag_grows_monotonically_across_writes() {
        let (params, membership) = setup();
        let mut w = WriterClient::new(ClientId(3), params, membership);
        let mut last_tag = Tag::initial();
        for round in 0..3u64 {
            let (out, _) = step(
                &mut w,
                ProcessId::EXTERNAL,
                LdsMessage::InvokeWrite {
                    obj: ObjectId(0),
                    value: Value::from("v"),
                },
            );
            let op = match &out[0].1 {
                LdsMessage::QueryTag { op, .. } => *op,
                _ => unreachable!(),
            };
            assert_eq!(op.seq, round);
            let mut new_tag = Tag::initial();
            for i in 0..3 {
                let (out, _) = step(
                    &mut w,
                    ProcessId(i),
                    LdsMessage::TagResp {
                        obj: ObjectId(0),
                        op,
                        tag: last_tag,
                    },
                );
                if let Some((_, LdsMessage::PutData { tag, .. })) = out.first() {
                    new_tag = *tag;
                }
            }
            assert!(new_tag > last_tag);
            for i in 0..3 {
                step(
                    &mut w,
                    ProcessId(i),
                    LdsMessage::AckPutData {
                        obj: ObjectId(0),
                        op,
                        tag: new_tag,
                    },
                );
            }
            last_tag = new_tag;
        }
        assert_eq!(w.completed_ops(), 3);
    }
}
