//! The reader client automaton — right column of Fig. 1.
//!
//! A read is three phases, all against L1 only:
//!
//! 1. **get-committed-tag**: collect committed tags from `f1 + k` servers and
//!    set `t_req` to their maximum.
//! 2. **get-data**: send `t_req` to all L1 servers and wait for responses
//!    from `f1 + k` distinct servers such that at least one is a
//!    `(tag, value)` pair, or at least `k` are `(tag, coded-element)` pairs
//!    for a common tag (in which case the value is decoded with the code
//!    `C1`). The pair with the highest tag is selected.
//! 3. **put-tag**: write back the selected tag (not the value) to `f1 + k`
//!    servers, then return the value.
//!
//! # Pipelining
//!
//! Like the writer, the automaton supports several reads in flight at once,
//! keyed by [`OpId`], as long as they target *distinct* objects (the per-
//! object restriction keeps the L1 servers' reader registration, which is
//! keyed by the reader process, unambiguous, and gives pipelined drivers
//! per-object FIFO semantics for free).

use crate::backend::BackendCodec;
use crate::idmap::{IdMap, IdSet};
use crate::membership::{Membership, ServerSet};
use crate::messages::{LdsMessage, ProtocolEvent, ReadPayload};
use crate::params::SystemParams;
use crate::process::{Context, Process, ProcessId, SimTime};
use crate::tag::{ClientId, ObjectId, OpId, Tag};
use crate::value::Value;
use lds_codes::Share;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq, Eq)]
enum ReadPhase {
    GetCommittedTag,
    GetData,
    PutTag,
}

struct ReadOp {
    op: OpId,
    obj: ObjectId,
    invoked_at: SimTime,
    phase: ReadPhase,
    /// L1 servers that answered get-committed-tag; `treq` is the highest
    /// tag they reported.
    comm_tag_responders: ServerSet,
    treq: Tag,
    /// Distinct servers that have responded in the get-data phase.
    responders: ServerSet,
    /// The highest full (tag, value) response received.
    value_response: Option<(Tag, Value)>,
    /// Coded responses received, grouped by tag, one share per share index
    /// (a later response for an index replaces the earlier one). Kept as the
    /// slice the decoder takes, so a decode borrows the payloads where they
    /// are and a failed attempt leaves them in place for the next response.
    coded_responses: BTreeMap<Tag, Vec<Share>>,
    /// The selected result, fixed when entering put-tag.
    result: Option<(Tag, Value)>,
    put_tag_acks: ServerSet,
}

/// The reader client automaton.
///
/// Readers are *well-formed per object*: a new read for an object must not
/// start before the previous read of that object completed. Reads of distinct
/// objects may be pipelined freely.
pub struct ReaderClient {
    id: ClientId,
    params: SystemParams,
    membership: Membership,
    backend: Arc<dyn BackendCodec>,
    next_seq: u64,
    ops: IdMap<OpId, ReadOp>,
    busy_objects: IdSet<ObjectId>,
    completed: u64,
    /// Number of completed reads that were served purely from L1 value
    /// responses (no coded decode needed).
    served_from_l1: u64,
}

impl ReaderClient {
    /// Creates a reader with the given client id.
    pub fn new(
        id: ClientId,
        params: SystemParams,
        membership: Membership,
        backend: Arc<dyn BackendCodec>,
    ) -> Self {
        assert_eq!(
            membership.n1(),
            params.n1(),
            "membership/params n1 mismatch"
        );
        ReaderClient {
            id,
            params,
            membership,
            backend,
            next_seq: 0,
            ops: IdMap::default(),
            busy_objects: IdSet::default(),
            completed: 0,
            served_from_l1: 0,
        }
    }

    /// The reader's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Whether any read is currently in progress.
    pub fn is_busy(&self) -> bool {
        !self.ops.is_empty()
    }

    /// Number of reads currently in flight.
    pub fn in_flight(&self) -> usize {
        self.ops.len()
    }

    /// Whether a read of `obj` is currently in flight.
    pub fn is_object_busy(&self, obj: ObjectId) -> bool {
        self.busy_objects.contains(&obj)
    }

    /// Number of reads completed by this client.
    pub fn completed_ops(&self) -> u64 {
        self.completed
    }

    /// Number of completed reads that did not require decoding coded
    /// elements.
    pub fn reads_served_from_l1(&self) -> u64 {
        self.served_from_l1
    }

    /// Starts a read of `obj` and returns its operation id.
    ///
    /// This is the entry point used by pipelined drivers; injecting an
    /// [`LdsMessage::InvokeRead`] is equivalent.
    ///
    /// # Panics
    ///
    /// Panics if a read of the same object is already in flight (readers must
    /// be well-formed per object).
    pub fn start_read(
        &mut self,
        obj: ObjectId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) -> OpId {
        assert!(
            self.busy_objects.insert(obj),
            "reader {} received a new invocation for {} while busy (clients must be well-formed per object)",
            self.id,
            obj
        );
        let op = OpId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.ops.insert(
            op,
            ReadOp {
                op,
                obj,
                invoked_at: ctx.now(),
                phase: ReadPhase::GetCommittedTag,
                comm_tag_responders: ServerSet::default(),
                treq: Tag::initial(),
                responders: ServerSet::default(),
                value_response: None,
                coded_responses: BTreeMap::new(),
                result: None,
                put_tag_acks: ServerSet::default(),
            },
        );
        ctx.send_all(
            self.membership.l1.iter().copied(),
            LdsMessage::QueryCommTag { obj, op },
        );
        op
    }

    /// Abandons the in-flight read `op` (used by drivers on timeout).
    /// Returns `true` if the operation existed.
    pub fn cancel(&mut self, op: OpId) -> bool {
        match self.ops.remove(&op) {
            Some(r) => {
                self.busy_objects.remove(&r.obj);
                true
            }
            None => false,
        }
    }

    /// Abandons every in-flight read.
    pub fn cancel_all(&mut self) {
        self.ops.clear();
        self.busy_objects.clear();
    }

    fn on_comm_tag_resp(
        &mut self,
        from: ProcessId,
        op: OpId,
        tag: Tag,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let quorum = self.params.read_quorum();
        let (Some(current), Some(server)) =
            (self.ops.get_mut(&op), self.membership.l1_index_of(from))
        else {
            return;
        };
        if current.phase != ReadPhase::GetCommittedTag
            || !current.comm_tag_responders.insert(server)
        {
            return;
        }
        current.treq = current.treq.max(tag);
        if current.comm_tag_responders.len() < quorum {
            return;
        }
        current.phase = ReadPhase::GetData;
        let msg = LdsMessage::QueryData {
            obj: current.obj,
            op: current.op,
            treq: current.treq,
        };
        ctx.send_all(self.membership.l1.iter().copied(), msg);
    }

    fn on_data_resp(
        &mut self,
        from: ProcessId,
        op: OpId,
        tag: Option<Tag>,
        payload: ReadPayload,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let quorum = self.params.read_quorum();
        let decode_threshold = self.backend.decode_threshold();
        let backend = Arc::clone(&self.backend);
        let (Some(current), Some(server)) =
            (self.ops.get_mut(&op), self.membership.l1_index_of(from))
        else {
            return;
        };
        if current.phase != ReadPhase::GetData {
            return;
        }
        current.responders.insert(server);
        let best_value = current.value_response.as_ref().map(|(best, _)| *best);
        match (tag, payload) {
            (Some(t), ReadPayload::Value(v)) if best_value.is_none_or(|best| t >= best) => {
                current.value_response = Some((t, v));
            }
            (Some(t), ReadPayload::Coded(share)) => {
                let shares = current.coded_responses.entry(t).or_default();
                match shares.iter_mut().find(|s| s.index == share.index) {
                    Some(slot) => *slot = share,
                    None => shares.push(share),
                }
            }
            // (⊥, ⊥), or a value older than one already held: counts
            // towards the responder set only.
            _ => {}
        }

        if current.responders.len() < quorum {
            return;
        }
        // Candidate from full values.
        let mut best: Option<(Tag, Value, bool)> = current
            .value_response
            .as_ref()
            .map(|(t, v)| (*t, v.clone(), true));
        // Candidate from coded elements: highest tag with >= k distinct shares.
        for (t, shares) in current.coded_responses.iter().rev() {
            if best.as_ref().is_some_and(|(bt, _, _)| bt >= t) {
                break;
            }
            if shares.len() >= decode_threshold {
                // The buffer decoded into is the one the value keeps.
                let mut bytes = Vec::new();
                if backend.decode_from_l1_into(shares, &mut bytes).is_ok() {
                    best = Some((*t, Value::new(bytes), false));
                    break;
                }
            }
        }
        let Some((tag, value, from_l1_value)) = best else {
            return; // condition not yet satisfied; keep waiting for responses
        };
        if tag < current.treq {
            // Should be impossible (servers filter on treq); wait for more.
            return;
        }
        current.result = Some((tag, value));
        current.phase = ReadPhase::PutTag;
        let (obj, op) = (current.obj, current.op);
        if from_l1_value {
            self.served_from_l1 += 1;
        }
        ctx.send_all(
            self.membership.l1.iter().copied(),
            LdsMessage::PutTag { obj, op, tag },
        );
    }

    fn on_ack_put_tag(
        &mut self,
        from: ProcessId,
        op: OpId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let quorum = self.params.read_quorum();
        let (Some(current), Some(server)) =
            (self.ops.get_mut(&op), self.membership.l1_index_of(from))
        else {
            return;
        };
        if current.phase != ReadPhase::PutTag {
            return;
        }
        current.put_tag_acks.insert(server);
        if current.put_tag_acks.len() < quorum {
            return;
        }
        let finished = self.ops.remove(&op).expect("checked above");
        self.busy_objects.remove(&finished.obj);
        let (tag, value) = finished.result.expect("result fixed before put-tag");
        self.completed += 1;
        ctx.emit(ProtocolEvent::ReadCompleted {
            op: finished.op,
            obj: finished.obj,
            tag,
            value,
            invoked_at: finished.invoked_at,
        });
    }
}

impl Process<LdsMessage, ProtocolEvent> for ReaderClient {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: LdsMessage,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        match msg {
            LdsMessage::InvokeRead { obj } => {
                self.start_read(obj, ctx);
            }
            LdsMessage::CommTagResp { op, tag, .. } => self.on_comm_tag_resp(from, op, tag, ctx),
            LdsMessage::DataResp {
                op, tag, payload, ..
            } => self.on_data_resp(from, op, tag, payload, ctx),
            LdsMessage::AckPutTag { op, .. } => self.on_ack_put_tag(from, op, ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{make_backend, BackendKind};

    fn setup() -> (SystemParams, Membership, Arc<dyn BackendCodec>) {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap(); // n1=4, n2=5, k=2, d=3
        let l1: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let l2: Vec<ProcessId> = (4..9).map(ProcessId).collect();
        let membership = Membership::new(l1, l2);
        let backend = make_backend(BackendKind::Mbr, &params).unwrap();
        (params, membership, backend)
    }

    fn step(
        r: &mut ReaderClient,
        from: ProcessId,
        msg: LdsMessage,
    ) -> (Vec<(ProcessId, LdsMessage)>, Vec<ProtocolEvent>) {
        let mut outgoing = Vec::new();
        let mut events = Vec::new();
        let mut ctx = Context::standalone(ProcessId(50), SimTime::ZERO, &mut outgoing, &mut events);
        r.on_message(from, msg, &mut ctx);
        (outgoing, events.into_iter().map(|(_, _, e)| e).collect())
    }

    fn start_and_reach_get_data(r: &mut ReaderClient, treq: Tag) -> OpId {
        let (out, _) = step(
            r,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        assert_eq!(out.len(), 4);
        let op = match &out[0].1 {
            LdsMessage::QueryCommTag { op, .. } => *op,
            _ => unreachable!(),
        };
        let mut query_data_sent = false;
        for i in 0..3 {
            let (out, _) = step(
                r,
                ProcessId(i),
                LdsMessage::CommTagResp {
                    obj: ObjectId(0),
                    op,
                    tag: treq,
                },
            );
            if !out.is_empty() {
                assert!(out
                    .iter()
                    .all(|(_, m)| matches!(m, LdsMessage::QueryData { .. })));
                query_data_sent = true;
            }
        }
        assert!(query_data_sent);
        op
    }

    #[test]
    fn read_served_by_value_responses() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(5), params, membership, backend);
        let treq = Tag::new(2, ClientId(1));
        let op = start_and_reach_get_data(&mut r, treq);

        // Two servers answer with (tag, value) pairs for different tags, one
        // answers (⊥, ⊥); after 3 distinct responders with at least one value
        // the reader picks the highest tag and writes it back.
        step(
            &mut r,
            ProcessId(0),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: Some(Tag::new(2, ClientId(1))),
                payload: ReadPayload::Value(Value::from("older")),
            },
        );
        step(
            &mut r,
            ProcessId(1),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: None,
                payload: ReadPayload::None,
            },
        );
        let (out, _) = step(
            &mut r,
            ProcessId(2),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: Some(Tag::new(3, ClientId(2))),
                payload: ReadPayload::Value(Value::from("newest")),
            },
        );
        assert_eq!(out.len(), 4);
        match &out[0].1 {
            LdsMessage::PutTag { tag, .. } => assert_eq!(*tag, Tag::new(3, ClientId(2))),
            other => panic!("expected PUT-TAG, got {other:?}"),
        }

        // Three ACK-PUT-TAG responses complete the read.
        let mut events = Vec::new();
        for i in 0..3 {
            let (_, evs) = step(
                &mut r,
                ProcessId(i),
                LdsMessage::AckPutTag {
                    obj: ObjectId(0),
                    op,
                },
            );
            events = evs;
        }
        assert_eq!(events.len(), 1);
        match &events[0] {
            ProtocolEvent::ReadCompleted { tag, value, .. } => {
                assert_eq!(*tag, Tag::new(3, ClientId(2)));
                assert_eq!(value.as_bytes(), b"newest");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(r.completed_ops(), 1);
        assert_eq!(r.reads_served_from_l1(), 1);
        assert!(!r.is_busy());
    }

    #[test]
    fn read_decodes_from_coded_elements() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(6), params, membership, Arc::clone(&backend));
        let tag = Tag::new(4, ClientId(2));
        let op = start_and_reach_get_data(&mut r, tag);

        // Regenerate the value's C1 elements for servers 0 and 1 (k = 2).
        let value = Value::from("decoded from the back-end layer");
        let mut c1_shares = Vec::new();
        for l1 in 0..2 {
            let helpers: Vec<_> = (0..3)
                .map(|i| {
                    let elem = backend.encode_l2_element(&value, i).unwrap();
                    backend.helper_for_l1(&elem, i, l1).unwrap()
                })
                .collect();
            c1_shares.push(backend.regenerate_l1(l1, &helpers).unwrap());
        }

        step(
            &mut r,
            ProcessId(2),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: None,
                payload: ReadPayload::None,
            },
        );
        step(
            &mut r,
            ProcessId(0),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: Some(tag),
                payload: ReadPayload::Coded(c1_shares[0].clone()),
            },
        );
        let (out, _) = step(
            &mut r,
            ProcessId(1),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: Some(tag),
                payload: ReadPayload::Coded(c1_shares[1].clone()),
            },
        );
        assert!(
            out.iter()
                .all(|(_, m)| matches!(m, LdsMessage::PutTag { .. }))
                && out.len() == 4,
            "decoding k coded elements moves the reader to put-tag"
        );

        let mut events = Vec::new();
        for i in 0..3 {
            let (_, evs) = step(
                &mut r,
                ProcessId(i),
                LdsMessage::AckPutTag {
                    obj: ObjectId(0),
                    op,
                },
            );
            events = evs;
        }
        match &events[0] {
            ProtocolEvent::ReadCompleted {
                value: v, tag: t, ..
            } => {
                assert_eq!(v.as_bytes(), value.as_bytes());
                assert_eq!(*t, tag);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(r.reads_served_from_l1(), 0);
    }

    #[test]
    fn failed_decode_keeps_the_responses_for_the_next_one() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(14), params, membership, Arc::clone(&backend));
        let tag = Tag::new(4, ClientId(2));
        let op = start_and_reach_get_data(&mut r, tag);

        let value = Value::new((0..1000).map(|i| (i * 7 % 251) as u8).collect());
        let c1_share = |l1: usize| {
            let helpers: Vec<_> = (0..3)
                .map(|i| {
                    let elem = backend.encode_l2_element(&value, i).unwrap();
                    backend.helper_for_l1(&elem, i, l1).unwrap()
                })
                .collect();
            backend.regenerate_l1(l1, &helpers).unwrap()
        };
        let coded = |share: Share| LdsMessage::DataResp {
            obj: ObjectId(0),
            op,
            tag: Some(tag),
            payload: ReadPayload::Coded(share),
        };

        // Responder quorum (3) with k = 2 coded elements for one tag, but
        // server 1's element lost its tail: the decode fails on mismatched
        // lengths and the read keeps waiting.
        let mut truncated = c1_share(1);
        truncated.data.truncate(truncated.data.len() - 3);
        step(
            &mut r,
            ProcessId(3),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: None,
                payload: ReadPayload::None,
            },
        );
        step(&mut r, ProcessId(0), coded(c1_share(0)));
        let (out, _) = step(&mut r, ProcessId(1), coded(truncated));
        assert!(out.is_empty(), "a failed decode must not complete get-data");
        assert!(r.is_busy());

        // Server 1's element arrives again, intact (a duplicated DATA-RESP):
        // it replaces the damaged one, and server 0's element — which the
        // failed attempt borrowed, not consumed — is still there to decode
        // with.
        let (out, _) = step(&mut r, ProcessId(1), coded(c1_share(1)));
        assert_eq!(out.len(), 4);
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, LdsMessage::PutTag { tag: t, .. } if *t == tag)));

        let mut events = Vec::new();
        for i in 0..3 {
            let (_, evs) = step(
                &mut r,
                ProcessId(i),
                LdsMessage::AckPutTag {
                    obj: ObjectId(0),
                    op,
                },
            );
            events.extend(evs);
        }
        match &events[0] {
            ProtocolEvent::ReadCompleted { value: v, .. } => assert_eq!(v, &value),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn insufficient_responses_keep_waiting() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(7), params, membership, backend);
        let op = start_and_reach_get_data(&mut r, Tag::initial());

        // Three (⊥,⊥) responses: responder quorum reached but no usable data,
        // so the read must not progress.
        for i in 0..3 {
            let (out, _) = step(
                &mut r,
                ProcessId(i),
                LdsMessage::DataResp {
                    obj: ObjectId(0),
                    op,
                    tag: None,
                    payload: ReadPayload::None,
                },
            );
            assert!(out.is_empty());
        }
        assert!(r.is_busy());

        // A late value response finally unblocks it.
        let (out, _) = step(
            &mut r,
            ProcessId(0),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: Some(Tag::new(1, ClientId(1))),
                payload: ReadPayload::Value(Value::from("late")),
            },
        );
        assert!(out
            .iter()
            .any(|(_, m)| matches!(m, LdsMessage::PutTag { .. })));
    }

    /// Each phase's quorum counts distinct L1 servers: a COMM-TAG-RESP,
    /// DATA-RESP or ACK-PUT-TAG from an L2 server, a client or the harness
    /// advances none, and a member answering twice counts once. The
    /// outsiders report a higher tag, which must not be what the read
    /// returns.
    #[test]
    fn only_distinct_l1_servers_advance_a_quorum() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(15), params, membership, backend);
        let outsiders = [
            ProcessId(4),
            ProcessId(8),
            ProcessId(50),
            ProcessId::EXTERNAL,
        ];
        let obj = ObjectId(0);
        let (out, _) = step(&mut r, ProcessId::EXTERNAL, LdsMessage::InvokeRead { obj });
        let LdsMessage::QueryCommTag { op, .. } = out[0].1 else {
            unreachable!()
        };
        let (treq, forged) = (Tag::new(2, ClientId(1)), Tag::new(9, ClientId(1)));

        let comm_tag = |tag| LdsMessage::CommTagResp { obj, op, tag };
        for (from, tag) in [ProcessId(0), ProcessId(1), ProcessId(1)]
            .map(|p| (p, treq))
            .into_iter()
            .chain(outsiders.map(|p| (p, forged)))
        {
            let (out, _) = step(&mut r, from, comm_tag(tag));
            assert!(
                out.is_empty(),
                "COMM-TAG-RESP from {from:?} completed the phase"
            );
        }
        let (out, _) = step(&mut r, ProcessId(2), comm_tag(Tag::initial()));
        assert!(matches!(out[0].1, LdsMessage::QueryData { treq: t, .. } if t == treq));

        let data = |tag| LdsMessage::DataResp {
            obj,
            op,
            tag: Some(tag),
            payload: ReadPayload::Value(Value::from(tag.to_string().as_str())),
        };
        for (from, tag) in [ProcessId(3), ProcessId(0), ProcessId(0)]
            .map(|p| (p, treq))
            .into_iter()
            .chain(outsiders.map(|p| (p, forged)))
        {
            let (out, _) = step(&mut r, from, data(tag));
            assert!(
                out.is_empty(),
                "DATA-RESP from {from:?} completed the phase"
            );
        }
        let (out, _) = step(&mut r, ProcessId(2), data(treq));
        assert!(matches!(out[0].1, LdsMessage::PutTag { tag: t, .. } if t == treq));

        let ack = LdsMessage::AckPutTag { obj, op };
        for from in [ProcessId(1), ProcessId(3), ProcessId(3)]
            .into_iter()
            .chain(outsiders)
        {
            let (_, events) = step(&mut r, from, ack.clone());
            assert!(
                events.is_empty(),
                "ACK-PUT-TAG from {from:?} completed the read"
            );
        }
        let (_, events) = step(&mut r, ProcessId(0), ack);
        match &events[..] {
            [ProtocolEvent::ReadCompleted { tag, .. }] => assert_eq!(*tag, treq),
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn coded_elements_for_distinct_tags_do_not_combine() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(8), params, membership, Arc::clone(&backend));
        let op = start_and_reach_get_data(&mut r, Tag::initial());

        let value = Value::from("v");
        let helpers: Vec<_> = (0..3)
            .map(|i| {
                let elem = backend.encode_l2_element(&value, i).unwrap();
                backend.helper_for_l1(&elem, i, 0).unwrap()
            })
            .collect();
        let share0 = backend.regenerate_l1(0, &helpers).unwrap();

        // Two coded responses with *different* tags: even with responder
        // quorum, k distinct shares for a common tag are missing.
        step(
            &mut r,
            ProcessId(0),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: Some(Tag::new(1, ClientId(1))),
                payload: ReadPayload::Coded(share0.clone()),
            },
        );
        step(
            &mut r,
            ProcessId(1),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: Some(Tag::new(2, ClientId(1))),
                payload: ReadPayload::Coded(share0.clone()),
            },
        );
        let (out, _) = step(
            &mut r,
            ProcessId(2),
            LdsMessage::DataResp {
                obj: ObjectId(0),
                op,
                tag: None,
                payload: ReadPayload::None,
            },
        );
        assert!(out.is_empty());
        assert!(r.is_busy());
    }

    #[test]
    #[should_panic(expected = "well-formed")]
    fn overlapping_reads_panic() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(9), params, membership, backend);
        step(
            &mut r,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        step(
            &mut r,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
    }

    #[test]
    fn reads_of_distinct_objects_pipeline() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(10), params, membership, backend);
        let (out_a, _) = step(
            &mut r,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        let (out_b, _) = step(
            &mut r,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeRead { obj: ObjectId(1) },
        );
        assert_eq!(r.in_flight(), 2);
        let op_a = match &out_a[0].1 {
            LdsMessage::QueryCommTag { op, .. } => *op,
            _ => unreachable!(),
        };
        let op_b = match &out_b[0].1 {
            LdsMessage::QueryCommTag { op, .. } => *op,
            _ => unreachable!(),
        };
        assert_ne!(op_a, op_b);
        // Cancelling one leaves the other alive and frees its object.
        assert!(r.cancel(op_b));
        assert!(!r.is_object_busy(ObjectId(1)));
        assert!(r.is_object_busy(ObjectId(0)));
        assert_eq!(r.in_flight(), 1);
    }
}
