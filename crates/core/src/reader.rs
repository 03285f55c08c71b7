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
use crate::tag::{ClientId, ObjectId, OpId, Tag};
use crate::value::Value;
use lds_codes::Share;
use lds_sim::{Context, Process, ProcessId, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A small tag-validated LRU of hot objects' committed `(tag, value)` pairs.
///
/// The cache never weakens atomicity because it is only consulted *after*
/// the read's get-committed-tag quorum has fixed `t_req`: a tag uniquely
/// identifies its value, so when the cached tag equals `t_req` the cached
/// bytes are exactly what the get-data phase would return — the reader skips
/// straight to the put-tag write-back (which still runs in full).
#[derive(Debug, Default)]
struct ReadCache {
    /// Capacity in entries; `0` disables the cache.
    entries: usize,
    /// LRU order: front = least recently used. One entry per object.
    items: VecDeque<(ObjectId, Tag, Value)>,
}

impl ReadCache {
    /// Returns the cached value for `(obj, tag)` and refreshes its recency.
    fn lookup(&mut self, obj: ObjectId, tag: Tag) -> Option<Value> {
        let pos = self
            .items
            .iter()
            .position(|(o, t, _)| *o == obj && *t == tag)?;
        let entry = self.items.remove(pos).expect("position just found");
        let value = entry.2.clone();
        self.items.push_back(entry);
        Some(value)
    }

    /// Inserts (or refreshes) the committed pair for `obj`, evicting the
    /// least recently used entry when full. No-op while disabled.
    fn insert(&mut self, obj: ObjectId, tag: Tag, value: Value) {
        if self.entries == 0 {
            return;
        }
        if let Some(pos) = self.items.iter().position(|(o, _, _)| *o == obj) {
            self.items.remove(pos);
        }
        self.items.push_back((obj, tag, value));
        while self.items.len() > self.entries {
            self.items.pop_front();
        }
    }

    fn resize(&mut self, entries: usize) {
        self.entries = entries;
        while self.items.len() > entries {
            self.items.pop_front();
        }
    }
}

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
    /// responses (no coded decode needed) — useful for cache-hit style
    /// statistics in the examples.
    served_from_l1: u64,
    /// Tag-validated hot-object cache consulted after the committed-tag
    /// quorum.
    cache: ReadCache,
    /// Number of reads whose data-transfer phase was skipped on a cache hit.
    cache_hits: u64,
    /// Number of reads that consulted an *enabled* cache and had to pay the
    /// data transfer anyway (absent object or stale tag). Disabled caches
    /// count nothing, so `hits / (hits + misses)` is a meaningful ratio.
    cache_misses: u64,
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
            cache: ReadCache::default(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Sets the capacity of the tag-validated read cache (`0` disables it,
    /// dropping any cached entries beyond the new capacity).
    pub fn set_cache_entries(&mut self, entries: usize) {
        self.cache.resize(entries);
    }

    /// Number of reads that skipped the data-transfer phase because the
    /// quorum-committed tag matched a cached entry.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Number of reads that consulted an enabled cache and missed (absent
    /// object or stale tag), paying the full data transfer. Always zero
    /// while the cache is disabled.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Records a known committed `(tag, value)` pair for `obj` in the read
    /// cache. Besides read completions (recorded automatically), drivers
    /// call this for their *own* completed writes — the writer knows the
    /// exact committed pair, so its subsequent reads of a hot object can hit
    /// without ever paying a data transfer. No-op while the cache is
    /// disabled.
    pub fn cache_insert(&mut self, obj: ObjectId, tag: Tag, value: Value) {
        self.cache.insert(obj, tag, value);
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
        // Tag-validated cache: the quorum has fixed `t_req`, and a tag
        // uniquely identifies its value — if the cache holds exactly that
        // pair, the data-transfer phase would return the cached bytes, so
        // skip it and go straight to the put-tag write-back.
        if let Some(value) = self.cache.lookup(current.obj, current.treq) {
            self.cache_hits += 1;
            current.result = Some((current.treq, value));
            current.phase = ReadPhase::PutTag;
            let msg = LdsMessage::PutTag {
                obj: current.obj,
                op: current.op,
                tag: current.treq,
            };
            ctx.send_all(self.membership.l1.iter().copied(), msg);
            return;
        }
        if self.cache.entries > 0 {
            self.cache_misses += 1;
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
        self.cache.insert(finished.obj, tag, value.clone());
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
    fn cached_tag_skips_the_data_transfer_phase() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(11), params, membership, backend);
        r.set_cache_entries(4);
        let tag = Tag::new(3, ClientId(2));
        let value = Value::from("hot object");
        r.cache_insert(ObjectId(0), tag, value.clone());

        // Invoke: the committed-tag quorum still runs in full.
        let (out, _) = step(
            &mut r,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        let op = match &out[0].1 {
            LdsMessage::QueryCommTag { op, .. } => *op,
            _ => unreachable!(),
        };
        let mut put_tags = Vec::new();
        for i in 0..3 {
            let (out, _) = step(
                &mut r,
                ProcessId(i),
                LdsMessage::CommTagResp {
                    obj: ObjectId(0),
                    op,
                    tag,
                },
            );
            put_tags.extend(out);
        }
        // Cache hit: no QUERY-DATA — straight to the put-tag write-back.
        assert_eq!(put_tags.len(), 4);
        assert!(put_tags
            .iter()
            .all(|(_, m)| matches!(m, LdsMessage::PutTag { tag: t, .. } if *t == tag)));
        assert_eq!(r.cache_hits(), 1);

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
            ProtocolEvent::ReadCompleted {
                value: v, tag: t, ..
            } => {
                assert_eq!(v.as_bytes(), value.as_bytes());
                assert_eq!(*t, tag);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn stale_cache_entry_misses_and_is_refreshed_by_completion() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(12), params, membership, backend);
        r.set_cache_entries(4);
        // Cached pair is for an older tag than the quorum will report.
        r.cache_insert(ObjectId(0), Tag::new(1, ClientId(1)), Value::from("old"));
        let treq = Tag::new(2, ClientId(1));
        let op = start_and_reach_get_data(&mut r, treq);
        assert_eq!(r.cache_hits(), 0, "tag mismatch must not hit");

        // Serve the read normally; completion refreshes the cache.
        for i in 0..3 {
            step(
                &mut r,
                ProcessId(i),
                LdsMessage::DataResp {
                    obj: ObjectId(0),
                    op,
                    tag: Some(treq),
                    payload: ReadPayload::Value(Value::from("fresh")),
                },
            );
        }
        for i in 0..3 {
            step(
                &mut r,
                ProcessId(i),
                LdsMessage::AckPutTag {
                    obj: ObjectId(0),
                    op,
                },
            );
        }
        assert_eq!(r.completed_ops(), 1);

        // A second read of the same committed tag now hits.
        let (out, _) = step(
            &mut r,
            ProcessId::EXTERNAL,
            LdsMessage::InvokeRead { obj: ObjectId(0) },
        );
        let op2 = match &out[0].1 {
            LdsMessage::QueryCommTag { op, .. } => *op,
            _ => unreachable!(),
        };
        let mut out2 = Vec::new();
        for i in 0..3 {
            let (out, _) = step(
                &mut r,
                ProcessId(i),
                LdsMessage::CommTagResp {
                    obj: ObjectId(0),
                    op: op2,
                    tag: treq,
                },
            );
            out2.extend(out);
        }
        assert!(out2
            .iter()
            .all(|(_, m)| matches!(m, LdsMessage::PutTag { .. })));
        assert_eq!(r.cache_hits(), 1);
    }

    #[test]
    fn cache_capacity_evicts_least_recently_used() {
        let (params, membership, backend) = setup();
        let mut r = ReaderClient::new(ClientId(13), params, membership, backend);
        r.set_cache_entries(2);
        let t = Tag::new(1, ClientId(1));
        r.cache_insert(ObjectId(0), t, Value::from("a"));
        r.cache_insert(ObjectId(1), t, Value::from("b"));
        // Touch object 0 so object 1 becomes the LRU entry, then overflow.
        assert!(r.cache.lookup(ObjectId(0), t).is_some());
        r.cache_insert(ObjectId(2), t, Value::from("c"));
        assert!(r.cache.lookup(ObjectId(1), t).is_none(), "LRU evicted");
        assert!(r.cache.lookup(ObjectId(0), t).is_some());
        assert!(r.cache.lookup(ObjectId(2), t).is_some());
        // Disabling drops everything.
        r.set_cache_entries(0);
        assert!(r.cache.lookup(ObjectId(0), t).is_none());
        r.cache_insert(ObjectId(0), t, Value::from("a"));
        assert!(
            r.cache.lookup(ObjectId(0), t).is_none(),
            "disabled cache stays empty"
        );
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
