//! The L1 (edge) server automaton — Fig. 2 of the paper.
//!
//! An L1 server `s_j` provides temporary storage for values being written,
//! answers client queries, participates in the metadata broadcast primitive,
//! and performs the two internal operations against the back-end layer:
//! `write-to-L2` (offloading coded elements) and `regenerate-from-L2`
//! (repairing its own coded element `c_j` from helper data).
//!
//! One server process hosts the per-object state of every object it has seen,
//! so a multi-object system (paper §V-A.1) runs on the same `n1 + n2`
//! processes.

use crate::backend::BackendCodec;
use crate::idmap::IdMap;
use crate::membership::{Membership, ServerSet};
use crate::messages::{LdsMessage, ProtocolEvent, ReadPayload, RepairPayload};
use crate::params::{Profile, SystemParams};
use crate::process::{Context, Process, ProcessId};
use crate::tag::{ObjectId, OpId, Tag};
use crate::value::Value;
use lds_codes::{HelperData, Share};
use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::sync::Arc;

/// A reader registered in Γ, waiting to be served.
#[derive(Debug, Clone)]
struct RegisteredReader {
    reader: ProcessId,
    op: OpId,
    treq: Tag,
}

/// State of one outstanding `regenerate-from-L2` operation (the paper's
/// per-reader `readCounter[r]` and key-value set `K[r]`).
#[derive(Debug, Clone)]
struct RegenState {
    treq: Tag,
    /// L2 servers that sent helper data.
    respondents: ServerSet,
    responses: Vec<(Tag, HelperData)>,
}

/// Per-object server state (the paper's `L`, `Γ`, `t_c` and counters).
///
/// All per-tag bookkeeping lives in ordered maps so that everything below the
/// committed tag can be garbage-collected from the front, in place, when
/// `t_c` advances — without GC, `commitCounter`, the broadcast dedup sets and
/// the list keys themselves grow forever on a long-running workload.
#[derive(Debug, Clone)]
struct ObjectState {
    /// The list `L`: tag → value (`None` represents `⊥`).
    list: BTreeMap<Tag, Option<Value>>,
    /// Registered readers Γ.
    gamma: Vec<RegisteredReader>,
    /// Committed tag `t_c`.
    tc: Tag,
    /// `commitCounter[t]`: number of distinct COMMIT-TAG broadcasts consumed.
    commit_count: BTreeMap<Tag, usize>,
    /// Tags already acknowledged to their writer by this server.
    acked: BTreeSet<Tag>,
    /// For each tag received via PUT-DATA, the writer process and op to ack.
    pending_write: BTreeMap<Tag, (ProcessId, OpId)>,
    /// `writeCounter[t]`: ACK-CODE-ELEM responses received from L2.
    write_counter: BTreeMap<Tag, usize>,
    /// Tags for which this server already initiated `write-to-L2`.
    offloaded: BTreeSet<Tag>,
    /// Broadcast relay dedup: origins (L1 indices) already forwarded, per
    /// tag.
    relayed: BTreeMap<Tag, ServerSet>,
    /// Broadcast consumption dedup: origins (L1 indices) already counted,
    /// per tag.
    consumed: BTreeMap<Tag, ServerSet>,
    /// Outstanding regenerate-from-L2 operations keyed by (reader, op).
    regen: IdMap<(ProcessId, OpId), RegenState>,
}

impl ObjectState {
    fn new() -> Self {
        let mut list = BTreeMap::new();
        list.insert(Tag::initial(), None);
        ObjectState {
            list,
            gamma: Vec::new(),
            tc: Tag::initial(),
            commit_count: BTreeMap::new(),
            acked: BTreeSet::new(),
            pending_write: BTreeMap::new(),
            write_counter: BTreeMap::new(),
            offloaded: BTreeSet::new(),
            relayed: BTreeMap::new(),
            consumed: BTreeMap::new(),
            regen: IdMap::default(),
        }
    }

    fn max_list_tag(&self) -> Tag {
        *self
            .list
            .keys()
            .next_back()
            .expect("list always contains at least the committed tag")
    }

    /// Number of per-tag metadata entries currently held for this object.
    fn metadata_entries(&self) -> usize {
        self.list.len()
            + self.commit_count.len()
            + self.acked.len()
            + self.pending_write.len()
            + self.write_counter.len()
            + self.offloaded.len()
            + self.relayed.values().map(ServerSet::len).sum::<usize>()
            + self.consumed.values().map(ServerSet::len).sum::<usize>()
            + self.gamma.len()
            + self.regen.len()
    }

    /// What this object contributes to the server's running totals:
    /// `(temporary value bytes, metadata entries)`.
    fn footprint(&self) -> (usize, usize) {
        let bytes = self
            .list
            .values()
            .filter_map(|v| v.as_ref().map(Value::len))
            .sum();
        (bytes, self.metadata_entries())
    }

    /// The highest tag strictly below `below` whose value is still present.
    fn latest_value_below(&self, below: Tag) -> Option<(Tag, Value)> {
        self.list
            .range(..below)
            .rev()
            .find_map(|(t, v)| v.as_ref().map(|v| (*t, v.clone())))
    }

    /// Garbage-collects everything associated with tags strictly below
    /// `below` (which the caller has just committed).
    ///
    /// Entries below the committed tag can never influence future quorums:
    /// `max_list_tag` stays ≥ `t_c`, reads for old tags are answered with the
    /// committed value, and late duplicate broadcasts for pruned tags only
    /// recreate a transient counter that the next advance removes again.
    /// PUT-DATA entries whose ack is still outstanding are acknowledged on
    /// the way out — the tag is superseded by a committed higher tag, which
    /// is exactly the `put-data-resp` stale-tag case.
    ///
    /// Returns `(entries, bytes)` pruned, for the server's eviction
    /// counters.
    fn gc_below(
        &mut self,
        obj: ObjectId,
        below: Tag,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        while let Some(stale) = self.list.first_entry().filter(|e| *e.key() < below) {
            entries += 1;
            bytes += stale.remove().map_or(0, |v| v.len() as u64);
        }
        self.list.entry(below).or_insert(None);

        // Before `acked` itself is pruned.
        while let Some(stale) = self
            .pending_write
            .first_entry()
            .filter(|e| *e.key() < below)
        {
            entries += 1;
            let (tag, (writer, op)) = stale.remove_entry();
            if !self.acked.contains(&tag) {
                ctx.send(writer, LdsMessage::AckPutData { obj, op, tag });
            }
        }

        entries += prune_below(&mut self.commit_count, below, |_| 1);
        entries += prune_below(&mut self.write_counter, below, |_| 1);
        entries += prune_below(&mut self.relayed, below, |s| s.len() as u64);
        entries += prune_below(&mut self.consumed, below, |s| s.len() as u64);
        for set in [&mut self.acked, &mut self.offloaded] {
            while set.first().is_some_and(|t| *t < below) {
                set.pop_first();
                entries += 1;
            }
        }
        (entries, bytes)
    }
}

/// Removes the entries of `map` keyed below `below` in place — no node is
/// allocated, and emptied nodes are kept for the next tag — and returns
/// their summed `weight`.
fn prune_below<V>(map: &mut BTreeMap<Tag, V>, below: Tag, weight: impl Fn(&V) -> u64) -> u64 {
    let mut pruned = 0;
    while let Some(stale) = map.first_entry().filter(|e| *e.key() < below) {
        pruned += weight(&stale.remove());
    }
    pruned
}

/// Accumulated state of a replacement L1 server while it reconstructs its
/// metadata (committed tags and lists) from live peers' snapshots. While
/// rebuilding, the server answers **no** client queries — an incomplete list
/// could break get-tag quorum monotonicity — but it absorbs the normal
/// PUT-DATA / broadcast stream, which is how in-flight writes catch it up
/// before it declares itself live.
struct L1Rebuild {
    /// `RepairDone` markers to expect (helpers × helper worker shards).
    expected_dones: usize,
    /// Markers received so far.
    dones: usize,
    /// Where to report completion and accounting.
    report_to: ProcessId,
    /// Highest committed tag reported per object (applied at finalization
    /// through the normal committed-tag advancement, so gc and write-to-L2
    /// run exactly as for a live commit).
    reported_tc: IdMap<ObjectId, Tag>,
    /// Snapshot value bytes received per helper process.
    bytes_by_helper: BTreeMap<ProcessId, u64>,
}

/// Monotonic observability counters an L1 server accumulates as it runs.
/// Plain `u64`s bumped inside the sans-IO handlers — the hosting runtime
/// reads them between protocol steps (e.g. when a worker shard idles) and
/// publishes deltas to its metrics registry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct L1ObsCounters {
    /// Per-tag metadata entries pruned by committed-tag garbage collection.
    pub gc_evicted_entries: u64,
    /// Bytes of temporarily stored values released by garbage collection.
    pub gc_evicted_bytes: u64,
}

/// The L1 server automaton.
pub struct L1Server {
    /// This server's code index `j` (0-based position in the L1 list).
    index: usize,
    params: SystemParams,
    membership: Membership,
    backend: Arc<dyn BackendCodec>,
    /// Which message flow the server runs (see [`Profile`] for the
    /// differences, all of which live in `broadcast_commit`, `write_to_l2`
    /// and the L2 server's `commit_element`).
    profile: Profile,
    objects: IdMap<ObjectId, ObjectState>,
    /// Running totals of [`ObjectState::footprint`] over `objects`
    /// (temporary value bytes, metadata entries), kept by
    /// [`Process::on_message`]: the hosting runtime reads them every time a
    /// server goes idle, which must not cost a walk over every object.
    totals: (usize, usize),
    /// Bytes of the largest set of `n2` element buffers one `write-to-L2`
    /// produced.
    peak_round_bytes: usize,
    /// The list of element buffers `write-to-L2` encodes into, kept
    /// between offloads: the buffers leave in the messages, the list stays.
    elements: Vec<Vec<u8>>,
    /// Monotonic counters for the observability registry.
    obs: L1ObsCounters,
    /// `Some` while this server is a replacement reconstructing metadata.
    rebuild: Option<L1Rebuild>,
}

impl L1Server {
    /// Creates the L1 server with code index `index`.
    pub fn new(
        index: usize,
        params: SystemParams,
        membership: Membership,
        backend: Arc<dyn BackendCodec>,
        profile: Profile,
    ) -> Self {
        assert!(index < params.n1(), "L1 index out of range");
        assert_eq!(
            membership.n1(),
            params.n1(),
            "membership/params n1 mismatch"
        );
        assert_eq!(
            membership.n2(),
            params.n2(),
            "membership/params n2 mismatch"
        );
        L1Server {
            index,
            params,
            membership,
            backend,
            profile,
            objects: IdMap::default(),
            totals: (0, 0),
            peak_round_bytes: 0,
            elements: Vec::new(),
            obs: L1ObsCounters::default(),
            rebuild: None,
        }
    }

    /// Creates a **replacement** L1 server in rebuilding mode: silent on
    /// `QUERY-TAG` / `QUERY-COMM-TAG` / `QUERY-DATA`, absorbing the live
    /// write stream, merging peer metadata snapshots, and going live (with a
    /// completion report to `report_to`) once `expected_dones`
    /// [`LdsMessage::RepairDone`] markers have arrived.
    pub fn rebuilding(
        index: usize,
        params: SystemParams,
        membership: Membership,
        backend: Arc<dyn BackendCodec>,
        profile: Profile,
        expected_dones: usize,
        report_to: ProcessId,
    ) -> Self {
        let mut server = L1Server::new(index, params, membership, backend, profile);
        server.rebuild = Some(L1Rebuild {
            expected_dones,
            dones: 0,
            report_to,
            reported_tc: IdMap::default(),
            bytes_by_helper: BTreeMap::new(),
        });
        server
    }

    /// This server's code index `j`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the server is still reconstructing metadata (not yet
    /// answering client queries).
    pub fn is_rebuilding(&self) -> bool {
        self.rebuild.is_some()
    }

    /// Total bytes of values currently held in temporary storage across all
    /// objects (the paper's L1 storage cost, un-normalised).
    pub fn temporary_storage_bytes(&self) -> usize {
        debug_assert_eq!(self.totals, self.recounted_totals());
        self.totals.0
    }

    /// The full walk the running totals replace: every object's footprint,
    /// summed. Recomputes the totals after the steps that touch every
    /// object; otherwise the oracle the totals are checked against in tests
    /// and debug builds.
    fn recounted_totals(&self) -> (usize, usize) {
        self.objects
            .values()
            .map(ObjectState::footprint)
            .fold((0, 0), |(b, e), (db, de)| (b + db, e + de))
    }

    /// Number of (tag, value) entries whose value is still present, across
    /// all objects.
    pub fn live_list_entries(&self) -> usize {
        self.objects
            .values()
            .flat_map(|s| s.list.values())
            .filter(|v| v.is_some())
            .count()
    }

    /// Number of readers currently registered in Γ across all objects.
    pub fn registered_readers(&self) -> usize {
        self.objects.values().map(|s| s.gamma.len()).sum()
    }

    /// Total number of per-tag metadata entries (list keys, commit counters,
    /// broadcast dedup sets, pending acks, …) across all objects.
    ///
    /// With garbage collection at the committed tag, this stays proportional
    /// to the number of objects plus the operations *concurrently* in flight
    /// — not to the total number of operations ever performed. The cluster
    /// stress tests assert exactly that bound over sustained runs.
    pub fn metadata_entries(&self) -> usize {
        debug_assert_eq!(self.totals, self.recounted_totals());
        self.totals.1
    }

    /// The largest `write-to-L2` offload so far: the bytes of the `n2`
    /// element buffers it produced. Every offload's elements leave in the
    /// same step, so this is the offload's peak heap beyond the value.
    pub fn peak_round_bytes(&self) -> usize {
        self.peak_round_bytes
    }

    /// The server's monotonic observability counters (garbage-collection
    /// evictions).
    pub fn obs_counters(&self) -> L1ObsCounters {
        self.obs
    }

    fn state(&mut self, obj: ObjectId) -> &mut ObjectState {
        self.objects.entry(obj).or_insert_with(ObjectState::new)
    }

    // ------------------------------------------------------------------
    // Broadcast primitive.
    // ------------------------------------------------------------------

    fn broadcast_commit(
        &mut self,
        obj: ObjectId,
        tag: Tag,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let origin = ctx.id();
        match self.profile {
            // The paper's primitive: through the f1 + 1 relays.
            Profile::PaperFaithful => {
                let relays = self.membership.broadcast_relays(self.params.f1());
                ctx.send_all(
                    relays.iter().copied(),
                    LdsMessage::BcastSend { obj, tag, origin },
                );
            }
            // Straight to every other server; this server's own copy is
            // consumed here, inside the step. Every state that produces is
            // reachable in the message-passing execution by delivering the
            // self-addressed message first: the tag commits at once, so the
            // PUT-DATA that got here stores its value through the "broadcast
            // raced ahead" arm of `on_put_data` and is acknowledged without
            // waiting for the commit quorum.
            Profile::HighThroughput => {
                let peers = self.membership.l1.iter().copied();
                ctx.send_all(
                    peers.filter(|&p| p != origin),
                    LdsMessage::BcastDeliver { obj, tag, origin },
                );
                self.on_bcast_deliver(obj, tag, origin, ctx);
            }
        }
    }

    fn on_bcast_send(
        &mut self,
        obj: ObjectId,
        tag: Tag,
        origin: ProcessId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let Some(origin_index) = self.membership.l1_index_of(origin) else {
            return; // only an L1 server broadcasts
        };
        // Relay role: forward to every L1 server on first reception.
        if self
            .state(obj)
            .relayed
            .entry(tag)
            .or_default()
            .insert(origin_index)
        {
            ctx.send_all(
                self.membership.l1.iter().copied(),
                LdsMessage::BcastDeliver { obj, tag, origin },
            );
        }
    }

    fn on_bcast_deliver(
        &mut self,
        obj: ObjectId,
        tag: Tag,
        origin: ProcessId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let commit_quorum = self.params.commit_quorum();
        let Some(origin_index) = self.membership.l1_index_of(origin) else {
            return; // only an L1 server broadcasts
        };
        let st = self.state(obj);
        // Consume each (object, tag, origin) broadcast exactly once.
        if !st.consumed.entry(tag).or_default().insert(origin_index) {
            return;
        }
        let count = st.commit_count.entry(tag).or_insert(0);
        *count += 1;
        let count = *count;

        // ACK the writer once enough broadcasts were consumed and the pair is
        // (still) in the list — i.e. this server received the PUT-DATA.
        if st.list.contains_key(&tag) && count >= commit_quorum && !st.acked.contains(&tag) {
            if let Some(&(writer, op)) = st.pending_write.get(&tag) {
                st.acked.insert(tag);
                ctx.send(writer, LdsMessage::AckPutData { obj, op, tag });
            }
        }

        if tag > st.tc {
            self.advance_committed_tag(obj, tag, false, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Committed-tag advancement (shared by broadcast-resp and put-tag-resp).
    // ------------------------------------------------------------------

    /// Updates `t_c` to `new_tc` and performs the accompanying steps: serving
    /// registered readers, garbage collection and (when the value is
    /// available) the internal `write-to-L2`.
    fn advance_committed_tag(
        &mut self,
        obj: ObjectId,
        new_tc: Tag,
        via_put_tag: bool,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let st = self.state(obj);
        debug_assert!(new_tc > st.tc);
        st.tc = new_tc;
        let value = st.list.get(&new_tc).cloned().flatten();

        let (gc_entries, gc_bytes) = match value {
            Some(v) => {
                // Serve every registered reader whose requested tag is covered.
                Self::serve_registered(st, obj, new_tc, &v, ctx);
                let gc = st.gc_below(obj, new_tc, ctx);
                self.write_to_l2(obj, new_tc, &v, ctx);
                gc
            }
            None => {
                // Record the committed tag as (t_c, ⊥) even when the value has
                // not arrived here: later get-tag quorums must observe every
                // tag this server ever acknowledged or committed, or a future
                // writer could mint a non-monotonic (even colliding) tag.
                st.list.entry(new_tc).or_insert(None);
                if via_put_tag {
                    // Serve readers with the newest value still held, if any
                    // covers their request.
                    if let Some((t_bar, v_bar)) = st.latest_value_below(new_tc) {
                        Self::serve_registered(st, obj, t_bar, &v_bar, ctx);
                    }
                }
                st.gc_below(obj, new_tc, ctx)
            }
        };
        self.obs.gc_evicted_entries += gc_entries;
        self.obs.gc_evicted_bytes += gc_bytes;
    }

    fn serve_registered(
        st: &mut ObjectState,
        obj: ObjectId,
        tag: Tag,
        value: &Value,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let mut remaining = Vec::with_capacity(st.gamma.len());
        for reg in st.gamma.drain(..) {
            if tag >= reg.treq {
                ctx.send(
                    reg.reader,
                    LdsMessage::DataResp {
                        obj,
                        op: reg.op,
                        tag: Some(tag),
                        payload: ReadPayload::Value(value.clone()),
                    },
                );
            } else {
                remaining.push(reg);
            }
        }
        st.gamma = remaining;
    }

    // ------------------------------------------------------------------
    // Internal write-to-L2.
    // ------------------------------------------------------------------

    fn write_to_l2(
        &mut self,
        obj: ObjectId,
        tag: Tag,
        value: &Value,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        if self.profile == Profile::HighThroughput && self.index > self.params.f1() {
            // Offloading is left to the first f1 + 1 servers: each offload
            // delivers all n2 coded elements and at least one offloader is
            // correct, so L2 durability holds under f1 crashes.
            return;
        }
        {
            let st = self.state(obj);
            if !st.offloaded.insert(tag) {
                return; // already initiated for this tag
            }
            st.write_counter.entry(tag).or_insert(0);
        }
        let n1 = self.backend.n1();
        // Encode all n2 elements in one call, straight into the buffers the
        // messages will own: the coded backends produce the whole batch in
        // one pass over the value, read where it lies, and write every
        // element byte once.
        let mut bufs = std::mem::take(&mut self.elements);
        bufs.resize_with(self.membership.n2(), Vec::new);
        match self.backend.encode_l2_elements_into(value, &mut bufs) {
            Ok(()) => {
                let produced = bufs.iter().map(Vec::len).sum();
                self.peak_round_bytes = self.peak_round_bytes.max(produced);
                for (i, (buf, &l2)) in bufs.drain(..).zip(&self.membership.l2).enumerate() {
                    let element = Share::new(n1 + i, buf);
                    ctx.send(l2, LdsMessage::WriteCodeElem { obj, tag, element });
                }
            }
            Err(err) => {
                // Encoding failures indicate misconfiguration; surface in
                // debug builds. In release, fall back to per-element encodes
                // so one bad element loses only its own message (like a
                // crashed link endpoint), not the whole offload.
                debug_assert!(false, "write-to-L2 bulk encoding failure: {err}");
                let mut produced = 0;
                for (i, &l2) in self.membership.l2.iter().enumerate() {
                    let mut buf = Vec::new();
                    if self
                        .backend
                        .encode_l2_element_into(value, i, &mut buf)
                        .is_ok()
                    {
                        produced += buf.len();
                        let element = Share::new(n1 + i, buf);
                        ctx.send(l2, LdsMessage::WriteCodeElem { obj, tag, element });
                    }
                }
                self.peak_round_bytes = self.peak_round_bytes.max(produced);
            }
        }
        self.elements = bufs;
    }

    /// ACK-CODE-ELEM from an L2 server (sent in the paper profile only; with
    /// no acks the value stays until a higher tag commits).
    fn on_l2_write_ack(&mut self, obj: ObjectId, tag: Tag) {
        let quorum = self.params.l2_quorum();
        let st = self.state(obj);
        let counter = st.write_counter.entry(tag).or_insert(0);
        *counter += 1;
        if *counter == quorum {
            // write-to-L2 complete: garbage-collect the value (keep the tag).
            if let Some(entry) = st.list.get_mut(&tag) {
                *entry = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Writer-facing actions.
    // ------------------------------------------------------------------

    fn on_query_tag(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        op: OpId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let tag = self.state(obj).max_list_tag();
        ctx.send(from, LdsMessage::TagResp { obj, op, tag });
    }

    fn on_put_data(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        op: OpId,
        tag: Tag,
        value: Value,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        {
            let st = self.state(obj);
            st.pending_write.insert(tag, (from, op));
        }
        // Announce the tag to all L1 servers (metadata broadcast).
        self.broadcast_commit(obj, tag, ctx);
        let st = self.state(obj);
        if tag > st.tc {
            st.list.insert(tag, Some(value));
        } else if tag == st.tc && matches!(st.list.get(&tag), None | Some(None)) {
            // The commit broadcasts raced ahead of the writer's PUT-DATA: the
            // tag is already committed here but the value never arrived. Store
            // it now so registered readers can be served and the coded
            // elements reach L2, then acknowledge.
            st.list.insert(tag, Some(value.clone()));
            Self::serve_registered(st, obj, tag, &value, ctx);
            st.acked.insert(tag);
            ctx.send(from, LdsMessage::AckPutData { obj, op, tag });
            self.write_to_l2(obj, tag, &value, ctx);
        } else {
            // The tag is strictly outdated (or its value is already present);
            // record it in the list so get-tag quorums observe it, and
            // acknowledge immediately.
            st.list.entry(tag).or_insert(None);
            st.acked.insert(tag);
            ctx.send(from, LdsMessage::AckPutData { obj, op, tag });
        }
    }

    // ------------------------------------------------------------------
    // Reader-facing actions.
    // ------------------------------------------------------------------

    fn on_query_comm_tag(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        op: OpId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let tag = self.state(obj).tc;
        ctx.send(from, LdsMessage::CommTagResp { obj, op, tag });
    }

    fn on_query_data(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        op: OpId,
        treq: Tag,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let (serve, register) = {
            let st = self.state(obj);
            if let Some(Some(v)) = st.list.get(&treq) {
                (Some((treq, v.clone())), false)
            } else if st.tc > treq {
                match st.list.get(&st.tc) {
                    Some(Some(v)) => (Some((st.tc, v.clone())), false),
                    _ => (None, true),
                }
            } else {
                (None, true)
            }
        };

        if let Some((tag, value)) = serve {
            ctx.send(
                from,
                LdsMessage::DataResp {
                    obj,
                    op,
                    tag: Some(tag),
                    payload: ReadPayload::Value(value),
                },
            );
            return;
        }
        if register {
            let st = self.state(obj);
            st.gamma.push(RegisteredReader {
                reader: from,
                op,
                treq,
            });
            st.regen.insert(
                (from, op),
                RegenState {
                    treq,
                    respondents: ServerSet::default(),
                    responses: Vec::new(),
                },
            );
            // regenerate-from-L2: ask every L2 server for helper data.
            let msg = LdsMessage::QueryCodeElem {
                obj,
                reader: from,
                op,
            };
            ctx.send_all(self.membership.l2.iter().copied(), msg);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_send_helper_elem(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        reader: ProcessId,
        op: OpId,
        tag: Tag,
        helper: HelperData,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let quorum = self.params.l2_quorum();
        let repair_threshold = self.backend.repair_threshold();
        let my_index = self.index;
        let backend = Arc::clone(&self.backend);
        let Some(helper_index) = self.membership.l2_index_of(from) else {
            return; // helper data comes from L2 servers only
        };

        let st = self.state(obj);
        let Some(regen) = st.regen.get_mut(&(reader, op)) else {
            return; // stale helper response for an already-completed regenerate
        };
        if !regen.respondents.insert(helper_index) {
            return;
        }
        regen.responses.push((tag, helper));
        if regen.respondents.len() < quorum {
            return;
        }
        // n2 - f2 responses received: attempt regeneration of c_j with the
        // highest tag that has at least `repair_threshold` helper payloads.
        let regen = st.regen.remove(&(reader, op)).expect("checked above");
        let mut by_tag: BTreeMap<Tag, Vec<HelperData>> = BTreeMap::new();
        for (t, h) in regen.responses {
            by_tag.entry(t).or_default().push(h);
        }
        let mut regenerated = None;
        for (t, helpers) in by_tag.iter().rev() {
            if helpers.len() >= repair_threshold {
                if let Ok(share) = backend.regenerate_l1(my_index, helpers) {
                    regenerated = Some((*t, share));
                    break;
                }
            }
        }

        // Only respond if this reader is still registered (it may have been
        // served — and unregistered — by a concurrent commit in the meantime).
        let still_registered = st.gamma.iter().any(|g| g.reader == reader && g.op == op);
        if !still_registered {
            return;
        }
        match regenerated {
            Some((t, share)) if t >= regen.treq => ctx.send(
                reader,
                LdsMessage::DataResp {
                    obj,
                    op,
                    tag: Some(t),
                    payload: ReadPayload::Coded(share),
                },
            ),
            _ => ctx.send(
                reader,
                LdsMessage::DataResp {
                    obj,
                    op,
                    tag: None,
                    payload: ReadPayload::None,
                },
            ),
        }
        // Note: the reader stays registered; it may still be served later with
        // a full (tag, value) pair.
    }

    fn on_put_tag(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        op: OpId,
        tag: Tag,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        {
            // Unregister this read and the reader's older ones of the object,
            // never a later one: channels reorder, so a straggler PUT-TAG of a
            // finished read can arrive after the reader's next QUERY-DATA
            // registered, and unregistering that read would leave it waiting
            // forever. A reader runs one read of an object at a time, numbered
            // in order, and every read ends in a PUT-TAG to every L1 server,
            // so what this leaves behind is at most one entry per reader and
            // object: a registration whose own QUERY-DATA came after its
            // PUT-TAG, dropped by the reader's next read of the object.
            let st = self.state(obj);
            st.gamma.retain(|g| g.reader != from || g.op.seq > op.seq);
        }
        let needs_advance = {
            let st = self.state(obj);
            tag > st.tc
        };
        if needs_advance {
            self.advance_committed_tag(obj, tag, true, ctx);
        }
        ctx.send(from, LdsMessage::AckPutTag { obj, op });
    }

    // ------------------------------------------------------------------
    // Online node repair (cluster runtime extension).
    // ------------------------------------------------------------------

    /// Helper role: stream a metadata snapshot (committed tag + list
    /// entries) for every known object to the replacement of crashed L1
    /// peer `failed`, then an end-of-stream marker.
    fn on_repair_help(
        &mut self,
        failed: ProcessId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        if self.rebuild.is_some() {
            return; // a rebuilding server cannot help anyone
        }
        if self.membership.l1_index_of(failed).is_none() || failed == ctx.id() {
            return; // not an L1 repair (or nonsensical self-repair)
        }
        let mut sent = 0u64;
        for (&obj, st) in &self.objects {
            if st.tc == Tag::initial() && st.max_list_tag() == Tag::initial() {
                continue; // pristine object — the replacement starts there anyway
            }
            let entries: Vec<(Tag, Option<Value>)> =
                st.list.iter().map(|(t, v)| (*t, v.clone())).collect();
            ctx.send(
                failed,
                LdsMessage::RepairShare {
                    obj,
                    payload: RepairPayload::Meta { tc: st.tc, entries },
                },
            );
            sent += 1;
        }
        ctx.send(
            failed,
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects: sent,
                bytes_by_helper: Vec::new(),
                fallback_bytes: 0,
            },
        );
    }

    /// Replacement role: merge one peer's per-object metadata snapshot.
    /// List entries are facts — a tag uniquely identifies its value — so the
    /// union over all snapshots (plus anything the live stream delivers
    /// concurrently) is merged in place; committed tags are deferred to
    /// finalization so the normal advancement (reader service, gc,
    /// write-to-L2) runs once per object.
    fn on_repair_meta(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        tc: Tag,
        entries: Vec<(Tag, Option<Value>)>,
    ) {
        {
            let Some(rebuild) = self.rebuild.as_mut() else {
                return; // stale snapshot for an already-completed repair
            };
            let bytes: usize = entries
                .iter()
                .filter_map(|(_, v)| v.as_ref().map(Value::len))
                .sum();
            *rebuild.bytes_by_helper.entry(from).or_insert(0) += bytes as u64;
            let reported = rebuild.reported_tc.entry(obj).or_insert(tc);
            if tc > *reported {
                *reported = tc;
            }
        }
        let st = self.state(obj);
        for (tag, value) in entries {
            if tag < st.tc {
                // Already superseded by a commit the replacement absorbed
                // from the live stream: merging it back would resurrect
                // state gc_below just pruned (and retain it until the
                // object's next commit).
                continue;
            }
            match st.list.entry(tag) {
                btree_map::Entry::Vacant(e) => {
                    e.insert(value);
                }
                btree_map::Entry::Occupied(mut e) => {
                    // Fill in a value another peer had already gc'ed to ⊥.
                    if e.get().is_none() && value.is_some() {
                        e.insert(value);
                    }
                }
            }
        }
    }

    /// Replacement role: count an end-of-stream marker; on the last one,
    /// commit the reconstructed tags, report, and go live.
    fn on_repair_done(&mut self, ctx: &mut Context<'_, LdsMessage, ProtocolEvent>) {
        let Some(rebuild) = self.rebuild.as_mut() else {
            return;
        };
        rebuild.dones += 1;
        if rebuild.dones < rebuild.expected_dones {
            return;
        }
        let rebuild = self.rebuild.take().expect("checked above");
        let mut objects = 0u64;
        for (obj, tc) in rebuild.reported_tc {
            objects += 1;
            let needs_advance = tc > self.state(obj).tc;
            if needs_advance {
                // The normal advancement path: serves (no) readers, gc's
                // below the committed tag and re-offloads the committed
                // value to L2 when it is present.
                self.advance_committed_tag(obj, tc, false, ctx);
            }
        }
        let bytes_total: u64 = rebuild.bytes_by_helper.values().sum();
        ctx.send(
            rebuild.report_to,
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects,
                bytes_by_helper: rebuild.bytes_by_helper.into_iter().collect(),
                // Metadata reconstruction has no coded shortcut: the
                // "fallback" is exactly what was shipped.
                fallback_bytes: bytes_total,
            },
        );
    }
}

impl Process<LdsMessage, ProtocolEvent> for L1Server {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: LdsMessage,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        // While rebuilding, the replacement answers no client queries: a
        // get-tag / committed-tag / data response computed from an incomplete
        // list could displace a complete server in a quorum and break tag
        // monotonicity. Everything else — the write stream, broadcasts,
        // put-tag write-backs — is absorbed normally, which is exactly how
        // in-flight operations catch the replacement up.
        if self.rebuild.is_some()
            && matches!(
                msg,
                LdsMessage::QueryTag { .. }
                    | LdsMessage::QueryCommTag { .. }
                    | LdsMessage::QueryData { .. }
            )
        {
            return;
        }
        // Keep the running totals: a step changes the footprint of its
        // message's object only — except the process-addressed repair
        // messages (a finalising rebuild commits every reconstructed
        // object), after which everything is recounted.
        if msg.fanout() {
            self.step(from, msg, ctx);
            self.totals = self.recounted_totals();
        } else {
            let obj = msg.object();
            let footprint = |s: &Self| s.objects.get(&obj).map_or((0, 0), ObjectState::footprint);
            let before = footprint(self);
            self.step(from, msg, ctx);
            let after = footprint(self);
            self.totals.0 = self.totals.0 + after.0 - before.0;
            self.totals.1 = self.totals.1 + after.1 - before.1;
        }
    }
}

impl L1Server {
    /// One protocol step: the action the paper's automaton takes on `msg`.
    fn step(
        &mut self,
        from: ProcessId,
        msg: LdsMessage,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        match msg {
            LdsMessage::QueryTag { obj, op } => self.on_query_tag(from, obj, op, ctx),
            LdsMessage::PutData {
                obj,
                op,
                tag,
                value,
            } => self.on_put_data(from, obj, op, tag, value, ctx),
            LdsMessage::BcastSend { obj, tag, origin } => self.on_bcast_send(obj, tag, origin, ctx),
            LdsMessage::BcastDeliver { obj, tag, origin } => {
                self.on_bcast_deliver(obj, tag, origin, ctx)
            }
            LdsMessage::QueryCommTag { obj, op } => self.on_query_comm_tag(from, obj, op, ctx),
            LdsMessage::QueryData { obj, op, treq } => self.on_query_data(from, obj, op, treq, ctx),
            LdsMessage::PutTag { obj, op, tag } => self.on_put_tag(from, obj, op, tag, ctx),
            LdsMessage::AckCodeElem { obj, tag } => self.on_l2_write_ack(obj, tag),
            LdsMessage::SendHelperElem {
                obj,
                reader,
                op,
                tag,
                helper,
            } => self.on_send_helper_elem(from, obj, reader, op, tag, helper, ctx),
            LdsMessage::RepairHelp { failed, .. } => self.on_repair_help(failed, ctx),
            LdsMessage::RepairShare {
                obj,
                payload: RepairPayload::Meta { tc, entries },
            } => self.on_repair_meta(from, obj, tc, entries),
            LdsMessage::RepairDone { .. } => self.on_repair_done(ctx),
            // Messages not addressed to an L1 server are ignored (they can
            // only appear through harness misconfiguration).
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{make_backend, BackendKind};

    fn setup() -> (SystemParams, Membership, Arc<dyn BackendCodec>) {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap(); // n1=4, n2=5
        let l1: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let l2: Vec<ProcessId> = (4..9).map(ProcessId).collect();
        let membership = Membership::new(l1, l2);
        let backend = make_backend(BackendKind::Mbr, &params).unwrap();
        (params, membership, backend)
    }

    fn make_server(index: usize) -> L1Server {
        let (params, membership, backend) = setup();
        L1Server::new(index, params, membership, backend, Profile::PaperFaithful)
    }

    /// The committed tag `t_c` of an object (t0 if the object is unknown).
    fn committed_tag(server: &L1Server, obj: ObjectId) -> Tag {
        server.objects.get(&obj).map_or_else(Tag::initial, |s| s.tc)
    }

    /// Drives one message into the server and returns the outgoing messages.
    fn step(
        server: &mut L1Server,
        from: ProcessId,
        msg: LdsMessage,
    ) -> Vec<(ProcessId, LdsMessage)> {
        let mut outgoing = Vec::new();
        let mut events = Vec::new();
        let mut ctx = Context::standalone(
            ProcessId(server.index),
            crate::process::SimTime::ZERO,
            &mut outgoing,
            &mut events,
        );
        server.on_message(from, msg, &mut ctx);
        outgoing
    }

    #[test]
    fn query_tag_returns_max_list_tag() {
        let mut s = make_server(0);
        let out = step(
            &mut s,
            ProcessId(100),
            LdsMessage::QueryTag {
                obj: ObjectId(0),
                op: OpId::default(),
            },
        );
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            LdsMessage::TagResp { tag, .. } => assert_eq!(*tag, Tag::initial()),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn put_data_with_new_tag_stores_and_broadcasts() {
        let mut s = make_server(0);
        let tag = Tag::new(1, crate::tag::ClientId(7));
        let out = step(
            &mut s,
            ProcessId(100),
            LdsMessage::PutData {
                obj: ObjectId(0),
                op: OpId::default(),
                tag,
                value: Value::from("v"),
            },
        );
        // No immediate ACK (tag is fresh); broadcasts go to the f1+1 = 2 relays.
        assert!(out
            .iter()
            .all(|(_, m)| !matches!(m, LdsMessage::AckPutData { .. })));
        let relays: Vec<_> = out
            .iter()
            .filter(|(_, m)| matches!(m, LdsMessage::BcastSend { .. }))
            .collect();
        assert_eq!(relays.len(), 2);
        assert_eq!(s.live_list_entries(), 1);
        assert_eq!(s.temporary_storage_bytes(), 1);
    }

    #[test]
    fn put_data_with_stale_tag_acks_immediately() {
        let mut s = make_server(0);
        let obj = ObjectId(0);
        let t1 = Tag::new(5, crate::tag::ClientId(1));
        // Commit a higher tag first via direct consumption of broadcasts.
        for origin in 0..4 {
            step(
                &mut s,
                ProcessId(origin),
                LdsMessage::BcastDeliver {
                    obj,
                    tag: t1,
                    origin: ProcessId(origin),
                },
            );
        }
        assert_eq!(committed_tag(&s, obj), t1);
        // Now a PUT-DATA with an older tag must be acked straight away.
        let stale = Tag::new(2, crate::tag::ClientId(1));
        let out = step(
            &mut s,
            ProcessId(50),
            LdsMessage::PutData {
                obj,
                op: OpId::default(),
                tag: stale,
                value: Value::from("old"),
            },
        );
        assert!(out
            .iter()
            .any(|(to, m)| *to == ProcessId(50) && matches!(m, LdsMessage::AckPutData { .. })));
    }

    #[test]
    fn commit_quorum_triggers_ack_and_offload() {
        let mut s = make_server(0);
        let obj = ObjectId(0);
        let tag = Tag::new(1, crate::tag::ClientId(3));
        let writer = ProcessId(77);
        step(
            &mut s,
            writer,
            LdsMessage::PutData {
                obj,
                op: OpId::default(),
                tag,
                value: Value::from("value!"),
            },
        );
        // Consume commit_quorum = f1 + k = 3 distinct broadcasts.
        let mut all_out = Vec::new();
        for origin in 0..3 {
            all_out.extend(step(
                &mut s,
                ProcessId(origin),
                LdsMessage::BcastDeliver {
                    obj,
                    tag,
                    origin: ProcessId(origin),
                },
            ));
        }
        // ACK to the writer.
        assert!(all_out
            .iter()
            .any(|(to, m)| *to == writer && matches!(m, LdsMessage::AckPutData { .. })));
        // write-to-L2 initiated: one WRITE-CODE-ELEM per L2 server.
        let writes: Vec<_> = all_out
            .iter()
            .filter(|(_, m)| matches!(m, LdsMessage::WriteCodeElem { .. }))
            .collect();
        assert_eq!(writes.len(), 5);
        assert_eq!(committed_tag(&s, obj), tag);

        // Value is garbage collected only after n2 - f2 = 4 ACKs from L2.
        for _ in 0..3 {
            step(&mut s, ProcessId(4), LdsMessage::AckCodeElem { obj, tag });
        }
        assert_eq!(s.live_list_entries(), 1);
        step(&mut s, ProcessId(5), LdsMessage::AckCodeElem { obj, tag });
        assert_eq!(
            s.live_list_entries(),
            0,
            "value gc'ed after write-to-L2 completes"
        );
        assert_eq!(s.temporary_storage_bytes(), 0);
    }

    #[test]
    fn query_data_served_from_list_when_possible() {
        let mut s = make_server(1);
        let obj = ObjectId(0);
        let tag = Tag::new(1, crate::tag::ClientId(1));
        step(
            &mut s,
            ProcessId(70),
            LdsMessage::PutData {
                obj,
                op: OpId::default(),
                tag,
                value: Value::from("cached"),
            },
        );
        let out = step(
            &mut s,
            ProcessId(80),
            LdsMessage::QueryData {
                obj,
                op: OpId::default(),
                treq: tag,
            },
        );
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            LdsMessage::DataResp {
                tag: Some(t),
                payload: ReadPayload::Value(v),
                ..
            } => {
                assert_eq!(*t, tag);
                assert_eq!(v.as_bytes(), b"cached");
            }
            other => panic!("expected value response, got {other:?}"),
        }
    }

    #[test]
    fn query_data_registers_reader_and_queries_l2_on_miss() {
        let mut s = make_server(2);
        let obj = ObjectId(0);
        let out = step(
            &mut s,
            ProcessId(90),
            LdsMessage::QueryData {
                obj,
                op: OpId::default(),
                treq: Tag::initial(),
            },
        );
        // One QUERY-CODE-ELEM per L2 server, no direct response.
        assert_eq!(out.len(), 5);
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, LdsMessage::QueryCodeElem { .. })));
        assert_eq!(s.registered_readers(), 1);
    }

    #[test]
    fn put_tag_unregisters_and_advances_commit() {
        let mut s = make_server(0);
        let obj = ObjectId(0);
        let reader = ProcessId(90);
        step(
            &mut s,
            reader,
            LdsMessage::QueryData {
                obj,
                op: OpId::default(),
                treq: Tag::initial(),
            },
        );
        assert_eq!(s.registered_readers(), 1);
        let t = Tag::new(3, crate::tag::ClientId(2));
        let out = step(
            &mut s,
            reader,
            LdsMessage::PutTag {
                obj,
                op: OpId::default(),
                tag: t,
            },
        );
        assert_eq!(s.registered_readers(), 0);
        assert_eq!(committed_tag(&s, obj), t);
        assert!(out
            .iter()
            .any(|(to, m)| *to == reader && matches!(m, LdsMessage::AckPutTag { .. })));
    }

    /// A PUT-TAG that straggles in from a reader's previous read must not
    /// unregister the read it is running now: that read waits for its
    /// `DATA-RESP`, which only a registered read gets.
    #[test]
    fn a_straggler_put_tag_keeps_the_readers_next_read_registered() {
        let (params, membership, backend) = setup();
        let mut s = L1Server::new(
            1,
            params,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
        );
        let obj = ObjectId(0);
        let reader = ProcessId(90);
        let client = crate::tag::ClientId(5);
        let (op1, op2) = (OpId::new(client, 1), OpId::new(client, 2));
        // The committed value is ⊥, so the second read registers and asks L2.
        let out = step(
            &mut s,
            reader,
            LdsMessage::QueryData {
                obj,
                op: op2,
                treq: Tag::initial(),
            },
        );
        assert_eq!(
            out.iter()
                .filter(|(_, m)| matches!(m, LdsMessage::QueryCodeElem { .. }))
                .count(),
            5
        );
        assert_eq!(s.registered_readers(), 1);
        // The first read's PUT-TAG arrives late.
        step(
            &mut s,
            reader,
            LdsMessage::PutTag {
                obj,
                op: op1,
                tag: Tag::initial(),
            },
        );
        assert_eq!(
            s.registered_readers(),
            1,
            "the second read stays registered"
        );

        let value = Value::from("still waiting");
        let tag = Tag::new(1, crate::tag::ClientId(1));
        let mut responses = Vec::new();
        for i in 0..4 {
            let elem = backend.encode_l2_element(&value, i).unwrap();
            let helper = backend.helper_for_l1(&elem, i, 1).unwrap();
            responses.extend(step(
                &mut s,
                membership.l2[i],
                LdsMessage::SendHelperElem {
                    obj,
                    reader,
                    op: op2,
                    tag,
                    helper,
                },
            ));
        }
        let to_reader: Vec<_> = responses.iter().filter(|(to, _)| *to == reader).collect();
        assert_eq!(to_reader.len(), 1);
        assert!(matches!(
            &to_reader[0].1,
            LdsMessage::DataResp {
                op,
                tag: Some(t),
                payload: ReadPayload::Coded(_),
                ..
            } if *op == op2 && *t == tag
        ));
        // The second read's own PUT-TAG unregisters it.
        step(&mut s, reader, LdsMessage::PutTag { obj, op: op2, tag });
        assert_eq!(s.registered_readers(), 0);
    }

    #[test]
    fn late_commit_serves_registered_reader() {
        let mut s = make_server(0);
        let obj = ObjectId(0);
        let reader = ProcessId(91);
        // Reader registers (nothing in the list yet).
        step(
            &mut s,
            reader,
            LdsMessage::QueryData {
                obj,
                op: OpId::default(),
                treq: Tag::initial(),
            },
        );
        // A concurrent write arrives and commits.
        let tag = Tag::new(1, crate::tag::ClientId(4));
        step(
            &mut s,
            ProcessId(60),
            LdsMessage::PutData {
                obj,
                op: OpId::default(),
                tag,
                value: Value::from("fresh"),
            },
        );
        let mut served = Vec::new();
        for origin in 0..3 {
            served.extend(step(
                &mut s,
                ProcessId(origin),
                LdsMessage::BcastDeliver {
                    obj,
                    tag,
                    origin: ProcessId(origin),
                },
            ));
        }
        let to_reader: Vec<_> = served.iter().filter(|(to, _)| *to == reader).collect();
        assert_eq!(
            to_reader.len(),
            1,
            "registered reader is served exactly once"
        );
        match &to_reader[0].1 {
            LdsMessage::DataResp {
                payload: ReadPayload::Value(v),
                ..
            } => {
                assert_eq!(v.as_bytes(), b"fresh")
            }
            other => panic!("expected value response, got {other:?}"),
        }
        assert_eq!(s.registered_readers(), 0);
    }

    #[test]
    fn helper_responses_regenerate_coded_element() {
        // Build a full complement of L2 elements for a known value, feed the
        // helper payloads to the server and check the regenerated response.
        let (params, membership, backend) = setup();
        let mut s = L1Server::new(
            1,
            params,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
        );
        let obj = ObjectId(0);
        let reader = ProcessId(90);
        let op = OpId::default();
        // Register the reader.
        step(
            &mut s,
            reader,
            LdsMessage::QueryData {
                obj,
                op,
                treq: Tag::initial(),
            },
        );

        let value = Value::from("regenerate me");
        let tag = Tag::new(1, crate::tag::ClientId(1));
        let mut responses = Vec::new();
        for i in 0..5 {
            let elem = backend.encode_l2_element(&value, i).unwrap();
            let helper = backend.helper_for_l1(&elem, i, 1).unwrap();
            responses.extend(step(
                &mut s,
                membership.l2[i],
                LdsMessage::SendHelperElem {
                    obj,
                    reader,
                    op,
                    tag,
                    helper,
                },
            ));
        }
        // After n2 - f2 = 4 responses the server regenerates and replies; the
        // fifth helper is stale and ignored.
        let to_reader: Vec<_> = responses.iter().filter(|(to, _)| *to == reader).collect();
        assert_eq!(to_reader.len(), 1);
        match &to_reader[0].1 {
            LdsMessage::DataResp {
                tag: Some(t),
                payload: ReadPayload::Coded(share),
                ..
            } => {
                assert_eq!(*t, tag);
                assert_eq!(share.index, 1);
                // The regenerated element matches a direct encoding of c_1.
                let direct = {
                    let full = lds_codes::mbr::ProductMatrixMbr::with_dimensions(9, 2, 3).unwrap();
                    lds_codes::ErasureCode::encode_share(&full, value.as_bytes(), 1).unwrap()
                };
                assert_eq!(share.data, direct.data);
            }
            other => panic!("expected coded response, got {other:?}"),
        }
    }

    #[test]
    fn mixed_tag_helpers_fail_regeneration_gracefully() {
        let (params, membership, backend) = setup();
        let mut s = L1Server::new(
            3,
            params,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
        );
        let obj = ObjectId(0);
        let reader = ProcessId(91);
        let op = OpId::default();
        step(
            &mut s,
            reader,
            LdsMessage::QueryData {
                obj,
                op,
                treq: Tag::new(9, crate::tag::ClientId(9)),
            },
        );

        // Four helpers, each for a *different* tag: no common tag reaches the
        // repair threshold, so the server answers (⊥, ⊥).
        let value = Value::from("x");
        let mut responses = Vec::new();
        for i in 0..4 {
            let elem = backend.encode_l2_element(&value, i).unwrap();
            let helper = backend.helper_for_l1(&elem, i, 3).unwrap();
            responses.extend(step(
                &mut s,
                membership.l2[i],
                LdsMessage::SendHelperElem {
                    obj,
                    reader,
                    op,
                    tag: Tag::new(i as u64 + 1, crate::tag::ClientId(1)),
                    helper,
                },
            ));
        }
        let to_reader: Vec<_> = responses.iter().filter(|(to, _)| *to == reader).collect();
        assert_eq!(to_reader.len(), 1);
        assert!(matches!(
            &to_reader[0].1,
            LdsMessage::DataResp {
                tag: None,
                payload: ReadPayload::None,
                ..
            }
        ));
    }

    /// Only an L1 server broadcasts COMMIT-TAG: a BCAST-SEND or
    /// BCAST-DELIVER whose origin is an L2 server, a client or the harness
    /// is neither relayed nor consumed, and an origin delivered twice counts
    /// once towards the commit quorum.
    #[test]
    fn broadcasts_from_outside_l1_advance_nothing() {
        let mut s = make_server(0);
        let (obj, tag) = (ObjectId(0), Tag::new(1, crate::tag::ClientId(3)));
        let writer = ProcessId(77);
        let outsiders = [ProcessId(4), writer, ProcessId::EXTERNAL];
        let put = LdsMessage::PutData {
            obj,
            op: OpId::default(),
            tag,
            value: Value::from("v"),
        };
        step(&mut s, writer, put);
        let deliver = |origin| LdsMessage::BcastDeliver { obj, tag, origin };
        let send = |origin| LdsMessage::BcastSend { obj, tag, origin };
        for origin in outsiders {
            assert!(
                step(&mut s, origin, send(origin)).is_empty(),
                "{origin:?} relayed"
            );
            assert!(step(&mut s, origin, deliver(origin)).is_empty());
        }
        assert_eq!(
            committed_tag(&s, obj),
            Tag::initial(),
            "an outsider committed"
        );
        assert_eq!(step(&mut s, ProcessId(1), send(ProcessId(1))).len(), 4);
        assert!(step(&mut s, ProcessId(1), send(ProcessId(1))).is_empty());

        let acked = |out: &[(ProcessId, LdsMessage)]| {
            out.iter()
                .any(|(to, m)| *to == writer && matches!(m, LdsMessage::AckPutData { .. }))
        };
        for origin in [ProcessId(0), ProcessId(1), ProcessId(1)] {
            assert!(!acked(&step(&mut s, origin, deliver(origin))));
        }
        assert_eq!(committed_tag(&s, obj), tag);
        assert!(acked(&step(&mut s, ProcessId(2), deliver(ProcessId(2)))));
    }

    /// `regenerate-from-L2` waits for `f2 + d` distinct L2 servers: helper
    /// data from an L1 server, a client or the harness, or a second copy
    /// from one L2 server, does not count.
    #[test]
    fn helpers_from_outside_l2_do_not_count() {
        let (params, membership, backend) = setup();
        let mut s = L1Server::new(
            1,
            params,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
        );
        let (obj, op, reader) = (ObjectId(0), OpId::default(), ProcessId(90));
        let query = LdsMessage::QueryData {
            obj,
            op,
            treq: Tag::initial(),
        };
        step(&mut s, reader, query);
        let value = Value::from("regenerate me");
        let helper_from = |i: usize| {
            let elem = backend.encode_l2_element(&value, i).unwrap();
            LdsMessage::SendHelperElem {
                obj,
                reader,
                op,
                tag: Tag::new(1, crate::tag::ClientId(1)),
                helper: backend.helper_for_l1(&elem, i, 1).unwrap(),
            }
        };
        let l2 = membership.l2;
        let senders = [(l2[0], 0), (l2[0], 0), (l2[1], 1), (l2[2], 2)];
        let outsiders = [ProcessId(0), reader, ProcessId::EXTERNAL].map(|p| (p, 3));
        for (from, i) in senders.into_iter().chain(outsiders) {
            let out = step(&mut s, from, helper_from(i));
            assert!(
                out.is_empty(),
                "helper {i} from {from:?} completed the quorum"
            );
        }
        let out = step(&mut s, l2[3], helper_from(3));
        assert!(matches!(
            &out[..],
            [(to, LdsMessage::DataResp { tag: Some(_), .. })] if *to == reader
        ));
    }

    fn high_throughput_server(index: usize) -> L1Server {
        let (params, membership, backend) = setup();
        L1Server::new(index, params, membership, backend, Profile::HighThroughput)
    }

    fn put_data(s: &mut L1Server, obj: ObjectId, tag: Tag) -> Vec<(ProcessId, LdsMessage)> {
        let put = LdsMessage::PutData {
            obj,
            op: OpId::default(),
            tag,
            value: Value::from("v"),
        };
        step(s, ProcessId(100), put)
    }

    #[test]
    fn high_throughput_broadcasts_directly_and_consumes_its_own_copy() {
        let mut s = high_throughput_server(0);
        let (obj, tag) = (ObjectId(0), Tag::new(1, crate::tag::ClientId(1)));
        let out = put_data(&mut s, obj, tag);
        let delivered_to: Vec<ProcessId> = out
            .iter()
            .filter(|(_, m)| matches!(m, LdsMessage::BcastDeliver { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(
            delivered_to,
            [ProcessId(1), ProcessId(2), ProcessId(3)],
            "COMMIT-TAG goes straight to the other n1 - 1 servers"
        );
        assert!(!out
            .iter()
            .any(|(_, m)| matches!(m, LdsMessage::BcastSend { .. })));
        // Its own copy was consumed inside the step: the tag is committed,
        // so the value was stored through the "broadcast raced ahead" arm,
        // which acknowledges the writer at once.
        assert_eq!(committed_tag(&s, obj), tag);
        assert!(out
            .iter()
            .any(|(to, m)| *to == ProcessId(100) && matches!(m, LdsMessage::AckPutData { .. })));
    }

    #[test]
    fn high_throughput_non_offloader_sends_no_elements_and_serves_reads_from_its_list() {
        let (obj, tag) = (ObjectId(0), Tag::new(1, crate::tag::ClientId(1)));
        let elements = |out: &[(ProcessId, LdsMessage)]| {
            out.iter()
                .filter(|(_, m)| matches!(m, LdsMessage::WriteCodeElem { .. }))
                .count()
        };
        // f1 = 1: servers 0 and 1 offload, 2 and 3 do not.
        let mut offloader = high_throughput_server(1);
        assert_eq!(elements(&put_data(&mut offloader, obj, tag)), 5);
        let mut s = high_throughput_server(2);
        assert_eq!(elements(&put_data(&mut s, obj, tag)), 0);
        assert_eq!(committed_tag(&s, obj), tag);
        // No offload, hence no L2 acks: the committed value stays in the
        // list and a read of the committed tag is answered from it.
        assert_eq!(s.live_list_entries(), 1);
        let out = step(
            &mut s,
            ProcessId(80),
            LdsMessage::QueryData {
                obj,
                op: OpId::default(),
                treq: tag,
            },
        );
        assert!(matches!(
            &out[..],
            [(ProcessId(80), LdsMessage::DataResp { tag: Some(t), payload: ReadPayload::Value(v), .. })]
                if *t == tag && v.as_bytes() == b"v"
        ));
    }

    #[test]
    fn helpers_snapshot_metadata_then_mark_done() {
        let (params, membership, backend) = setup();
        let mut s = L1Server::new(
            0,
            params,
            membership.clone(),
            backend,
            Profile::PaperFaithful,
        );
        let obj = ObjectId(4);
        let tag = Tag::new(2, crate::tag::ClientId(5));
        step(
            &mut s,
            ProcessId(70),
            LdsMessage::PutData {
                obj,
                op: OpId::default(),
                tag,
                value: Value::from("snapshot me"),
            },
        );
        let failed = membership.l1[3];
        let out = step(
            &mut s,
            ProcessId(99),
            LdsMessage::RepairHelp {
                obj: ObjectId(0),
                failed,
            },
        );
        assert_eq!(out.len(), 2, "one snapshot plus the done marker");
        assert!(out.iter().all(|(to, _)| *to == failed));
        match &out[0].1 {
            LdsMessage::RepairShare {
                obj: o,
                payload: RepairPayload::Meta { entries, .. },
            } => {
                assert_eq!(*o, obj);
                assert!(entries
                    .iter()
                    .any(|(t, v)| *t == tag && v.as_ref().is_some_and(|v| !v.is_empty())));
            }
            other => panic!("expected metadata snapshot, got {other:?}"),
        }
        assert!(matches!(
            out[1].1,
            LdsMessage::RepairDone { objects: 1, .. }
        ));
        // An L2 pid as the failed server is refused (wrong layer).
        assert!(step(
            &mut s,
            ProcessId(99),
            LdsMessage::RepairHelp {
                obj: ObjectId(0),
                failed: membership.l2[0],
            }
        )
        .is_empty());
    }

    #[test]
    fn rebuilding_l1_reconstructs_metadata_and_goes_live() {
        let (params, membership, backend) = setup();
        let coordinator = ProcessId(99);
        let mut s = L1Server::rebuilding(
            3,
            params,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
            2, // two helper peers, one shard each
            coordinator,
        );
        assert!(s.is_rebuilding());
        let obj = ObjectId(0);
        let t1 = Tag::new(1, crate::tag::ClientId(1));
        let t2 = Tag::new(2, crate::tag::ClientId(2));

        // While rebuilding, client queries get no answer.
        assert!(step(
            &mut s,
            ProcessId(70),
            LdsMessage::QueryTag {
                obj,
                op: OpId::default()
            },
        )
        .is_empty());
        assert!(step(
            &mut s,
            ProcessId(70),
            LdsMessage::QueryCommTag {
                obj,
                op: OpId::default()
            },
        )
        .is_empty());

        // Peer snapshots: one peer gc'ed the value of t2, the other still
        // holds it; the union restores both the tag set and the value.
        step(
            &mut s,
            membership.l1[0],
            LdsMessage::RepairShare {
                obj,
                payload: RepairPayload::Meta {
                    tc: t2,
                    entries: vec![(t1, None), (t2, None)],
                },
            },
        );
        step(
            &mut s,
            membership.l1[0],
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects: 1,
                bytes_by_helper: Vec::new(),
                fallback_bytes: 0,
            },
        );
        assert!(s.is_rebuilding(), "one of two helpers done");
        step(
            &mut s,
            membership.l1[1],
            LdsMessage::RepairShare {
                obj,
                payload: RepairPayload::Meta {
                    tc: t1,
                    entries: vec![(t1, None), (t2, Some(Value::from("kept")))],
                },
            },
        );
        let out = step(
            &mut s,
            membership.l1[1],
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects: 1,
                bytes_by_helper: Vec::new(),
                fallback_bytes: 0,
            },
        );
        assert!(!s.is_rebuilding());
        // Finalization committed the max reported tc — with the value
        // present, the normal advancement offloads it to L2 — and reported
        // to the coordinator.
        assert_eq!(committed_tag(&s, obj), t2);
        let to_coord: Vec<_> = out.iter().filter(|(to, _)| *to == coordinator).collect();
        assert_eq!(to_coord.len(), 1);
        match &to_coord[0].1 {
            LdsMessage::RepairDone {
                objects,
                bytes_by_helper,
                ..
            } => {
                assert_eq!(*objects, 1);
                assert_eq!(bytes_by_helper.len(), 2);
            }
            other => panic!("expected completion report, got {other:?}"),
        }
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, LdsMessage::WriteCodeElem { .. })),
            "restored committed value is re-offloaded to L2"
        );

        // Live again: queries are answered with the reconstructed state.
        let out = step(
            &mut s,
            ProcessId(70),
            LdsMessage::QueryTag {
                obj,
                op: OpId::default(),
            },
        );
        assert!(matches!(out[0].1, LdsMessage::TagResp { tag, .. } if tag == t2));
    }

    #[test]
    fn rebuilding_l1_absorbs_inflight_writes() {
        let (params, membership, backend) = setup();
        let mut s = L1Server::rebuilding(
            0,
            params,
            membership.clone(),
            backend,
            Profile::PaperFaithful,
            1,
            ProcessId(99),
        );
        let obj = ObjectId(1);
        let tag = Tag::new(7, crate::tag::ClientId(1));
        // A PUT-DATA streams in mid-rebuild: stored and broadcast as usual.
        let out = step(
            &mut s,
            ProcessId(70),
            LdsMessage::PutData {
                obj,
                op: OpId::default(),
                tag,
                value: Value::from("in flight"),
            },
        );
        assert!(out
            .iter()
            .any(|(_, m)| matches!(m, LdsMessage::BcastSend { .. })));
        // Empty helper set finishes instantly; the in-flight tag survives.
        step(
            &mut s,
            membership.l1[1],
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects: 0,
                bytes_by_helper: Vec::new(),
                fallback_bytes: 0,
            },
        );
        assert!(!s.is_rebuilding());
        let out = step(
            &mut s,
            ProcessId(70),
            LdsMessage::QueryTag {
                obj,
                op: OpId::default(),
            },
        );
        assert!(matches!(out[0].1, LdsMessage::TagResp { tag: t, .. } if t == tag));
    }

    /// `peak_round_bytes` is the bytes of the `n2` element buffers of the
    /// largest offload: for a 256 KiB value under the (5, 2, 3) MBR code,
    /// five elements of `α = 3` symbols of `⌈(8 + 262 144) / B⌉ = 52 431`
    /// bytes (`B = 5`), 3.00 |v|.
    #[test]
    fn peak_round_bytes_is_the_n2_elements_of_the_largest_offload() {
        let mut s = make_server(0);
        let obj = ObjectId(0);
        let offload = |s: &mut L1Server, z: u64, len: usize| {
            let tag = Tag::new(z, crate::tag::ClientId(3));
            step(
                s,
                ProcessId(77),
                LdsMessage::PutData {
                    obj,
                    op: OpId::default(),
                    tag,
                    value: Value::new(vec![7u8; len]),
                },
            );
            let mut out = Vec::new();
            for origin in 0..3 {
                out.extend(step(
                    s,
                    ProcessId(origin),
                    LdsMessage::BcastDeliver {
                        obj,
                        tag,
                        origin: ProcessId(origin),
                    },
                ));
            }
            out.into_iter()
                .filter_map(|(_, m)| match m {
                    LdsMessage::WriteCodeElem { element, .. } => Some(element.len()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(s.peak_round_bytes(), 0, "nothing offloaded yet");
        let elements = offload(&mut s, 1, 256 << 10);
        assert_eq!(elements, [157_293; 5], "one WRITE-CODE-ELEM per L2 server");
        assert_eq!(s.peak_round_bytes(), 786_465);
        // A smaller offload later leaves the maximum where it was.
        offload(&mut s, 2, 4096);
        assert_eq!(s.peak_round_bytes(), 786_465);
    }

    #[test]
    fn multi_object_state_is_independent() {
        let mut s = make_server(0);
        let t = Tag::new(1, crate::tag::ClientId(1));
        step(
            &mut s,
            ProcessId(100),
            LdsMessage::PutData {
                obj: ObjectId(7),
                op: OpId::default(),
                tag: t,
                value: Value::from("seven"),
            },
        );
        assert_eq!(committed_tag(&s, ObjectId(7)), Tag::initial());
        assert_eq!(committed_tag(&s, ObjectId(8)), Tag::initial());
        assert_eq!(s.live_list_entries(), 1);
        // Committing on object 7 does not touch object 8.
        for origin in 0..3 {
            step(
                &mut s,
                ProcessId(origin),
                LdsMessage::BcastDeliver {
                    obj: ObjectId(7),
                    tag: t,
                    origin: ProcessId(origin),
                },
            );
        }
        assert_eq!(committed_tag(&s, ObjectId(7)), t);
        assert_eq!(committed_tag(&s, ObjectId(8)), Tag::initial());
    }

    /// The running totals behind `temporary_storage_bytes` /
    /// `metadata_entries` against the full walk, after every step of random
    /// executions of a whole deployment.
    mod running_totals {
        use super::*;
        use crate::{ClientId, L2Server, ReaderClient, WriterClient};
        use proptest::prelude::*;

        const N1: usize = 4;
        const OBJECTS: usize = 8;
        /// Writers at pids 9 and 10, readers at 11 and 12, a repair
        /// coordinator nobody hosts at 13.
        const WRITERS: usize = 9;
        const READERS: usize = 11;
        const COORDINATOR: ProcessId = ProcessId(13);

        /// Bare automata and the messages in flight between them.
        struct Net {
            l1: Vec<L1Server>,
            l2: Vec<L2Server>,
            writers: Vec<WriterClient>,
            readers: Vec<ReaderClient>,
            pending: Vec<(ProcessId, ProcessId, LdsMessage)>,
            /// L1 steps whose totals were compared with the walk.
            checked: usize,
        }

        impl Net {
            fn new() -> Net {
                let (params, membership, backend) = setup();
                let writers: Vec<WriterClient> = (1..=2)
                    .map(|c| WriterClient::new(ClientId(c), params, membership.clone()))
                    .collect();
                Net {
                    l1: (0..N1)
                        .map(|j| {
                            L1Server::new(
                                j,
                                params,
                                membership.clone(),
                                backend.clone(),
                                Profile::PaperFaithful,
                            )
                        })
                        .collect(),
                    l2: (0..params.n2())
                        .map(|i| {
                            L2Server::new(
                                i,
                                membership.clone(),
                                backend.clone(),
                                Profile::PaperFaithful,
                            )
                        })
                        .collect(),
                    writers,
                    readers: (3..=4)
                        .map(|c| {
                            ReaderClient::new(
                                ClientId(c),
                                params,
                                membership.clone(),
                                backend.clone(),
                            )
                        })
                        .collect(),
                    pending: Vec::new(),
                    checked: 0,
                }
            }

            /// Invokes an operation chosen by `choice`, unless its client is
            /// still busy on the object.
            fn invoke(&mut self, choice: usize) {
                let obj = ObjectId((choice / 4 % OBJECTS) as u64);
                let client = choice % 4;
                let (busy, msg) = if client < 2 {
                    let value = Value::new(vec![choice as u8; choice / 64 % 40]);
                    (
                        self.writers[client].is_object_busy(obj),
                        LdsMessage::InvokeWrite { obj, value },
                    )
                } else {
                    (
                        self.readers[client - 2].is_object_busy(obj),
                        LdsMessage::InvokeRead { obj },
                    )
                };
                if !busy {
                    let to = ProcessId(WRITERS + client);
                    self.pending.push((ProcessId::EXTERNAL, to, msg));
                    self.deliver(self.pending.len() - 1);
                }
            }

            /// Delivers the oldest message of the channel `pending[k]` is on
            /// (channels are FIFO, as in the cluster runtime) and checks the
            /// totals of the L1 server that took the step.
            fn deliver(&mut self, k: usize) {
                let (from, to) = (self.pending[k].0, self.pending[k].1);
                let first = self
                    .pending
                    .iter()
                    .position(|(f, t, _)| (*f, *t) == (from, to))
                    .expect("pending[k] is on that channel");
                let (_, _, msg) = self.pending.remove(first);
                let (mut outgoing, mut events) = (Vec::new(), Vec::new());
                let mut ctx = Context::standalone(
                    to,
                    crate::process::SimTime::ZERO,
                    &mut outgoing,
                    &mut events,
                );
                match to.0 {
                    j if j < N1 => {
                        let server = &mut self.l1[j];
                        server.on_message(from, msg, &mut ctx);
                        assert_eq!(server.totals, server.recounted_totals(), "L1 {j}");
                        self.checked += 1;
                    }
                    i if i < WRITERS => self.l2[i - N1].on_message(from, msg, &mut ctx),
                    w if w < READERS => self.writers[w - WRITERS].on_message(from, msg, &mut ctx),
                    r if r < COORDINATOR.0 => {
                        self.readers[r - READERS].on_message(from, msg, &mut ctx)
                    }
                    _ => {} // the coordinator's completion report
                }
                self.pending
                    .extend(outgoing.into_iter().map(|(dest, m)| (to, dest, m)));
            }

            /// Crashes L1 server `j` — its state and the messages on their
            /// way to it are lost — and starts its rebuilding replacement.
            fn crash_and_rebuild(&mut self, j: usize) {
                let (params, membership, backend) = setup();
                self.pending.retain(|(_, to, _)| *to != ProcessId(j));
                self.l1[j] = L1Server::rebuilding(
                    j,
                    params,
                    membership,
                    backend,
                    Profile::PaperFaithful,
                    N1 - 1,
                    COORDINATOR,
                );
                for helper in (0..N1).filter(|&h| h != j) {
                    let help = LdsMessage::RepairHelp {
                        obj: ObjectId(0),
                        failed: ProcessId(j),
                    };
                    self.pending.push((COORDINATOR, ProcessId(helper), help));
                }
            }

            fn settle(&mut self) {
                while !self.pending.is_empty() {
                    self.deliver(0);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Writes, reads served from L1 and
            /// regenerated from L2, and one crash with a rebuild from
            /// `RepairHelp` / `RepairShare` / `RepairDone`, interleaved at
            /// random.
            #[test]
            fn totals_match_the_full_walk_after_every_step(
                choices in proptest::collection::vec(any::<u32>(), 400..900),
                crash_at in 150usize..400,
                crashed in 0usize..N1,
            ) {
                let mut net = Net::new();
                for (n, choice) in choices.into_iter().enumerate() {
                    let choice = choice as usize;
                    if n == crash_at {
                        net.crash_and_rebuild(crashed);
                    } else if choice.is_multiple_of(5) || net.pending.is_empty() {
                        net.invoke(choice / 5);
                    } else {
                        net.deliver(choice / 5 % net.pending.len());
                    }
                }
                net.settle();
                prop_assert!(!net.l1[crashed].is_rebuilding(), "the rebuild finished");
                // Everything is offloaded by now: these reads are cold.
                for obj in 0..OBJECTS {
                    net.invoke(2 + 4 * obj);
                }
                net.settle();
                prop_assert!(net.checked > 200, "only {} L1 steps", net.checked);
                prop_assert!(net.l1.iter().all(|s| s.metadata_entries() > 0));
            }
        }
    }
}
