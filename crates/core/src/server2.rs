//! The L2 (back-end) server automaton — Fig. 3 of the paper.
//!
//! An L2 server stores, for each object, exactly one `(tag, coded-element)`
//! pair: the element of the code `C2` for the highest tag it has seen. It
//! answers two kinds of requests from L1 servers: `WRITE-CODE-ELEM` (part of
//! an internal `write-to-L2`) and `QUERY-CODE-ELEM` (part of an internal
//! `regenerate-from-L2`, for which it computes MBR helper data).
//!
//! # Online node repair
//!
//! Beyond the paper's static model, the automaton supports **online repair**
//! of a crashed peer (driven by the cluster runtime's repair coordinator):
//!
//! * As a **helper**, a live server answers [`LdsMessage::RepairHelp`] by
//!   streaming one [`LdsMessage::RepairShare`] per stored object — the repair
//!   symbol for the failed server's coded element, computed through
//!   [`BackendCodec::helper_for_l2`] (MBR ships the `β`-sized product-matrix
//!   helper; fallback backends ship their whole element) — terminated by a
//!   [`LdsMessage::RepairDone`].
//! * As a **replacement**, a server constructed with [`L2Server::rebuilding`]
//!   accumulates repair shares, stays *silent* on `QUERY-CODE-ELEM` (it must
//!   not answer reads from incomplete state — for budget purposes it is still
//!   crashed), but absorbs concurrent `WRITE-CODE-ELEM` traffic so in-flight
//!   writes catch it up. Once every announced helper has finished, it
//!   regenerates each object at the highest tag with at least
//!   [`BackendCodec::repair_threshold`] matching helpers — which covers every
//!   completed `write-to-L2` — merges tag-wise with what the live stream
//!   already delivered, reports bandwidth accounting to the coordinator and
//!   goes live. A write whose `WRITE-CODE-ELEM` to the crashed pid was
//!   dropped in the dead window *and* whose tag straddles the helper
//!   snapshots can leave the replacement one tag behind on that object —
//!   which is safe: that write completed with `n2 − f2` acks from the *old*
//!   servers, so even after the restored budget is spent on another crash,
//!   at least `n2 − 2 = 2·f2 + d − 2 ≥ d` live servers still hold the tag
//!   and every regenerate-from-L2 quorum can reach it without the
//!   replacement's copy.

use crate::backend::BackendCodec;
use crate::idmap::IdMap;
use crate::membership::Membership;
use crate::messages::{LdsMessage, ProtocolEvent, RepairPayload};
use crate::params::Profile;
use crate::process::{Context, Process, ProcessId};
use crate::tag::{ObjectId, Tag};
use lds_codes::{HelperData, Share};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Accumulated state of a replacement server while it regenerates from its
/// helpers (see the [module docs](self)).
struct L2Rebuild {
    /// `RepairDone` markers to expect (helpers × helper worker shards).
    expected_dones: usize,
    /// Markers received so far.
    dones: usize,
    /// Where to report completion and bandwidth accounting.
    report_to: ProcessId,
    /// Per object, per tag: the helper symbols received.
    pending: IdMap<ObjectId, BTreeMap<Tag, Vec<HelperData>>>,
    /// Repair payload bytes received per helper process.
    bytes_by_helper: BTreeMap<ProcessId, u64>,
    /// What the same payloads would have cost as full stored elements
    /// (accumulated on receipt, so objects that never reach a repair quorum
    /// are accounted consistently on both sides of the comparison).
    fallback_bytes: u64,
}

/// The L2 server automaton.
pub struct L2Server {
    /// This server's index `i` (0-based position in the L2 list; its code
    /// symbol index is `n1 + i`).
    index: usize,
    membership: Membership,
    backend: Arc<dyn BackendCodec>,
    /// Decides one thing here: whether `WRITE-CODE-ELEM` is acknowledged.
    profile: Profile,
    /// Per-object `(tag, coded element)` — exactly one pair per object.
    objects: IdMap<ObjectId, (Tag, Share)>,
    /// `Some` while this server is a replacement regenerating from helpers.
    rebuild: Option<L2Rebuild>,
}

impl L2Server {
    /// Creates the L2 server with layer index `index`.
    pub fn new(
        index: usize,
        membership: Membership,
        backend: Arc<dyn BackendCodec>,
        profile: Profile,
    ) -> Self {
        assert!(index < membership.n2(), "L2 index out of range");
        L2Server {
            index,
            membership,
            backend,
            profile,
            objects: IdMap::default(),
            rebuild: None,
        }
    }

    /// Creates a **replacement** L2 server in rebuilding mode: it stays
    /// silent on `QUERY-CODE-ELEM`, absorbs live `WRITE-CODE-ELEM` traffic,
    /// accumulates [`LdsMessage::RepairShare`]s and goes live once
    /// `expected_dones` [`LdsMessage::RepairDone`] markers have arrived
    /// (reporting its accounting to `report_to`).
    pub fn rebuilding(
        index: usize,
        membership: Membership,
        backend: Arc<dyn BackendCodec>,
        profile: Profile,
        expected_dones: usize,
        report_to: ProcessId,
    ) -> Self {
        let mut server = L2Server::new(index, membership, backend, profile);
        server.rebuild = Some(L2Rebuild {
            expected_dones,
            dones: 0,
            report_to,
            pending: IdMap::default(),
            bytes_by_helper: BTreeMap::new(),
            fallback_bytes: 0,
        });
        server
    }

    /// This server's index within L2.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the server is still regenerating from helpers (not yet
    /// answering `QUERY-CODE-ELEM`).
    pub fn is_rebuilding(&self) -> bool {
        self.rebuild.is_some()
    }

    /// The tag of the element currently stored for `obj` (the initial tag if
    /// the object was never written).
    pub fn stored_tag(&self, obj: ObjectId) -> Tag {
        self.objects
            .get(&obj)
            .map(|(t, _)| *t)
            .unwrap_or_else(Tag::initial)
    }

    /// Bytes of coded data stored across all objects (the paper's permanent
    /// storage cost, un-normalised). Objects that were never written are
    /// counted with their initial (empty value) element.
    pub fn storage_bytes(&self) -> usize {
        self.objects
            .values()
            .map(|(_, share)| share.data.len())
            .sum()
    }

    /// Number of objects for which this server holds an element.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// `write-to-L2-resp`: stores `element` for `obj` if `tag` is the
    /// highest seen and, in the paper profile, acknowledges the write.
    fn commit_element(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        tag: Tag,
        element: Share,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        let entry = self.entry(obj);
        if tag > entry.0 {
            *entry = (tag, element);
        }
        // The acks only feed the L1 offload counters, whose sole effect is
        // replacing the committed value by ⊥; `HighThroughput` keeps that
        // value to serve reads from L1, so it saves the n2 acks per offload.
        if self.profile == Profile::PaperFaithful {
            ctx.send(from, LdsMessage::AckCodeElem { obj, tag });
        }
    }

    fn entry(&mut self, obj: ObjectId) -> &mut (Tag, Share) {
        let (index, backend) = (self.index, &self.backend);
        self.objects
            .entry(obj)
            .or_insert_with(|| (Tag::initial(), backend.initial_l2_element(index)))
    }

    /// Helper role: stream repair symbols for every stored object to the
    /// replacement of crashed L2 server `failed`, then an end-of-stream
    /// marker counting them.
    fn on_repair_help(
        &mut self,
        failed: ProcessId,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        if self.rebuild.is_some() {
            return; // a rebuilding server cannot help anyone
        }
        let Some(failed_index) = self.membership.l2_index_of(failed) else {
            return; // not an L2 repair — addressed to the wrong layer
        };
        if failed_index == self.index {
            return;
        }
        let mut sent = 0u64;
        for (&obj, (tag, element)) in &self.objects {
            if *tag == Tag::initial() {
                continue; // replacements start from the initial element anyway
            }
            match self
                .backend
                .helper_for_l2(element, self.index, failed_index)
            {
                Ok(helper) => {
                    ctx.send(
                        failed,
                        LdsMessage::RepairShare {
                            obj,
                            payload: RepairPayload::Element {
                                tag: *tag,
                                element_len: element.data.len() as u64,
                                helper,
                            },
                        },
                    );
                    sent += 1;
                }
                Err(err) => {
                    debug_assert!(false, "repair helper computation failed: {err}");
                }
            }
        }
        // The cluster transport routes RepairDone after the shares on every
        // channel (both are dispatched immediately, in send order).
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

    /// Replacement role: accumulate one helper's repair symbol.
    fn on_repair_share(
        &mut self,
        from: ProcessId,
        obj: ObjectId,
        tag: Tag,
        element_len: u64,
        helper: HelperData,
    ) {
        let Some(rebuild) = self.rebuild.as_mut() else {
            return; // stale share for an already-completed repair
        };
        let shares = rebuild
            .pending
            .entry(obj)
            .or_default()
            .entry(tag)
            .or_default();
        // A helper still streaming for an earlier, abandoned attempt at this
        // repair sends the same symbol twice. Counting it twice would let
        // the quorum check pass on fewer distinct helpers than regeneration
        // needs.
        if shares.iter().any(|h| h.helper_index == helper.helper_index) {
            return;
        }
        *rebuild.bytes_by_helper.entry(from).or_insert(0) += helper.data.len() as u64;
        rebuild.fallback_bytes += element_len;
        shares.push(helper);
    }

    /// Replacement role: count an end-of-stream marker; on the last one,
    /// regenerate everything, report, and go live.
    fn on_repair_done(&mut self, ctx: &mut Context<'_, LdsMessage, ProtocolEvent>) {
        let Some(rebuild) = self.rebuild.as_mut() else {
            return;
        };
        rebuild.dones += 1;
        if rebuild.dones < rebuild.expected_dones {
            return;
        }
        let rebuild = self.rebuild.take().expect("checked above");
        let threshold = self.backend.repair_threshold();
        let mut objects_restored = 0u64;
        for (obj, by_tag) in rebuild.pending {
            // Highest tag with a repair quorum wins: every *completed*
            // write-to-L2 placed its tag on at least `threshold` live
            // helpers, so the regenerated element is at least as fresh as
            // anything a reader could depend on. (An object mid-commit at
            // snapshot time may have its helpers split across two adjacent
            // tags with neither reaching the quorum — it is caught up by
            // the concurrent WRITE-CODE-ELEM stream instead; both its
            // payload bytes and its fallback bytes were already accounted
            // on receipt, so the bandwidth comparison stays consistent.)
            for (tag, mut helpers) in by_tag.into_iter().rev() {
                if helpers.len() < threshold {
                    continue;
                }
                // Deterministic helper subset: plan-cache hits across objects
                // (and across repairs) instead of one inversion per arrival
                // order.
                helpers.sort_by_key(|h| h.helper_index);
                match self.backend.regenerate_l2(self.index, &helpers) {
                    Ok(share) => {
                        objects_restored += 1;
                        let entry = self.entry(obj);
                        // Tag-wise merge with whatever the concurrent
                        // WRITE-CODE-ELEM stream already delivered.
                        if tag > entry.0 {
                            *entry = (tag, share);
                        }
                    }
                    Err(err) => {
                        debug_assert!(false, "L2 regeneration failed: {err}");
                    }
                }
                break;
            }
        }
        ctx.send(
            rebuild.report_to,
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects: objects_restored,
                bytes_by_helper: rebuild.bytes_by_helper.into_iter().collect(),
                fallback_bytes: rebuild.fallback_bytes,
            },
        );
    }
}

impl Process<LdsMessage, ProtocolEvent> for L2Server {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: LdsMessage,
        ctx: &mut Context<'_, LdsMessage, ProtocolEvent>,
    ) {
        match msg {
            // write-to-L2-resp: keep the element for the highest tag seen.
            // Processed even while rebuilding — this is how a replacement
            // catches up on writes that are in flight during its repair.
            LdsMessage::WriteCodeElem { obj, tag, element } => {
                self.commit_element(from, obj, tag, element, ctx)
            }
            // regenerate-from-L2-resp: compute helper data for the requesting
            // L1 server's code index and send it back with the stored tag.
            LdsMessage::QueryCodeElem { obj, reader, op } => {
                if self.rebuild.is_some() {
                    // A replacement must not answer reads from incomplete
                    // state: for failure-budget purposes it is still crashed.
                    return;
                }
                let Some(l1_index) = self.membership.l1_index_of(from) else {
                    return; // not an L1 server; ignore
                };
                // The helper is computed from the stored element where it
                // lies: β bytes out, no copy of the α-times-larger element.
                let backend = Arc::clone(&self.backend);
                let index = self.index;
                let (tag, element) = self.entry(obj);
                let tag = *tag;
                match backend.helper_for_l1(element, index, l1_index) {
                    Ok(helper) => ctx.send(
                        from,
                        LdsMessage::SendHelperElem {
                            obj,
                            reader,
                            op,
                            tag,
                            helper,
                        },
                    ),
                    Err(err) => {
                        debug_assert!(false, "helper computation failed: {err}");
                    }
                }
            }
            LdsMessage::RepairHelp { failed, .. } => self.on_repair_help(failed, ctx),
            LdsMessage::RepairShare {
                obj,
                payload:
                    RepairPayload::Element {
                        tag,
                        element_len,
                        helper,
                    },
            } => self.on_repair_share(from, obj, tag, element_len, helper),
            LdsMessage::RepairDone { .. } => self.on_repair_done(ctx),
            // Anything else is not addressed to an L2 server.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{make_backend, BackendKind};
    use crate::params::SystemParams;
    use crate::tag::ClientId;
    use crate::value::Value;

    fn setup() -> (Membership, Arc<dyn BackendCodec>) {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap(); // n1=4, n2=5
        let l1: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let l2: Vec<ProcessId> = (4..9).map(ProcessId).collect();
        (
            Membership::new(l1, l2),
            make_backend(BackendKind::Mbr, &params).unwrap(),
        )
    }

    fn paper_server(
        index: usize,
        membership: &Membership,
        backend: &Arc<dyn BackendCodec>,
    ) -> L2Server {
        L2Server::new(
            index,
            membership.clone(),
            Arc::clone(backend),
            Profile::PaperFaithful,
        )
    }

    fn step(
        server: &mut L2Server,
        from: ProcessId,
        msg: LdsMessage,
    ) -> Vec<(ProcessId, LdsMessage)> {
        let mut outgoing = Vec::new();
        let mut events = Vec::new();
        let mut ctx = Context::standalone(
            ProcessId(100 + server.index),
            crate::process::SimTime::ZERO,
            &mut outgoing,
            &mut events,
        );
        server.on_message(from, msg, &mut ctx);
        outgoing
    }

    #[test]
    fn high_throughput_stores_the_element_without_acknowledging() {
        let (membership, backend) = setup();
        let mut s = L2Server::new(0, membership, Arc::clone(&backend), Profile::HighThroughput);
        let (obj, tag) = (ObjectId(0), Tag::new(1, ClientId(1)));
        let element = backend.encode_l2_element(&Value::from("v"), 0).unwrap();
        let out = step(
            &mut s,
            ProcessId(1),
            LdsMessage::WriteCodeElem { obj, tag, element },
        );
        assert!(out.is_empty());
        assert_eq!(s.stored_tag(obj), tag);
    }

    #[test]
    fn stores_only_the_highest_tag() {
        let (membership, backend) = setup();
        let mut s = paper_server(0, &membership, &backend);
        let obj = ObjectId(0);
        let v1 = Value::from("first");
        let v2 = Value::from("second");
        let t1 = Tag::new(1, ClientId(1));
        let t2 = Tag::new(2, ClientId(1));

        let e1 = backend.encode_l2_element(&v1, 0).unwrap();
        let e2 = backend.encode_l2_element(&v2, 0).unwrap();

        // Deliver the higher tag first, then the lower one.
        let out = step(
            &mut s,
            ProcessId(1),
            LdsMessage::WriteCodeElem {
                obj,
                tag: t2,
                element: e2.clone(),
            },
        );
        assert!(matches!(out[0].1, LdsMessage::AckCodeElem { tag, .. } if tag == t2));
        let out = step(
            &mut s,
            ProcessId(1),
            LdsMessage::WriteCodeElem {
                obj,
                tag: t1,
                element: e1,
            },
        );
        // Still acknowledges (the protocol always acks) but keeps t2.
        assert!(matches!(out[0].1, LdsMessage::AckCodeElem { tag, .. } if tag == t1));
        assert_eq!(s.stored_tag(obj), t2);
        assert_eq!(s.storage_bytes(), e2.data.len());
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn helper_data_is_computed_for_the_requesting_l1_server() {
        let (membership, backend) = setup();
        let mut s = paper_server(2, &membership, &backend);
        let obj = ObjectId(3);
        let value = Value::from("helper source");
        let tag = Tag::new(4, ClientId(2));
        let element = backend.encode_l2_element(&value, 2).unwrap();
        step(
            &mut s,
            membership.l1[1],
            LdsMessage::WriteCodeElem {
                obj,
                tag,
                element: element.clone(),
            },
        );

        let reader = ProcessId(50);
        let out = step(
            &mut s,
            membership.l1[1],
            LdsMessage::QueryCodeElem {
                obj,
                reader,
                op: crate::tag::OpId::default(),
            },
        );
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            LdsMessage::SendHelperElem { tag: t, helper, .. } => {
                assert_eq!(*t, tag);
                let expected = backend.helper_for_l1(&element, 2, 1).unwrap();
                assert_eq!(helper.data, expected.data);
                assert_eq!(helper.failed_index, 1);
            }
            other => panic!("expected helper response, got {other:?}"),
        }
    }

    #[test]
    fn unknown_objects_answer_with_initial_element() {
        let (membership, backend) = setup();
        let mut s = paper_server(1, &membership, &backend);
        let out = step(
            &mut s,
            membership.l1[0],
            LdsMessage::QueryCodeElem {
                obj: ObjectId(42),
                reader: ProcessId(60),
                op: crate::tag::OpId::default(),
            },
        );
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            LdsMessage::SendHelperElem { tag, .. } => assert_eq!(*tag, Tag::initial()),
            other => panic!("expected helper response, got {other:?}"),
        }
    }

    #[test]
    fn queries_from_non_l1_processes_are_ignored() {
        let (membership, backend) = setup();
        let mut s = paper_server(1, &membership, &backend);
        let out = step(
            &mut s,
            ProcessId(999),
            LdsMessage::QueryCodeElem {
                obj: ObjectId(0),
                reader: ProcessId(60),
                op: crate::tag::OpId::default(),
            },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn helpers_stream_repair_shares_then_a_done_marker() {
        let (membership, backend) = setup();
        let mut s = paper_server(1, &membership, &backend);
        let tag = Tag::new(3, ClientId(1));
        for obj in 0..3u64 {
            let value = Value::from(format!("obj {obj}").as_str());
            let element = backend.encode_l2_element(&value, 1).unwrap();
            step(
                &mut s,
                membership.l1[0],
                LdsMessage::WriteCodeElem {
                    obj: ObjectId(obj),
                    tag,
                    element,
                },
            );
        }
        let failed = membership.l2[4];
        let out = step(
            &mut s,
            ProcessId(77),
            LdsMessage::RepairHelp {
                obj: ObjectId(0),
                failed,
            },
        );
        // Three repair shares (one per object) followed by the done marker,
        // all addressed to the failed server's replacement.
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(to, _)| *to == failed));
        for (_, msg) in &out[..3] {
            match msg {
                LdsMessage::RepairShare {
                    payload:
                        RepairPayload::Element {
                            tag: t,
                            element_len,
                            helper,
                        },
                    ..
                } => {
                    assert_eq!(*t, tag);
                    assert_eq!(helper.failed_index, membership.n1() + 4);
                    assert!(*element_len >= helper.data.len() as u64);
                }
                other => panic!("expected repair share, got {other:?}"),
            }
        }
        assert!(
            matches!(out[3].1, LdsMessage::RepairDone { objects: 3, .. }),
            "done marker counts the shares"
        );
        // Repairing itself or a non-L2 process is refused.
        assert!(step(
            &mut s,
            ProcessId(77),
            LdsMessage::RepairHelp {
                obj: ObjectId(0),
                failed: membership.l2[1],
            }
        )
        .is_empty());
        assert!(step(
            &mut s,
            ProcessId(77),
            LdsMessage::RepairHelp {
                obj: ObjectId(0),
                failed: membership.l1[0],
            }
        )
        .is_empty());
    }

    #[test]
    fn rebuilding_server_regenerates_and_goes_live() {
        let (membership, backend) = setup();
        let coordinator = ProcessId(99);
        let failed_index = 2usize;
        // One helper process per live L2 peer, one shard each.
        let helpers: Vec<usize> = (0..5).filter(|&i| i != failed_index).collect();
        let mut s = L2Server::rebuilding(
            failed_index,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
            helpers.len(),
            coordinator,
        );
        assert!(s.is_rebuilding());

        // While rebuilding: reads are refused, writes are absorbed.
        assert!(step(
            &mut s,
            membership.l1[0],
            LdsMessage::QueryCodeElem {
                obj: ObjectId(9),
                reader: ProcessId(60),
                op: crate::tag::OpId::default(),
            },
        )
        .is_empty());

        let obj = ObjectId(7);
        let value = Value::from("regenerate me online");
        let tag = Tag::new(5, ClientId(3));
        // In-flight write for a *newer* tag arrives mid-rebuild on another
        // object: absorbed directly.
        let live_obj = ObjectId(8);
        let live_tag = Tag::new(6, ClientId(4));
        let live_elem = backend
            .encode_l2_element(&Value::from("live"), failed_index)
            .unwrap();
        step(
            &mut s,
            membership.l1[0],
            LdsMessage::WriteCodeElem {
                obj: live_obj,
                tag: live_tag,
                element: live_elem.clone(),
            },
        );

        // Helpers stream their shares for obj, then their done markers.
        for (h, &l2) in helpers.iter().enumerate() {
            let elem = backend.encode_l2_element(&value, l2).unwrap();
            let helper = backend.helper_for_l2(&elem, l2, failed_index).unwrap();
            let out = step(
                &mut s,
                membership.l2[l2],
                LdsMessage::RepairShare {
                    obj,
                    payload: RepairPayload::Element {
                        tag,
                        element_len: elem.data.len() as u64,
                        helper,
                    },
                },
            );
            assert!(out.is_empty());
            let out = step(
                &mut s,
                membership.l2[l2],
                LdsMessage::RepairDone {
                    obj: ObjectId(0),
                    objects: 1,
                    bytes_by_helper: Vec::new(),
                    fallback_bytes: 0,
                },
            );
            if h + 1 < helpers.len() {
                assert!(out.is_empty());
                assert!(s.is_rebuilding());
            } else {
                // Last marker: the report goes to the coordinator.
                assert_eq!(out.len(), 1);
                assert_eq!(out[0].0, coordinator);
                match &out[0].1 {
                    LdsMessage::RepairDone {
                        objects,
                        bytes_by_helper,
                        fallback_bytes,
                        ..
                    } => {
                        assert_eq!(*objects, 1);
                        assert_eq!(bytes_by_helper.len(), helpers.len());
                        let total: u64 = bytes_by_helper.iter().map(|(_, b)| b).sum();
                        assert!(total > 0);
                        // MBR: β-sized helpers are strictly cheaper than the
                        // full-element fallback.
                        assert!(
                            total < *fallback_bytes,
                            "helper bytes {total} !< fallback {fallback_bytes}"
                        );
                    }
                    other => panic!("expected completion report, got {other:?}"),
                }
            }
        }
        assert!(!s.is_rebuilding());

        // The regenerated element is byte-identical to a direct encoding.
        let direct = backend.encode_l2_element(&value, failed_index).unwrap();
        assert_eq!(s.stored_tag(obj), tag);
        let out = step(
            &mut s,
            membership.l1[1],
            LdsMessage::QueryCodeElem {
                obj,
                reader: ProcessId(61),
                op: crate::tag::OpId::default(),
            },
        );
        match &out[0].1 {
            LdsMessage::SendHelperElem { tag: t, helper, .. } => {
                assert_eq!(*t, tag);
                let expected = backend.helper_for_l1(&direct, failed_index, 1).unwrap();
                assert_eq!(helper.data, expected.data);
            }
            other => panic!("expected helper response, got {other:?}"),
        }
        // The mid-rebuild write survived the finalization merge.
        assert_eq!(s.stored_tag(live_obj), live_tag);
    }

    /// A helper still streaming for an earlier, abandoned attempt delivers
    /// its symbol twice. Two distinct helpers plus one repeat are not a
    /// repair quorum of three: the object is left to the live write stream,
    /// and the replacement neither crashes nor double-counts the bytes.
    #[test]
    fn repeated_share_from_one_helper_is_not_a_quorum() {
        let (membership, backend) = setup();
        let coordinator = ProcessId(99);
        let failed_index = 2usize;
        let mut s = L2Server::rebuilding(
            failed_index,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
            1,
            coordinator,
        );
        assert_eq!(backend.repair_threshold(), 3);
        let obj = ObjectId(7);
        let value = Value::from("two helpers are not three");
        let tag = Tag::new(5, ClientId(3));
        for l2 in [0usize, 0, 1] {
            let elem = backend.encode_l2_element(&value, l2).unwrap();
            let helper = backend.helper_for_l2(&elem, l2, failed_index).unwrap();
            step(
                &mut s,
                membership.l2[l2],
                LdsMessage::RepairShare {
                    obj,
                    payload: RepairPayload::Element {
                        tag,
                        element_len: elem.data.len() as u64,
                        helper,
                    },
                },
            );
        }
        let out = step(
            &mut s,
            membership.l2[0],
            LdsMessage::RepairDone {
                obj: ObjectId(0),
                objects: 1,
                bytes_by_helper: Vec::new(),
                fallback_bytes: 0,
            },
        );
        assert!(!s.is_rebuilding());
        match &out[0].1 {
            LdsMessage::RepairDone {
                objects,
                bytes_by_helper,
                ..
            } => {
                assert_eq!(*objects, 0, "no quorum, nothing regenerated");
                let mut by_helper = bytes_by_helper.clone();
                by_helper.sort();
                assert_eq!(by_helper[0].1, by_helper[1].1, "the repeat is not billed");
            }
            other => panic!("expected completion report, got {other:?}"),
        }
        assert_eq!(s.stored_tag(obj), Tag::initial());
    }

    #[test]
    fn rebuild_merge_prefers_newer_inflight_writes() {
        let (membership, backend) = setup();
        let failed_index = 0usize;
        let helpers: Vec<usize> = (1..5).collect();
        let mut s = L2Server::rebuilding(
            failed_index,
            membership.clone(),
            Arc::clone(&backend),
            Profile::PaperFaithful,
            helpers.len(),
            ProcessId(99),
        );
        let obj = ObjectId(1);
        let old = Value::from("old committed");
        let old_tag = Tag::new(2, ClientId(1));
        let new = Value::from("new in-flight");
        let new_tag = Tag::new(3, ClientId(2));
        // The in-flight write for the newer tag lands first.
        let new_elem = backend.encode_l2_element(&new, failed_index).unwrap();
        step(
            &mut s,
            membership.l1[0],
            LdsMessage::WriteCodeElem {
                obj,
                tag: new_tag,
                element: new_elem.clone(),
            },
        );
        // Helpers only know the older committed tag.
        for &l2 in &helpers {
            let elem = backend.encode_l2_element(&old, l2).unwrap();
            let helper = backend.helper_for_l2(&elem, l2, failed_index).unwrap();
            step(
                &mut s,
                membership.l2[l2],
                LdsMessage::RepairShare {
                    obj,
                    payload: RepairPayload::Element {
                        tag: old_tag,
                        element_len: elem.data.len() as u64,
                        helper,
                    },
                },
            );
            step(
                &mut s,
                membership.l2[l2],
                LdsMessage::RepairDone {
                    obj: ObjectId(0),
                    objects: 1,
                    bytes_by_helper: Vec::new(),
                    fallback_bytes: 0,
                },
            );
        }
        assert!(!s.is_rebuilding());
        // The newer in-flight element wins the merge.
        assert_eq!(s.stored_tag(obj), new_tag);
    }
}
