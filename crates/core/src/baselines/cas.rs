//! A coded atomic storage (CAS-style) baseline in the spirit of Cadambe,
//! Lynch, Médard and Musial (the paper's ref. \[6\]).
//!
//! Single layer of `n` servers storing Reed–Solomon coded elements; quorums
//! have size `⌈(n + k)/2⌉` so that any two quorums intersect in at least `k`
//! servers. A write proceeds in three phases (query tag → pre-write coded
//! elements → finalise); a read queries the highest finalised tag and then
//! collects `k` coded elements for it.
//!
//! This is a faithful-but-compact rendition of the CAS structure sufficient
//! for the cost comparisons of experiment E8; it is not a drop-in
//! re-implementation of every CAS variant (e.g. gossip-based garbage
//! collection is omitted).

use super::server_index;
use super::BaselineMessage;
use crate::membership::ServerSet;
use crate::messages::ProtocolEvent;
use crate::tag::{ClientId, ObjectId, OpId, Tag};
use crate::value::Value;
use lds_codes::rs::ReedSolomon;
use lds_codes::{ErasureCode, Share};
use lds_sim::{Context, Process, ProcessId, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Label attached to a stored coded element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Pre,
    Fin,
}

/// A CAS server storing labelled coded elements.
pub struct CasServer {
    index: usize,
    objects: HashMap<ObjectId, BTreeMap<Tag, (Option<Share>, Label)>>,
}

impl CasServer {
    /// Creates a CAS server with code index `index`.
    pub fn new(index: usize) -> Self {
        CasServer {
            index,
            objects: HashMap::new(),
        }
    }

    /// Bytes of coded data stored across all objects and tags.
    pub fn storage_bytes(&self) -> usize {
        self.objects
            .values()
            .flat_map(|m| m.values())
            .filter_map(|(s, _)| s.as_ref().map(|s| s.data.len()))
            .sum()
    }

    /// This server's code index.
    pub fn index(&self) -> usize {
        self.index
    }

    fn highest_fin_tag(&self, obj: ObjectId) -> Tag {
        self.objects
            .get(&obj)
            .and_then(|m| {
                m.iter()
                    .rev()
                    .find(|(_, (_, label))| *label == Label::Fin)
                    .map(|(t, _)| *t)
            })
            .unwrap_or_else(Tag::initial)
    }
}

impl Process<BaselineMessage, ProtocolEvent> for CasServer {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BaselineMessage,
        ctx: &mut Context<'_, BaselineMessage, ProtocolEvent>,
    ) {
        match msg {
            BaselineMessage::QueryTag { obj, op } => {
                let tag = self.highest_fin_tag(obj);
                ctx.send(from, BaselineMessage::TagResp { obj, op, tag });
            }
            BaselineMessage::PreWrite {
                obj,
                op,
                tag,
                element,
            } => {
                self.objects
                    .entry(obj)
                    .or_default()
                    .entry(tag)
                    .and_modify(|e| e.0 = Some(element.clone()))
                    .or_insert((Some(element), Label::Pre));
                ctx.send(from, BaselineMessage::Ack { obj, op, tag });
            }
            BaselineMessage::Finalize { obj, op, tag } => {
                self.objects
                    .entry(obj)
                    .or_default()
                    .entry(tag)
                    .and_modify(|e| e.1 = Label::Fin)
                    .or_insert((None, Label::Fin));
                ctx.send(from, BaselineMessage::Ack { obj, op, tag });
            }
            BaselineMessage::QueryElem { obj, op, tag } => {
                let element = self
                    .objects
                    .get(&obj)
                    .and_then(|m| m.get(&tag))
                    .and_then(|(s, _)| s.clone());
                ctx.send(
                    from,
                    BaselineMessage::ElemResp {
                        obj,
                        op,
                        tag,
                        element,
                    },
                );
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    WriteQueryTag,
    PreWrite,
    Finalize,
    ReadQueryTag,
    CollectElems,
}

struct CurrentOp {
    op: OpId,
    obj: ObjectId,
    invoked_at: SimTime,
    phase: Phase,
    value: Value,
    /// The highest tag the query phase has seen, then the operation's tag.
    tag: Tag,
    /// Servers that answered the query phase.
    tag_responders: ServerSet,
    /// Servers that acknowledged the current write phase.
    acks: ServerSet,
    elements: HashMap<usize, Share>,
    elem_responders: ServerSet,
}

/// A CAS client performing reads and writes.
pub struct CasClient {
    id: ClientId,
    servers: Vec<ProcessId>,
    code: Arc<ReedSolomon>,
    next_seq: u64,
    current: Option<CurrentOp>,
}

impl CasClient {
    /// Creates a client for a CAS deployment of `servers.len()` servers with
    /// reconstruction threshold `k`.
    ///
    /// # Panics
    ///
    /// Panics if the Reed–Solomon code cannot be constructed for
    /// `(n, k)`, or if there are more servers than a [`ServerSet`] holds.
    pub fn new(id: ClientId, servers: Vec<ProcessId>, k: usize) -> Self {
        assert!(servers.len() <= ServerSet::CAPACITY, "too many servers");
        let code = ReedSolomon::with_dimensions(servers.len(), k)
            .expect("valid (n, k) for the CAS baseline");
        CasClient {
            id,
            servers,
            code: Arc::new(code),
            next_seq: 0,
            current: None,
        }
    }

    /// Quorum size `⌈(n + k)/2⌉`.
    pub fn quorum(&self) -> usize {
        (self.servers.len() + self.code.params().k()).div_ceil(2)
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }
}

impl Process<BaselineMessage, ProtocolEvent> for CasClient {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BaselineMessage,
        ctx: &mut Context<'_, BaselineMessage, ProtocolEvent>,
    ) {
        match msg {
            BaselineMessage::InvokeWrite { obj, value } => {
                assert!(self.current.is_none(), "CAS clients must be well-formed");
                let op = OpId::new(self.id, self.next_seq);
                self.next_seq += 1;
                self.current = Some(CurrentOp {
                    op,
                    obj,
                    invoked_at: ctx.now(),
                    phase: Phase::WriteQueryTag,
                    value,
                    tag: Tag::initial(),
                    tag_responders: ServerSet::default(),
                    acks: ServerSet::default(),
                    elements: HashMap::new(),
                    elem_responders: ServerSet::default(),
                });
                ctx.send_all(
                    self.servers.iter().copied(),
                    BaselineMessage::QueryTag { obj, op },
                );
            }
            BaselineMessage::InvokeRead { obj } => {
                assert!(self.current.is_none(), "CAS clients must be well-formed");
                let op = OpId::new(self.id, self.next_seq);
                self.next_seq += 1;
                self.current = Some(CurrentOp {
                    op,
                    obj,
                    invoked_at: ctx.now(),
                    phase: Phase::ReadQueryTag,
                    value: Value::initial(),
                    tag: Tag::initial(),
                    tag_responders: ServerSet::default(),
                    acks: ServerSet::default(),
                    elements: HashMap::new(),
                    elem_responders: ServerSet::default(),
                });
                ctx.send_all(
                    self.servers.iter().copied(),
                    BaselineMessage::QueryTag { obj, op },
                );
            }
            BaselineMessage::TagResp { op, tag, .. } => {
                let quorum = self.quorum();
                let servers = self.servers.clone();
                let id = self.id;
                let code = Arc::clone(&self.code);
                let (Some(cur), Some(server)) =
                    (self.current.as_mut(), server_index(&servers, from))
                else {
                    return;
                };
                if cur.op != op
                    || !(cur.phase == Phase::WriteQueryTag || cur.phase == Phase::ReadQueryTag)
                    || !cur.tag_responders.insert(server)
                {
                    return;
                }
                cur.tag = cur.tag.max(tag);
                if cur.tag_responders.len() < quorum {
                    return;
                }
                if cur.phase == Phase::WriteQueryTag {
                    cur.tag = cur.tag.next(id);
                    cur.phase = Phase::PreWrite;
                    let obj = cur.obj;
                    let op = cur.op;
                    let tag = cur.tag;
                    let value = cur.value.clone();
                    for (i, &server) in servers.iter().enumerate() {
                        let element = code
                            .encode_share(value.as_bytes(), i)
                            .expect("indices are within the code length");
                        ctx.send(
                            server,
                            BaselineMessage::PreWrite {
                                obj,
                                op,
                                tag,
                                element,
                            },
                        );
                    }
                } else {
                    cur.phase = Phase::CollectElems;
                    let msg = BaselineMessage::QueryElem {
                        obj: cur.obj,
                        op: cur.op,
                        tag: cur.tag,
                    };
                    ctx.send_all(servers, msg);
                }
            }
            BaselineMessage::Ack { op, tag, .. } => {
                let quorum = self.quorum();
                let servers = self.servers.clone();
                let (Some(cur), Some(server)) =
                    (self.current.as_mut(), server_index(&servers, from))
                else {
                    return;
                };
                if cur.op != op || cur.tag != tag {
                    return;
                }
                match cur.phase {
                    Phase::PreWrite => {
                        cur.acks.insert(server);
                        if cur.acks.len() >= quorum {
                            cur.acks = ServerSet::default();
                            cur.phase = Phase::Finalize;
                            let msg = BaselineMessage::Finalize {
                                obj: cur.obj,
                                op: cur.op,
                                tag,
                            };
                            ctx.send_all(servers, msg);
                        }
                    }
                    Phase::Finalize => {
                        cur.acks.insert(server);
                        if cur.acks.len() >= quorum {
                            let done = self.current.take().expect("checked above");
                            ctx.emit(ProtocolEvent::WriteCompleted {
                                op: done.op,
                                obj: done.obj,
                                tag: done.tag,
                                value: done.value,
                                invoked_at: done.invoked_at,
                            });
                        }
                    }
                    _ => {}
                }
            }
            BaselineMessage::ElemResp {
                op, tag, element, ..
            } => {
                let quorum = self.quorum();
                let k = self.code.params().k();
                let code = Arc::clone(&self.code);
                let (Some(cur), Some(server)) =
                    (self.current.as_mut(), server_index(&self.servers, from))
                else {
                    return;
                };
                if cur.op != op || cur.phase != Phase::CollectElems || cur.tag != tag {
                    return;
                }
                cur.elem_responders.insert(server);
                if let Some(share) = element {
                    cur.elements.insert(share.index, share);
                }
                let decoded = if cur.tag.is_initial() {
                    // Initial value: nothing was ever written.
                    if cur.elem_responders.len() >= quorum {
                        Some(Vec::new())
                    } else {
                        None
                    }
                } else if cur.elements.len() >= k {
                    let shares: Vec<Share> = cur.elements.values().cloned().collect();
                    code.decode(&shares).ok()
                } else {
                    None
                };
                let Some(bytes) = decoded else { return };
                let done = self.current.take().expect("checked above");
                ctx.emit(ProtocolEvent::ReadCompleted {
                    op: done.op,
                    obj: done.obj,
                    tag: done.tag,
                    value: Value::new(bytes),
                    invoked_at: done.invoked_at,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::History;
    use lds_sim::{SimConfig, Simulation};

    fn build(
        n: usize,
        k: usize,
        clients: usize,
    ) -> (
        Simulation<BaselineMessage, ProtocolEvent>,
        Vec<ProcessId>,
        Vec<ProcessId>,
    ) {
        let mut sim = Simulation::new(SimConfig::with_seed(3));
        let servers: Vec<ProcessId> = (0..n).map(|i| sim.spawn(CasServer::new(i), 1)).collect();
        let client_pids: Vec<ProcessId> = (0..clients)
            .map(|i| {
                sim.spawn(
                    CasClient::new(ClientId(i as u64 + 1), servers.clone(), k),
                    0,
                )
            })
            .collect();
        (sim, servers, client_pids)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let (mut sim, servers, clients) = build(6, 3, 2);
        sim.inject_at(
            0.0,
            clients[0],
            BaselineMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("coded atomic storage"),
            },
        );
        sim.inject_at(
            100.0,
            clients[1],
            BaselineMessage::InvokeRead { obj: ObjectId(0) },
        );
        sim.run();
        let events = sim.events();
        assert_eq!(events.len(), 2);
        match &events[1].2 {
            ProtocolEvent::ReadCompleted { value, .. } => {
                assert_eq!(value.as_bytes(), b"coded atomic storage")
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Each server stores roughly |v|/k, not the full value.
        let per_server = sim
            .process_ref::<CasServer>(servers[0])
            .unwrap()
            .storage_bytes();
        assert!(per_server < "coded atomic storage".len());
    }

    #[test]
    fn read_before_any_write_returns_initial_value() {
        let (mut sim, _servers, clients) = build(5, 2, 1);
        sim.inject_at(
            0.0,
            clients[0],
            BaselineMessage::InvokeRead { obj: ObjectId(0) },
        );
        sim.run();
        match &sim.events()[0].2 {
            ProtocolEvent::ReadCompleted { value, .. } => assert!(value.is_empty()),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn interleaved_operations_are_atomic() {
        let (mut sim, _servers, clients) = build(6, 3, 2);
        for round in 0..4u64 {
            let t = round as f64 * 9.0;
            sim.inject_at(
                t,
                clients[0],
                BaselineMessage::InvokeWrite {
                    obj: ObjectId(0),
                    value: Value::new(format!("cas{round}").into_bytes()),
                },
            );
            sim.inject_at(
                t + 2.0,
                clients[1],
                BaselineMessage::InvokeRead { obj: ObjectId(0) },
            );
        }
        sim.run();
        let events = sim.take_events();
        assert_eq!(events.len(), 8);
        let history = History::from_events(events.into_iter().map(|(t, _, e)| (e, t)));
        assert!(history.check_atomicity().is_ok());
        assert!(history.check_linearizable_search().is_ok());
    }
}
