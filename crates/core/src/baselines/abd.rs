//! The ABD multi-writer multi-reader atomic register (Attiya–Bar-Noy–Dolev),
//! the classical replication-based baseline.
//!
//! Single layer of `n` servers tolerating `f < n/2` crashes; quorums are
//! majorities. Writes are two phases (query tags, then store the full value
//! on a majority); reads are two phases (query `(tag, value)` pairs, then
//! write back the chosen pair to a majority).

use super::server_index;
use super::BaselineMessage;
use crate::membership::ServerSet;
use crate::messages::ProtocolEvent;
use crate::tag::{ClientId, ObjectId, OpId, Tag};
use crate::value::Value;
use lds_sim::{Context, Process, ProcessId, SimTime};
use std::collections::HashMap;

/// An ABD replica server.
#[derive(Default)]
pub struct AbdServer {
    objects: HashMap<ObjectId, (Tag, Value)>,
}

impl AbdServer {
    /// Creates an empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes stored across all objects (each replica stores the full value).
    pub fn storage_bytes(&self) -> usize {
        self.objects.values().map(|(_, v)| v.len()).sum()
    }

    /// The tag currently stored for an object.
    pub fn stored_tag(&self, obj: ObjectId) -> Tag {
        self.objects
            .get(&obj)
            .map(|(t, _)| *t)
            .unwrap_or_else(Tag::initial)
    }
}

impl Process<BaselineMessage, ProtocolEvent> for AbdServer {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BaselineMessage,
        ctx: &mut Context<'_, BaselineMessage, ProtocolEvent>,
    ) {
        match msg {
            BaselineMessage::QueryTag { obj, op } => {
                let tag = self.stored_tag(obj);
                ctx.send(from, BaselineMessage::TagResp { obj, op, tag });
            }
            BaselineMessage::QueryValue { obj, op } => {
                let (tag, value) = self
                    .objects
                    .get(&obj)
                    .cloned()
                    .unwrap_or_else(|| (Tag::initial(), Value::initial()));
                ctx.send(
                    from,
                    BaselineMessage::ValueResp {
                        obj,
                        op,
                        tag,
                        value,
                    },
                );
            }
            BaselineMessage::Store {
                obj,
                op,
                tag,
                value,
            } => {
                let entry = self
                    .objects
                    .entry(obj)
                    .or_insert_with(|| (Tag::initial(), Value::initial()));
                if tag > entry.0 {
                    *entry = (tag, value);
                }
                ctx.send(from, BaselineMessage::Ack { obj, op, tag });
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    WriteQuery,
    WriteStore,
    ReadQuery,
    ReadWriteBack,
}

struct CurrentOp {
    op: OpId,
    obj: ObjectId,
    phase: Phase,
    invoked_at: SimTime,
    /// A write's value; for a read, the value of `tag`.
    value: Value,
    /// The highest tag the query phase has seen, then the tag stored.
    tag: Tag,
    /// Replicas that answered the query phase.
    responders: ServerSet,
    /// Replicas that acknowledged the store phase.
    acks: ServerSet,
    is_write: bool,
}

/// An ABD client performing both reads and writes (invoked via
/// [`BaselineMessage::InvokeWrite`] / [`BaselineMessage::InvokeRead`]).
pub struct AbdClient {
    id: ClientId,
    servers: Vec<ProcessId>,
    next_seq: u64,
    current: Option<CurrentOp>,
}

impl AbdClient {
    /// Creates a client that talks to the given replicas.
    ///
    /// # Panics
    ///
    /// Panics if there are more replicas than a [`ServerSet`] holds.
    pub fn new(id: ClientId, servers: Vec<ProcessId>) -> Self {
        assert!(servers.len() <= ServerSet::CAPACITY, "too many replicas");
        AbdClient {
            id,
            servers,
            next_seq: 0,
            current: None,
        }
    }

    fn quorum(&self) -> usize {
        self.servers.len() / 2 + 1
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }
}

impl Process<BaselineMessage, ProtocolEvent> for AbdClient {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BaselineMessage,
        ctx: &mut Context<'_, BaselineMessage, ProtocolEvent>,
    ) {
        match msg {
            BaselineMessage::InvokeWrite { obj, value } => {
                assert!(self.current.is_none(), "ABD clients must be well-formed");
                let op = OpId::new(self.id, self.next_seq);
                self.next_seq += 1;
                self.current = Some(CurrentOp {
                    op,
                    obj,
                    phase: Phase::WriteQuery,
                    invoked_at: ctx.now(),
                    value,
                    tag: Tag::initial(),
                    responders: ServerSet::default(),
                    acks: ServerSet::default(),
                    is_write: true,
                });
                ctx.send_all(
                    self.servers.iter().copied(),
                    BaselineMessage::QueryTag { obj, op },
                );
            }
            BaselineMessage::InvokeRead { obj } => {
                assert!(self.current.is_none(), "ABD clients must be well-formed");
                let op = OpId::new(self.id, self.next_seq);
                self.next_seq += 1;
                self.current = Some(CurrentOp {
                    op,
                    obj,
                    phase: Phase::ReadQuery,
                    invoked_at: ctx.now(),
                    value: Value::initial(),
                    tag: Tag::initial(),
                    responders: ServerSet::default(),
                    acks: ServerSet::default(),
                    is_write: false,
                });
                ctx.send_all(
                    self.servers.iter().copied(),
                    BaselineMessage::QueryValue { obj, op },
                );
            }
            BaselineMessage::TagResp { op, tag, .. } => {
                let quorum = self.quorum();
                let servers = self.servers.clone();
                let id = self.id;
                let (Some(cur), Some(server)) =
                    (self.current.as_mut(), server_index(&servers, from))
                else {
                    return;
                };
                if cur.op != op || cur.phase != Phase::WriteQuery || !cur.responders.insert(server)
                {
                    return;
                }
                cur.tag = cur.tag.max(tag);
                if cur.responders.len() < quorum {
                    return;
                }
                cur.tag = cur.tag.next(id);
                cur.phase = Phase::WriteStore;
                let msg = BaselineMessage::Store {
                    obj: cur.obj,
                    op: cur.op,
                    tag: cur.tag,
                    value: cur.value.clone(),
                };
                ctx.send_all(servers, msg);
            }
            BaselineMessage::ValueResp { op, tag, value, .. } => {
                let quorum = self.quorum();
                let servers = self.servers.clone();
                let (Some(cur), Some(server)) =
                    (self.current.as_mut(), server_index(&servers, from))
                else {
                    return;
                };
                if cur.op != op || cur.phase != Phase::ReadQuery || !cur.responders.insert(server) {
                    return;
                }
                if tag > cur.tag {
                    (cur.tag, cur.value) = (tag, value);
                }
                if cur.responders.len() < quorum {
                    return;
                }
                cur.phase = Phase::ReadWriteBack;
                let msg = BaselineMessage::Store {
                    obj: cur.obj,
                    op: cur.op,
                    tag: cur.tag,
                    value: cur.value.clone(),
                };
                ctx.send_all(servers, msg);
            }
            BaselineMessage::Ack { op, .. } => {
                let quorum = self.quorum();
                let (Some(cur), Some(server)) =
                    (self.current.as_mut(), server_index(&self.servers, from))
                else {
                    return;
                };
                if cur.op != op
                    || !(cur.phase == Phase::WriteStore || cur.phase == Phase::ReadWriteBack)
                {
                    return;
                }
                cur.acks.insert(server);
                if cur.acks.len() < quorum {
                    return;
                }
                let done = self.current.take().expect("checked above");
                let event = if done.is_write {
                    ProtocolEvent::WriteCompleted {
                        op: done.op,
                        obj: done.obj,
                        tag: done.tag,
                        value: done.value,
                        invoked_at: done.invoked_at,
                    }
                } else {
                    ProtocolEvent::ReadCompleted {
                        op: done.op,
                        obj: done.obj,
                        tag: done.tag,
                        value: done.value,
                        invoked_at: done.invoked_at,
                    }
                };
                ctx.emit(event);
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
        clients: usize,
    ) -> (
        Simulation<BaselineMessage, ProtocolEvent>,
        Vec<ProcessId>,
        Vec<ProcessId>,
    ) {
        let mut sim = Simulation::new(SimConfig::with_seed(11));
        let servers: Vec<ProcessId> = (0..n).map(|_| sim.spawn(AbdServer::new(), 1)).collect();
        let client_ids: Vec<ProcessId> = (0..clients)
            .map(|i| sim.spawn(AbdClient::new(ClientId(i as u64 + 1), servers.clone()), 0))
            .collect();
        (sim, servers, client_ids)
    }

    #[test]
    fn write_then_read_returns_value() {
        let (mut sim, servers, clients) = build(5, 2);
        sim.inject_at(
            0.0,
            clients[0],
            BaselineMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("abd value"),
            },
        );
        sim.inject_at(
            50.0,
            clients[1],
            BaselineMessage::InvokeRead { obj: ObjectId(0) },
        );
        sim.run();
        let events = sim.events();
        assert_eq!(events.len(), 2);
        match &events[1].2 {
            ProtocolEvent::ReadCompleted { value, .. } => {
                assert_eq!(value.as_bytes(), b"abd value")
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Every replica that processed the store holds the full value.
        let stored: usize = servers
            .iter()
            .map(|&s| sim.process_ref::<AbdServer>(s).unwrap().storage_bytes())
            .sum();
        assert!(stored >= 3 * "abd value".len());
    }

    #[test]
    fn concurrent_operations_remain_atomic() {
        let (mut sim, _servers, clients) = build(5, 2);
        for round in 0..5u64 {
            let t = round as f64 * 7.0;
            sim.inject_at(
                t,
                clients[0],
                BaselineMessage::InvokeWrite {
                    obj: ObjectId(0),
                    value: Value::new(format!("v{round}").into_bytes()),
                },
            );
            sim.inject_at(
                t + 1.0,
                clients[1],
                BaselineMessage::InvokeRead { obj: ObjectId(0) },
            );
        }
        sim.run();
        let events = sim.take_events();
        assert_eq!(events.len(), 10);
        let history = History::from_events(events.into_iter().map(|(t, _, e)| (e, t)));
        assert!(history.check_atomicity().is_ok());
        assert!(history.check_linearizable_search().is_ok());
    }

    #[test]
    fn tolerates_minority_crashes() {
        let (mut sim, servers, clients) = build(5, 1);
        sim.schedule_crash(0.0, servers[0]);
        sim.schedule_crash(0.0, servers[1]);
        sim.inject_at(
            1.0,
            clients[0],
            BaselineMessage::InvokeWrite {
                obj: ObjectId(0),
                value: Value::from("survives"),
            },
        );
        sim.run();
        assert_eq!(
            sim.events().len(),
            1,
            "write completes despite f = 2 crashes"
        );
    }
}
