//! The transport seam under the router.
//!
//! Every message the cluster runtime sends — protocol traffic through a
//! [`RouterHandle`](crate::router::RouterHandle), one-off sends and liveness
//! pings through the [`Router`](crate::router::Router) — passes a
//! [`Transport`] before it reaches a destination inbox:
//!
//! ```text
//!   Router / RouterHandle
//!            │ per message: take_remote(from, to, msg), then
//!            │              decide(from, to, &msg)
//!            │ per burst:   flush()
//!            ▼
//!        Transport ──► InProcTransport   (default: deliver, zero overhead)
//!                  ──► SimTransport      (seeded fault plan: drop / dup /
//!                  │                      delay / reorder / partition)
//!                  ──► TcpTransport      (real network: per-peer TCP links
//!                                         for a multi-daemon deployment)
//! ```
//!
//! A transport that carries messages elsewhere only *buffers* them in
//! [`Transport::take_remote`]; [`Transport::flush`] is where they leave.
//! The one-off paths ([`Router::send_ping`](crate::router::Router::send_ping),
//! [`RouterHandle::send`](crate::router::RouterHandle::send)) flush
//! themselves; after
//! [`RouterHandle::send_batch`](crate::router::RouterHandle::send_batch)
//! the handle's owner calls
//! [`RouterHandle::flush`](crate::router::RouterHandle::flush) at the end of
//! its burst — an executor worker once per sweep, a client once per claimed
//! inbox batch and at the top of every poll or wait — so everything one
//! burst produced for one peer is one socket write.
//!
//! The default [`InProcTransport`] answers [`Decision::Deliver`] for
//! everything and reports [`Transport::is_faulty`]` == false`; the router
//! caches that flag and keeps its steady-state path byte-for-byte what it
//! was before the seam existed — no allocation, no lock, no virtual call
//! per send. A faulty transport (the seeded [`SimTransport`]) is consulted
//! per message and may drop it, duplicate it, or hold it for later
//! re-injection through a [`DirectSender`].
//!
//! Two envelopes are **never** intercepted: `Stop` (crash injection and
//! shutdown must always land) and messages a transport re-injects itself
//! (a held message is not re-decided, so a delay cannot recurse).

mod plan;
mod sim;
pub(crate) mod sys;
mod tcp;

pub use crate::executor::Workers;
pub use crate::router::DirectSender;
pub use plan::{
    Endpoint, FaultPlan, FaultRule, PartitionDirection, PartitionSpec, MESSAGE_CLASSES,
};
pub use sim::SimTransport;
pub use tcp::{LinkStats, TcpTopology, TcpTransport};

use lds_core::messages::LdsMessage;
use lds_core::ProcessId;
use std::time::Duration;

/// What a [`Transport`] decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message (a lossy link, or an active partition).
    Drop,
    /// Deliver the message twice: both copies join the sender's burst,
    /// next to each other.
    Duplicate,
    /// Hold the message for this long, then re-inject it via
    /// [`Transport::hold`]. Messages queued behind it on the same link
    /// overtake it — in an asynchronous network a delay *is* a reorder.
    Delay(Duration),
}

/// Counters of faults a transport has injected since construction.
///
/// The default [`InProcTransport`] always reports zeros; a seeded
/// [`SimTransport`] counts every non-[`Deliver`](Decision::Deliver)
/// decision. Surfaced per deployment through
/// [`MetricsSnapshot`](crate::api::MetricsSnapshot).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages dropped by a probabilistic rule.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held and re-injected late by a delay rule.
    pub delayed: u64,
    /// Messages held and re-injected late by a reorder rule.
    pub reordered: u64,
    /// Messages dropped because an active partition blocked their link.
    pub partitioned: u64,
}

impl FaultCounters {
    /// Total faults injected across all categories.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.reordered + self.partitioned
    }
}

/// A message-fate policy under the router (see the [module docs](self)).
///
/// All methods have defaults matching the fault-free in-process transport,
/// so [`InProcTransport`] is an empty impl. Implementations must be cheap
/// and thread-safe: `decide` runs on every sender thread's hot path once
/// the router has seen [`Transport::is_faulty`] return `true`.
pub trait Transport: Send + Sync {
    /// Whether the transport may ever answer something other than
    /// [`Decision::Deliver`]. The router caches this at handle creation:
    /// when `false`, sends skip the per-message `decide` call entirely and
    /// keep the original lock-free path.
    fn is_faulty(&self) -> bool {
        false
    }

    /// Offers the transport an owned message before [`Transport::decide`]
    /// sees it. A transport that carries traffic for destinations living
    /// elsewhere ([`TcpTransport`]) keeps the message — ownership crosses
    /// the seam, so a payload is never cloned just to be sent — and returns
    /// `None`; every other message comes straight back for local routing.
    /// A kept message may sit in a buffer until [`Transport::flush`].
    fn take_remote(&self, _from: ProcessId, _to: ProcessId, msg: LdsMessage) -> Option<LdsMessage> {
        Some(msg)
    }

    /// Decides the fate of one protocol message about to be routed locally
    /// (one [`Transport::take_remote`] handed back).
    fn decide(&self, _from: ProcessId, _to: ProcessId, _msg: &LdsMessage) -> Decision {
        Decision::Deliver
    }

    /// Decides the fate of a liveness ping to `to`. Pings carry no payload,
    /// but a partition must block them so the target's heartbeat goes stale
    /// exactly as it would across a real network split.
    fn decide_ping(&self, _to: ProcessId) -> Decision {
        Decision::Deliver
    }

    /// Sends what [`Transport::take_remote`] and [`Transport::decide_ping`]
    /// buffered since the last flush. Called by whoever produced a burst of
    /// messages, at its end (see the [module docs](self)); must not block.
    /// Transports that deliver in process have nothing to flush.
    fn flush(&self) {}

    /// Takes custody of a message the transport decided to
    /// [`Delay`](Decision::Delay); the transport re-injects it through its
    /// [`DirectSender`] once the delay elapses. Only called after `decide`
    /// returned `Delay`, so the default (which drops the message) is never
    /// reached on a transport that never delays.
    fn hold(&self, _from: ProcessId, _to: ProcessId, _msg: LdsMessage, _delay: Duration) {}

    /// [`Transport::hold`] for a liveness ping.
    fn hold_ping(&self, _to: ProcessId, _delay: Duration) {}

    /// Hands the transport a re-injection path into the router. Called once
    /// when the transport is installed; a transport that never delays can
    /// ignore it.
    fn attach(&self, _sender: DirectSender) {}

    /// Hands the transport the executor's worker threads, for a transport
    /// whose sockets they serve ([`TcpTransport`]: each worker polls its
    /// share of the mesh sockets). Called once, after
    /// [`Transport::attach`], when the deployment's executor has started.
    fn host(&self, _workers: &Workers) {}

    /// Where the deployment's processes live. `None` (the default): every
    /// pid is in this process and client numbers run 1, 2, 3, …. `Some`: this
    /// process hosts the servers [`TcpTopology::is_local`] names and
    /// allocates client numbers from [`TcpTopology::client_base`] in steps
    /// of [`TcpTopology::client_step`].
    fn topology(&self) -> Option<&TcpTopology> {
        None
    }

    /// Counters of every fault injected so far.
    fn fault_counters(&self) -> FaultCounters {
        FaultCounters::default()
    }

    /// Stops any background machinery (delay pumps). Pending held messages
    /// are discarded. Called from cluster shutdown.
    fn shutdown(&self) {}
}

/// The default transport: the in-process channel fabric, fault-free.
///
/// This is the path every deployment used before the seam existed. It makes
/// no decisions, holds nothing and counts nothing — and because it reports
/// [`Transport::is_faulty`]` == false` the router never even consults it on
/// the per-message path.
#[derive(Debug, Default, Clone, Copy)]
pub struct InProcTransport;

impl Transport for InProcTransport {}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_core::tag::ObjectId;

    #[test]
    fn inproc_transport_is_transparent() {
        let t = InProcTransport;
        assert!(!t.is_faulty());
        let msg = LdsMessage::InvokeRead { obj: ObjectId(0) };
        assert_eq!(
            t.decide(ProcessId(0), ProcessId(1), &msg),
            Decision::Deliver
        );
        assert_eq!(
            t.take_remote(ProcessId(0), ProcessId(1), msg.clone()),
            Some(msg)
        );
        assert_eq!(t.decide_ping(ProcessId(1)), Decision::Deliver);
        t.flush();
        assert_eq!(t.fault_counters(), FaultCounters::default());
        assert_eq!(t.fault_counters().total(), 0);
        t.shutdown();
    }

    #[test]
    fn counter_totals_sum_every_category() {
        let c = FaultCounters {
            dropped: 1,
            duplicated: 2,
            delayed: 3,
            reordered: 4,
            partitioned: 5,
        };
        assert_eq!(c.total(), 15);
    }
}
