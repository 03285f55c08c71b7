//! The seeded fault-injecting transport.
//!
//! [`SimTransport`] compiles a [`FaultPlan`] against the deployment's
//! parameters — endpoints resolved to process ids, probabilities to integer
//! thresholds — and then adjudicates every message the router sends. The
//! random stream is a splitmix64 mix of the plan's seed and a global message
//! counter, so a given seed replays the same decision *sequence*; thread
//! scheduling still decides which concrete message draws which tick, which
//! is exactly the asynchrony the protocol must tolerate anyway.
//!
//! Delayed messages are parked in a deadline-ordered heap drained by one
//! `lds-fault-pump` thread, which re-injects them through the
//! router's [`DirectSender`] — re-injection bypasses `decide`, so a delayed
//! message cannot be faulted twice.

use super::plan::{Endpoint, FaultPlan, PartitionDirection, MESSAGE_CLASSES};
use super::{Decision, FaultCounters, Transport};
use crate::obs::{EventKind, TraceHandle};
use crate::router::{Burst, DirectSender};
use lds_core::messages::LdsMessage;
use lds_core::params::SystemParams;
use lds_core::ProcessId;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The set of process ids an endpoint list denotes, against the pid layout
/// of one cluster: L1 index `j` is pid `j`, L2 index `i` is pid `n1 + i`,
/// and every pid at or above `n1 + n2` is a client (or auxiliary) process.
#[derive(Debug, Clone)]
struct PidSet {
    servers: Vec<bool>,
    clients: bool,
}

impl PidSet {
    fn resolve(endpoints: &[Endpoint], params: &SystemParams) -> PidSet {
        let mut servers = vec![false; params.n1() + params.n2()];
        let mut clients = false;
        for endpoint in endpoints {
            match *endpoint {
                Endpoint::L1(j) => servers[j] = true,
                Endpoint::L2(i) => servers[params.n1() + i] = true,
                Endpoint::Clients => clients = true,
            }
        }
        PidSet { servers, clients }
    }

    fn contains(&self, pid: ProcessId) -> bool {
        match self.servers.get(pid.0) {
            Some(&s) => s,
            None => self.clients,
        }
    }
}

/// The class index of a liveness ping: the final slot of
/// [`MESSAGE_CLASSES`], after every [`LdsMessage::class_index`].
const PING_CLASS: usize = LdsMessage::NUM_CLASSES - 1;

// A rule's class filter is one bit per class index.
const _: () = assert!(LdsMessage::NUM_CLASSES <= u64::BITS as usize);

/// The bit set over class indices that a rule's class names denote. Names
/// outside [`MESSAGE_CLASSES`] (rejected by `FaultPlan::validate`) denote
/// nothing.
fn class_mask(names: &[String]) -> u64 {
    names
        .iter()
        .filter_map(|name| MESSAGE_CLASSES.iter().position(|class| class == name))
        .fold(0, |mask, class| mask | 1 << class)
}

/// A [`FaultRule`](super::FaultRule) with class names resolved to a bit set
/// over class indices, endpoints to process ids, and the cumulative
/// probability thresholds scaled to the `u64` draw space.
struct CompiledRule {
    classes: Option<u64>,
    from: Option<PidSet>,
    to: Option<PidSet>,
    t_drop: u64,
    t_dup: u64,
    t_delay: u64,
    t_reorder: u64,
    delay_min_ns: u64,
    delay_span_ns: u64,
}

impl CompiledRule {
    /// Whether the rule's filters match a message of class index `class` on
    /// the link `from → to`. `from == None` is a liveness ping's external
    /// sender: it only matches rules with no sender filter.
    fn matches(&self, from: Option<ProcessId>, to: ProcessId, class: usize) -> bool {
        if self.classes.is_some_and(|mask| mask & (1 << class) == 0) {
            return false;
        }
        if let Some(set) = &self.from {
            match from {
                Some(pid) if set.contains(pid) => {}
                _ => return false,
            }
        }
        if let Some(set) = &self.to {
            if !set.contains(to) {
                return false;
            }
        }
        true
    }
}

struct CompiledPartition {
    group: PidSet,
    direction: PartitionDirection,
    start: Duration,
    heal: Option<Duration>,
}

impl CompiledPartition {
    fn active(&self, elapsed: Duration) -> bool {
        elapsed >= self.start && self.heal.is_none_or(|h| elapsed < h)
    }

    /// Whether the partition blocks a message crossing its boundary.
    /// `from == None` (a liveness ping's monitor) is always outside the
    /// group, so symmetric and inbound partitions starve the group's beats.
    fn blocks(&self, from: Option<ProcessId>, to: ProcessId) -> bool {
        let in_from = from.is_some_and(|f| self.group.contains(f));
        let in_to = self.group.contains(to);
        if in_from == in_to {
            return false; // both inside or both outside: not a crossing
        }
        match self.direction {
            PartitionDirection::Symmetric => true,
            PartitionDirection::Inbound => in_to,
            PartitionDirection::Outbound => in_from,
        }
    }
}

/// A message (or ping) held back by a delay/reorder decision.
struct Held {
    at: Instant,
    seq: u64,
    payload: Payload,
}

enum Payload {
    Msg {
        from: ProcessId,
        to: ProcessId,
        msg: LdsMessage,
    },
    Ping {
        to: ProcessId,
    },
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Default)]
struct PumpQueue {
    heap: BinaryHeap<Held>,
    next_seq: u64,
    stop: bool,
}

#[derive(Default)]
struct Pump {
    queue: Mutex<PumpQueue>,
    cvar: Condvar,
}

#[derive(Default)]
struct Counters {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
    partitioned: AtomicU64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scales a probability to a threshold in the full `u64` draw space.
fn threshold(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * u64::MAX as f64) as u64
}

/// The seeded fault-injecting [`Transport`] (see the [`transport`](crate::transport) module docs).
pub struct SimTransport {
    seed: u64,
    tick: AtomicU64,
    rules: Vec<CompiledRule>,
    partitions: Vec<CompiledPartition>,
    /// Partition schedules are measured from transport construction.
    epoch: Instant,
    counters: Counters,
    pump: std::sync::Arc<Pump>,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Flight-recorder handle for injected faults, attached by the cluster
    /// when tracing is on. Locked only when a fault actually fires — clean
    /// deliveries never touch it.
    trace: Mutex<Option<TraceHandle>>,
}

impl SimTransport {
    /// Compiles `plan` against the deployment's parameters. The plan should
    /// already have passed [`FaultPlan::validate`]; endpoint indices out of
    /// range panic here.
    pub fn new(plan: &FaultPlan, params: &SystemParams) -> SimTransport {
        let rules = plan
            .rules
            .iter()
            .map(|r| {
                let sum_dup = r.drop + r.duplicate;
                let sum_delay = sum_dup + r.delay;
                let sum_reorder = sum_delay + r.reorder;
                CompiledRule {
                    classes: r.classes.as_deref().map(class_mask),
                    from: r.from.as_deref().map(|e| PidSet::resolve(e, params)),
                    to: r.to.as_deref().map(|e| PidSet::resolve(e, params)),
                    t_drop: threshold(r.drop),
                    t_dup: threshold(sum_dup),
                    t_delay: threshold(sum_delay),
                    t_reorder: threshold(sum_reorder),
                    delay_min_ns: r.delay_range.0.as_nanos() as u64,
                    delay_span_ns: (r.delay_range.1 - r.delay_range.0).as_nanos() as u64,
                }
            })
            .collect();
        let partitions = plan
            .partitions
            .iter()
            .map(|p| CompiledPartition {
                group: PidSet::resolve(&p.group, params),
                direction: p.direction,
                start: p.start,
                heal: p.heal,
            })
            .collect();
        SimTransport {
            seed: plan.seed,
            tick: AtomicU64::new(0),
            rules,
            partitions,
            epoch: Instant::now(),
            counters: Counters::default(),
            pump: std::sync::Arc::new(Pump::default()),
            worker: Mutex::new(None),
            trace: Mutex::new(None),
        }
    }

    /// Attaches a flight-recorder handle: every injected fault is recorded
    /// as a [`EventKind::TransportFault`] event.
    pub fn attach_trace(&self, handle: TraceHandle) {
        *self.trace.lock().expect("trace slot poisoned") = Some(handle);
    }

    /// Records one injected fault (`decision` per the [`EventKind`] payload
    /// table: 0 drop, 1 duplicate, 2 delay, 3 partition). Cold path — only
    /// reached when a fault fires.
    fn trace_fault(&self, decision: u64, to: ProcessId, class: usize) {
        let mut slot = self.trace.lock().expect("trace slot poisoned");
        if let Some(trace) = slot.as_mut() {
            trace.record(
                EventKind::TransportFault,
                decision,
                class as u64,
                to.0 as u64,
            );
        }
    }

    /// One seeded draw from the fault stream.
    fn draw(&self) -> u64 {
        let t = self.tick.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn sample_delay(&self, rule: &CompiledRule, draw: u64) -> Duration {
        // A second mix of the decision draw keeps the delay deterministic
        // per tick without consuming another tick.
        let r = splitmix64(draw);
        let ns = rule.delay_min_ns + r % (rule.delay_span_ns + 1);
        Duration::from_nanos(ns)
    }

    /// The shared adjudication path: partitions first (no random draw),
    /// then the first matching probabilistic rule.
    fn decide_link(&self, from: Option<ProcessId>, to: ProcessId, class: usize) -> Decision {
        if !self.partitions.is_empty() {
            let elapsed = self.epoch.elapsed();
            for partition in &self.partitions {
                if partition.active(elapsed) && partition.blocks(from, to) {
                    self.counters.partitioned.fetch_add(1, Ordering::Relaxed);
                    self.trace_fault(3, to, class);
                    return Decision::Drop;
                }
            }
        }
        for rule in &self.rules {
            if !rule.matches(from, to, class) {
                continue;
            }
            let r = self.draw();
            return if r < rule.t_drop {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                self.trace_fault(0, to, class);
                Decision::Drop
            } else if r < rule.t_dup {
                self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
                self.trace_fault(1, to, class);
                Decision::Duplicate
            } else if r < rule.t_delay {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                self.trace_fault(2, to, class);
                Decision::Delay(self.sample_delay(rule, r))
            } else if r < rule.t_reorder {
                self.counters.reordered.fetch_add(1, Ordering::Relaxed);
                // A reorder manifests as a (short) delayed redelivery.
                self.trace_fault(2, to, class);
                Decision::Delay(self.sample_delay(rule, r))
            } else {
                Decision::Deliver
            };
        }
        Decision::Deliver
    }

    fn park(&self, payload: Payload, delay: Duration) {
        let mut queue = self.pump.queue.lock().expect("pump queue poisoned");
        if queue.stop {
            return; // shutting down: discard, like a message to a dead pid
        }
        let seq = queue.next_seq;
        queue.next_seq += 1;
        queue.heap.push(Held {
            at: Instant::now() + delay,
            seq,
            payload,
        });
        self.pump.cvar.notify_one();
    }
}

impl Transport for SimTransport {
    fn is_faulty(&self) -> bool {
        true
    }

    fn decide(&self, from: ProcessId, to: ProcessId, msg: &LdsMessage) -> Decision {
        self.decide_link(Some(from), to, msg.class_index())
    }

    fn decide_ping(&self, to: ProcessId) -> Decision {
        self.decide_link(None, to, PING_CLASS)
    }

    fn hold(&self, from: ProcessId, to: ProcessId, msg: LdsMessage, delay: Duration) {
        self.park(Payload::Msg { from, to, msg }, delay);
    }

    fn hold_ping(&self, to: ProcessId, delay: Duration) {
        self.park(Payload::Ping { to }, delay);
    }

    fn attach(&self, sender: DirectSender) {
        let pump = std::sync::Arc::clone(&self.pump);
        let handle = std::thread::Builder::new()
            .name("lds-fault-pump".into())
            .spawn(move || {
                let mut burst = Burst::default();
                let mut queue = pump.queue.lock().expect("pump queue poisoned");
                loop {
                    if queue.stop {
                        break;
                    }
                    let Some(next_at) = queue.heap.peek().map(|h| h.at) else {
                        queue = pump.cvar.wait(queue).expect("pump queue poisoned");
                        continue;
                    };
                    let now = Instant::now();
                    if next_at <= now {
                        let held = queue.heap.pop().expect("peeked entry");
                        drop(queue);
                        match held.payload {
                            Payload::Msg { from, to, msg } => {
                                burst.push(from, to, msg);
                                sender.deliver_many(&mut burst);
                            }
                            Payload::Ping { to } => sender.deliver_ping(to),
                        }
                        queue = pump.queue.lock().expect("pump queue poisoned");
                    } else {
                        queue = pump
                            .cvar
                            .wait_timeout(queue, next_at - now)
                            .expect("pump queue poisoned")
                            .0;
                    }
                }
            })
            .expect("spawn fault pump");
        *self.worker.lock().expect("worker slot poisoned") = Some(handle);
    }

    fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            duplicated: self.counters.duplicated.load(Ordering::Relaxed),
            delayed: self.counters.delayed.load(Ordering::Relaxed),
            reordered: self.counters.reordered.load(Ordering::Relaxed),
            partitioned: self.counters.partitioned.load(Ordering::Relaxed),
        }
    }

    fn shutdown(&self) {
        {
            let mut queue = self.pump.queue.lock().expect("pump queue poisoned");
            queue.stop = true;
            queue.heap.clear();
        }
        self.pump.cvar.notify_all();
        if let Some(handle) = self.worker.lock().expect("worker slot poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SimTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::super::plan::{FaultRule, PartitionSpec};
    use super::*;
    use lds_core::tag::ObjectId;

    fn params() -> SystemParams {
        SystemParams::for_failures(1, 1, 2, 3).unwrap() // n1 = 4, n2 = 5
    }

    fn msg() -> LdsMessage {
        LdsMessage::InvokeRead { obj: ObjectId(0) }
    }

    #[test]
    fn same_seed_replays_the_same_decision_sequence() {
        let plan = FaultPlan::seeded(42).rule(
            FaultRule::new()
                .drop_prob(0.25)
                .duplicate_prob(0.25)
                .delay_prob(0.25),
        );
        let a = SimTransport::new(&plan, &params());
        let b = SimTransport::new(&plan, &params());
        let decisions_a: Vec<_> = (0..256)
            .map(|_| a.decide(ProcessId(0), ProcessId(1), &msg()))
            .collect();
        let decisions_b: Vec<_> = (0..256)
            .map(|_| b.decide(ProcessId(0), ProcessId(1), &msg()))
            .collect();
        assert_eq!(decisions_a, decisions_b);
        assert_eq!(a.fault_counters(), b.fault_counters());
        assert!(
            a.fault_counters().total() > 0,
            "some fault fired in 256 draws"
        );
        let reseeded = FaultPlan { seed: 43, ..plan };
        let c = SimTransport::new(&reseeded, &params());
        let decisions_c: Vec<_> = (0..256)
            .map(|_| c.decide(ProcessId(0), ProcessId(1), &msg()))
            .collect();
        assert_ne!(decisions_a, decisions_c, "different seed, different stream");
    }

    #[test]
    fn first_matching_rule_wins_and_filters_apply() {
        // Rule 0 drops every COMMIT-TAG to L1(0); rule 1 would drop
        // everything, but only messages unmatched by rule 0 reach it.
        let plan = FaultPlan::seeded(7)
            .rule(
                FaultRule::new()
                    .classes(&["INVOKE-READ"])
                    .only_to(&[Endpoint::L1(0)])
                    .drop_prob(1.0),
            )
            .rule(
                FaultRule::new()
                    .classes(&["INVOKE-READ"])
                    .duplicate_prob(1.0),
            );
        let t = SimTransport::new(&plan, &params());
        assert_eq!(t.decide(ProcessId(9), ProcessId(0), &msg()), Decision::Drop);
        assert_eq!(
            t.decide(ProcessId(9), ProcessId(1), &msg()),
            Decision::Duplicate
        );
        // Other classes match neither rule.
        let other = LdsMessage::InvokeWrite {
            obj: ObjectId(0),
            value: lds_core::value::Value::new(vec![1]),
        };
        assert_eq!(
            t.decide(ProcessId(9), ProcessId(0), &other),
            Decision::Deliver
        );
        // A liveness ping is a class of its own, named like any other.
        assert_eq!(t.decide_ping(ProcessId(0)), Decision::Deliver);
        let c = t.fault_counters();
        assert_eq!((c.dropped, c.duplicated), (1, 1));
        let pings = FaultPlan::seeded(7).rule(FaultRule::new().classes(&["PING"]).drop_prob(1.0));
        let t = SimTransport::new(&pings, &params());
        assert_eq!(t.decide_ping(ProcessId(0)), Decision::Drop);
        assert_eq!(
            t.decide(ProcessId(9), ProcessId(0), &msg()),
            Decision::Deliver
        );
    }

    #[test]
    fn client_endpoints_cover_every_nonserver_pid() {
        let plan = FaultPlan::seeded(1).rule(
            FaultRule::new()
                .only_from(&[Endpoint::Clients])
                .drop_prob(1.0),
        );
        let t = SimTransport::new(&plan, &params());
        // n1 + n2 = 9: pid 9 and anything above is a client.
        assert_eq!(t.decide(ProcessId(9), ProcessId(0), &msg()), Decision::Drop);
        assert_eq!(
            t.decide(ProcessId(37), ProcessId(0), &msg()),
            Decision::Drop
        );
        // Server senders are untouched.
        assert_eq!(
            t.decide(ProcessId(3), ProcessId(0), &msg()),
            Decision::Deliver
        );
    }

    #[test]
    fn symmetric_partition_blocks_both_crossings_and_pings() {
        let plan = FaultPlan::seeded(1).partition(PartitionSpec::isolate(&[Endpoint::L1(0)]));
        let t = SimTransport::new(&plan, &params());
        // Into the group, out of the group, and pings (monitor is outside).
        assert_eq!(t.decide(ProcessId(1), ProcessId(0), &msg()), Decision::Drop);
        assert_eq!(t.decide(ProcessId(0), ProcessId(1), &msg()), Decision::Drop);
        assert_eq!(t.decide_ping(ProcessId(0)), Decision::Drop);
        // Traffic not crossing the boundary flows.
        assert_eq!(
            t.decide(ProcessId(1), ProcessId(2), &msg()),
            Decision::Deliver
        );
        assert_eq!(t.decide_ping(ProcessId(1)), Decision::Deliver);
        assert_eq!(t.fault_counters().partitioned, 3);
    }

    #[test]
    fn directed_partitions_block_one_crossing_only() {
        let inbound = FaultPlan::seeded(1).partition(
            PartitionSpec::isolate(&[Endpoint::L2(0)]).direction(PartitionDirection::Inbound),
        );
        let t = SimTransport::new(&inbound, &params());
        // L2(0) is pid 4. Inbound: traffic to it is blocked, from it flows.
        assert_eq!(t.decide(ProcessId(0), ProcessId(4), &msg()), Decision::Drop);
        assert_eq!(
            t.decide(ProcessId(4), ProcessId(0), &msg()),
            Decision::Deliver
        );
        assert_eq!(t.decide_ping(ProcessId(4)), Decision::Drop);

        let outbound = FaultPlan::seeded(1).partition(
            PartitionSpec::isolate(&[Endpoint::L2(0)]).direction(PartitionDirection::Outbound),
        );
        let t = SimTransport::new(&outbound, &params());
        assert_eq!(
            t.decide(ProcessId(0), ProcessId(4), &msg()),
            Decision::Deliver
        );
        assert_eq!(t.decide(ProcessId(4), ProcessId(0), &msg()), Decision::Drop);
        // An outbound-only partition does not starve the group's beats.
        assert_eq!(t.decide_ping(ProcessId(4)), Decision::Deliver);
    }

    #[test]
    fn partition_windows_respect_the_schedule() {
        // Starts far in the future: inactive now.
        let future = FaultPlan::seeded(1).partition(
            PartitionSpec::isolate(&[Endpoint::L1(0)]).starting_at(Duration::from_secs(3600)),
        );
        let t = SimTransport::new(&future, &params());
        assert_eq!(
            t.decide(ProcessId(1), ProcessId(0), &msg()),
            Decision::Deliver
        );
        // Already healed: inactive.
        let healed = FaultPlan::seeded(1)
            .partition(PartitionSpec::isolate(&[Endpoint::L1(0)]).healing_at(Duration::ZERO));
        let t = SimTransport::new(&healed, &params());
        assert_eq!(
            t.decide(ProcessId(1), ProcessId(0), &msg()),
            Decision::Deliver
        );
        assert_eq!(t.fault_counters().partitioned, 0);
    }

    #[test]
    fn delay_durations_stay_inside_the_rule_window() {
        let plan = FaultPlan::seeded(5).rule(
            FaultRule::new()
                .delay_prob(1.0)
                .delay_window(Duration::from_millis(2), Duration::from_millis(9)),
        );
        let t = SimTransport::new(&plan, &params());
        for _ in 0..128 {
            match t.decide(ProcessId(9), ProcessId(0), &msg()) {
                Decision::Delay(d) => {
                    assert!((Duration::from_millis(2)..=Duration::from_millis(9)).contains(&d))
                }
                other => panic!("expected a delay, got {other:?}"),
            }
        }
        assert_eq!(t.fault_counters().delayed, 128);
    }

    #[test]
    fn shutdown_discards_held_messages_and_is_idempotent() {
        let plan = FaultPlan::seeded(1);
        let t = SimTransport::new(&plan, &params());
        t.hold(ProcessId(0), ProcessId(1), msg(), Duration::from_secs(60));
        t.hold_ping(ProcessId(1), Duration::from_secs(60));
        t.shutdown();
        // Post-shutdown holds are discarded rather than queued forever.
        t.hold(ProcessId(0), ProcessId(1), msg(), Duration::from_secs(60));
        t.shutdown();
        assert_eq!(t.pump.queue.lock().unwrap().heap.len(), 0);
    }
}
