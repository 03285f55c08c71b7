//! The seeded chaos harness for the **self-healing control plane**: a
//! deterministic, budget-aware kill schedule crashes servers of both layers
//! while pipelined writers and readers keep
//! streaming — and *nobody calls `Admin::repair`*. The heartbeat monitor
//! must detect every crash, the auto-repair supervisor must regenerate
//! every victim, every accepted operation must complete, the recorded
//! history must pass `History::check_atomicity`, and the failure budget
//! must be whole again at the end — under both protocol profiles.
//!
//! On top of the crash storm the deployment runs under a mild seeded
//! [`FaultPlan`]: COMMIT-TAG broadcasts are occasionally duplicated and tag
//! queries occasionally delayed a few milliseconds, so the exact message
//! schedule the protocol survives is adversarial *and* the injected-fault
//! counters in the metrics snapshot are exercised end to end.
//!
//! The kills come from a [`ChaosSchedule`]: a deterministic, seeded stream
//! of kill events, each naming a server and a jittered gap to wait first.
//! The schedule is **budget-aware** — given the servers currently down it
//! never proposes a kill that would exceed a layer's crash-fault budget
//! (`f1` L1 / `f2` L2), so every kill stays inside the envelope the protocol
//! tolerates, no matter how slowly repairs catch up.

mod common;

use common::{chaos_seed, profiles, repro_guard, Recorder, Workload};
use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder};
use lds_cluster::{EventKind, FaultPlan, FaultRule, HealConfig, RepairLayer};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

/// Fixed default seed so CI replays the same schedule; override with
/// `LDS_CHAOS_SEED` to explore other interleavings locally.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

const TOTAL_KILLS: usize = 22;

/// The objects the recorded workload's writers contend on.
const WORKLOAD_OBJECTS: [u64; 6] = [10, 11, 12, 20, 21, 22];

fn params() -> SystemParams {
    SystemParams::for_failures(1, 1, 2, 3).unwrap() // n1=4, n2=5, k=2, d=3
}

/// One kill drawn from a [`ChaosSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kill {
    /// The victim.
    server: ServerRef,
    /// Jittered gap to wait before injecting this kill, in milliseconds.
    gap_ms: u64,
}

/// A deterministic, budget-aware stream of kills (see the module docs).
/// The same seed replays the same schedule against the same down-set
/// history.
struct ChaosSchedule {
    params: SystemParams,
    total_kills: usize,
    gap_ms: RangeInclusive<u64>,
    rng: SmallRng,
    emitted: usize,
}

impl ChaosSchedule {
    fn new(
        seed: u64,
        params: SystemParams,
        total_kills: usize,
        gap_ms: RangeInclusive<u64>,
    ) -> Self {
        ChaosSchedule {
            params,
            total_kills,
            gap_ms,
            rng: SmallRng::seed_from_u64(seed),
            emitted: 0,
        }
    }

    fn kills_emitted(&self) -> usize {
        self.emitted
    }

    fn is_done(&self) -> bool {
        self.emitted >= self.total_kills
    }

    /// Draws the next kill, given the servers currently down. Only a server
    /// whose kill keeps its layer's budget intact is a candidate (one
    /// already down never is). Returns `None` — **without consuming a
    /// kill** — when the schedule is done or every layer is at its budget;
    /// the harness should let repairs catch up and call again.
    fn next_kill(&mut self, down: &[ServerRef]) -> Option<Kill> {
        if self.is_done() {
            return None;
        }
        let p = &self.params;
        let mut candidates: Vec<ServerRef> = Vec::new();
        for (layer, n, f) in [
            (RepairLayer::L1, p.n1(), p.f1()),
            (RepairLayer::L2, p.n2(), p.f2()),
        ] {
            let down_here = || down.iter().filter(|s| s.layer == layer);
            if down_here().count() < f {
                candidates.extend(
                    (0..n)
                        .filter(|&index| !down_here().any(|s| s.index == index))
                        .map(|index| ServerRef { layer, index }),
                );
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let server = candidates[self.rng.gen_range(0..candidates.len())];
        let gap_ms = self.rng.gen_range(self.gap_ms.clone());
        self.emitted += 1;
        Some(Kill { server, gap_ms })
    }
}

#[test]
fn self_healing_store_survives_a_seeded_kill_schedule() {
    for (label, builder) in profiles() {
        storm(label, builder);
    }
}

fn storm(label: &str, builder: StoreBuilder) {
    let seed = chaos_seed(CHAOS_SEED);
    let _repro = repro_guard(seed, "chaos");
    let p = params();
    // Mild link-level adversity underneath the crash storm. Duplicating a
    // COMMIT-TAG must be idempotent (tags max-merge); a few milliseconds of
    // delay on the tag-query round trip reorders metadata traffic without
    // ever approaching the 60 ms heartbeat-staleness threshold (and no rule
    // matches PING, so the failure detector sees only real crashes).
    let plan = FaultPlan::seeded(seed)
        .rule(
            FaultRule::new()
                .classes(&["COMMIT-TAG"])
                .duplicate_prob(0.1),
        )
        .rule(
            FaultRule::new()
                .classes(&["QUERY-TAG", "TAG-RESP"])
                .delay_prob(0.2)
                .delay_window(Duration::ZERO, Duration::from_millis(3)),
        );
    let store = builder
        .params(p)
        .backend(BackendKind::Mbr)
        .fault_plan(plan)
        .trace(true)
        .repair_timeout(Duration::from_secs(10))
        .self_heal_with(HealConfig {
            beat_interval: Duration::from_millis(15),
            suspicion_intervals: 4,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            max_concurrent_repairs: 2,
            jitter_seed: seed,
        })
        .build()
        .unwrap();
    let admin = store.admin();
    // Re-arm the guard with the flight recorder: a failure now prints the
    // repro line *and* the last events (kills seen, faults injected, repair
    // lifecycle) leading up to the assertion.
    let _repro = {
        let admin = admin.clone();
        _repro.with_trace(move || Some(admin.trace_dump().tail_jsonl(64)))
    };

    // A settled population plus the workload's own objects, so repairs
    // always have committed state to regenerate.
    let recorder = Recorder::new();
    let mut client = recorder.wrap(store.client_with_depth(8));
    client.set_timeout(Duration::from_secs(30));
    for obj in 100..116u64 {
        client.submit_write(ObjectId(obj), &vec![obj as u8; 512]);
    }
    client.wait_all().unwrap();
    let workload = Workload::spawn(&store, &recorder, 2, &WORKLOAD_OBJECTS);
    std::thread::sleep(Duration::from_millis(100));

    let mut schedule = ChaosSchedule::new(seed, p, TOTAL_KILLS, 30..=90);
    let mut down: Vec<ServerRef> = Vec::new();
    let mut kills_per_layer: HashMap<RepairLayer, usize> = HashMap::new();
    let schedule_deadline = Instant::now() + Duration::from_secs(180);
    while !schedule.is_done() {
        assert!(
            Instant::now() < schedule_deadline,
            "[{label}] kill schedule stalled: the supervisor is not restoring budget \
             ({} of {TOTAL_KILLS} kills injected)",
            schedule.kills_emitted()
        );
        // Ground truth refresh: servers the supervisor already repaired
        // leave the down-set and become kill candidates again. Nobody but
        // this loop kills, so the refreshed set can only over-count downs —
        // the budget check below stays conservative.
        down.retain(|&s| !admin.is_live(s).unwrap());
        let Some(kill) = schedule.next_kill(&down) else {
            // Every layer at its budget: wait for the self-heal loop.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        std::thread::sleep(Duration::from_millis(kill.gap_ms));
        admin.kill(kill.server).unwrap();
        *kills_per_layer.entry(kill.server.layer).or_insert(0) += 1;
        down.push(kill.server);
        // The invariant the schedule promises: never more than f crashed
        // servers per layer, by engine ground truth.
        let dead_l1 = (0..p.n1())
            .filter(|&j| !admin.is_live(ServerRef::l1(j)).unwrap())
            .count();
        let dead_l2 = (0..p.n2())
            .filter(|&i| !admin.is_live(ServerRef::l2(i)).unwrap())
            .count();
        assert!(
            dead_l1 <= p.f1() && dead_l2 <= p.f2(),
            "[{label}] failure budget exceeded: {dead_l1} L1 / {dead_l2} L2 down"
        );
    }
    assert!(
        schedule.kills_emitted() >= 20,
        "the harness must inject at least 20 kills"
    );
    assert!(
        kills_per_layer.get(&RepairLayer::L1).copied().unwrap_or(0) > 0
            && kills_per_layer.get(&RepairLayer::L2).copied().unwrap_or(0) > 0,
        "the schedule must exercise both layers, got {kills_per_layer:?}"
    );

    // The whole point: with zero manual repair calls, the monitor +
    // supervisor must restore every server. Ground truth (`is_live`: the
    // engine's crash-injection state) AND the suspicion-fed detector view
    // (`liveness()`, which the live-server metrics count too) must both
    // report whole — the detector alone is trivially all-live for one
    // detection window after a kill. The bound is generous against
    // detection latency (60 ms) + backoff (max 1 s) + repair time.
    let heal_deadline = Instant::now() + Duration::from_secs(60);
    let servers: Vec<ServerRef> = (0..p.n1())
        .map(ServerRef::l1)
        .chain((0..p.n2()).map(ServerRef::l2))
        .collect();
    loop {
        if servers.iter().all(|&s| admin.is_live(s).unwrap()) && admin.liveness().all_live() {
            break;
        }
        assert!(
            Instant::now() < heal_deadline,
            "[{label}] self-heal did not restore the failure budget: still down {:?}",
            admin.liveness().crashed()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Every accepted op completed (a failed op panics its thread here).
    workload.finish();

    // Committed state survived ≥ 20 kills: read everything back, and let
    // the checker judge every operation of the storm.
    for obj in (100..116u64).chain(WORKLOAD_OBJECTS) {
        client.read(ObjectId(obj)).expect("read after the storm");
    }
    recorder.check();

    // The supervisor's reap (where successes are counted) trails the actual
    // repair by up to a beat interval — poll briefly instead of racing it.
    let kills = schedule.kills_emitted() as u64;
    let metrics_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = admin.metrics();
        if m.heal_repairs_succeeded >= kills || Instant::now() >= metrics_deadline {
            assert!(
                m.heal_suspicions_raised >= kills,
                "[{label}] every kill must raise a suspicion: {} < {kills}",
                m.heal_suspicions_raised
            );
            assert!(
                m.heal_repairs_succeeded >= kills,
                "[{label}] every kill must be healed by the supervisor: {} < {kills}",
                m.heal_repairs_succeeded
            );
            assert!(m.heal_repairs_attempted >= m.heal_repairs_succeeded);
            assert!(
                m.repairs_completed as u64 >= kills,
                "engine repair count disagrees: {} < {kills}",
                m.repairs_completed
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // The fault plan really ran: the sim transport injected duplicates
    // and/or delays, and — since the plan has no drop rules and no
    // partitions — lost nothing.
    let faults = admin.metrics().transport_faults;
    assert!(
        faults.duplicated + faults.delayed > 0,
        "the seeded fault plan injected nothing: {faults:?}"
    );
    assert_eq!(faults.dropped, 0, "a dup/delay-only plan must not drop");
    assert_eq!(faults.partitioned, 0, "no partitions were scheduled");

    // The flight recorder saw the storm end to end: injected transport
    // faults and the full repair lifecycle survive in the dump (rings are
    // bounded, but `trace_events` defaults far above this test's volume of
    // fault/repair events — only high-rate send events wrap).
    let dump = admin.trace_dump();
    let count = |kind: EventKind| dump.events().iter().filter(|e| e.kind == kind).count();
    assert!(
        count(EventKind::TransportFault) > 0,
        "the trace must carry the injected transport faults"
    );
    assert!(
        count(EventKind::HealSuspect) > 0
            && count(EventKind::RepairStart) > 0
            && count(EventKind::RepairOk) > 0,
        "the trace must carry the repair lifecycle (suspect -> start -> ok)"
    );

    // Deliberate-failure knob: `LDS_CHAOS_FAIL=1 cargo test --test chaos`
    // exercises the failure path end to end — the ReproGuard prints the
    // seed line plus the flight-recorder tail armed above.
    if std::env::var("LDS_CHAOS_FAIL").is_ok_and(|v| v == "1") {
        panic!("deliberate failure requested via LDS_CHAOS_FAIL=1");
    }

    drop(client);
    store.shutdown();
}

fn schedule(seed: u64) -> ChaosSchedule {
    ChaosSchedule::new(seed, params(), 25, 1..=9)
}

#[test]
fn same_seed_replays_the_same_schedule() {
    let mut a = schedule(42);
    let mut b = schedule(42);
    for _ in 0..25 {
        assert_eq!(a.next_kill(&[]), b.next_kill(&[]));
    }
    assert!(a.is_done() && b.is_done());
    assert_eq!(a.next_kill(&[]), None);
}

#[test]
fn respects_per_layer_budgets_against_a_down_set() {
    let mut schedule = schedule(7);
    let mut down: Vec<ServerRef> = Vec::new();
    // Kill without ever repairing: the schedule must stop at the budget
    // (f1 + f2 = 2 here), never exceed it, and not consume kills while
    // saturated.
    while let Some(kill) = schedule.next_kill(&down) {
        assert!(!down.contains(&kill.server), "re-killed a down server");
        down.push(kill.server);
        for layer in [RepairLayer::L1, RepairLayer::L2] {
            let count = down.iter().filter(|s| s.layer == layer).count();
            assert!(count <= 1, "budget exceeded on {layer:?}");
        }
    }
    assert_eq!(down.len(), 2);
    assert_eq!(schedule.kills_emitted(), 2);
    assert!(!schedule.is_done());
    // Repair everything: the schedule resumes exactly where it left off.
    down.clear();
    assert!(schedule.next_kill(&down).is_some());
    assert_eq!(schedule.kills_emitted(), 3);
}

#[test]
fn gaps_stay_inside_the_configured_window() {
    let mut schedule = schedule(3);
    while let Some(kill) = schedule.next_kill(&[]) {
        assert!((1..=9).contains(&kill.gap_ms));
    }
}

#[test]
fn eventually_touches_both_layers_of_every_cluster() {
    let mut schedule = schedule(11);
    let mut seen = HashSet::new();
    while let Some(kill) = schedule.next_kill(&[]) {
        seen.insert(kill.server.layer);
    }
    assert_eq!(seen.len(), 2, "25 seeded kills should cover both layers");
}
