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

mod common;

use common::{profiles, Recorder, Workload};
use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder};
use lds_cluster::{EventKind, FaultPlan, FaultRule, HealConfig, RepairLayer};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use lds_workload::chaos::{ChaosLayer, ChaosSchedule, ChaosScheduleConfig, ChaosTarget};
use lds_workload::seed::{chaos_seed, repro_guard};
use std::collections::HashMap;
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

fn server_ref(target: &ChaosTarget) -> ServerRef {
    let layer = match target.layer {
        ChaosLayer::L1 => RepairLayer::L1,
        ChaosLayer::L2 => RepairLayer::L2,
    };
    ServerRef {
        layer,
        index: target.index,
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

    let mut schedule = ChaosSchedule::new(ChaosScheduleConfig {
        seed,
        n1: p.n1(),
        f1: p.f1(),
        n2: p.n2(),
        f2: p.f2(),
        total_kills: TOTAL_KILLS,
        min_gap_ms: 30,
        max_gap_ms: 90,
    });
    let mut down: Vec<ChaosTarget> = Vec::new();
    let mut kills_per_layer: HashMap<ChaosLayer, usize> = HashMap::new();
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
        down.retain(|t| !admin.is_live(server_ref(t)).unwrap());
        let Some(kill) = schedule.next_kill(&down) else {
            // Every layer at its budget: wait for the self-heal loop.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        std::thread::sleep(Duration::from_millis(kill.gap_ms));
        admin.kill(server_ref(&kill)).unwrap();
        *kills_per_layer.entry(kill.layer).or_insert(0) += 1;
        down.push(kill);
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
        kills_per_layer.get(&ChaosLayer::L1).copied().unwrap_or(0) > 0
            && kills_per_layer.get(&ChaosLayer::L2).copied().unwrap_or(0) > 0,
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
