//! Adversarial protocol tests on the seeded fault-injection transport: the
//! cluster runs under a declarative [`FaultPlan`] — scheduled partitions,
//! duplicated data messages, delayed/reordered commit broadcasts, lossy
//! links — and every test asserts the LDS guarantees hold anyway:
//! atomicity (`History::check_atomicity` over the recorded operations),
//! liveness within the `f1`/`f2` failure budget, bounded metadata, and a
//! self-heal control plane that distinguishes *slow* from *dead*.
//!
//! Every test is seeded through `common::chaos_seed`; on a
//! failure the [`repro_guard`] prints the one-line `LDS_CHAOS_SEED=…`
//! command that replays it. The CI fault matrix rotates seeds and selects
//! plan families via `LDS_FAULT_PLAN` (see [`fault_matrix_point`]).

mod common;

use common::{chaos_seed, parse_seed, profiles, repro_guard, Recorder};
use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder};
use lds_cluster::{
    Endpoint, EventKind, FaultPlan, FaultRule, HealConfig, PartitionDirection, PartitionSpec,
};
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use std::time::{Duration, Instant};

/// Same default seed as the chaos harness, so one exported `LDS_CHAOS_SEED`
/// replays the whole adversarial suite.
const DEFAULT_SEED: u64 = 0xC4A0_5EED;

fn params() -> SystemParams {
    SystemParams::for_failures(1, 1, 2, 3).unwrap() // n1=4, n2=5, k=2, d=3
}

/// A symmetric partition isolating one server of each layer — exactly the
/// `f1`/`f2` crash budget the paper tolerates — must not block a single
/// operation: writes keep acking at the `n1 - f1` quorum, reads keep
/// completing, the recorded history is atomic, and the only faults the
/// transport records are partition drops. Runs under both profiles.
#[test]
fn a_partitioned_minority_cannot_block_writes_or_reads() {
    for (label, builder) in profiles() {
        let seed = chaos_seed(DEFAULT_SEED);
        let _repro = repro_guard(seed, "partition");
        let plan = FaultPlan::seeded(seed)
            .partition(PartitionSpec::isolate(&[Endpoint::L1(0), Endpoint::L2(4)]));
        let store = builder
            .params(params())
            .backend(BackendKind::Mbr)
            .fault_plan(plan)
            .trace(true)
            .build()
            .unwrap();
        // On failure the guard prints the repro seed line plus the last trace
        // events (messages blocked at the split included).
        let _repro = {
            let admin = store.admin();
            _repro.with_trace(move || Some(admin.trace_dump().tail_jsonl(64)))
        };

        let recorder = Recorder::new();
        let mut client = recorder.wrap(store.client_with_depth(8));
        client.set_timeout(Duration::from_secs(30));
        for round in 0..12u64 {
            for obj in 0..4u64 {
                client.submit_write(ObjectId(obj), format!("o{obj}-r{round}").as_bytes());
            }
            client.wait_all().expect("writes complete across the split");
        }
        let mut reader = recorder.wrap(store.client());
        reader.set_timeout(Duration::from_secs(30));
        for obj in 0..4u64 {
            reader
                .read(ObjectId(obj))
                .expect("reads complete across the split");
        }
        recorder.check();

        let faults = store.admin().metrics().transport_faults;
        assert!(
            faults.partitioned > 0,
            "[{label}] the partition never blocked anything: {faults:?}"
        );
        assert_eq!(
            faults.dropped + faults.duplicated + faults.delayed + faults.reordered,
            0,
            "[{label}] a partition-only plan must not inject probabilistic faults: {faults:?}"
        );
        // The recorder saw the same story: partition fault events (kind code
        // 3) and nothing but partitions among the transport faults.
        let dump = store.admin().trace_dump();
        let partition_faults = dump
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::TransportFault)
            .collect::<Vec<_>>();
        assert!(
            !partition_faults.is_empty(),
            "the trace must carry the partition's blocked messages"
        );
        assert!(
            partition_faults.iter().all(|e| e.a == 3),
            "a partition-only plan must trace only partition faults"
        );
        store.shutdown();
    }
}

/// An outbound-only partition: the victim hears the cluster but its replies
/// never leave — indistinguishable from a crash to everyone else, and still
/// within the failure budget.
#[test]
fn an_outbound_only_partition_looks_like_a_crash_and_is_tolerated() {
    let seed = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(seed, "partition");
    let plan = FaultPlan::seeded(seed).partition(
        PartitionSpec::isolate(&[Endpoint::L1(1)]).direction(PartitionDirection::Outbound),
    );
    let store = StoreBuilder::new()
        .params(params())
        .backend(BackendKind::Mbr)
        .fault_plan(plan)
        .trace(true)
        .build()
        .unwrap();
    let _repro = {
        let admin = store.admin();
        _repro.with_trace(move || Some(admin.trace_dump().tail_jsonl(64)))
    };
    let mut client = store.client();
    client.set_timeout(Duration::from_secs(30));
    for i in 0..10u64 {
        let value = format!("muted-{i}").into_bytes();
        client.write(ObjectId(3), &value).unwrap();
        assert_eq!(client.read(ObjectId(3)).unwrap(), value);
    }
    let faults = store.admin().metrics().transport_faults;
    assert!(
        faults.partitioned > 0,
        "the one-way split never blocked a reply: {faults:?}"
    );
    store.shutdown();
}

/// Duplicated data messages: every PUT-DATA, WRITE-CODE-ELEM and COMMIT-TAG
/// may be delivered twice, so L1 sees a value again after it committed or
/// offloaded it and L2 stores and acknowledges an element twice. Values
/// must still round-trip byte-identically and the duplicates must not leak
/// into L1 metadata or temporary storage.
#[test]
fn duplicated_data_messages_never_corrupt_values_or_leak_state() {
    const KIB: usize = 1 << 10;
    let seed = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(seed, "partition");
    let plan = FaultPlan::seeded(seed).rule(
        FaultRule::new()
            .classes(&["PUT-DATA", "WRITE-CODE-ELEM", "COMMIT-TAG"])
            .duplicate_prob(0.3),
    );
    let store = StoreBuilder::new()
        .params(params())
        .backend(BackendKind::Mbr)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut writer = store.client();
    let mut reader = store.client();
    writer.set_timeout(Duration::from_secs(30));
    reader.set_timeout(Duration::from_secs(30));
    let sizes = [KIB - 1, 3 * KIB + 17, 16 * KIB];
    for round in 0..4usize {
        for (obj, len) in (1u64..).zip(sizes) {
            let value: Vec<u8> = (0..len)
                .map(|i| ((i * 31 + round * 7 + obj as usize) % 251) as u8)
                .collect();
            writer.write(ObjectId(obj), &value).unwrap();
            assert_eq!(
                reader.read(ObjectId(obj)).unwrap(),
                value,
                "round {round}: {len}-byte value corrupted under duplicated data messages"
            );
        }
    }
    // Let in-flight duplicates land, then check nothing leaked.
    std::thread::sleep(Duration::from_millis(200));
    let m = store.admin().metrics();
    assert!(
        m.transport_faults.duplicated > 0,
        "the duplicate rule never fired: {:?}",
        m.transport_faults
    );
    assert!(
        m.l1_metadata_entries < 200,
        "duplicated data messages leaked metadata: {} entries for 12 writes",
        m.l1_metadata_entries
    );
    // Temporary storage is bounded by committed values plus in-flight slack,
    // never by the number of (duplicated) messages that flowed through.
    let committed: usize = sizes.iter().sum();
    assert!(
        m.l1_temporary_bytes <= 8 * committed,
        "duplicated data messages leaked temporary bytes: {}",
        m.l1_temporary_bytes
    );
    store.shutdown();
}

/// Every COMMIT-TAG and broadcast relay is held 1–5 ms, so data routinely
/// overtakes the metadata that commits it. Sequential read-after-write must
/// still be atomic — the `QUERY-COMM-TAG` round and the gossip broadcast
/// primitive have to absorb the reordering.
#[test]
fn commit_tags_reordered_behind_data_keep_reads_atomic() {
    let seed = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(seed, "partition");
    let plan = FaultPlan::seeded(seed).rule(
        FaultRule::new()
            .classes(&["COMMIT-TAG", "BCAST-SEND"])
            .delay_prob(0.5)
            .reorder_prob(0.5)
            .delay_window(Duration::from_millis(1), Duration::from_millis(5)),
    );
    let store = StoreBuilder::new()
        .params(params())
        .backend(BackendKind::Mbr)
        .fault_plan(plan)
        .build()
        .unwrap();
    let recorder = Recorder::new();
    let mut writer = recorder.wrap(store.client());
    let mut reader = recorder.wrap(store.client());
    writer.set_timeout(Duration::from_secs(30));
    reader.set_timeout(Duration::from_secs(30));
    for i in 0..30u64 {
        writer
            .write(ObjectId(9), format!("commit-{i}").as_bytes())
            .expect("write under delayed commits");
        reader
            .read(ObjectId(9))
            .expect("read under delayed commits");
    }
    recorder.check();
    let faults = store.admin().metrics().transport_faults;
    assert!(
        faults.delayed > 0 && faults.reordered > 0,
        "the delay/reorder rules never fired: {faults:?}"
    );
    store.shutdown();
}

/// One point of the CI fault matrix: `LDS_FAULT_PLAN` picks the plan family
/// (`drop` | `delay` | `duplicate` | `partition`, defaulting to
/// `duplicate`), `LDS_CHAOS_SEED` the seed — CI rotates both. The same
/// workload and the same assertions run under every family and both
/// profiles: all operations complete, the recorded history is atomic, and
/// the family's own fault counter is non-zero.
#[test]
fn fault_matrix_point() {
    /// Every write carries a value of this many bytes, so every family has
    /// data traffic to act on.
    const LEN: usize = 1037;
    let seed = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(seed, "partition");
    let family = std::env::var("LDS_FAULT_PLAN").unwrap_or_else(|_| "duplicate".to_string());
    let plan = match family.as_str() {
        // A fully lossy server — both directions, pings included. Crash-like
        // and inside the f1 budget, so quorums must route around it.
        "drop" => FaultPlan::seeded(seed)
            .rule(FaultRule::new().only_to(&[Endpoint::L1(0)]).drop_prob(1.0))
            .rule(
                FaultRule::new()
                    .only_from(&[Endpoint::L1(0)])
                    .drop_prob(1.0),
            ),
        // Every link jittery, nothing lost.
        "delay" => FaultPlan::seeded(seed).rule(
            FaultRule::new()
                .delay_prob(0.3)
                .delay_window(Duration::ZERO, Duration::from_millis(3)),
        ),
        // At-least-once delivery on the data messages and the broadcast.
        "duplicate" => FaultPlan::seeded(seed).rule(
            FaultRule::new()
                .classes(&["PUT-DATA", "WRITE-CODE-ELEM", "COMMIT-TAG", "BCAST-SEND"])
                .duplicate_prob(0.25),
        ),
        // A mid-run split that heals.
        "partition" => FaultPlan::seeded(seed).partition(
            PartitionSpec::isolate(&[Endpoint::L1(0), Endpoint::L2(0)])
                .starting_at(Duration::from_millis(50))
                .healing_at(Duration::from_millis(400)),
        ),
        other => panic!("unknown LDS_FAULT_PLAN {other:?}"),
    };
    for (label, builder) in profiles() {
        let store = builder
            .params(params())
            .backend(BackendKind::Mbr)
            .fault_plan(plan.clone())
            .build()
            .unwrap();
        let built = Instant::now();
        let recorder = Recorder::new();
        let mut client = recorder.wrap(store.client_with_depth(4));
        client.set_timeout(Duration::from_secs(30));
        let mut rounds = 0u64;
        // At least 10 rounds, and keep going until the scheduled faults (the
        // partition window ends at 400 ms) have had live traffic to act on —
        // a fast machine must not outrun the plan.
        while rounds < 10 || built.elapsed() < Duration::from_millis(600) {
            for obj in 0..3u64 {
                let fill = (17 * rounds + obj) as u8;
                client.submit_write(ObjectId(obj), &vec![fill; LEN]);
            }
            client
                .wait_all()
                .expect("writes complete under the fault plan");
            rounds += 1;
        }
        for obj in 0..3u64 {
            client
                .read(ObjectId(obj))
                .expect("reads complete under the fault plan");
        }
        recorder.check();
        let faults = store.admin().metrics().transport_faults;
        let fired = match family.as_str() {
            "drop" => faults.dropped,
            "delay" => faults.delayed,
            "duplicate" => faults.duplicated,
            "partition" => faults.partitioned,
            _ => unreachable!(),
        };
        assert!(
            fired > 0,
            "[{family}, {label}] the plan never injected: {faults:?}"
        );
        store.shutdown();
    }
}

/// Slow is not dead: a plan that only *delays* traffic — every liveness
/// ping held 1–8 ms, metadata rounds jittered — must not trip the heartbeat
/// monitor. No suspicion, no repair attempt, no repair report; the injected
/// faults are visible only in the transport counters.
#[test]
fn delay_only_faults_never_trigger_auto_repair() {
    let seed = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(seed, "partition");
    let p = params();
    let plan = FaultPlan::seeded(seed)
        .rule(
            FaultRule::new()
                .classes(&["PING"])
                .delay_prob(1.0)
                .delay_window(Duration::from_millis(1), Duration::from_millis(8)),
        )
        .rule(
            FaultRule::new()
                .classes(&["QUERY-TAG", "TAG-RESP", "COMMIT-TAG"])
                .delay_prob(0.5)
                .delay_window(Duration::ZERO, Duration::from_millis(5)),
        );
    let store = StoreBuilder::new()
        .params(p)
        .backend(BackendKind::Mbr)
        .fault_plan(plan)
        .self_heal_with(HealConfig {
            beat_interval: Duration::from_millis(30),
            // 300 ms staleness: far above the 8 ms injected jitter, and with
            // headroom for scheduler stalls of the delay pump itself on a
            // loaded CI box — every ping rides through the pump here.
            suspicion_intervals: 10,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            max_concurrent_repairs: 2,
            jitter_seed: seed,
        })
        .build()
        .unwrap();
    let admin = store.admin();
    let mut client = store.client();
    client.set_timeout(Duration::from_secs(30));
    let deadline = Instant::now() + Duration::from_millis(1200);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let value = format!("jitter-{i}").into_bytes();
        client.write(ObjectId(5), &value).unwrap();
        assert_eq!(client.read(ObjectId(5)).unwrap(), value);
        i += 1;
    }
    let m = admin.metrics();
    assert!(
        m.transport_faults.delayed > 0,
        "the delay rules never fired: {:?}",
        m.transport_faults
    );
    assert_eq!(
        m.heal_suspicions_raised, 0,
        "delay-only faults raised a false suspicion"
    );
    assert_eq!(
        m.heal_repairs_attempted, 0,
        "delay-only faults triggered a repair attempt"
    );
    assert!(
        admin.repair_reports().is_empty(),
        "delay-only faults produced a repair report"
    );
    assert_eq!(m.live_l1, p.n1());
    assert_eq!(m.live_l2, p.n2());
    store.shutdown();
}

/// Dead behind a split *is* dead: a real partition makes the victim's
/// heartbeats stale (suspicion fires), but the supervisor refuses to repair
/// a server that is merely unreachable. Once the server actually crashes
/// mid-partition, the supervisor keeps attempting through the split and
/// regenerates it after the heal — committed data intact.
#[test]
fn a_partitioned_then_killed_server_is_healed_after_the_split() {
    let seed = chaos_seed(DEFAULT_SEED);
    let _repro = repro_guard(seed, "partition");
    let p = params();
    let plan = FaultPlan::seeded(seed).partition(
        PartitionSpec::isolate(&[Endpoint::L1(0)])
            .starting_at(Duration::from_millis(250))
            .healing_at(Duration::from_millis(2000)),
    );
    let store = StoreBuilder::new()
        .params(p)
        .backend(BackendKind::Mbr)
        .fault_plan(plan)
        .repair_timeout(Duration::from_secs(2))
        .self_heal_with(HealConfig {
            beat_interval: Duration::from_millis(15),
            suspicion_intervals: 4,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_millis(250),
            max_concurrent_repairs: 2,
            jitter_seed: seed,
        })
        .build()
        .unwrap();
    let admin = store.admin();
    let mut client = store.client();
    client.set_timeout(Duration::from_secs(30));
    // Committed state the repair must regenerate.
    for obj in 0..4u64 {
        client
            .write(ObjectId(obj), &vec![obj as u8 + 1; 256])
            .unwrap();
    }

    // The partition starts and the victim's beats go stale: suspicion fires.
    // A host stall can raise a suspicion before the partition window opens,
    // so the wait also ends only once the split has dropped a message.
    let suspect_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = admin.metrics();
        if m.heal_suspicions_raised > 0 && m.transport_faults.partitioned > 0 {
            break;
        }
        assert!(
            Instant::now() < suspect_deadline,
            "the partition never made L1(0) suspect: {} suspicions, {} partitioned messages",
            m.heal_suspicions_raised,
            m.transport_faults.partitioned
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Suspected, but alive: the supervisor must not have repaired anything.
    assert!(admin.is_live(ServerRef::l1(0)).unwrap());
    assert_eq!(
        admin.metrics().heal_repairs_succeeded,
        0,
        "the supervisor repaired a live, merely-partitioned server"
    );

    // Now it really dies — mid-partition (the kill signal is control-plane,
    // never intercepted by the transport).
    admin.kill(ServerRef::l1(0)).unwrap();
    let heal_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = admin.metrics();
        if m.heal_repairs_succeeded >= 1 && m.live_l1 == p.n1() && admin.liveness().all_live() {
            break;
        }
        assert!(
            Instant::now() < heal_deadline,
            "the supervisor never healed the killed server after the split: {:?}",
            admin.liveness().crashed()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        !admin.repair_reports().is_empty(),
        "a successful supervisor repair must leave a report"
    );
    assert!(admin.metrics().transport_faults.partitioned > 0);
    for obj in 0..4u64 {
        assert_eq!(
            client.read(ObjectId(obj)).expect("read after the heal"),
            vec![obj as u8 + 1; 256],
            "object {obj} lost its committed value across partition + crash + repair"
        );
    }
    store.shutdown();
}

#[test]
fn parses_decimal_hex_and_underscores() {
    assert_eq!(parse_seed("42"), Some(42));
    assert_eq!(parse_seed("0xC4A0_5EED"), Some(0xC4A0_5EED));
    assert_eq!(parse_seed("0Xff"), Some(255));
    assert_eq!(parse_seed("1_000"), Some(1000));
    assert_eq!(parse_seed("nope"), None);
    assert_eq!(parse_seed(""), None);
}

#[test]
fn guard_is_silent_on_success() {
    let _guard = repro_guard(7, "partition");
    // Dropping without a panic must not print or panic itself.
}
