//! Contract tests for the `Store` facade itself: builder validation,
//! `StoreError` mapping on the non-blocking path, the atomicity and
//! `poll_wait` contracts under both protocol profiles, and the `Admin`
//! control plane. The atomicity contract ends in
//! `History::check_atomicity` over the recorded operations.

mod common;

use common::{profiles, Recorder};
use lds_cluster::api::{Admin, ObjectId, ServerRef, Store, StoreBuilder, StoreError, StoreHandle};
use lds_cluster::{FaultPlan, FaultRule, HealConfig, OpOutcome, RepairError};
use lds_core::backend::BackendKind;
use lds_core::tag::Tag;
use lds_core::Profile;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Builder validation: every invalid combination is an InvalidConfig at
// build() time — nothing is spawned, nothing panics.
// ---------------------------------------------------------------------

#[test]
fn builder_rejects_impossible_quorum_combinations() {
    // k > d violates the MBR construction.
    let err = StoreBuilder::new().failures(1, 1).code(5, 3).build();
    assert!(matches!(err, Err(StoreError::InvalidConfig(_))), "{err:?}");
    // k = 0 (degenerate code).
    let err = StoreBuilder::new().failures(1, 1).code(0, 3).build();
    assert!(matches!(err, Err(StoreError::InvalidConfig(_))), "{err:?}");
    // d = f2 violates d > f2 (the L2 quorum intersection argument).
    let err = StoreBuilder::new().failures(1, 3).code(2, 3).build();
    assert!(matches!(err, Err(StoreError::InvalidConfig(_))), "{err:?}");
}

#[test]
fn builder_rejects_backend_incompatible_code_parameters() {
    // A true product-matrix MSR code needs d >= 2k - 2: k=4, d=5 < 6.
    let err = StoreBuilder::new()
        .failures(1, 1)
        .code(4, 5)
        .backend(BackendKind::ProductMatrixMsr)
        .build();
    assert!(matches!(err, Err(StoreError::InvalidConfig(_))), "{err:?}");
    // The same parameters are fine for MBR (k <= d is all it needs).
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(4, 5)
        .backend(BackendKind::Mbr)
        .build()
        .unwrap();
    store.shutdown();
}

#[test]
fn builder_rejects_zero_sized_knobs() {
    for (label, result) in [
        ("shards", StoreBuilder::new().shards(0).build()),
        ("depth", StoreBuilder::new().pipeline_depth(0).build()),
        (
            "repair_timeout",
            StoreBuilder::new().repair_timeout(Duration::ZERO).build(),
        ),
    ] {
        assert!(
            matches!(result, Err(StoreError::InvalidConfig(_))),
            "zero {label} must be rejected at build() time: {result:?}"
        );
    }
}

#[test]
fn builder_rejects_invalid_heal_configs() {
    let bad = [
        HealConfig {
            beat_interval: Duration::ZERO,
            ..HealConfig::default()
        },
        HealConfig {
            suspicion_intervals: 0,
            ..HealConfig::default()
        },
        HealConfig {
            backoff_base: Duration::ZERO,
            ..HealConfig::default()
        },
        HealConfig {
            backoff_base: Duration::from_secs(10),
            backoff_max: Duration::from_secs(1),
            ..HealConfig::default()
        },
        HealConfig {
            max_concurrent_repairs: 0,
            ..HealConfig::default()
        },
    ];
    for config in bad {
        let result = StoreBuilder::new().self_heal_with(config).build();
        assert!(
            matches!(result, Err(StoreError::InvalidConfig(_))),
            "invalid heal config must be rejected at build() time: {result:?}"
        );
    }
}

#[test]
fn builder_error_messages_name_the_problem() {
    let Err(StoreError::InvalidConfig(msg)) = StoreBuilder::new().failures(1, 1).code(5, 3).build()
    else {
        panic!("expected InvalidConfig");
    };
    assert!(
        msg.contains("k"),
        "message should explain the constraint: {msg}"
    );
}

#[test]
fn builder_axes_reach_the_deployment() {
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Replication)
        .high_throughput(2)
        .build()
        .unwrap();
    assert_eq!(store.backend(), BackendKind::Replication);
    assert_eq!(store.params().n1(), 4);
    let options = store.options();
    assert_eq!(options.shards, 2);
    assert_eq!(options.pipeline_depth, 32);
    store.shutdown();
}

/// The profile methods set the profile (plus shards and depth for
/// `high_throughput`) and nothing else, so they commute with every other
/// setting: before the profile was a field of its own, `high_throughput`
/// after another data-path setting silently reset it.
#[test]
fn profile_methods_commute_with_other_settings() {
    let timeout = Duration::from_secs(7);
    let settings_first = StoreBuilder::new()
        .repair_timeout(timeout)
        .high_throughput(2);
    let profile_first = StoreBuilder::new()
        .high_throughput(2)
        .repair_timeout(timeout);
    for (builder, profile) in [
        (settings_first.clone(), Profile::HighThroughput),
        (profile_first.clone(), Profile::HighThroughput),
        (settings_first.paper_faithful(), Profile::PaperFaithful),
        (profile_first.paper_faithful(), Profile::PaperFaithful),
    ] {
        let store = builder.build().unwrap();
        let options = store.options();
        assert_eq!(options.profile, profile);
        assert_eq!(options.repair_timeout, timeout);
        assert_eq!((options.shards, options.pipeline_depth), (2, 32));
        store.shutdown();
    }
}

// ---------------------------------------------------------------------
// Store-generic atomicity: ONE test body, generic over `impl Store`, run
// under both profiles.
// ---------------------------------------------------------------------

/// The atomicity contract, written once against the trait. Per-key FIFO is
/// asserted here: one client's same-key write tags rise in submission
/// order, and a read queued behind two writes returns the second. Atomicity
/// itself is the checker's, over everything the client completed.
fn atomicity_contract<S: Store>(client: &mut S) {
    client.set_timeout(Duration::from_secs(30));
    let keys: Vec<ObjectId> = (0..6u64).map(ObjectId).collect();
    let mut last_tag: HashMap<u64, Tag> = HashMap::new();
    for round in 0..4u64 {
        for &key in &keys {
            client.submit_write(key, format!("{key}-{round}-a").as_bytes());
            client.submit_write(key, format!("{key}-{round}-b").as_bytes());
            client.submit_read(key);
        }
        for completion in client.wait_all().expect("round completes") {
            match &completion.outcome {
                OpOutcome::Write { tag } => {
                    if let Some(prev) = last_tag.insert(completion.obj, *tag) {
                        assert!(*tag > prev, "same-key writes committed out of order");
                    }
                }
                OpOutcome::Read { value, .. } => {
                    assert_eq!(
                        value,
                        &format!("{}-{round}-b", completion.key()).into_bytes()
                    );
                }
            }
        }
    }
    // Final blocking reads of every key, for the checker to judge.
    for &key in &keys {
        client.read(key).unwrap();
        assert!(client.last_tag().is_some());
    }
}

#[test]
fn atomicity_contract_holds_generically_over_both_topologies() {
    for (_, builder) in profiles() {
        let store = builder.backend(BackendKind::Mbr).build().unwrap();
        let recorder = Recorder::new();
        atomicity_contract(&mut recorder.wrap(store.client_with_depth(8)));
        recorder.check();
        store.shutdown();
    }
}

// ---------------------------------------------------------------------
// `poll_wait`: the deadline-bounded wait and its waker.
// ---------------------------------------------------------------------

/// The `poll_wait` contract, written once against the trait. `store` delays
/// every TAG-RESP by `TAG_DELAY`, so a write cannot complete — and its
/// client cannot receive anything at all — sooner than that.
fn poll_wait_contract<S: Store>(store: &StoreHandle, client: &mut S) {
    // Nothing outstanding: returns at once, however long the wait allowed.
    let started = Instant::now();
    assert!(client
        .poll_wait(Duration::from_secs(30))
        .unwrap()
        .is_empty());
    assert!(started.elapsed() < Duration::from_secs(10));

    // Expiry is not an error and aborts nothing.
    let tickets: Vec<_> = (0..4u64)
        .map(|k| client.submit_write(ObjectId(k), format!("v{k}").as_bytes()))
        .collect();
    let started = Instant::now();
    let harvested = client.poll_wait(TAG_DELAY / 8).unwrap();
    assert!(harvested.is_empty(), "nothing can have completed yet");
    assert!(
        started.elapsed() >= TAG_DELAY / 8,
        "waited out its deadline"
    );
    assert_eq!(client.pending_ops(), tickets.len(), "expiry aborted ops");

    // Later calls harvest every ticket, each exactly once.
    let mut done = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while done.len() < tickets.len() {
        assert!(Instant::now() < deadline, "tickets were not redeemable");
        done.extend(client.poll_wait(Duration::from_secs(1)).unwrap());
    }
    let mut got: Vec<_> = done.iter().map(|c| c.ticket).collect();
    got.sort();
    assert_eq!(got, tickets);
    assert_eq!(client.pending_ops(), 0);

    // With every quorum out of reach an operation stalls for good and, one
    // straggling reply apart, its client never receives another message.
    let admin = store.admin();
    for index in 0..3 {
        admin.kill(ServerRef::l1(index)).unwrap();
    }
    for k in 0..4u64 {
        client.submit_write(ObjectId(k), b"stalled");
    }
    loop {
        // Until one full, undisturbed expiry: the stragglers are in.
        let started = Instant::now();
        assert!(client.poll_wait(TAG_DELAY * 2).unwrap().is_empty());
        if started.elapsed() >= TAG_DELAY * 2 {
            break;
        }
    }

    // So only a wake can end a long wait early: one delivered while the
    // client is blocked ...
    let waker = client.waker();
    let blocked = std::thread::spawn({
        let waker = waker.clone();
        move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        }
    });
    let started = Instant::now();
    assert!(client
        .poll_wait(Duration::from_secs(120))
        .unwrap()
        .is_empty());
    assert!(started.elapsed() < Duration::from_secs(60), "wake was lost");
    blocked.join().unwrap();
    // ... and one delivered before it blocks, which must not be lost either.
    std::thread::spawn(move || waker.wake()).join().unwrap();
    let started = Instant::now();
    assert!(client
        .poll_wait(Duration::from_secs(120))
        .unwrap()
        .is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "early wake lost"
    );
    assert_eq!(client.pending_ops(), 4, "a wake aborts nothing");

    // The contrast: a `wait_next` timeout aborts every outstanding op.
    client.set_timeout(Duration::from_millis(50));
    assert_eq!(client.wait_next().unwrap_err(), StoreError::Timeout);
    assert_eq!(client.pending_ops(), 0);
}

/// How long the `poll_wait` stores hold every TAG-RESP back.
const TAG_DELAY: Duration = Duration::from_millis(400);

#[test]
fn poll_wait_contract_holds_over_both_topologies() {
    for (_, builder) in profiles() {
        let plan = FaultPlan::seeded(7).rule(
            FaultRule::new()
                .classes(&["TAG-RESP"])
                .delay_prob(1.0)
                .delay_window(TAG_DELAY, TAG_DELAY),
        );
        let store = builder
            .backend(BackendKind::Mbr)
            .fault_plan(plan)
            .build()
            .unwrap();
        poll_wait_contract(&store, &mut store.client_with_depth(8));
        store.shutdown();
    }
}

// ---------------------------------------------------------------------
// Admin control plane.
// ---------------------------------------------------------------------

#[test]
fn admin_rejects_out_of_range_server_refs() {
    let store = StoreBuilder::new().build().unwrap();
    let admin = store.admin();
    // Layer index out of range (n1 = 4, n2 = 5).
    assert!(matches!(
        admin.kill(ServerRef::l2(5)),
        Err(StoreError::InvalidConfig(_))
    ));
    assert!(matches!(
        admin.is_live(ServerRef::l1(99)),
        Err(StoreError::InvalidConfig(_))
    ));
    // Repairing a live server surfaces the repair error through StoreError.
    assert!(matches!(
        admin.repair(ServerRef::l2(0)),
        Err(StoreError::Repair(RepairError::NotCrashed))
    ));
    store.shutdown();
}

/// `(live L1, live L2)` servers as [`Admin::liveness`] reports them.
fn observed_live(admin: &Admin) -> (usize, usize) {
    let liveness = admin.liveness();
    let live = |layer: &[bool]| layer.iter().filter(|&&live| live).count();
    (live(&liveness.l1), live(&liveness.l2))
}

#[test]
fn admin_metrics_and_liveness_reflect_the_deployment() {
    let store = StoreBuilder::new()
        .backend(BackendKind::Mbr)
        .build()
        .unwrap();
    let admin = store.admin();
    let params = store.params();
    let metrics = admin.metrics();
    assert_eq!(metrics.live_l1, params.n1());
    assert_eq!(metrics.live_l2, params.n2());
    assert_eq!(metrics.repairs_completed, 0);
    assert_eq!(admin.inbox_depths().len(), params.n1());

    let victim = ServerRef::l2(1);
    admin.kill(victim).unwrap();
    assert_eq!(admin.is_live(victim), Ok(false));
    let liveness = admin.liveness();
    assert!(!liveness.all_live());
    assert_eq!(liveness.crashed(), vec![victim]);
    let metrics = admin.metrics();
    assert_eq!(metrics.live_l2, params.n2() - 1);
    assert_eq!((metrics.live_l1, metrics.live_l2), observed_live(&admin));

    // Data still flows (f2 = 1 tolerated); then repair restores liveness.
    let mut client = store.client();
    client.write(ObjectId(3), b"during the outage").unwrap();
    let report = admin.repair(victim).unwrap();
    assert_eq!(report.index, 1);
    assert!(admin.liveness().all_live());
    assert_eq!(admin.repair_reports().len(), 1);
    assert_eq!(admin.metrics().repairs_completed, 1);
    drop(client);
    store.shutdown();
}

/// `live_l1`/`live_l2` and `Admin::liveness` are one view at every moment of
/// a crash's life on a self-healing store — still "live" until the monitor
/// suspects the victim, down until the replacement beats — not the
/// crash-injection map in one and the monitor's suspicion in the other.
#[test]
fn metrics_and_liveness_agree_from_a_kill_to_its_supervised_repair() {
    let store = StoreBuilder::new()
        .self_heal_with(HealConfig {
            beat_interval: Duration::from_millis(10),
            ..HealConfig::default()
        })
        .build()
        .unwrap();
    let admin = store.admin();
    let all = (store.params().n1(), store.params().n2());
    admin.kill(ServerRef::l2(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen_down = false;
    loop {
        // Liveness moves on its own; a sample counts when it held still
        // around the snapshot.
        let before = observed_live(&admin);
        let metrics = admin.metrics();
        let after = observed_live(&admin);
        if before == after {
            assert_eq!((metrics.live_l1, metrics.live_l2), before);
        }
        seen_down |= after.1 < all.1;
        if seen_down && after == all && metrics.heal_repairs_succeeded == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "never healed: {metrics:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    store.shutdown();
}

/// The repair-claim exclusivity contract, at the `Admin` level: two racing
/// `Admin::repair` calls on the same crashed server admit exactly one
/// coordinator (the loser observes `RepairInProgress`), and after a timed-out
/// attempt the claim is released so a retry succeeds.
#[test]
fn racing_admin_repairs_admit_exactly_one_coordinator() {
    let store = StoreBuilder::new()
        .backend(BackendKind::Mbr)
        .build()
        .unwrap();
    let admin = store.admin();
    // A settled population keeps the repair busy long enough that both
    // racers overlap: the winner is still streaming helper data while the
    // loser asks for the claim.
    let mut setup = store.client_with_depth(8);
    for obj in 0..48u64 {
        setup.submit_write(ObjectId(obj), &vec![obj as u8; 2048]);
    }
    setup.wait_all().unwrap();
    let victim = ServerRef::l2(1);
    admin.kill(victim).unwrap();

    // A zero per-call timeout is rejected up front…
    assert!(matches!(
        admin.repair_with_timeout(victim, Duration::ZERO),
        Err(StoreError::InvalidConfig(_))
    ));
    // …and an expired deadline times the repair out deterministically,
    // releasing the claim and leaving the server crashed.
    assert!(matches!(
        admin.repair_with_timeout(victim, Duration::from_nanos(1)),
        Err(StoreError::Repair(RepairError::Timeout))
    ));
    assert_eq!(admin.is_live(victim), Ok(false));

    // Post-timeout retry, raced from two threads: exactly one wins.
    let barrier = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let admin = admin.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                admin.repair(victim)
            })
        })
        .collect();
    let outcomes: Vec<_> = racers.into_iter().map(|h| h.join().unwrap()).collect();
    let wins = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(
        wins, 1,
        "exactly one racer may hold the claim: {outcomes:?}"
    );
    assert!(
        outcomes
            .iter()
            .any(|r| matches!(r, Err(StoreError::Repair(RepairError::RepairInProgress)))),
        "the loser must observe the held claim: {outcomes:?}"
    );
    assert_eq!(admin.is_live(victim), Ok(true));
    assert_eq!(admin.metrics().repairs_completed, 1);
    drop(setup);
    store.shutdown();
}

/// The bounded repair-report history: with `repair_log_cap(2)`, a third
/// repair evicts the oldest report; the eviction is counted and the exact
/// completed-repairs counter is unaffected.
#[test]
fn repair_report_history_is_bounded_and_counts_evictions() {
    let store = StoreBuilder::new()
        .backend(BackendKind::Mbr)
        .repair_log_cap(2)
        .build()
        .unwrap();
    let admin = store.admin();
    let mut client = store.client();
    for obj in 0..4u64 {
        client
            .write(ObjectId(obj), b"make repairs move bytes")
            .unwrap();
    }
    for round in 0..3 {
        let victim = ServerRef::l2(round % 2);
        admin.kill(victim).unwrap();
        admin.repair(victim).unwrap();
    }
    let metrics = admin.metrics();
    assert_eq!(admin.repair_reports().len(), 2, "history capped at 2");
    assert_eq!(metrics.repair_reports_dropped, 1, "one report evicted");
    assert_eq!(metrics.repairs_completed, 3, "the exact count survives");
    drop(client);
    store.shutdown();
}

#[test]
fn typed_keys_convert_ergonomically() {
    assert_eq!(ObjectId::from(7u64), ObjectId(7));
    assert_eq!(u64::from(ObjectId(7)), 7);
    assert_eq!(ObjectId(9).raw(), 9);
    let key: ObjectId = 11u64.into();
    assert_eq!(key.to_string(), "obj11");
}
