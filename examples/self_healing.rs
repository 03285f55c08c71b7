//! **Self-healing** demo: crashes are detected and repaired by the store
//! itself — no `Admin::repair` call anywhere in this file.
//!
//! With `StoreBuilder::self_heal` the deployment runs a heartbeat monitor
//! (every server's worker shards stamp a beat each time they pass their
//! inbox; stale beats turn into per-server *suspicion*, visible through
//! `Admin::liveness`) and an auto-repair supervisor (suspected crashed
//! servers are regenerated online with jittered exponential backoff, at a
//! bounded number of concurrent repairs). This example kills a server in
//! each layer, writes through the degraded window, and just *waits* for the
//! failure budget to come back — then prints the heal counters and the
//! Prometheus text exposition a metrics endpoint would serve.
//!
//! Runs entirely offline (in-process threads, no network).
//! Run with: `cargo run --example self_healing`

use lds_cluster::api::{Admin, ObjectId, ServerRef, Store, StoreBuilder};
use lds_cluster::HealConfig;
use lds_core::backend::BackendKind;
use std::time::{Duration, Instant};

/// Every server this example kills is back by engine ground truth
/// (`is_live`) AND nothing is suspected by the heartbeat monitor
/// (`liveness()`, which the `live_l1`/`live_l2` metrics count too). Right
/// after a kill the monitor still reports all-live for one detection window
/// (it has not missed enough beats yet), so a heal-wait must check both.
fn fully_healed(admin: &Admin) -> bool {
    let killed = [ServerRef::l1(0), ServerRef::l2(2), ServerRef::l2(4)];
    killed.iter().all(|&server| admin.is_live(server).unwrap()) && admin.liveness().all_live()
}

fn main() {
    // Tight tuning so the demo heals in hundreds of milliseconds; the
    // defaults (50 ms beats, 4 missed beats to suspect) suit real runs.
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Mbr)
        .self_heal_with(HealConfig {
            beat_interval: Duration::from_millis(15),
            suspicion_intervals: 3,
            backoff_base: Duration::from_millis(25),
            ..HealConfig::default()
        })
        .build()
        .expect("valid configuration");
    println!("system parameters: {}", store.params());
    let admin = store.admin();
    let mut client = store.client();

    for obj in 0..8u64 {
        client.write(ObjectId(obj), &vec![obj as u8; 1024]).unwrap();
    }
    println!("wrote 8 objects of 1 KiB");

    // Crash one server per layer. Nobody will repair these by hand.
    admin.kill(ServerRef::l1(0)).unwrap();
    admin.kill(ServerRef::l2(2)).unwrap();
    client
        .write(ObjectId(1), b"written while degraded")
        .unwrap();
    println!("killed L1[0] and L2[2]; operations still complete");

    // Wait for the monitor to suspect them and the supervisor to heal them.
    let start = Instant::now();
    let deadline = start + Duration::from_secs(30);
    while !fully_healed(&admin) {
        assert!(
            Instant::now() < deadline,
            "self-heal should finish well within 30 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "self-healed in {:?}: no Admin::repair call in this whole example",
        start.elapsed()
    );

    // Budget restored: a second crash round is tolerated (and healed too).
    admin.kill(ServerRef::l2(4)).unwrap();
    assert_eq!(
        client.read(ObjectId(1)).unwrap(),
        b"written while degraded".to_vec()
    );
    while !fully_healed(&admin) {
        assert!(Instant::now() < deadline, "second heal round stalled");
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("second crash tolerated and healed");

    // The supervisor counts a success when it reaps the finished repair
    // worker, up to one beat interval after the server is back — poll
    // briefly instead of racing that bookkeeping.
    while admin.metrics().heal_repairs_succeeded < 3 {
        assert!(Instant::now() < deadline, "heal counters never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = admin.metrics();
    println!(
        "heal counters: {} suspicions, {} attempts, {} succeeded, {} backed off",
        metrics.heal_suspicions_raised,
        metrics.heal_repairs_attempted,
        metrics.heal_repairs_succeeded,
        metrics.heal_repairs_backed_off,
    );
    println!("--- Prometheus exposition (what a /metrics endpoint serves) ---");
    print!("{}", metrics.to_prometheus());

    drop(client);
    store.shutdown();
}
