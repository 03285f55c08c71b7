//! End-to-end checks of the observability surfaces: the always-on metrics
//! registry (latency histograms, cache counters, server-internals
//! counters), the Prometheus exposition of all of it, and the opt-in
//! flight recorder — positive (trace on: ops, router sends and phases show
//! up; JSONL exports line-per-event) and negative (trace off: the dump is
//! empty and costs nothing to take).

use lds_cluster::api::{ObjectId, Store, StoreBuilder};
use lds_cluster::EventKind;
use std::time::{Duration, Instant};

#[test]
fn metrics_carry_latency_histograms_cache_counters_and_internals() {
    let store = StoreBuilder::new().read_cache(8).build().unwrap();
    let mut writer = store.client();
    for i in 0..8u64 {
        writer
            .write(ObjectId(i), format!("v{i}").as_bytes())
            .unwrap();
    }
    // A *separate* reading client: its cache starts empty, so the first
    // read round pays the data phase (misses) and the second — committed
    // tags unchanged — is served from the tag-validated cache (hits).
    let mut client = store.client();
    for round in 0..2 {
        for i in 0..8u64 {
            assert_eq!(
                client.read(ObjectId(i)).unwrap(),
                format!("v{i}").as_bytes(),
                "round {round}"
            );
        }
    }

    let admin = store.admin();
    let m = admin.metrics();
    assert_eq!(m.write_latency.count(), 8, "one sample per write");
    assert_eq!(m.read_latency.count(), 16, "one sample per read");
    assert!(m.phase_tag_latency.count() > 0, "tag phase never sampled");
    assert!(m.phase_data_latency.count() > 0, "data phase never sampled");
    assert!(
        m.phase_commit_latency.count() > 0,
        "commit phase never sampled"
    );
    // Latency percentiles are ordered and non-degenerate.
    assert!(m.write_latency.percentile(99.0) >= m.write_latency.percentile(50.0));
    assert!(m.write_latency.percentile(50.0) > 0);

    // Cache traffic: the reader's first round misses, its second hits;
    // both views (per-client trait accessors and the folded registry)
    // must agree. The writer contributes no reads.
    assert_eq!(client.cache_misses(), 8);
    assert_eq!(client.cache_hits(), 8);
    assert_eq!(m.cache_hits, client.cache_hits());
    assert_eq!(m.cache_misses, client.cache_misses());
    assert!(m.cache_hit_ratio() > 0.0 && m.cache_hit_ratio() < 1.0);

    // Server internals publish at shard idle — poll briefly rather than
    // racing the last wake-up.
    let deadline = Instant::now() + Duration::from_secs(5);
    let classes = loop {
        let m = admin.metrics();
        let total: u64 = m.messages_by_class.iter().map(|(_, c)| c).sum();
        if total > 0 || Instant::now() >= deadline {
            break m.messages_by_class;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let count = |name: &str| {
        classes
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    assert!(
        count("QUERY-TAG") > 0,
        "writes ran a tag quorum: {classes:?}"
    );
    assert!(count("PUT-DATA") > 0, "writes shipped data: {classes:?}");

    // The Prometheus exposition carries the new families.
    let text = admin.metrics().to_prometheus();
    for family in [
        "# TYPE lds_write_latency_seconds histogram",
        "# TYPE lds_read_latency_seconds histogram",
        "# TYPE lds_phase_tag_latency_seconds histogram",
        "# TYPE lds_phase_data_latency_seconds histogram",
        "# TYPE lds_phase_commit_latency_seconds histogram",
        "# TYPE lds_read_cache counter",
        "# TYPE lds_messages_total counter",
        "lds_read_cache{result=\"hit\"}",
        "lds_read_cache{result=\"miss\"}",
        "lds_write_latency_seconds_bucket{le=\"+Inf\"} 8",
        "lds_write_latency_seconds_count 8",
    ] {
        assert!(text.contains(family), "exposition lacks {family:?}");
    }

    store.shutdown();
}

#[test]
fn flight_recorder_traces_ops_when_on_and_stays_empty_when_off() {
    // Trace on: the client-op lifecycle and the servers' sends land in the
    // dump, and the JSONL export is one line per event.
    let store = StoreBuilder::new().trace(true).build().unwrap();
    let mut client = store.client();
    client.write(ObjectId(1), b"traced").unwrap();
    assert_eq!(client.read(ObjectId(1)).unwrap(), b"traced");
    let dump = store.admin().trace_dump();
    let count = |kind: EventKind| dump.events().iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(EventKind::OpSubmitted), 2, "one write + one read");
    assert_eq!(count(EventKind::OpCompleted), 2);
    assert!(count(EventKind::OpPhase) > 0, "phase transitions recorded");
    assert!(count(EventKind::RouterSend) > 0, "server sends recorded");
    // Time-ordered, line-per-event JSONL.
    assert!(dump.events().windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    assert_eq!(dump.to_jsonl().lines().count(), dump.len());
    assert!(dump.tail_jsonl(3).lines().count() <= 3);
    store.shutdown();

    // Trace off (the default): same workload, empty dump.
    let store = StoreBuilder::new().build().unwrap();
    let mut client = store.client();
    client.write(ObjectId(1), b"untraced").unwrap();
    client.read(ObjectId(1)).unwrap();
    assert!(store.admin().trace_dump().is_empty());
    store.shutdown();
}

/// Total of the per-class message counters, as published.
fn messages_total(m: &lds_cluster::MetricsSnapshot) -> u64 {
    m.messages_by_class.iter().map(|(_, count)| count).sum()
}

#[test]
fn gauges_keep_advancing_while_one_object_is_saturated() {
    let store = StoreBuilder::new().build().unwrap();
    let admin = store.admin();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load = {
        let (store, stop) = (store.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut client = store.client();
            let mut ops = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                client.write(ObjectId(7), &ops.to_le_bytes()).unwrap();
                client.read(ObjectId(7)).unwrap();
                ops += 2;
            }
            ops
        })
    };
    // Sampled mid-run, 50 ms apart: the servers publish when their worker
    // goes idle and at least every 10 ms while it does not, so every sample
    // has moved on from the previous one.
    let mut last = 0;
    for sample in 0..5 {
        std::thread::sleep(Duration::from_millis(50));
        let total = messages_total(&admin.metrics());
        assert!(total > last, "sample {sample}: {total} after {last}");
        last = total;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let ops = load.join().unwrap();
    // A write is 96 messages at the servers, a read of an offloaded value 64.
    assert!(
        last <= ops * 96,
        "{last} messages counted for {ops} operations"
    );
    store.shutdown();
}

#[test]
fn executor_counters_show_batched_turns_and_rare_parks() {
    let store = StoreBuilder::new().high_throughput(2).build().unwrap();
    let admin = store.admin();
    let before = admin.metrics();
    assert_eq!(
        before.executor_workers,
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(18),
        "min(cores, 9 servers x 2 shards)"
    );
    // Closed loop, depth 8, 2400 operations over 64 objects.
    let mut client = store.client_with_depth(8);
    let mut completed = 0usize;
    for op in 0..2400u64 {
        let obj = ObjectId(op * 7 % 64);
        if op % 2 == 0 {
            client.submit_write(obj, &[op as u8; 256]);
        } else {
            client.submit_read(obj);
        }
        while client.in_flight() >= 8 {
            completed += client.wait_next().unwrap().len();
        }
    }
    completed += client.wait_all().unwrap().len();
    assert_eq!(completed, 2400);
    drop(client);
    // The executor's counters publish like the gauges; the deployment is
    // going idle, so wait for them to settle.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut m = admin.metrics();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let next = admin.metrics();
        let settled = next.executor_envelopes == m.executor_envelopes;
        m = next;
        if (settled && m.executor_envelopes > 0) || Instant::now() >= deadline {
            break;
        }
    }
    let (turns, envelopes) = (m.executor_turns, m.executor_envelopes);
    let parks = m.executor_parks - before.executor_parks;
    assert!(
        turns > 0 && envelopes > turns,
        "{envelopes} envelopes in {turns} turns"
    );
    assert!(
        (parks as f64) < 2.0 * completed as f64,
        "{parks} parks for {completed} operations"
    );
    assert!(
        m.executor_wakeups > 0,
        "the first submit found its worker parked"
    );
    let text = m.to_prometheus();
    for family in ["workers", "turns", "envelopes", "parks", "wakeups"] {
        assert!(
            text.contains(&format!("# TYPE lds_executor_{family} ")),
            "{family}"
        );
    }
    store.shutdown();
}
