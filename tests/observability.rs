//! End-to-end checks of the observability surfaces: the always-on metrics
//! registry (latency histograms, server-internals counters), the
//! Prometheus exposition of all of it, and the opt-in flight recorder —
//! positive (trace on: ops, router sends and phases show up; JSONL exports
//! line-per-event) and negative (trace off: the dump is empty and costs
//! nothing to take).
//!
//! The last three tests hold the two tables of `lds_cluster::obs` to their
//! word: every family of `MetricsSnapshot::FAMILIES` and every `EventKind`
//! is made to move by a scripted run, the exposition is structurally valid
//! Prometheus text derived from the same list, and README's reference
//! section is what the tables generate.

use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder, StoreHandle};
use lds_cluster::obs::Family;
use lds_cluster::transport::{Endpoint, FaultPlan, FaultRule, MESSAGE_CLASSES};
use lds_cluster::{EventKind, HealConfig, MetricsSnapshot};
use std::collections::HashSet;
use std::time::{Duration, Instant};

#[test]
fn metrics_carry_latency_histograms_and_internals() {
    let store = StoreBuilder::new().build().unwrap();
    let mut writer = store.client();
    for i in 0..8u64 {
        writer
            .write(ObjectId(i), format!("v{i}").as_bytes())
            .unwrap();
    }
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
        "# TYPE lds_messages_total counter",
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

/// The name of a sample line's series and its value.
fn parse_sample(line: &str) -> (&str, f64) {
    let (series, value) = line.rsplit_once(' ').expect("a sample has a value");
    let name = series.split('{').next().unwrap();
    let value = value
        .parse()
        .unwrap_or_else(|_| panic!("{line:?}: not a float"));
    (name, value)
}

/// Whether a sample named `name` belongs to `family`: the family's own name,
/// or for a histogram one of its three series.
fn belongs_to(name: &str, family: &Family) -> bool {
    let suffixes: &[&str] = match family.kind {
        "histogram" => &["_bucket", "_sum", "_count"],
        _ => &[""],
    };
    suffixes
        .iter()
        .any(|s| name.strip_suffix(s) == Some(family.name))
}

/// What the scripted run has seen so far: families with a non-zero sample,
/// and trace-event kinds.
#[derive(Default)]
struct Seen {
    families: HashSet<&'static str>,
    events: HashSet<&'static str>,
}

impl Seen {
    fn observe(&mut self, store: &StoreHandle) -> MetricsSnapshot {
        let admin = store.admin();
        let metrics = admin.metrics();
        let text = metrics.to_prometheus();
        for (name, value) in text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(parse_sample)
        {
            let family = MetricsSnapshot::FAMILIES
                .iter()
                .find(|f| belongs_to(name, f));
            let family = family.unwrap_or_else(|| panic!("{name}: no such family"));
            if value != 0.0 {
                self.families.insert(family.name);
            }
        }
        let dump = admin.trace_dump();
        self.events
            .extend(dump.events().iter().map(|e| e.kind.name()));
        metrics
    }

    /// Observes `store` every millisecond until `done` holds of a snapshot.
    fn observe_until(
        &mut self,
        store: &StoreHandle,
        what: &str,
        done: impl Fn(&MetricsSnapshot, &Seen) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let metrics = self.observe(store);
            if done(&metrics, self) {
                return;
            }
            assert!(Instant::now() < deadline, "never observed: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn fast_heal() -> HealConfig {
    HealConfig {
        beat_interval: Duration::from_millis(10),
        suspicion_intervals: 4,
        backoff_base: Duration::from_millis(200),
        backoff_max: Duration::from_secs(1),
        ..HealConfig::default()
    }
}

/// Every name the two tables declare is emitted by something a user can do:
/// writes, reads, a large write, overwrites (GC), a kill and
/// its supervised repair, a repair that times out into backoff, a layer
/// degraded below its repair quorum, and a fault-plan drop. A family or
/// event this run cannot move has no business in the table.
#[test]
fn every_family_and_every_event_kind_moves_in_a_scripted_run() {
    let mut seen = Seen::default();

    // One self-healing store for the data paths and the repair that works.
    let store = StoreBuilder::new()
        .repair_log_cap(0)
        .self_heal_with(fast_heal())
        .trace(true)
        .build()
        .unwrap();
    let mut writer = store.client_with_depth(16);
    for round in 0..4u8 {
        // Overwrites: committed-tag GC evicts what the previous round left.
        for obj in 0..4u64 {
            writer.write(ObjectId(obj), &[round; 64]).unwrap();
        }
    }
    writer.write(ObjectId(9), &[7; 8192]).unwrap();
    let mut reader = store.client();
    assert_eq!(reader.read(ObjectId(1)).unwrap(), [3; 64]);
    assert_eq!(reader.read(ObjectId(9)).unwrap(), [7; 8192]);
    // The gauges of work in flight, observed while a window is in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        for obj in 0..16u64 {
            writer.submit_write(ObjectId(100 + obj), &[1; 1024]);
        }
        let in_flight = seen.observe(&store);
        writer.wait_all().unwrap();
        if in_flight.l1_inbox_depth > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "never caught work in flight");
    }
    store.admin().kill(ServerRef::l2(1)).unwrap();
    seen.observe_until(
        &store,
        "a supervised repair and the suspicion clearing",
        |m, seen| {
            m.heal_repairs_succeeded >= 1 && seen.events.contains(EventKind::HealClear.name())
        },
    );
    drop((writer, reader));
    store.shutdown();

    // A repair that cannot finish in time backs off; a layer with more than
    // f2 servers down parks its repairs.
    let store = StoreBuilder::new()
        .repair_timeout(Duration::from_nanos(1))
        .self_heal_with(fast_heal())
        .trace(true)
        .build()
        .unwrap();
    store.admin().kill(ServerRef::l2(0)).unwrap();
    seen.observe_until(&store, "a backoff and its gauge", |m, _| {
        m.heal_repairs_backed_off >= 1 && !m.heal_backoffs.is_empty()
    });
    store.admin().kill(ServerRef::l2(1)).unwrap();
    store.admin().kill(ServerRef::l2(2)).unwrap();
    seen.observe_until(&store, "a parked repair", |m, _| m.heal_parked_events >= 1);
    store.shutdown();

    // Everything sent to one L2 server is dropped (to the protocol, a crash
    // within f2); this profile keeps committed values in L1, so temporary
    // storage is occupied at rest.
    let plan =
        FaultPlan::seeded(7).rule(FaultRule::new().only_to(&[Endpoint::L2(4)]).drop_prob(1.0));
    let store = StoreBuilder::new()
        .high_throughput(1)
        .fault_plan(plan)
        .trace(true)
        .build()
        .unwrap();
    let mut client = store.client();
    // The overwrite's commit evicts the first value, bytes and all.
    client
        .write(ObjectId(0), b"evicted by the next commit")
        .unwrap();
    client.write(ObjectId(0), b"kept in L1").unwrap();
    assert_eq!(client.read(ObjectId(0)).unwrap(), b"kept in L1");
    seen.observe_until(
        &store,
        "occupied L1 storage and a dropped message",
        |m, _| m.l1_temporary_bytes > 0 && m.gc_evicted_bytes > 0 && m.transport_faults.dropped > 0,
    );
    drop(client);
    store.shutdown();

    for family in MetricsSnapshot::FAMILIES {
        assert!(
            seen.families.contains(family.name),
            "{} never moved",
            family.name
        );
    }
    for &kind in EventKind::ALL {
        assert!(
            seen.events.contains(kind.name()),
            "{} never recorded",
            kind.name()
        );
    }
}

/// The checks a scraper makes of the text, derived from `FAMILIES`: one
/// `# HELP` + `# TYPE` pair per family, in table order; every sample
/// anchored to the family declared above it and a float; histograms as
/// `_bucket` series with strictly increasing `le` ending at `+Inf` and
/// cumulative counts, then `_sum`, then a `_count` equal to the `+Inf`
/// bucket; one `lds_messages_total` sample per message class.
fn assert_valid_exposition(text: &str) {
    let mut lines = text.lines().peekable();
    for family in MetricsSnapshot::FAMILIES {
        assert!(
            matches!(family.kind, "gauge" | "counter" | "histogram"),
            "{}: kind {:?}",
            family.name,
            family.kind
        );
        let help = format!("# HELP {} {}", family.name, family.help);
        assert_eq!(lines.next(), Some(help.as_str()));
        let kind = format!("# TYPE {} {}", family.name, family.kind);
        assert_eq!(lines.next(), Some(kind.as_str()));
        let mut samples = Vec::new();
        while let Some(line) = lines.next_if(|line| !line.starts_with('#')) {
            let (name, value) = parse_sample(line);
            assert!(belongs_to(name, family), "{line:?} under {}", family.name);
            samples.push((line, name, value));
        }
        if family.name == "lds_messages_total" {
            let classes: Vec<&str> = samples
                .iter()
                .map(|(line, ..)| line.split('"').nth(1).unwrap())
                .collect();
            assert_eq!(classes, MESSAGE_CLASSES);
        }
        if family.kind != "histogram" {
            continue;
        }
        let (count, sum) = (samples.pop().unwrap(), samples.pop().unwrap());
        assert!(
            count.1.ends_with("_count") && sum.1.ends_with("_sum"),
            "{}",
            family.name
        );
        let bounds: Vec<f64> = samples
            .iter()
            .map(|(line, ..)| match line.split('"').nth(1).unwrap() {
                "+Inf" => f64::INFINITY,
                le => le.parse().unwrap(),
            })
            .collect();
        assert!(
            samples.iter().all(|s| s.1.ends_with("_bucket")),
            "{}",
            family.name
        );
        assert_eq!(bounds.last(), Some(&f64::INFINITY), "{}", family.name);
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "{}: {bounds:?}",
            family.name
        );
        assert!(
            samples.windows(2).all(|w| w[0].2 <= w[1].2),
            "{}: not cumulative",
            family.name
        );
        assert_eq!(samples.last().unwrap().2, count.2, "{}", family.name);
    }
    assert_eq!(lines.next(), None, "text after the last family");
}

#[test]
fn exposition_is_valid_prometheus_text_for_every_family() {
    assert_valid_exposition(&MetricsSnapshot::empty().to_prometheus());
    // The exposition of a live store's snapshot.
    let store = StoreBuilder::new().build().unwrap();
    let mut client = store.client();
    for i in 0..20u64 {
        client.write(ObjectId(i % 4), &i.to_le_bytes()).unwrap();
        client.read(ObjectId(i % 4)).unwrap();
    }
    let metrics = store.admin().metrics();
    assert_eq!(metrics.write_latency.count(), 20);
    assert_eq!(metrics.read_latency.count(), 20);
    let text = metrics.to_prometheus();
    assert_valid_exposition(&text);
    // The coding kernel's level is one labelled sample of constant 1.
    let kernel: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("lds_gf_kernel{"))
        .collect();
    assert!(
        matches!(kernel[..], [line] if ["gfni", "avx2", "ssse3", "portable"]
            .iter()
            .any(|level| line == format!("lds_gf_kernel{{level=\"{level}\"}} 1"))),
        "lds_gf_kernel samples: {kernel:?}"
    );
    store.shutdown();
}

/// README's "Metrics and trace events" reference, as the tables generate it.
fn reference() -> String {
    let mut out = String::from("| family | kind | labels | help |\n|---|---|---|---|\n");
    for f in MetricsSnapshot::FAMILIES {
        let labels: Vec<String> = f
            .labels
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| format!("`{l}`"))
            .collect();
        let labels = labels.join(" ");
        out += &format!("| `{}` | {} | {labels} | {} |\n", f.name, f.kind, f.help);
    }
    out += "\n| code | event | `a` | `b` | `c` | records |\n|---|---|---|---|---|---|\n";
    for &kind in EventKind::ALL {
        let [a, b, c] = kind.payload();
        let (code, name, help) = (kind as u8, kind.name(), kind.help());
        out += &format!("| {code} | `{name}` | {a} | {b} | {c} | {help} |\n");
    }
    out
}

#[test]
fn readme_reference_is_what_the_tables_generate() {
    let readme = include_str!("../README.md");
    let (begin, end) = ("<!-- reference:begin -->\n", "<!-- reference:end -->");
    let committed = readme
        .split_once(begin)
        .and_then(|(_, rest)| rest.split_once(end))
        .expect("README has the reference markers")
        .0;
    let generated = reference();
    assert!(
        committed == generated,
        "README's reference section is stale; replace it with:\n{generated}"
    );
}
