//! `exp_throughput` — end-to-end ops/sec of the threaded cluster runtime.
//!
//! Drives closed-loop clients, written against the [`Store`] trait, and
//! records ops/sec with p50/p99 latency to `BENCH_CLUSTER.json`. Three sweep
//! axes:
//!
//! * **topology** — `clients × pipeline depth × server shards × profile ×
//!   backend`, at the base workload (small uniform values, 50/50
//!   read/write). The paper-faithful `(depth = 1, shards = 1)` point of each
//!   backend is the single-in-flight baseline the recorded speedups compare
//!   against.
//! * **size** — value sizes 256 B → 16 MiB at a fixed tuned topology.
//! * **skew** — Zipfian key skew θ ∈ {0, 0.9, 0.99} × read fraction
//!   ∈ {0.5, 0.95} at small values, with the tag-validated client read
//!   cache off and (at θ = 0.99) on. Cache-on and cache-off points replay
//!   identical per-client key/value sequences (same seeds), so their p99s
//!   are directly comparable.
//!
//! The `_meta` block records the host's core count — on a 1-core host the
//! sharding gains come from fewer messages and batched processing, not
//! parallelism, and the recorded numbers say so themselves.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p lds-bench --bin exp_throughput            # full sweep
//! cargo run --release -p lds-bench --bin exp_throughput -- --smoke # CI smoke
//!     [--out PATH]      output file (default BENCH_CLUSTER.json)
//!     [--ops N]         operations per client (overrides the preset)
//! cargo run --release -p lds-bench --bin exp_throughput -- --objects
//!     the working-set axis only (table on stdout, no file): the
//!     `small_mixed`-shaped closed loop of `lds_benchmark` at 1024, 4096 and
//!     65 536 objects, plus a depth-1 idle write/read probe
//! ```

use lds_bench::{fmt3, host_cores, print_table, today_utc, SCHEMA_VERSION};
use lds_cluster::api::{ObjectId, Store, StoreBuilder};
use lds_core::backend::BackendKind;
use lds_core::Profile;
use lds_workload::throughput::{LatencyRecorder, ThroughputSummary};
use lds_workload::{ValueGenerator, ZipfianGenerator};
use std::time::{Duration, Instant};

/// Entries in the per-client tag-validated read cache on `read_cache: true`
/// points.
const READ_CACHE_ENTRIES: usize = 32;

/// The `profile` column of the recorded rows.
fn profile_label(profile: Profile) -> &'static str {
    match profile {
        Profile::PaperFaithful => "faithful",
        Profile::HighThroughput => "tuned",
    }
}

/// Topology of one point of the sweep.
#[derive(Debug, Clone, Copy)]
struct Config {
    backend: BackendKind,
    clients: usize,
    depth: usize,
    shards: usize,
    profile: Profile,
}

impl Config {
    /// The single-in-flight, unsharded, paper-faithful reference point the
    /// speedups are computed against.
    fn is_baseline(&self) -> bool {
        self.depth == 1 && self.shards == 1 && self.profile == Profile::PaperFaithful
    }
}

/// Workload shape of one point of the sweep.
#[derive(Debug, Clone, Copy)]
struct Workload {
    objects: u64,
    value_size: usize,
    ops_per_client: usize,
    /// Zipfian key skew over the object pool; `0.0` = uniform.
    theta: f64,
    /// Fraction of operations that are reads (the rest are writes).
    read_fraction: f64,
    /// Tag-validated per-client read cache ([`READ_CACHE_ENTRIES`] entries).
    read_cache: bool,
}

impl Workload {
    fn base(objects: u64, value_size: usize, ops_per_client: usize) -> Workload {
        Workload {
            objects,
            value_size,
            ops_per_client,
            theta: 0.0,
            read_fraction: 0.5,
            read_cache: false,
        }
    }
}

/// One point: which sweep axis it belongs to (speedup extraction only uses
/// `topology` points), its topology and its workload.
#[derive(Debug, Clone, Copy)]
struct Point {
    axis: &'static str,
    cfg: Config,
    wl: Workload,
}

/// Protocol-phase latency percentiles over one point's measured window
/// (µs), from the cluster's always-on phase histograms diffed across the
/// window: tag = the first quorum round (QUERY-TAG / QUERY-COMM-TAG), data
/// = the transfer phase (PUT-DATA fan-out incl. the commit wait
/// for writes, QUERY-DATA for reads), commit = the read's PUT-TAG
/// write-back round.
#[derive(Debug, Clone, Copy, Default)]
struct PhasePcts {
    tag_p50: u64,
    tag_p99: u64,
    data_p50: u64,
    data_p99: u64,
    commit_p50: u64,
    commit_p99: u64,
}

struct PointResult {
    point: Point,
    summary: ThroughputSummary,
    cache_hits: u64,
    phases: PhasePcts,
}

/// The flight-recorder off/on A/B pair recorded into `_meta.obs_ab`: the
/// same point run twice, tracing disabled (the default every other number
/// in the file uses) and enabled, so the file itself documents what the
/// cached-flag fast path costs when off — and what full tracing costs when
/// on.
struct ObsAb {
    off: ThroughputSummary,
    on: ThroughputSummary,
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_CLUSTER.json".to_string();
    let mut ops_override: Option<usize> = None;
    let mut objects_axis = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--objects" => objects_axis = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--ops" => {
                ops_override = Some(
                    args.next()
                        .expect("--ops needs a count")
                        .parse()
                        .expect("--ops needs a number"),
                )
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    if objects_axis {
        run_objects_axis(ops_override);
        return;
    }

    let points = if smoke {
        smoke_points(ops_override)
    } else {
        full_points(ops_override)
    };

    let mut results = Vec::with_capacity(points.len());
    for point in points {
        let (summary, cache_hits, phases) = run_point(point, false);
        eprintln!(
            "{:>8} {:>18} {:>8}  clients={} depth={:>2} shards={}  \
             vsize={:>8} theta={:.2} rf={:.2} cache={}  \
             {:>9.0} ops/s  p50={:>7.0}us p99={:>7.0}us  hits={}  \
             phases(tag/data/commit p50us)={}/{}/{}",
            point.axis,
            point.cfg.backend.to_string(),
            profile_label(point.cfg.profile),
            point.cfg.clients,
            point.cfg.depth,
            point.cfg.shards,
            point.wl.value_size,
            point.wl.theta,
            point.wl.read_fraction,
            point.wl.read_cache,
            summary.ops_per_sec,
            summary.p50_us,
            summary.p99_us,
            cache_hits,
            phases.tag_p50,
            phases.data_p50,
            phases.commit_p50,
        );
        results.push(PointResult {
            point,
            summary,
            cache_hits,
            phases,
        });
    }

    let ab = run_obs_ab(ops_override, smoke);
    eprintln!(
        "  obs A/B: trace off {:.0} ops/s vs trace on {:.0} ops/s (on/off {:.3})",
        ab.off.ops_per_sec,
        ab.on.ops_per_sec,
        ab.on.ops_per_sec / ab.off.ops_per_sec.max(1e-9),
    );

    print_results(&results);
    let json = render_json(&results, smoke, &ab);
    std::fs::write(&out_path, &json).expect("write benchmark output");
    // Sanity-check what we just wrote so CI can rely on the file.
    let written = std::fs::read_to_string(&out_path).expect("re-read benchmark output");
    assert!(
        written.contains("\"results\"") && written.contains("ops_per_sec"),
        "benchmark output is malformed"
    );
    println!("\nwrote {} ({} bytes)", out_path, written.len());
}

/// The working-set axis: throughput must not depend on how many objects the
/// servers hold (a server going idle reads running totals, it does not walk
/// its objects), so the 4096- and 65 536-object rows should sit within 10 %
/// of the 1024-object row. Shaped like `lds_benchmark`'s `small_mixed`: two
/// clients at depth 8, 256 B values, half reads, Zipfian θ = 0.9, the
/// high-throughput profile with two shards per server. Followed by what one
/// blocking client sees on the idle deployment — the path where every hop
/// finds its receiver parked.
fn run_objects_axis(ops_override: Option<usize>) {
    let cfg = Config {
        backend: BackendKind::Mbr,
        clients: 2,
        depth: 8,
        shards: 2,
        profile: Profile::HighThroughput,
    };
    let mut rows = Vec::new();
    let mut reference = None;
    for objects in [1024u64, 4096, 65_536] {
        let wl = Workload {
            theta: 0.9,
            ..Workload::base(objects, 256, ops_override.unwrap_or(40_000))
        };
        let point = Point {
            axis: "objects",
            cfg,
            wl,
        };
        let (summary, _, _) = run_point(point, false);
        eprintln!(
            " objects={objects:>6}  {:>9.0} ops/s  p50={:>7.0}us p99={:>7.0}us",
            summary.ops_per_sec, summary.p50_us, summary.p99_us
        );
        let reference = *reference.get_or_insert(summary.ops_per_sec);
        rows.push(vec![
            objects.to_string(),
            format!("{:.0}", summary.ops_per_sec),
            format!("{:.2}", summary.ops_per_sec / reference.max(1e-9)),
            format!("{:.0}", summary.p50_us),
            format!("{:.0}", summary.p99_us),
        ]);
    }
    print_table(
        "working-set axis (2 clients x depth 8, 256 B, rf 0.5, theta 0.9, tuned, 2 shards)",
        &["objects", "ops/s", "vs 1024", "p50 us", "p99 us"],
        &rows,
    );

    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .high_throughput(cfg.shards)
        .build()
        .expect("validated sweep configuration");
    let mut client = store.client_with_depth(1);
    let value = vec![0x5Au8; 256];
    let mut median_us = |write: bool| {
        let mut rec = LatencyRecorder::new();
        for i in 0..400u64 {
            let start = Instant::now();
            if write {
                client.write(ObjectId(i % 64), &value).expect("idle write");
            } else {
                client.read(ObjectId(i % 64)).expect("idle read");
            }
            rec.record(start.elapsed());
        }
        rec.percentile(50.0).as_secs_f64() * 1e6
    };
    let (write_us, read_us) = (median_us(true), median_us(false));
    println!(
        "\n  idle probe (one blocking client, 256 B, median of 400): \
         write {write_us:.0} us, read {read_us:.0} us  [host_cores = {}]",
        host_cores()
    );
    drop(client);
    store.shutdown();
}

/// The CI smoke sweep: a few topology points plus one 4 MiB point
/// and one skewed cache-on point, so large values and the read cache run
/// end to end on every commit.
fn smoke_points(ops_override: Option<usize>) -> Vec<Point> {
    let wl = Workload::base(16, 64, ops_override.unwrap_or(40));
    let mut points = Vec::new();
    for backend in [BackendKind::Mbr, BackendKind::Replication] {
        points.push(Point {
            axis: "topology",
            cfg: Config {
                backend,
                clients: 2,
                depth: 1,
                shards: 1,
                profile: Profile::PaperFaithful,
            },
            wl,
        });
        points.push(Point {
            axis: "topology",
            cfg: Config {
                backend,
                clients: 2,
                depth: 4,
                shards: 2,
                profile: Profile::HighThroughput,
            },
            wl,
        });
    }
    // Large values: 4 MiB through one PUT-DATA per L1 server and one coded
    // element per L2 server.
    points.push(Point {
        axis: "size",
        cfg: Config {
            backend: BackendKind::Mbr,
            clients: 1,
            depth: 2,
            shards: 1,
            profile: Profile::HighThroughput,
        },
        wl: Workload::base(2, 4 << 20, ops_override.unwrap_or(40).min(6)),
    });
    // Skewed hot-object path: θ = 0.99 with the tag-validated read cache on.
    points.push(Point {
        axis: "skew",
        cfg: Config {
            backend: BackendKind::Mbr,
            clients: 2,
            depth: 4,
            shards: 2,
            profile: Profile::HighThroughput,
        },
        wl: Workload {
            theta: 0.99,
            read_fraction: 0.95,
            read_cache: true,
            ..wl
        },
    });
    points
}

/// The full recorded sweep: the topology grid, the value-size axis and the
/// skew axis (read cache off/on).
fn full_points(ops_override: Option<usize>) -> Vec<Point> {
    let base_wl = Workload::base(64, 256, ops_override.unwrap_or(400));
    let mut points = Vec::new();
    for backend in [
        BackendKind::Mbr,
        BackendKind::MsrPoint,
        BackendKind::ProductMatrixMsr,
        BackendKind::Replication,
    ] {
        use Profile::{HighThroughput, PaperFaithful};
        for (clients, depth, shards, profile) in [
            // Single-in-flight references: one blocking op at a time.
            (1, 1, 1, PaperFaithful),
            (4, 1, 1, PaperFaithful), // <- the baseline speedups compare against
            // Pipelining and sharding alone (paper-faithful messages).
            (4, 8, 1, PaperFaithful),
            (4, 8, 2, PaperFaithful),
            (8, 16, 2, PaperFaithful),
            // The high-throughput profile on top.
            (4, 32, 1, HighThroughput),
            (4, 32, 2, HighThroughput),
            (8, 32, 2, HighThroughput),
        ] {
            let cfg = Config {
                backend,
                clients,
                depth,
                shards,
                profile,
            };
            points.push(Point {
                axis: "topology",
                cfg,
                wl: base_wl,
            });
        }
    }

    // Value-size axis: one fixed tuned topology, sizes from 256 B to 16 MiB.
    let size_cfg = Config {
        backend: BackendKind::Mbr,
        clients: 2,
        depth: 8,
        shards: 2,
        profile: Profile::HighThroughput,
    };
    for (value_size, ops) in [
        (256, 400),
        (64 << 10, 200),
        (1 << 20, 60),
        (4 << 20, 24),
        (16 << 20, 8),
    ] {
        let objects = if value_size >= 1 << 20 { 8 } else { 64 };
        let wl = Workload::base(objects, value_size, ops_override.unwrap_or(ops));
        points.push(Point {
            axis: "size",
            cfg: size_cfg,
            wl,
        });
    }

    // Skew axis: small values, Zipfian key choice, read-heavy and balanced
    // mixes; the read cache rides only on the θ = 0.99 points (hot-object
    // regime), against cache-off twins with identical seeds.
    let skew_cfg = Config {
        backend: BackendKind::Mbr,
        clients: 4,
        depth: 16,
        shards: 2,
        profile: Profile::HighThroughput,
    };
    for theta in [0.0, 0.9, 0.99] {
        for read_fraction in [0.5, 0.95] {
            let wl = Workload {
                theta,
                read_fraction,
                ..base_wl
            };
            points.push(Point {
                axis: "skew",
                cfg: skew_cfg,
                wl,
            });
            if theta == 0.99 {
                points.push(Point {
                    axis: "skew",
                    cfg: skew_cfg,
                    wl: Workload {
                        read_cache: true,
                        ..wl
                    },
                });
            }
        }
    }
    points
}

/// Runs one sweep point and returns its merged summary plus total read-cache
/// hits across clients. The deployment is built through the `StoreBuilder`
/// facade and driven by the generic [`drive_client`].
fn run_point(point: Point, trace: bool) -> (ThroughputSummary, u64, PhasePcts) {
    let Point { cfg, wl, .. } = point;
    // The sweep's shard dimension is the L1 layer, where all mutable protocol
    // state lives; L2 servers are nearly stateless per message, so extra L2
    // threads only add scheduling overhead.
    let builder = StoreBuilder::new().failures(1, 1).code(2, 3);
    let builder = match cfg.profile {
        Profile::PaperFaithful => builder.paper_faithful().l1_shards(cfg.shards),
        Profile::HighThroughput => builder.high_throughput(cfg.shards).l2_shards(1),
    };
    let builder = builder
        .read_cache(if wl.read_cache { READ_CACHE_ENTRIES } else { 0 })
        .trace(trace);
    let store = builder
        .backend(cfg.backend)
        .build()
        .expect("validated sweep configuration");

    // Warm-up outside the measured window: write every object once so reads
    // never observe the empty initial value, then let the write-to-L2
    // offload traffic drain before the clock starts.
    {
        let mut warm = store.client_with_depth(4);
        warm.set_timeout(Duration::from_secs(120));
        let mut values = ValueGenerator::new(wl.value_size, 0xFEED);
        for obj in 0..wl.objects {
            warm.submit_write_value(ObjectId(obj), values.next_value());
        }
        warm.wait_all().expect("warm-up writes complete");
    }

    // Phase histograms are cumulative since the store came up; diffing a
    // snapshot taken here against one taken after the run isolates the
    // measured window (warm-up samples cancel out).
    let admin = store.admin();
    let before = admin.metrics();

    let start = Instant::now();
    let mut handles = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let store = store.clone();
        let seed = c as u64 + 1;
        handles.push(std::thread::spawn(move || {
            let mut client = store.client_with_depth(cfg.depth);
            drive_client(&mut client, cfg.depth, wl, seed)
        }));
    }
    let mut rec = LatencyRecorder::new();
    let mut cache_hits = 0u64;
    for h in handles {
        let (client_rec, client_hits) = h.join().expect("client thread");
        rec.merge(&client_rec);
        cache_hits += client_hits;
    }
    let elapsed = start.elapsed();

    let after = admin.metrics();
    let tag = after.phase_tag_latency.diff(&before.phase_tag_latency);
    let data = after.phase_data_latency.diff(&before.phase_data_latency);
    let commit = after
        .phase_commit_latency
        .diff(&before.phase_commit_latency);
    let phases = PhasePcts {
        tag_p50: tag.percentile(50.0),
        tag_p99: tag.percentile(99.0),
        data_p50: data.percentile(50.0),
        data_p99: data.percentile(99.0),
        commit_p50: commit.percentile(50.0),
        commit_p99: commit.percentile(99.0),
    };
    store.shutdown();
    (rec.summarize(elapsed), cache_hits, phases)
}

/// Runs the `_meta.obs_ab` pair: one fixed tuned topology point with the
/// flight recorder off, then on. Everything else in the file records with
/// tracing off, so `off` is the apples-to-apples reference and `on / off`
/// bounds what full tracing costs.
fn run_obs_ab(ops_override: Option<usize>, smoke: bool) -> ObsAb {
    let point = Point {
        axis: "obs_ab",
        cfg: Config {
            backend: BackendKind::Mbr,
            clients: 2,
            depth: 4,
            shards: 2,
            profile: Profile::HighThroughput,
        },
        // More ops than the sweep points: the pair exists to resolve a
        // few-percent delta, so it needs a longer window than a smoke point.
        wl: Workload::base(
            16,
            64,
            ops_override.unwrap_or(if smoke { 40 } else { 4000 }),
        ),
    };
    let (off, _, _) = run_point(point, false);
    let (on, _, _) = run_point(point, true);
    ObsAb { off, on }
}

/// One closed-loop client: keeps the pipeline full (up to `depth`
/// outstanding operations; keys Zipfian over the object pool, reads with
/// probability `read_fraction`) until its quota completes. Generic over
/// [`Store`], so the exact same loop measures every topology. The key and
/// read/write choice streams depend only on `(workload, seed)`, so twin
/// points that differ in a server-side knob (the read cache) replay
/// identical operation sequences.
fn drive_client<S: Store>(
    client: &mut S,
    depth: usize,
    workload: Workload,
    seed: u64,
) -> (LatencyRecorder, u64) {
    client.set_timeout(Duration::from_secs(120));
    let mut values = ValueGenerator::new(workload.value_size, seed);
    let mut keys = ZipfianGenerator::new(
        workload.objects,
        workload.theta,
        seed.wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(workload.objects),
    );
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rec = LatencyRecorder::new();
    let mut issued = 0usize;
    let mut completed = 0usize;
    while completed < workload.ops_per_client {
        while issued < workload.ops_per_client && client.pending_ops() < depth {
            let obj = ObjectId(keys.next_key());
            let coin = (xorshift(&mut rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if coin < workload.read_fraction {
                client.submit_read(obj);
            } else {
                client.submit_write_value(obj, values.next_value());
            }
            issued += 1;
        }
        let completions = client.wait_next().expect("cluster operation failed");
        for c in completions {
            rec.record(c.latency);
            completed += 1;
        }
    }
    (rec, client.cache_hits())
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn print_results(results: &[PointResult]) {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.point.axis.to_string(),
                r.point.cfg.backend.to_string(),
                profile_label(r.point.cfg.profile).to_string(),
                r.point.cfg.clients.to_string(),
                r.point.cfg.depth.to_string(),
                r.point.cfg.shards.to_string(),
                r.point.wl.value_size.to_string(),
                format!("{:.2}", r.point.wl.theta),
                format!("{:.2}", r.point.wl.read_fraction),
                if r.point.wl.read_cache { "on" } else { "-" }.to_string(),
                r.cache_hits.to_string(),
                format!("{:.0}", r.summary.ops_per_sec),
                format!("{:.0}", r.summary.p50_us),
                format!("{:.0}", r.summary.p99_us),
            ]
        })
        .collect();
    print_table(
        "cluster throughput (closed loop)",
        &[
            "axis", "backend", "profile", "clients", "depth", "shards", "vsize", "theta", "rf",
            "cache", "hits", "ops/s", "p50 us", "p99 us",
        ],
        &rows,
    );

    println!("\n  speedup of best config over the single-in-flight, unsharded baseline:");
    for (backend, baseline, best) in per_backend_extremes(results) {
        println!(
            "    {:>18}: {} -> {} ops/s  ({}x, best: {} clients={} depth={} shards={})",
            backend.to_string(),
            fmt3(baseline.summary.ops_per_sec),
            fmt3(best.summary.ops_per_sec),
            fmt3(best.summary.ops_per_sec / baseline.summary.ops_per_sec.max(1e-9)),
            profile_label(best.point.cfg.profile),
            best.point.cfg.clients,
            best.point.cfg.depth,
            best.point.cfg.shards,
        );
    }
}

/// For each backend (in first-seen order): its baseline point and its
/// fastest non-baseline point, considering only the `topology` axis (the
/// size/skew axes measure workload effects at one topology, not topology
/// speedups). When several baseline candidates exist (e.g. 1-client and
/// 4-client single-in-flight points), the one with the most clients is used
/// — the strictest comparison, since more blocking clients already overlap
/// operations.
fn per_backend_extremes(results: &[PointResult]) -> Vec<(BackendKind, &PointResult, &PointResult)> {
    let mut backends: Vec<BackendKind> = Vec::new();
    for r in results {
        if r.point.axis == "topology" && !backends.contains(&r.point.cfg.backend) {
            backends.push(r.point.cfg.backend);
        }
    }
    backends
        .into_iter()
        .filter_map(|backend| {
            let of_backend: Vec<&PointResult> = results
                .iter()
                .filter(|r| r.point.axis == "topology" && r.point.cfg.backend == backend)
                .collect();
            let baseline = of_backend
                .iter()
                .filter(|r| r.point.cfg.is_baseline())
                .max_by_key(|r| r.point.cfg.clients)?;
            let best = of_backend
                .iter()
                .filter(|r| !r.point.cfg.is_baseline())
                .max_by(|a, b| {
                    a.summary
                        .ops_per_sec
                        .partial_cmp(&b.summary.ops_per_sec)
                        .expect("ops/sec is finite")
                })?;
            Some((backend, *baseline, *best))
        })
        .collect()
}

fn render_json(results: &[PointResult], smoke: bool, ab: &ObsAb) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"_meta\": {\n");
    out.push_str(
        "    \"description\": \"End-to-end throughput of the threaded cluster runtime: \
         closed-loop clients driving the pipelined Store API against sharded L1 \
         servers. Three axes: axis=topology sweeps clients/depth/shards/profile/backend \
         at the base workload (baseline = single-in-flight depth 1, unsharded, \
         paper-faithful flow; profile=tuned is Profile::HighThroughput, \
         atomicity preserved and covered by the cluster stress tests). axis=size sweeps \
         value_size 256 B..16 MiB at one tuned topology. \
         axis=skew sweeps Zipfian theta x read_fraction at small values with the \
         tag-validated client read cache off/on (read_cache=true: a read whose \
         quorum-confirmed committed tag matches the cached tag skips the data-transfer \
         phase; the tag quorum and put-tag write-back still run, so atomicity is \
         untouched). Cache twin points replay identical per-client op sequences \
         (same seeds). See host_cores for how much hardware parallelism backed the \
         recorded numbers: on 1 core, sharding gains come from fewer messages and \
         batched processing, not parallelism.\",\n",
    );
    out.push_str(&format!(
        "    \"command\": \"cargo run --release -p lds-bench --bin exp_throughput{}\",\n",
        if smoke { " -- --smoke" } else { "" }
    ));
    out.push_str(&format!("    \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("    \"generated\": \"{}\",\n", today_utc()));
    out.push_str(&format!("    \"host_cores\": {},\n", host_cores()));
    // Coding cost differs severalfold between kernel levels.
    out.push_str(&format!(
        "    \"gf_kernel\": \"{}\",\n",
        lds_gf::bulk::kernel()
    ));
    out.push_str("    \"transport\": \"inproc\",\n");
    out.push_str(
        "    \"transport_note\": \"All recorded numbers run on the default fault-free \
         InProcTransport, whose is_faulty=false flag keeps the router's per-send path \
         identical to the pre-transport-seam runtime (no per-message virtual call). The \
         seeded SimTransport (StoreBuilder::fault_plan) exists for the adversarial test \
         suites, not for benchmarking.\",\n",
    );
    out.push_str(
        "    \"params\": \"f1=1 f2=1 k=2 d=3 (n1=4, n2=5); one deployment per \
         point, clients on their own threads; every point warm-writes its object pool \
         before the measured window\",\n",
    );
    out.push_str(
        "    \"workload\": \"per result row: value_size bytes, Zipfian theta (0 = \
         uniform), read_fraction of ops, read_cache on/off, cache_hits = reads \
         that skipped the data phase; latency measured submit->completion\",\n",
    );
    out.push_str(
        "    \"phase_note\": \"phase_{tag,data,commit}_{p50,p99}_us come from the \
         cluster's always-on log-bucketed phase histograms (<= 12.5% relative error), \
         diffed across the measured window: tag = the first quorum round (QUERY-TAG / \
         QUERY-COMM-TAG), data = the transfer phase (PUT-DATA fan-out incl. \
         the write's commit wait, or QUERY-DATA for reads), commit = the read's PUT-TAG \
         write-back round. Writes contribute tag+data samples, reads tag+data+commit \
         (cache-hit reads skip data), so phase counts differ from op counts.\",\n",
    );
    out.push_str(&format!(
        "    \"obs_ab\": {{ \"config\": \"mbr tuned clients=2 depth=4 shards=2, \
         small uniform values\", \"trace_off_ops_per_sec\": {:.1}, \
         \"trace_on_ops_per_sec\": {:.1}, \"on_over_off\": {:.3}, \"note\": \"every \
         other number in this file runs with the flight recorder off (one cached-flag \
         branch per recording site); this A/B pair re-runs one point with tracing off \
         and on to document that overhead in-band\" }},\n",
        ab.off.ops_per_sec,
        ab.on.ops_per_sec,
        ab.on.ops_per_sec / ab.off.ops_per_sec.max(1e-9),
    ));
    out.push_str(
        "    \"units\": \"ops_per_sec = completed operations per wall-clock second across \
         all clients; latencies in microseconds\"\n",
    );
    out.push_str("  },\n");

    out.push_str("  \"speedup_pipelined_sharded_over_baseline\": {\n");
    let extremes = per_backend_extremes(results);
    for (i, (backend, baseline, best)) in extremes.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"baseline_ops_per_sec\": {:.1}, \
             \"baseline_config\": \"{} clients={} depth={} shards={}\", \
             \"best_ops_per_sec\": {:.1}, \"speedup\": {:.2}, \
             \"best_config\": \"{} clients={} depth={} shards={}\" }}{}\n",
            backend,
            baseline.summary.ops_per_sec,
            profile_label(baseline.point.cfg.profile),
            baseline.point.cfg.clients,
            baseline.point.cfg.depth,
            baseline.point.cfg.shards,
            best.summary.ops_per_sec,
            best.summary.ops_per_sec / baseline.summary.ops_per_sec.max(1e-9),
            profile_label(best.point.cfg.profile),
            best.point.cfg.clients,
            best.point.cfg.depth,
            best.point.cfg.shards,
            if i + 1 < extremes.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");

    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"axis\": \"{}\", \"backend\": \"{}\", \"profile\": \"{}\", \
             \"clients\": {}, \"depth\": {}, \"shards\": {}, \
             \"value_size\": {}, \"theta\": {:.2}, \"read_fraction\": {:.2}, \
             \"read_cache\": {}, \"cache_hits\": {}, \
             \"ops\": {}, \"elapsed_s\": {:.4}, \"ops_per_sec\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"mean_us\": {:.1}, \
             \"phase_tag_p50_us\": {}, \"phase_tag_p99_us\": {}, \
             \"phase_data_p50_us\": {}, \"phase_data_p99_us\": {}, \
             \"phase_commit_p50_us\": {}, \"phase_commit_p99_us\": {} }}{}\n",
            r.point.axis,
            r.point.cfg.backend,
            profile_label(r.point.cfg.profile),
            r.point.cfg.clients,
            r.point.cfg.depth,
            r.point.cfg.shards,
            r.point.wl.value_size,
            r.point.wl.theta,
            r.point.wl.read_fraction,
            r.point.wl.read_cache,
            r.cache_hits,
            r.summary.ops,
            r.summary.elapsed_s,
            r.summary.ops_per_sec,
            r.summary.p50_us,
            r.summary.p99_us,
            r.summary.mean_us,
            r.phases.tag_p50,
            r.phases.tag_p99,
            r.phases.data_p50,
            r.phases.data_p99,
            r.phases.commit_p50,
            r.phases.commit_p99,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
