//! One workload, one process: the measured run (`--trace 0`, end-to-end
//! metrics, tracing off) and the traced run (`--trace 1`, per-layer metrics).

use crate::json::Json;
use crate::ladder::{Effort, Ladder, SIZES};
use crate::load::{self, Report};
use crate::ops;
use crate::spec::{self, Deploy, Workload, CLIENTS, MIN_P99_SAMPLES, ROUNDS};
use crate::stats::{self, percentile_us};
use std::time::Instant;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// `--smoke`: a tenth of the ladder, and no minimum sample count.
    pub smoke: bool,
}

/// What a run hands back: the last line of standard output, as the driver's
/// contract spells it.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

fn print_provenance(workload: &Workload, options: &Options, traced: bool) {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("workload {}", workload.name);
    println!("  host_cores {cores}");
    println!("  transport {}", workload.deploy.transport());
    println!("  profile {}", workload.deploy.profile());
    println!(
        "  traffic {} B values, {:.0} % reads, {} objects, theta {}, {CLIENTS} clients x depth {}",
        workload.value_size,
        workload.read_fraction * 100.0,
        workload.objects,
        workload.theta,
        workload.depth
    );
    println!("  seed {}", options.seed);
    println!("  window_s {}", options.seconds);
    println!("  traced {traced}");
    println!(
        "  ops_digest {:016x}",
        ops::digest(workload, options.seed, CLIENTS, 10_000)
    );
}

fn print_metrics(metrics: &[(&'static str, f64, &'static str)]) {
    for (name, value, unit) in metrics {
        println!("{name} {value} {unit}");
    }
}

/// Prints a type's p99 with its sample count, and the highest percentile
/// that count supports.
fn print_tail(kind: &str, sorted_ns: &[u64]) {
    let n = sorted_ns.len();
    match stats::highest_supported_percentile(n) {
        Some(p) => println!(
            "  {kind}: {n} samples, p99 {} us, p{p} {} us (the highest with 10 samples beyond)",
            percentile_us(sorted_ns, 99.0),
            percentile_us(sorted_ns, p)
        ),
        None => println!("  {kind}: {n} samples, too few for any percentile"),
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The measured run: `ROUNDS` rounds, each a fresh deployment (its set-up
/// timed) and an untraced window of `seconds / ROUNDS`. Every metric is the
/// median over the rounds: a deployment that came up in a slow state, or a
/// window that caught a stall, moves one round, not the result.
pub fn measured(workload: &Workload, options: &Options) -> Outcome {
    print_provenance(workload, options, false);
    let window_seconds = options.seconds / ROUNDS as f64;
    let mut total = Report::default();
    let mut columns: [Vec<f64>; 5] = Default::default();
    let mut peak_rss = f64::NAN;
    let mut completed = Vec::new();
    for round in 0..ROUNDS {
        let set_up = load::set_up(workload, options.seed, false);
        let window = load::run_window(
            &set_up.deployment,
            workload,
            options.seed,
            round,
            window_seconds,
            None,
        );
        set_up.deployment.shutdown();
        if round == 0 {
            // Later rounds only add what the allocator kept of earlier ones.
            peak_rss = peak_rss_mib();
        }
        let mut all_ns: Vec<u64> = window
            .write_ns
            .iter()
            .chain(&window.read_ns)
            .copied()
            .collect();
        all_ns.sort_unstable();
        completed.push(all_ns.len() as f64);
        let values = [
            window.completed() as f64 / window_seconds,
            percentile_us(&window.write_ns, 50.0),
            percentile_us(&window.read_ns, 50.0),
            percentile_us(&all_ns, 99.0),
            set_up.seconds,
        ];
        println!(
            "  round {round}: {:.1} ops/s, write p50 {:.1} us, read p50 {:.1} us, p99 {:.1} us, set-up {:.4} s",
            values[0], values[1], values[2], values[3], values[4]
        );
        for (column, value) in columns.iter_mut().zip(values) {
            column.push(value);
        }
        total.attempted += set_up.report.attempted;
        total.failed += set_up.report.failed;
        total.merge(window);
    }
    let [ops, write_p50, read_p50, p99, setup] = columns.map(|mut c| stats::median_f64(&mut c));
    let metrics = with_units(
        [
            ("ops_per_s", ops),
            ("write_p50_us", write_p50),
            ("read_p50_us", read_p50),
            ("p99_us", p99),
            ("setup_s", setup),
            ("peak_rss_mib", peak_rss),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .to_vec(),
        &spec::END_TO_END,
    );
    print_metrics(&metrics);

    // Per-type tails over all rounds together, with the sample counts that
    // say how far into the tail they can be trusted.
    total.write_ns.sort_unstable();
    total.read_ns.sort_unstable();
    print_tail("write", &total.write_ns);
    print_tail("read", &total.read_ns);
    // The reported p99 is the median round's, so that round needs the samples.
    let median_completed = stats::median_f64(&mut completed);
    let supported = median_completed >= MIN_P99_SAMPLES as f64 || options.smoke;
    if !supported {
        eprintln!("the median round completed {median_completed} operations: too few for a p99");
    }
    println!(
        "  failed_fraction {}",
        total.failed as f64 / total.attempted.max(1) as f64
    );
    println!("  gen_busy_fraction {}", total.gen_busy_fraction());
    Outcome {
        correct: total.failed == 0
            && supported
            && metrics.iter().all(|(_, value, _)| value.is_finite()),
        metrics,
        attempted: total.attempted,
        failed: total.failed,
    }
}

/// Pairs computed values with the units of `table`, in `table`'s order;
/// a name the table lacks, or lacks a value for, is a bug in this file.
fn with_units(
    values: Vec<(String, f64)>,
    table: &'static [(&'static str, &'static str)],
) -> Vec<(&'static str, f64, &'static str)> {
    assert_eq!(values.len(), table.len(), "metric table and values differ");
    table
        .iter()
        .map(|(name, unit)| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("no value for metric {name}"));
            (*name, *value, *unit)
        })
        .collect()
}

/// The traced run: half the window untraced, half with the flight recorder
/// on and one harness span per operation, then the idle probe and the
/// ladder. Writes `trace_<workload>.jsonl` next to the executable.
pub fn traced(workload: &Workload, options: &Options) -> Outcome {
    print_provenance(workload, options, true);
    let epoch = Instant::now();
    let half = options.seconds / 2.0;
    let effort = if options.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut count = |report: &Report| {
        attempted += report.attempted;
        failed += report.failed;
    };

    // Untraced half, then the idle probe on the same store once it is quiet.
    let set_up = load::set_up(workload, options.seed, false);
    count(&set_up.report);
    let untraced = load::run_window(&set_up.deployment, workload, options.seed, 0, half, None);
    count(&untraced);
    set_up.deployment.quiesce(workload.deploy);
    let probe_ops = effort.count(200);
    let idle = load::idle_probe(&set_up.deployment, workload, options.seed, probe_ops);
    count(&idle);
    set_up.deployment.shutdown();

    // Traced half on a fresh store; the program's counters are read around it.
    let set_up = load::set_up(workload, options.seed, true);
    count(&set_up.report);
    let before = set_up.deployment.counters();
    let window_start = epoch.elapsed();
    let traced = load::run_window(
        &set_up.deployment,
        workload,
        options.seed,
        0,
        half,
        Some(epoch),
    );
    let window_end = epoch.elapsed();
    count(&traced);
    let l1_temp_bytes_end = set_up.deployment.counters().l1_temporary_bytes;
    set_up.deployment.quiesce(workload.deploy);
    let after = set_up.deployment.counters();
    let recorder_jsonl = set_up.deployment.trace_jsonl();
    set_up.deployment.shutdown();

    let ladder = Ladder::run(options.seed, effort, epoch);
    attempted += ladder.attempted;
    failed += ladder.failed;

    let p50s =
        |report: &Report| [&report.write_ns, &report.read_ns].map(|ns| percentile_us(ns, 50.0));
    let idle_us = p50s(&idle);
    let loaded_us = p50s(&untraced);
    let msgs_per_op = (after.messages - before.messages) as f64 / traced.attempted.max(1) as f64;
    let mut values: Vec<(String, f64)> = ladder.metrics.clone();
    let mut put = |name: &str, value: f64| values.push((name.to_string(), value));
    put("cluster.idle_write_us", idle_us[0]);
    put("cluster.idle_read_us", idle_us[1]);
    put("cluster.queue_residual_write_us", loaded_us[0] - idle_us[0]);
    put("cluster.queue_residual_read_us", loaded_us[1] - idle_us[1]);
    for (phase, now, earlier) in [
        ("tag", &after.phase_tag, &before.phase_tag),
        ("data", &after.phase_data, &before.phase_data),
        ("commit", &after.phase_commit, &before.phase_commit),
    ] {
        let window = now.diff(earlier);
        put(
            &format!("cluster.phase_{phase}_p50_us"),
            window.percentile(50.0) as f64,
        );
        put(
            &format!("cluster.phase_{phase}_p99_us"),
            window.percentile(99.0) as f64,
        );
    }
    put("cluster.msgs_per_op", msgs_per_op);
    put(
        "cluster.max_l1_inbox_depth",
        after.max_l1_inbox_depth as f64,
    );
    put("cluster.l1_temp_bytes_end", l1_temp_bytes_end as f64);
    put("cluster.peak_round_bytes", after.peak_round_bytes as f64);
    put(
        "bench.trace_overhead",
        traced.completed() as f64 / untraced.completed().max(1) as f64,
    );
    put("bench.gen_busy_fraction", untraced.gen_busy_fraction());
    let metrics = with_units(values, &spec::PER_LAYER);
    print_metrics(&metrics);
    println!(
        "  untraced_ops_per_s {}",
        untraced.completed() as f64 / half
    );
    println!("  traced_ops_per_s {}", traced.completed() as f64 / half);
    print_reconciliation(workload, &ladder, msgs_per_op, idle_us, loaded_us);

    // The trace file: the program's flight-recorder events, then the
    // harness's spans — the workload, each operation, each ladder rung.
    let parent = format!("workload:{}", workload.name);
    let mut trace = recorder_jsonl;
    trace.push_str(&format!(
        "{{\"span\": \"workload\", \"name\": \"{parent}\", \"start_us\": {}, \"end_us\": {}}}\n",
        window_start.as_nanos() as f64 / 1e3,
        window_end.as_nanos() as f64 / 1e3
    ));
    for (n, span) in traced.spans.iter().enumerate() {
        trace.push_str(&format!(
            "{{\"span\": \"op\", \"id\": {n}, \"parent\": \"{parent}\", \"client\": {}, \
             \"kind\": \"{}\", \"obj\": {}, \"start_us\": {}, \"end_us\": {}}}\n",
            span.writer,
            span.kind.name(),
            span.key,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3
        ));
    }
    for (name, start_ns, end_ns) in &ladder.spans {
        trace.push_str(&format!(
            "{{\"span\": \"ladder\", \"name\": \"{name}\", \"parent\": \"{parent}\", \
             \"start_us\": {}, \"end_us\": {}}}\n",
            *start_ns as f64 / 1e3,
            *end_ns as f64 / 1e3
        ));
    }
    let path = std::env::current_exe().ok().and_then(|exe| {
        exe.parent()
            .map(|dir| dir.join(format!("trace_{}.jsonl", workload.name)))
    });
    match path.map(|path| std::fs::write(&path, &trace).map(|()| path)) {
        Some(Ok(path)) => println!("  trace {} ({} spans)", path.display(), traced.spans.len()),
        Some(Err(error)) => eprintln!("could not write the trace: {error}"),
        None => eprintln!("could not locate the executable's directory for the trace"),
    }

    Outcome {
        correct: failed == 0 && metrics.iter().all(|(_, value, _)| value.is_finite()),
        metrics,
        attempted,
        failed,
    }
}

/// What the ladder explains of each operation type's idle critical path, and
/// what load adds on top: `[write, read]` medians in. Numbers only.
fn print_reconciliation(
    workload: &Workload,
    ladder: &Ladder,
    msgs_per_op: f64,
    idle_us: [f64; 2],
    loaded_us: [f64; 2],
) {
    let size = SIZES
        .iter()
        .position(|(bytes, _)| *bytes == workload.value_size)
        .expect("every workload's value size is a ladder size");
    let step_us = ladder.get("core.sim_step_ns") / 1e3;
    let codec = ladder.codec[size];
    let network_us = if workload.deploy == Deploy::Tcp {
        let label = SIZES[size].1;
        ladder.get("ldsd.rpc_rtt_us")
            + (ladder.get(&format!("core.wire_encode_{label}_ns"))
                + ladder.get(&format!("core.wire_decode_{label}_ns")))
                / 1e3
    } else {
        0.0
    };
    // Paper-faithful stores send the simulator's message counts and read
    // cold; the high-throughput profile sends fewer messages and serves
    // reads from L1, so use what was counted and only the decode.
    let (msgs, read_codec_us) = if workload.deploy.l1_drains() {
        (
            [
                ladder.get("core.msgs_per_write"),
                ladder.get("core.msgs_per_read_idle"),
            ],
            codec.helper_us + codec.regenerate_us + codec.decode_us,
        )
    } else {
        ([msgs_per_op; 2], codec.decode_us)
    };
    let ladder_us = [
        msgs[0] * step_us + network_us,
        msgs[1] * step_us + read_codec_us + network_us,
    ];
    for (i, kind) in ["write", "read"].into_iter().enumerate() {
        println!(
            "reconcile {} {kind} idle_p50_us {:.1} ladder_sum_us {:.1} residual_us {:.1} \
             loaded_p50_us {:.1} loaded_over_idle {:.2}",
            workload.name,
            idle_us[i],
            ladder_us[i],
            idle_us[i] - ladder_us[i],
            loaded_us[i],
            loaded_us[i] / idle_us[i]
        );
    }
}
