//! `exp_paper` — the paper's evaluation (§V), every printed row checked.
//!
//! Runs each section, prints its table, and exits non-zero if any row
//! breaks its stated relation to `lds_core::costs`: `=` (to within rounding)
//! for a cost measured at the value's framed length, `<=` for an upper bound.
//!
//! 1. Lemmas V.2–V.3: write, idle read, concurrent read and L2 storage cost
//!    versus the system size, in Fig. 6's regime `n1 = n2 = n`,
//!    `f1 = f2 = n/10` (so `k = d = 0.8·n`), with the MBR back-end;
//! 2. Lemma V.4: operation latencies versus `µ = τ2/τ1`;
//! 3. Fig. 6 / Lemma V.5: L1 and L2 storage versus the number of objects
//!    `N`, measured at `n = 10` and in closed form at the figure's `n = 100`;
//! 4. Remarks 1–2: the MBR / MSR-point ablation;
//! 5. LDS beside the single-layer ABD and CAS algorithms (closed forms,
//!    `lds_core::costs::{abd_costs, cas_costs}`);
//! 6. online node repair in the threaded runtime: a crashed server is
//!    regenerated under a live writer and the bytes its helpers shipped are
//!    held to `β/α` of the full-element fallback (`1/α` for MBR). These rows
//!    are written to `BENCH_REPAIR.json`.
//!
//! ```text
//! cargo run --release -p lds-bench --bin exp_paper
//!     [--out PATH]     repair rows (default BENCH_REPAIR.json)
//! ```

use lds_bench::{fmt3, host_cores, print_table, today_utc, SCHEMA_VERSION};
use lds_cluster::api::{ObjectId, ServerRef, Store, StoreBuilder};
use lds_cluster::{Admin, RepairLayer, RepairReport};
use lds_core::backend::BackendKind;
use lds_core::costs::{self, CodeCosts, LatencyBounds};
use lds_core::generator::ValueGenerator;
use lds_core::measure::{measure_costs, CostMeasurement, CostReport, MEASURE_VALUE_SIZE};
use lds_core::multi_object::{run_multi_object, MultiObjectConfig};
use lds_core::params::SystemParams;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every relation evaluated so far, and the ones that broke.
#[derive(Default)]
struct Checks {
    evaluated: usize,
    broken: Vec<String>,
}

impl Checks {
    fn check(&mut self, row: &str, m: CostMeasurement) {
        self.evaluated += 1;
        if !m.holds() {
            self.broken.push(format!(
                "{row}: measured {} is not {} {}",
                m.measured,
                m.relation.symbol(),
                m.predicted
            ));
        }
    }

    fn report(&mut self, label: &str, report: &CostReport) {
        for (name, m) in report.checks() {
            self.check(&format!("{label} {name}"), m);
        }
    }
}

fn main() {
    let mut out_path = "BENCH_REPAIR.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let start = Instant::now();
    let mut checks = Checks::default();
    let mbr = lemmas_v2_v3(&mut checks);
    lemma_v4(&mut checks);
    figure_6(&mut checks);
    remarks_1_2(&mbr, &mut checks);
    single_layer(&mbr);
    repair(&out_path, &mut checks);

    println!(
        "\n{} relations checked in {:.1} s",
        checks.evaluated,
        start.elapsed().as_secs_f64()
    );
    if !checks.broken.is_empty() {
        eprintln!("{} broken:", checks.broken.len());
        for row in &checks.broken {
            eprintln!("  {row}");
        }
        std::process::exit(1);
    }
}

/// `n1 = n2 = n`, `f1 = f2 = n/10`: `k = d = 0.8·n`.
fn symmetric(n: usize) -> SystemParams {
    SystemParams::symmetric(n, (n / 10).max(1)).expect("valid sweep parameters")
}

/// Lemmas V.2–V.3 on the MBR back-end at `µ = 10`. Returns the reports by
/// `n`, which sections 4 and 5 reuse.
fn lemmas_v2_v3(checks: &mut Checks) -> BTreeMap<usize, CostReport> {
    let mut reports = BTreeMap::new();
    let mut rows = Vec::new();
    for n in [10usize, 20, 30, 40, 60, 80, 100] {
        let params = symmetric(n);
        let report = measure_costs(params, BackendKind::Mbr, 10.0);
        checks.report(&format!("MBR n={n}"), &report);
        let pad = report.l2_storage.predicted / costs::l2_storage_cost(&params);
        rows.push(vec![
            n.to_string(),
            params.k().to_string(),
            params.d().to_string(),
            format!("{pad:.5}"),
            fmt3(report.write_cost.measured),
            fmt3(report.write_cost.predicted),
            fmt3(report.read_cost_idle.measured),
            fmt3(report.read_cost_idle.predicted),
            fmt3(report.read_cost_concurrent.measured),
            fmt3(report.read_cost_concurrent.predicted),
            fmt3(report.l2_storage.measured),
            fmt3(report.l2_storage.predicted),
        ]);
        reports.insert(n, report);
    }
    print_table(
        "Lemmas V.2-V.3: communication & storage costs vs system size (MBR, n1 = n2 = n, value-size units)",
        &[
            "n", "k", "d", "pad",
            "write meas", "write =",
            "read(d=0) meas", "read(d=0) =",
            "read(d>0) meas", "read(d>0) <=",
            "L2 store meas", "L2 store =",
        ],
        &rows,
    );
    println!();
    println!("Predictions are Lemmas V.2-V.3 at the framed length: every coded term is");
    println!("scaled by `pad` = ceil((|v| + 8)/B)*B / |v| (|v| = {MEASURE_VALUE_SIZE} B), PUT-DATA is not.");
    println!("Write cost grows linearly in n1, the idle read stays Theta(1), a concurrent");
    println!("read is at most n1 more, per-object L2 storage stays Theta(1).");
    reports
}

/// Lemma V.4: write latency equals its bound, read latency stays below its.
fn lemma_v4(checks: &mut Checks) {
    let params = symmetric(20);
    let mut rows = Vec::new();
    for mu in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let report = measure_costs(params, BackendKind::Mbr, mu);
        checks.report(&format!("MBR n=20 mu={mu}"), &report);
        rows.push(vec![
            fmt3(mu),
            fmt3(report.write_latency.measured),
            fmt3(report.write_latency.predicted),
            fmt3(report.read_latency.measured),
            fmt3(report.read_latency.predicted),
            fmt3(LatencyBounds::new(1.0, 1.0, mu).extended_write_latency_bound()),
        ]);
    }
    print_table(
        "Lemma V.4: operation latency vs mu = tau2/tau1 (n1 = n2 = 20, tau0 = tau1 = 1)",
        &[
            "mu",
            "write meas",
            "write =",
            "read meas",
            "read <=",
            "ext-write bound",
        ],
        &rows,
    );
    println!();
    println!("Write latency is independent of mu (writes never wait on L2); read latency");
    println!("grows with mu only when the value must be regenerated from L2.");
}

/// Fig. 6 / Lemma V.5, measured at `n = 10` and in closed form at `n = 100`.
fn figure_6(checks: &mut Checks) {
    let params = symmetric(10);
    let mut rows = Vec::new();
    for objects in [1usize, 2, 4, 8, 16, 32] {
        let report = run_multi_object(&MultiObjectConfig {
            params,
            objects,
            concurrent_writers: 2,
            writes_per_writer: objects.max(2),
            value_size: 1024,
            mu: 10.0,
            seed: 1,
        });
        checks.check(&format!("Fig. 6 N={objects} peak L1"), report.l1_storage);
        checks.check(&format!("Fig. 6 N={objects} final L2"), report.l2_storage);
        rows.push(vec![
            objects.to_string(),
            fmt3(report.l1_storage.measured),
            fmt3(report.l1_storage.predicted),
            fmt3(report.l2_storage.measured),
            fmt3(report.l2_storage.predicted),
        ]);
    }
    print_table(
        "Fig. 6 (measured, n1 = n2 = 10, k = d = 8, theta = 2, mu = 10, 1 KiB values): storage vs N",
        &["N", "peak L1 meas", "L1 <=", "final L2 meas", "L2 ="],
        &rows,
    );

    let paper = symmetric(100);
    let (theta, mu) = (100.0, 10.0);
    let replication = CodeCosts::unframed(&paper, BackendKind::Replication).l2_storage();
    let mut rows = Vec::new();
    for objects in [1usize, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
        let l2 = costs::l2_storage_bound_multi_object(&paper, objects);
        let per_object = objects as f64 * costs::l2_storage_cost(&paper);
        checks.check(
            &format!("Fig. 6 n=100 N={objects} Lemma V.5 = N x Lemma V.3"),
            CostMeasurement::equals(l2, per_object),
        );
        rows.push(vec![
            objects.to_string(),
            fmt3(costs::l1_storage_bound_multi_object(&paper, theta, mu)),
            fmt3(l2),
            fmt3(objects as f64 * replication),
            fmt3(l2 / objects as f64),
        ]);
    }
    print_table(
        "Fig. 6 (closed form, n1 = n2 = 100, k = d = 80, theta = 100, mu = 10)",
        &[
            "N",
            "L1 bound",
            "L2 (MBR)",
            "L2 (replication)",
            "L2 per object (MBR)",
        ],
        &rows,
    );
    println!();
    println!("The L1 bound is flat in N; L2 grows linearly in N and dominates for large N,");
    println!("at < 3 units per object for MBR versus n2 = 100 for replication in L2.");
    println!("Measured L2 is Lemma V.3 per written object at the framed length of 1 KiB.");
}

/// Remarks 1–2: the MSR point's idle read is linear in `n1` (its closed
/// form), and MBR stores at most twice what it stores.
fn remarks_1_2(mbr: &BTreeMap<usize, CostReport>, checks: &mut Checks) {
    let mut rows = Vec::new();
    for n in [10usize, 20, 40, 60, 80] {
        let mbr = &mbr[&n];
        let msr = measure_costs(symmetric(n), BackendKind::MsrPoint, 10.0);
        checks.report(&format!("MSR n={n}"), &msr);
        checks.check(
            &format!("Remark 2 n={n} MBR L2 <= 2 x MSR L2"),
            CostMeasurement::at_most(mbr.l2_storage.measured, 2.0 * msr.l2_storage.measured),
        );
        rows.push(vec![
            n.to_string(),
            fmt3(mbr.read_cost_idle.measured),
            fmt3(msr.read_cost_idle.measured),
            fmt3(msr.read_cost_idle.predicted),
            fmt3(mbr.l2_storage.measured),
            fmt3(msr.l2_storage.measured),
            fmt3(msr.l2_storage.predicted),
            fmt3(mbr.write_cost.measured),
            fmt3(msr.write_cost.measured),
            fmt3(msr.write_cost.predicted),
        ]);
    }
    print_table(
        "Remarks 1-2: MBR vs MSR-point back-end, n1 = n2 = n (value-size units)",
        &[
            "n",
            "read(d=0) MBR",
            "read(d=0) MSR",
            "MSR =",
            "L2 store MBR",
            "L2 store MSR",
            "MSR =",
            "write MBR",
            "write MSR",
            "MSR =",
        ],
        &rows,
    );
    println!();
    println!("The MSR point (k = d, whole-element helpers) reads n1(n2 + 1)/k, linear in n,");
    println!("while MBR stays flat; it stores n2/k, cheaper than MBR by at most a factor of 2.");
}

/// LDS's measured costs (checked in section 1) beside the single-layer
/// algorithms' closed forms.
fn single_layer(mbr: &BTreeMap<usize, CostReport>) {
    let mut rows = Vec::new();
    for n in [10usize, 20, 40] {
        let lds = &mbr[&n];
        let abd = costs::abd_costs(n);
        let cas = costs::cas_costs(n, lds.params.k(), MEASURE_VALUE_SIZE);
        rows.push(vec![
            n.to_string(),
            fmt3(lds.write_cost.measured),
            fmt3(abd.write),
            fmt3(cas.write),
            fmt3(lds.read_cost_idle.measured),
            fmt3(abd.read),
            fmt3(cas.read),
            fmt3(lds.l2_storage.measured),
            fmt3(abd.storage),
            fmt3(cas.storage),
        ]);
    }
    print_table(
        "LDS (measured) vs single-layer ABD and CAS (closed forms, k = 0.8n); value-size units",
        &[
            "n",
            "write LDS",
            "write ABD",
            "write CAS",
            "read LDS",
            "read ABD",
            "read CAS",
            "store LDS(L2)",
            "store ABD",
            "store CAS",
        ],
        &rows,
    );
    println!();
    println!("ABD's read and storage costs are ~n (full replicas); CAS stores and moves");
    println!("~n/k; LDS pays an extra write-offloading term but keeps idle reads and L2");
    println!("storage Theta(1) while serving clients entirely from the edge layer.");
}

/// The repair sweep's cluster: `f1 = f2 = 1`, `k = 3`, `d = 5` (`n1 = 5`,
/// `n2 = 7`). `d = 5` makes MBR's `α = 5`, so a helper ships 1/5 of an
/// element; product-matrix MSR needs `d ≥ 2k − 2 = 4`.
const REPAIR_PARAMS: (usize, usize, usize, usize) = (1, 1, 3, 5);
/// Objects written before the crash.
const REPAIR_OBJECTS: u64 = 32;
/// Objects the background writer streams to during the repair, disjoint
/// from the first [`REPAIR_OBJECTS`] and also written before the crash, so
/// the repair's snapshot holds every object on every run.
const BACKGROUND_OBJECTS: u64 = 8;

/// One repair row.
struct RepairRow {
    backend: BackendKind,
    value_size: usize,
    report: RepairReport,
}

/// Online repair across `backend × value size` (L2) plus one L1 metadata
/// reconstruction per backend; writes `out_path`.
fn repair(out_path: &str, checks: &mut Checks) {
    let (f1, f2, k, d) = REPAIR_PARAMS;
    let params = SystemParams::for_failures(f1, f2, k, d).expect("valid repair parameters");
    let mut results = Vec::new();
    for backend in [
        BackendKind::Mbr,
        BackendKind::MsrPoint,
        BackendKind::ProductMatrixMsr,
        BackendKind::Replication,
    ] {
        for (value_size, layer) in [
            (1024, RepairLayer::L2),
            (16 * 1024, RepairLayer::L2),
            (64 * 1024, RepairLayer::L2),
            (16 * 1024, RepairLayer::L1),
        ] {
            let report = run_repair(backend, value_size, layer);
            // An L1 repair rebuilds metadata: no coded shortcut, ratio 1.
            let predicted = match layer {
                RepairLayer::L1 => 1.0,
                RepairLayer::L2 => CodeCosts::unframed(&params, backend).l2_repair_ratio(),
            };
            checks.check(
                &format!("repair {backend} {layer} {value_size} B bandwidth ratio"),
                CostMeasurement::equals(report.bandwidth_ratio(), predicted),
            );
            results.push(RepairRow {
                backend,
                value_size,
                report,
            });
        }
    }
    print_repair(&results);
    std::fs::write(out_path, render_json(&results)).expect("write repair rows");
    println!("\nwrote {out_path}");
}

/// Populates a store, crashes one server of `layer`, repairs it under a
/// live background writer, and returns the coordinator's report. Built and
/// driven entirely through the `Store` facade.
fn run_repair(backend: BackendKind, value_size: usize, layer: RepairLayer) -> RepairReport {
    let (f1, f2, k, d) = REPAIR_PARAMS;
    let store = StoreBuilder::new()
        .failures(f1, f2)
        .code(k, d)
        .backend(backend)
        .build()
        .expect("validated sweep configuration");
    let admin: Admin = store.admin();
    let mut client = store.client_with_depth(16);
    client.set_timeout(Duration::from_secs(60));
    let mut values = ValueGenerator::new(value_size, 7);
    let background_objects = (1_000..1_000 + BACKGROUND_OBJECTS).map(ObjectId);
    for obj in (0..REPAIR_OBJECTS).map(ObjectId).chain(background_objects) {
        client.submit_write_value(obj, values.next_value());
    }
    client.wait_all().expect("population writes complete");

    let target = match layer {
        RepairLayer::L1 => ServerRef::l1(1),
        RepairLayer::L2 => ServerRef::l2(1),
    };
    admin.kill(target).expect("in-range crash target");

    // Keep a writer streaming to disjoint objects while the repair runs, so
    // the recorded latency is an *online* repair, not a quiesced one.
    let stop = Arc::new(AtomicBool::new(false));
    let background = {
        let store = store.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = store.client();
            client.set_timeout(Duration::from_secs(60));
            let mut values = ValueGenerator::new(value_size, 11);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                client
                    .write(
                        ObjectId(1_000 + (i % BACKGROUND_OBJECTS)),
                        values.next_value().as_bytes(),
                    )
                    .expect("background write survives the repair window");
                i += 1;
            }
        })
    };

    let report = admin.repair(target).expect("online repair");
    stop.store(true, Ordering::Relaxed);
    background.join().expect("background writer");
    assert_eq!(
        report.objects,
        REPAIR_OBJECTS + BACKGROUND_OBJECTS,
        "the repair snapshot holds every object written before the crash"
    );

    // The repaired server must serve traffic again.
    client
        .write(ObjectId(0), values.next_value().as_bytes())
        .expect("write after repair");
    drop(client);
    store.shutdown();
    report
}

fn print_repair(results: &[RepairRow]) {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.backend.to_string(),
                r.report.layer.to_string(),
                r.value_size.to_string(),
                r.report.objects.to_string(),
                r.report.helpers.to_string(),
                r.report.bytes_total.to_string(),
                format!("{:.1}", r.report.bytes_per_object()),
                r.report.fallback_bytes.to_string(),
                format!("{:.4}", r.report.bandwidth_ratio()),
                format!("{:.2}", r.report.elapsed.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    print_table(
        "Online node repair: measured traffic vs full-element fallback (ratio = beta/alpha)",
        &[
            "backend",
            "layer",
            "value B",
            "objects",
            "helpers",
            "moved B",
            "B/object",
            "fallback B",
            "ratio",
            "ms",
        ],
        &rows,
    );
}

/// One row of `BENCH_REPAIR.json`'s `results` array.
fn json_row(r: &RepairRow) -> String {
    format!(
        "{{ \"backend\": \"{}\", \"layer\": \"{}\", \"value_size\": {}, \
         \"objects\": {}, \"helpers\": {}, \"repair_bytes_total\": {}, \
         \"bytes_per_object\": {:.1}, \"fallback_bytes\": {}, \
         \"bandwidth_ratio\": {:.4}, \"elapsed_ms\": {:.2} }}",
        r.backend,
        r.report.layer,
        r.value_size,
        r.report.objects,
        r.report.helpers,
        r.report.bytes_total,
        r.report.bytes_per_object(),
        r.report.fallback_bytes,
        r.report.bandwidth_ratio(),
        r.report.elapsed.as_secs_f64() * 1e3,
    )
}

fn render_json(results: &[RepairRow]) -> String {
    let (f1, f2, k, d) = REPAIR_PARAMS;
    let params = SystemParams::for_failures(f1, f2, k, d).expect("valid repair parameters");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"_meta\": {\n");
    out.push_str(
        "    \"description\": \"Online node repair of a crashed server in the threaded \
         cluster runtime, under a concurrent background writer. A replacement rejoins \
         under the same process id, regenerates every object's state from live helpers, \
         catches up in-flight writes, and restores the failure budget. \
         repair_bytes_total = repair payload bytes actually shipped by the helpers; \
         fallback_bytes = what the same repair (same helpers participating) would move \
         if each shipped its full stored element (decode-and-re-encode); \
         bandwidth_ratio = moved/fallback = beta/alpha of the code, checked exactly by \
         the writer (MBR 1/alpha = 1/d, the paper's minimum-bandwidth repair point; \
         PM-MSR 1/(k-1); RS/replication ship full elements, 1.0). layer=L1 rows measure \
         metadata reconstruction (committed tags + lists) where no coded shortcut \
         exists (1.0).\",\n",
    );
    out.push_str("    \"command\": \"cargo run --release -p lds-bench --bin exp_paper\",\n");
    out.push_str(&format!("    \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("    \"generated\": \"{}\",\n", today_utc()));
    out.push_str(&format!("    \"host_cores\": {},\n", host_cores()));
    out.push_str(&format!(
        "    \"params\": \"f1={f1} f2={f2} k={k} d={d} (n1={}, n2={}, alpha={d}); one \
         cluster per point; L2 server 1 (or L1 server 1) killed and repaired online\",\n",
        params.n1(),
        params.n2(),
    ));
    out.push_str(&format!(
        "    \"workload\": \"{REPAIR_OBJECTS} + {BACKGROUND_OBJECTS} objects written before \
         the crash; a background writer streams to the last {BACKGROUND_OBJECTS} during \
         the repair; elapsed_ms covers join -> replacement live\"\n",
    ));
    out.push_str("  },\n");

    // Headline: the MBR saving over the fallback per value size (L2 rows).
    out.push_str("  \"mbr_vs_full_decode\": {\n");
    let mbr_rows: Vec<&RepairRow> = results
        .iter()
        .filter(|r| r.backend == BackendKind::Mbr && r.report.layer == RepairLayer::L2)
        .collect();
    for (i, r) in mbr_rows.iter().enumerate() {
        let saving = if r.report.bytes_total > 0 {
            r.report.fallback_bytes as f64 / r.report.bytes_total as f64
        } else {
            1.0
        };
        out.push_str(&format!(
            "    \"{}\": {{ \"repair_bytes_total\": {}, \"fallback_bytes\": {}, \
             \"bandwidth_ratio\": {:.4}, \"saving_factor\": {saving:.2} }}{}\n",
            r.value_size,
            r.report.bytes_total,
            r.report.fallback_bytes,
            r.report.bandwidth_ratio(),
            if i + 1 < mbr_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");

    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&json_row(r));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
