//! `exp_net` — throughput of the **real-network deployment** versus the
//! in-process runtime.
//!
//! Starts a 3-daemon `ldsd` deployment on localhost (in-process
//! [`Daemon`]s, real TCP sockets: every cross-daemon protocol message is
//! wire-encoded and carried by the mesh, every benchmark operation enters
//! through the client RPC port), runs blocking and pipelined write/read
//! workloads through a [`NetClient`], and repeats the same workloads
//! against the plain in-process store as the zero-network baseline. The
//! gap between the two columns is the price of the codec + loopback TCP +
//! the RPC hop — and the regression guard that the in-process default
//! stays untouched by the deployment path.
//!
//! Each pipelined TCP row also says **where** its cost went: a per-thread-
//! role census ([`lds_bench::threads`]: CPU ticks and context switches per
//! operation, the workers next to the mesh thread next to the RPC threads)
//! and how many frames the mesh put into one socket write
//! (`frames_per_write`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p lds-bench --bin exp_net            # full sweep
//! cargo run --release -p lds-bench --bin exp_net -- --smoke # CI smoke
//!     [--out PATH]   output file (default BENCH_NET.json)
//!     [--ops N]      operations per point (overrides preset)
//! ```

use lds_bench::threads::{Census, RoleUsage};
use lds_bench::{fmt3, host_cores, print_table, today_utc, SCHEMA_VERSION};
use lds_cluster::api::{ObjectId, Store, StoreBuilder};
use lds_core::backend::BackendKind;
use ldsd::{Config, Daemon, NetClient};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Daemons of the TCP deployment; servers stripe over them pid-round-robin.
const DAEMONS: usize = 3;
/// f1 = 1, f2 = 1, k = 2, d = 3 → 4 L1 + 5 L2 servers.
const SERVERS: usize = 9;
/// In-flight operations per pipelined workload.
const DEPTH: usize = 16;

/// One measured point.
struct Row {
    transport: &'static str,
    mode: &'static str,
    value_size: usize,
    ops: usize,
    elapsed: Duration,
    /// Pipelined TCP rows: where the cost went.
    attribution: Option<Attribution>,
}

/// What the process's threads and the daemons' mesh links did during one
/// row.
struct Attribution {
    /// `None` where there is no procfs to read.
    roles: Option<Vec<RoleUsage>>,
    frames_sent: u64,
    writes: u64,
}

/// Frames sent and socket writes made, summed over the daemons' links.
fn mesh_writes(daemons: &[Daemon]) -> (u64, u64) {
    daemons
        .iter()
        .map(Daemon::link_stats)
        .fold((0, 0), |(f, w), s| (f + s.frames_sent, w + s.writes))
}

impl Row {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn free_ports(count: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

fn daemon_config(index: usize, mesh: &[u16], rpc: &[u16], http: &[u16]) -> Config {
    let mut text = format!(
        "[daemon]\nlisten = \"127.0.0.1:{}\"\nclient_listen = \"127.0.0.1:{}\"\n\
         http_listen = \"127.0.0.1:{}\"\n\n[cluster]\nf1 = 1\nf2 = 1\nk = 2\nd = 3\n\
         backend = \"mbr\"\npipeline_depth = {DEPTH}\n\n[membership]\n",
        mesh[index], rpc[index], http[index]
    );
    for pid in 0..SERVERS {
        text.push_str(&format!("{pid} = \"127.0.0.1:{}\"\n", mesh[pid % DAEMONS]));
    }
    Config::parse(&text).expect("benchmark config is valid")
}

/// Blocking and pipelined write+read workloads through one [`NetClient`].
fn run_tcp(
    client: &mut NetClient,
    daemons: &[Daemon],
    value_size: usize,
    ops: usize,
    rows: &mut Vec<Row>,
) {
    let value = vec![0xA5u8; value_size];
    // Blocking: one op in flight, alternating write/read.
    let start = Instant::now();
    for op in 0..ops {
        let obj = ObjectId((op % 64) as u64);
        if op % 2 == 0 {
            client.write(obj, &value).expect("net write");
        } else {
            client.read(obj).expect("net read");
        }
    }
    rows.push(Row {
        transport: "tcp",
        mode: "blocking",
        value_size,
        ops,
        elapsed: start.elapsed(),
        attribution: None,
    });
    // Pipelined: keep DEPTH writes in flight.
    let census = Census::take();
    let (frames_before, writes_before) = mesh_writes(daemons);
    let start = Instant::now();
    let mut inflight = std::collections::VecDeque::new();
    for op in 0..ops {
        let obj = ObjectId(64 + (op % 64) as u64);
        inflight.push_back(client.submit_write(obj, &value).expect("submit"));
        if inflight.len() >= DEPTH {
            let id = inflight.pop_front().unwrap();
            client.wait_written(id).expect("pipelined write");
        }
    }
    for id in inflight {
        client.wait_written(id).expect("pipelined drain");
    }
    let elapsed = start.elapsed();
    let (frames, writes) = mesh_writes(daemons);
    rows.push(Row {
        transport: "tcp",
        mode: "pipelined",
        value_size,
        ops,
        elapsed,
        attribution: Some(Attribution {
            roles: census.and_then(|before| Some(Census::take()?.since(&before))),
            frames_sent: frames - frames_before,
            writes: writes - writes_before,
        }),
    });
}

/// The same workloads against the default in-process store.
fn run_inproc(value_size: usize, ops: usize, rows: &mut Vec<Row>) {
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Mbr)
        .build()
        .expect("in-process store");
    let mut client = store.client();
    let value = vec![0xA5u8; value_size];
    let start = Instant::now();
    for op in 0..ops {
        let obj = ObjectId((op % 64) as u64);
        if op % 2 == 0 {
            client.write(obj, &value).expect("write");
        } else {
            client.read(obj).expect("read");
        }
    }
    rows.push(Row {
        transport: "inproc",
        mode: "blocking",
        value_size,
        ops,
        elapsed: start.elapsed(),
        attribution: None,
    });
    let mut piped = store.client_with_depth(DEPTH);
    let start = Instant::now();
    let mut submitted = 0usize;
    while submitted < ops {
        let burst = DEPTH.min(ops - submitted);
        for i in 0..burst {
            piped.submit_write(ObjectId(64 + ((submitted + i) % 64) as u64), &value);
        }
        submitted += burst;
        piped.wait_all().expect("pipelined batch");
    }
    rows.push(Row {
        transport: "inproc",
        mode: "pipelined",
        value_size,
        ops,
        elapsed: start.elapsed(),
        attribution: None,
    });
    drop(client);
    drop(piped);
    store.shutdown();
}

/// The extra fields of a pipelined TCP row: totals over the row's
/// operations (CPU in clock ticks of 10 ms).
fn render_attribution(a: &Attribution) -> String {
    let roles: Vec<String> = a
        .roles
        .iter()
        .flatten()
        .map(|r| {
            format!(
                "{{\"role\": \"{}\", \"threads\": {}, \"user_ticks\": {}, \
                 \"system_ticks\": {}, \"voluntary_switches\": {}, \
                 \"involuntary_switches\": {}}}",
                r.role,
                r.threads,
                r.user_ticks,
                r.system_ticks,
                r.voluntary_switches,
                r.involuntary_switches
            )
        })
        .collect();
    format!(
        ", \"frames_sent\": {}, \"socket_writes\": {}, \"frames_per_write\": {:.2}, \
         \"threads_by_role\": [{}]",
        a.frames_sent,
        a.writes,
        a.frames_sent as f64 / a.writes.max(1) as f64,
        roles.join(", ")
    )
}

/// Prints who did the work of one pipelined TCP row, per operation.
fn print_attribution(row: &Row, a: &Attribution) {
    let ops = row.ops as f64;
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut switches = 0;
    for r in a.roles.iter().flatten() {
        switches += r.voluntary_switches;
        table.push(vec![
            r.role.clone(),
            r.threads.to_string(),
            // A tick is 10 ms.
            format!("{:.1}", r.user_ticks as f64 * 1e4 / ops),
            format!("{:.1}", r.system_ticks as f64 * 1e4 / ops),
            format!("{:.2}", r.voluntary_switches as f64 / ops),
            format!("{:.2}", r.involuntary_switches as f64 / ops),
        ]);
    }
    print_table(
        &format!(
            "tcp pipelined, {} B values, per operation: {:.2} voluntary switches, \
             {:.1} mesh frames in {:.1} socket writes ({:.2} frames per write)",
            row.value_size,
            switches as f64 / ops,
            a.frames_sent as f64 / ops,
            a.writes as f64 / ops,
            a.frames_sent as f64 / a.writes.max(1) as f64,
        ),
        &[
            "role",
            "threads",
            "user us",
            "system us",
            "vol sw",
            "invol sw",
        ],
        &table,
    );
}

fn render_json(rows: &[Row], smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"_meta\": {\n");
    out.push_str(
        "    \"description\": \"Throughput of the real-network ldsd deployment (3 daemons \
         on localhost, wire-codec frames over TCP for both the server mesh and the client \
         RPC) versus the in-process cluster runtime on identical workloads. The tcp rows \
         price the codec + loopback TCP + RPC hop; the inproc rows are the unchanged \
         default path and double as its no-regression reference.\",\n",
    );
    out.push_str(&format!(
        "    \"command\": \"cargo run --release -p lds-bench --bin exp_net{}\",\n",
        if smoke { " -- --smoke" } else { "" }
    ));
    out.push_str(&format!("    \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("    \"generated\": \"{}\",\n", today_utc()));
    out.push_str("    \"transport\": \"tcp\",\n");
    out.push_str(&format!("    \"host_cores\": {},\n", host_cores()));
    // Coding cost differs severalfold between kernel levels.
    out.push_str(&format!(
        "    \"gf_kernel\": \"{}\",\n",
        lds_gf::bulk::kernel()
    ));
    out.push_str(&format!(
        "    \"params\": \"f1=1 f2=1 k=2 d=3 (n1=4, n2=5) striped over {DAEMONS} daemons; \
         pipelined depth {DEPTH}; objects cycle over a 64-key pool per mode\"\n"
    ));
    out.push_str("  },\n");
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"transport\": \"{}\", \"mode\": \"{}\", \"value_size\": {}, \
             \"ops\": {}, \"elapsed_ms\": {:.3}, \"ops_per_sec\": {:.1}{}}}{}\n",
            row.transport,
            row.mode,
            row.value_size,
            row.ops,
            row.elapsed.as_secs_f64() * 1e3,
            row.ops_per_sec(),
            row.attribution
                .as_ref()
                .map_or(String::new(), render_attribution),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_NET.json".to_string();
    let mut ops_override: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--ops" => {
                ops_override = Some(
                    args.next()
                        .expect("--ops needs a count")
                        .parse()
                        .expect("--ops needs an integer"),
                )
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    let ops = ops_override.unwrap_or(if smoke { 40 } else { 2000 });
    let value_sizes: &[usize] = if smoke {
        &[128, 4096]
    } else {
        &[128, 4096, 65536]
    };

    // One TCP deployment reused across every point.
    let ports = free_ports(3 * DAEMONS);
    let (mesh, rest) = ports.split_at(DAEMONS);
    let (rpc, http) = rest.split_at(DAEMONS);
    let daemons: Vec<Daemon> = (0..DAEMONS)
        .map(|index| Daemon::start(daemon_config(index, mesh, rpc, http)).expect("daemon starts"))
        .collect();
    let mut client = NetClient::connect_retry(daemons[0].client_addr(), Duration::from_secs(10))
        .expect("connect to daemon 0");

    let mut rows = Vec::new();
    for &value_size in value_sizes {
        run_tcp(&mut client, &daemons, value_size, ops, &mut rows);
        run_inproc(value_size, ops, &mut rows);
    }
    drop(client);
    for daemon in daemons {
        daemon.stop();
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.transport.to_string(),
                row.mode.to_string(),
                row.value_size.to_string(),
                row.ops.to_string(),
                fmt3(row.elapsed.as_secs_f64() * 1e3),
                format!("{:.0}", row.ops_per_sec()),
            ]
        })
        .collect();
    print_table(
        "network deployment vs in-process runtime (write/read mix, 3 daemons on localhost)",
        &["transport", "mode", "value", "ops", "ms", "ops/sec"],
        &table,
    );

    for row in &rows {
        if let Some(attribution) = &row.attribution {
            print_attribution(row, attribution);
        }
    }

    let json = render_json(&rows, smoke);
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("\nwrote {out_path} ({} bytes)", json.len());
}
