//! **Real-network** demo: a 3-daemon `ldsd` deployment on localhost, driven
//! by a network client — the TCP twin of `examples/self_healing.rs`.
//!
//! Three [`ldsd::Daemon`]s start in this one process (so the example needs
//! no orchestration), but nothing about that is a simulation: each daemon
//! binds its own mesh, RPC and HTTP listeners, hosts only its own slice of
//! the L1/L2 servers, and every cross-daemon protocol message is encoded by
//! the versioned wire codec and carried over a real TCP socket. The client
//! talks to the daemons exactly as a remote process would: request/response
//! frames over the RPC port.
//!
//! The run: write through daemon 0 and read through daemon 1 (blocking and
//! pipelined), kill an L2 server hosted by daemon 2 over the admin RPC,
//! keep writing through the degraded window, and wait while daemon 2's
//! self-healing control plane detects and repairs the crash on its own —
//! helper reads crossing the mesh. `ldsd --config` runs the same daemon as
//! a standalone process; see the README's multi-host recipe.
//!
//! Run with: `cargo run --example network_cluster`

use lds_cluster::ObjectId;
use ldsd::{Config, Daemon, NetClient};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Daemons and servers of the demo deployment: f1 = 1, f2 = 1, k = 2,
/// d = 3 → 4 L1 + 5 L2 servers striped over 3 daemons.
const DAEMONS: usize = 3;
const SERVERS: usize = 9;

/// Reserves distinct loopback ports by binding (then dropping) ephemeral
/// listeners.
fn free_ports(count: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// The TOML config of daemon `index` — the same text an operator would put
/// in `/etc/ldsd.toml` on that daemon's host.
fn config_for(index: usize, mesh: &[u16], rpc: &[u16], http: &[u16]) -> Config {
    let mut text = format!(
        "[daemon]\n\
         listen = \"127.0.0.1:{}\"\n\
         client_listen = \"127.0.0.1:{}\"\n\
         http_listen = \"127.0.0.1:{}\"\n\n\
         [cluster]\n\
         f1 = 1\n\
         f2 = 1\n\
         k = 2\n\
         d = 3\n\
         backend = \"mbr\"\n\n\
         [heal]\n\
         enabled = true\n\
         beat_interval_ms = 15\n\
         suspicion_intervals = 3\n\
         backoff_base_ms = 25\n\n\
         [membership]\n",
        mesh[index], rpc[index], http[index]
    );
    for pid in 0..SERVERS {
        text.push_str(&format!("{pid} = \"127.0.0.1:{}\"\n", mesh[pid % DAEMONS]));
    }
    Config::parse(&text).expect("demo config is valid")
}

fn main() {
    let ports = free_ports(3 * DAEMONS);
    let (mesh, rest) = ports.split_at(DAEMONS);
    let (rpc, http) = rest.split_at(DAEMONS);

    let daemons: Vec<Daemon> = (0..DAEMONS)
        .map(|index| {
            let daemon = Daemon::start(config_for(index, mesh, rpc, http)).expect("daemon starts");
            let [l1, l2] = daemon.config().topology.local_servers();
            println!(
                "daemon {index}: mesh 127.0.0.1:{}, hosts L1 {l1:?} and L2 {l2:?}",
                mesh[index]
            );
            daemon
        })
        .collect();

    let connect = |index: usize| {
        NetClient::connect_retry(daemons[index].client_addr(), Duration::from_secs(10))
            .expect("connect to daemon")
    };
    let mut via_d0 = connect(0);
    let mut via_d1 = connect(1);
    let mut via_d2 = connect(2);

    // Blocking ops, crossing daemons: what 0 commits, 1 must read.
    via_d0
        .write(ObjectId(0), b"hello from a real socket")
        .unwrap();
    assert_eq!(
        via_d1.read(ObjectId(0)).unwrap(),
        b"hello from a real socket"
    );
    println!("blocking write via daemon 0, read back via daemon 1");

    // Pipelined burst: ids come back immediately, responses are harvested
    // out of order.
    let ids: Vec<u64> = (0..8u64)
        .map(|obj| {
            via_d0
                .submit_write(ObjectId(1 + obj), &vec![obj as u8; 1024])
                .unwrap()
        })
        .collect();
    for &id in ids.iter().rev() {
        via_d0.wait_written(id).unwrap();
    }
    println!("pipelined 8 writes of 1 KiB through daemon 0");

    // Crash an L2 server hosted by daemon 2 (pid 5 → index 1 in L2). Its
    // own heartbeat monitor must notice; nobody calls repair.
    via_d2.kill(1, 1).unwrap();
    via_d0
        .write(ObjectId(1), b"written while degraded")
        .unwrap();
    println!("killed L2[1] on daemon 2; operations still complete");

    // Daemon 2's liveness RPC is the heartbeat monitor's *suspicion* view:
    // right after the kill it still answers all-live for one detection
    // window, so the heal-wait also checks its repair-success counter.
    let start = Instant::now();
    let deadline = start + Duration::from_secs(30);
    loop {
        let healed = daemons[2].store().admin().metrics().heal_repairs_succeeded >= 1;
        let (live_l1, live_l2) = via_d2.liveness().unwrap();
        if healed && live_l1 == 4 && live_l2 == 5 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "self-heal should finish well within 30 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "daemon 2 self-healed its server in {:?} — helper reads crossed the mesh",
        start.elapsed()
    );
    assert_eq!(via_d1.read(ObjectId(1)).unwrap(), b"written while degraded");

    // What a Prometheus scrape of daemon 2 would ingest (excerpt).
    let metrics = daemons[2].store().admin().metrics().to_prometheus();
    let excerpt: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("lds_heal") || l.starts_with("lds_transport"))
        .collect();
    println!("--- /metrics excerpt from daemon 2 ---");
    for line in excerpt {
        println!("{line}");
    }

    for daemon in daemons {
        daemon.stop();
    }
    println!("all daemons stopped");
}
