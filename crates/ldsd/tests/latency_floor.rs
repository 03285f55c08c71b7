//! Latency floor of the RPC path, response integrity under coalescing, and
//! one liveness view per daemon.
//!
//! Three daemons in this process, meshed over loopback TCP. An idle blocking
//! read crosses three client phases; while the RPC worker slept 1 ms between
//! polls each phase cost at least that, so a median under 3 ms was out of
//! reach. An event-driven worker answers in a fraction of a millisecond.
//! What is asserted is a *ratio*: the median idle read over TCP against the
//! median of the same read on an in-process store of the same parameters,
//! measured in the same test on the same host in the same build. A busy or
//! slow host stretches both; a sleep on the RPC path stretches one.
//!
//! The second half pipelines a window of mixed operations per connection:
//! the worker writes every response of one turn in a single `write`, so each
//! must still carry its own request's id and value.
//!
//! The last test runs the daemons self-healing and holds each daemon's
//! `/metrics` and its `Liveness` RPC to one answer through a kill and its
//! supervised repair.

use lds_cluster::api::{Store, StoreBuilder};
use lds_cluster::ObjectId;
use ldsd::{Config, Daemon, NetClient};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DAEMONS: usize = 3;
const SERVERS: usize = 9;
const VALUE_LEN: usize = 4096;

/// The tests take turns: one measures latency on an otherwise idle process.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn start_daemons(heal: bool) -> Vec<Daemon> {
    let listeners: Vec<TcpListener> = (0..3 * DAEMONS)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback port"))
        .collect();
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect();
    drop(listeners);
    let (mesh, rest) = ports.split_at(DAEMONS);
    let (rpc, http) = rest.split_at(DAEMONS);
    (0..DAEMONS)
        .map(|index| {
            let mut text = format!(
                "[daemon]\nlisten = \"127.0.0.1:{}\"\nclient_listen = \"127.0.0.1:{}\"\n\
                 http_listen = \"127.0.0.1:{}\"\n\n[cluster]\nf1 = 1\nf2 = 1\nk = 2\nd = 3\n\
                 backend = \"mbr\"\n\n[heal]\nenabled = {heal}\n\n[membership]\n",
                mesh[index], rpc[index], http[index]
            );
            for pid in 0..SERVERS {
                text.push_str(&format!("{pid} = \"127.0.0.1:{}\"\n", mesh[pid % DAEMONS]));
            }
            Daemon::start(Config::parse(&text).expect("valid config")).expect("daemon starts")
        })
        .collect()
}

/// A value whose every byte depends on `(obj, version)`.
fn value_of(obj: u64, version: u64) -> Vec<u8> {
    (0..VALUE_LEN as u64)
        .map(|i| (obj.wrapping_mul(31) ^ version.wrapping_mul(131) ^ i) as u8)
        .collect()
}

/// The median of 300 idle blocking reads over `OBJECTS` warm objects.
fn median_idle_read(mut read: impl FnMut(u64) -> Vec<u8>) -> Duration {
    let mut latencies: Vec<Duration> = (0..300u64)
        .map(|i| {
            let obj = i % OBJECTS;
            let started = Instant::now();
            let value = read(obj);
            let took = started.elapsed();
            assert_eq!(value, value_of(obj, 0), "read {i} of object {obj}");
            took
        })
        .collect();
    latencies.sort();
    latencies[latencies.len() / 2]
}

const OBJECTS: u64 = 16;

/// How many in-process idle reads one idle read over TCP may cost. On the
/// 2-core reference host an unoptimised build measures 1.4-1.7 ms against
/// 0.55-0.83 ms (ratio 2.0-3.0; optimisation speeds the automata up more
/// than the system calls) and an optimised one 0.56-0.92 ms against
/// 0.17-0.20 ms (3.0-4.8). Three 1 ms sleeps on top make that at least 5.3
/// and 18, so each build's bound sits between its two cases.
const TCP_OVER_IN_PROCESS: u32 = if cfg!(debug_assertions) { 4 } else { 8 };

#[test]
fn idle_reads_are_not_quantised_and_pipelined_responses_do_not_cross() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let daemons = start_daemons(false);
    let connect = |index: usize| {
        NetClient::connect_retry(daemons[index].client_addr(), Duration::from_secs(30))
            .expect("daemon accepts connections")
    };
    let mut via_d0 = connect(0);
    let mut via_d1 = connect(1);

    // --- latency floor: blocking reads on an idle deployment -------------
    for obj in 0..OBJECTS {
        via_d0.write(ObjectId(obj), &value_of(obj, 0)).unwrap();
    }
    for obj in 0..OBJECTS {
        // Warm-up (mesh links connected, codec plans built), unmeasured.
        assert_eq!(via_d1.read(ObjectId(obj)).unwrap(), value_of(obj, 0));
    }
    let over_tcp = median_idle_read(|obj| via_d1.read(ObjectId(obj)).unwrap());
    // The baseline: the same deployment without sockets, daemons idle.
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(lds_core::BackendKind::Mbr)
        .build()
        .unwrap();
    let mut local = store.client();
    for obj in 0..OBJECTS {
        local.write(ObjectId(obj), &value_of(obj, 0)).unwrap();
        assert_eq!(local.read(ObjectId(obj)).unwrap(), value_of(obj, 0));
    }
    let in_process = median_idle_read(|obj| local.read(ObjectId(obj)).unwrap());
    drop(local);
    store.shutdown();
    println!("median idle 4 KiB read: {over_tcp:?} over TCP, {in_process:?} in process");
    assert!(
        over_tcp <= in_process * TCP_OVER_IN_PROCESS,
        "median idle 4 KiB read took {over_tcp:?} over TCP against {in_process:?} in process: \
         the RPC path is sleeping between phases again"
    );

    // --- integrity: a window of 8 mixed operations per connection --------
    const WINDOW: usize = 8;
    const OPS: u64 = 400;
    enum Expect {
        Written,
        Value(Vec<u8>),
    }
    // Each connection owns a disjoint key range, so the value a read must
    // return is known from this connection's own (per-key FIFO) history.
    for (client, base) in [(&mut via_d0, 1000u64), (&mut via_d1, 2000u64)] {
        let mut versions = [0u64; 8];
        for (slot, version) in versions.iter_mut().enumerate() {
            *version = 1;
            let obj = base + slot as u64;
            client.write(ObjectId(obj), &value_of(obj, 1)).unwrap();
        }
        let mut window: VecDeque<(u64, Expect)> = VecDeque::new();
        for i in 0..OPS {
            // A stride of 3 over 8 slots: neighbours in the window hit
            // different keys, so they complete out of order.
            let slot = (i * 3 % 8) as usize;
            let obj = base + slot as u64;
            let entry = if i % 2 == 0 {
                versions[slot] += 1;
                let id = client
                    .submit_write(ObjectId(obj), &value_of(obj, versions[slot]))
                    .unwrap();
                (id, Expect::Written)
            } else {
                let id = client.submit_read(ObjectId(obj)).unwrap();
                (id, Expect::Value(value_of(obj, versions[slot])))
            };
            window.push_back(entry);
            while window.len() >= WINDOW || (i + 1 == OPS && !window.is_empty()) {
                match window.pop_front().unwrap() {
                    (id, Expect::Written) => {
                        client.wait_written(id).unwrap();
                    }
                    (id, Expect::Value(expected)) => {
                        let got = client.wait_value(id).unwrap();
                        assert!(
                            got == expected,
                            "response {id} carries another request's value"
                        );
                    }
                }
            }
        }
    }

    drop((via_d0, via_d1));
    // Daemons stop within their usual bounds with the connections gone.
    let started = Instant::now();
    daemons.into_iter().for_each(Daemon::stop);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "daemons took {:?} to stop",
        started.elapsed()
    );
}

/// One `GET /metrics` against a daemon, and the value of one sample in it.
fn scrape(daemon: &Daemon, sample: &str) -> u64 {
    let mut stream = TcpStream::connect(daemon.http_addr()).expect("http port accepts");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let line = response
        .lines()
        .find(|line| line.starts_with(sample))
        .unwrap_or_else(|| panic!("{sample} missing from /metrics"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// On every daemon of a self-healing deployment, `lds_live_servers` and the
/// `Liveness` RPC are one view: the daemon that hosts a killed server shows
/// it live in both until its monitor suspects it, down in both until the
/// replacement beats; a daemon that does not host it never sees it down in
/// either (each daemon observes the servers it hosts).
#[test]
fn metrics_and_the_liveness_rpc_agree_on_every_daemon_through_a_repair() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let daemons = start_daemons(true);
    let mut clients: Vec<NetClient> = daemons
        .iter()
        .map(|d| NetClient::connect_retry(d.client_addr(), Duration::from_secs(30)).unwrap())
        .collect();
    clients[0].write(ObjectId(1), &value_of(1, 0)).unwrap();
    // L2 server 1 is pid 5, hosted by daemon 5 % 3 = 2; daemon 0 is a peer.
    let (owner, peer, l2_servers) = (2, 0, 5);
    clients[owner].kill(1, 1).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen_down = false;
    loop {
        for index in [owner, peer] {
            // Liveness moves on its own; a scrape counts when the RPC gave
            // the same answer before and after it.
            let before = clients[index].liveness().unwrap().1;
            let scraped = scrape(&daemons[index], "lds_live_servers{layer=\"l2\"}");
            let after = clients[index].liveness().unwrap().1;
            if before == after {
                assert_eq!(scraped, after, "daemon {index}");
            }
            if index == owner {
                seen_down |= after < l2_servers;
            } else {
                assert_eq!(after, l2_servers, "a peer observes only its own servers");
            }
        }
        if seen_down && clients[owner].liveness().unwrap().1 == l2_servers {
            break;
        }
        assert!(Instant::now() < deadline, "the owner never healed");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(clients[peer].read(ObjectId(1)).unwrap(), value_of(1, 0));
    drop(clients);
    daemons.into_iter().for_each(Daemon::stop);
}
