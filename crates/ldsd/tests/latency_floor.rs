//! Latency floor of the RPC path, and response integrity under coalescing.
//!
//! Three daemons in this process, meshed over loopback TCP. An idle blocking
//! read crosses three client phases; while the RPC worker slept 1 ms between
//! polls each phase cost at least that, so a median under 3 ms was out of
//! reach. An event-driven worker answers in a fraction of a millisecond. The
//! bound asserted here (2 ms) sits between the two with room for a loaded
//! test host.
//!
//! The second half pipelines a window of mixed operations per connection:
//! the worker writes every response of one turn in a single `write`, so each
//! must still carry its own request's id and value.

use lds_cluster::ObjectId;
use ldsd::{Config, Daemon, NetClient};
use std::collections::VecDeque;
use std::net::TcpListener;
use std::time::{Duration, Instant};

const DAEMONS: usize = 3;
const SERVERS: usize = 9;
const VALUE_LEN: usize = 4096;

fn start_daemons() -> Vec<Daemon> {
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
                 backend = \"mbr\"\n\n[heal]\nenabled = false\n\n[membership]\n",
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

#[test]
fn idle_reads_are_not_quantised_and_pipelined_responses_do_not_cross() {
    let daemons = start_daemons();
    let connect = |index: usize| {
        NetClient::connect_retry(daemons[index].client_addr(), Duration::from_secs(30))
            .expect("daemon accepts connections")
    };
    let mut via_d0 = connect(0);
    let mut via_d1 = connect(1);

    // --- latency floor: blocking reads on an idle deployment -------------
    const OBJECTS: u64 = 16;
    for obj in 0..OBJECTS {
        via_d0.write(ObjectId(obj), &value_of(obj, 0)).unwrap();
    }
    for obj in 0..OBJECTS {
        // Warm-up (mesh links connected, codec plans built), unmeasured.
        assert_eq!(via_d1.read(ObjectId(obj)).unwrap(), value_of(obj, 0));
    }
    let mut latencies: Vec<Duration> = (0..300u64)
        .map(|i| {
            let obj = i % OBJECTS;
            let started = Instant::now();
            let value = via_d1.read(ObjectId(obj)).unwrap();
            let took = started.elapsed();
            assert_eq!(value, value_of(obj, 0), "read {i} of object {obj}");
            took
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median idle 4 KiB read took {median:?}: the RPC path is sleeping between phases again"
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
