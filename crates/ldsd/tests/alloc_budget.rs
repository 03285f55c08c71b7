//! Allocation budget of an operation over TCP.
//!
//! Three daemons in this process, meshed over loopback TCP as in
//! `latency_floor.rs`, and one blocking depth-1 `NetClient` doing 4 KiB
//! write/read pairs over 64 objects — `tcp_mixed`'s shape at depth 1. Every
//! allocation of the process is counted under a counting global allocator:
//! the client's request and response frames, the RPC worker, the mesh
//! frames each hop encodes and decodes, and the automata on every daemon.
//! The daemons' heartbeats and accept loops run on threads of their own, so
//! the count is not exact: each figure is the least of three windows of
//! 2 000 operations, against a budget.
//!
//! On the 2-core reference host, runs of this test gave a least window of
//! 91.1, 89.4 and 91.2 allocations per operation at the parent of the
//! commit that made quorum sets bitsets and memoized the encode's generator
//! rows, and 70.0, 66.7, 69.9, 70.2 and 69.0 with it. The budget sits
//! between the two.

use lds_cluster::ObjectId;
use ldsd::{Config, Daemon, NetClient};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`) so far.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s guarantees are this allocator's. The
// only addition is a relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DAEMONS: usize = 3;
const SERVERS: usize = 9;

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
                 backend = \"mbr\"\n\n[membership]\n",
                mesh[index], rpc[index], http[index]
            );
            for pid in 0..SERVERS {
                text.push_str(&format!("{pid} = \"127.0.0.1:{}\"\n", mesh[pid % DAEMONS]));
            }
            Daemon::start(Config::parse(&text).expect("valid config")).expect("daemon starts")
        })
        .collect()
}

#[test]
fn a_tcp_operation_stays_inside_its_allocation_budget() {
    const OPS: u64 = 2000;
    const BUDGET: f64 = 76.0;
    let daemons = start_daemons();
    let mut client = NetClient::connect_retry(daemons[0].client_addr(), Duration::from_secs(30))
        .expect("daemon accepts connections");
    let value = [7u8; 4096];
    let mut op = |i: u64| {
        let obj = ObjectId(i / 2 % 64);
        if i.is_multiple_of(2) {
            client.write(obj, &value).unwrap();
        } else {
            assert_eq!(client.read(obj).unwrap().len(), value.len());
        }
    };
    // Warm-up: links connected, plans built, every object written.
    for i in 0..256 {
        op(i);
    }
    let windows: Vec<f64> = (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for i in 0..OPS {
                op(i);
            }
            (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / OPS as f64
        })
        .collect();
    println!("{OPS} depth-1 4 KiB operations over TCP, allocations per operation: {windows:.1?}");
    drop(client);
    daemons.into_iter().for_each(Daemon::stop);
    let least = windows.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        least <= BUDGET,
        "{least:.1} allocations per operation over TCP, budget {BUDGET}"
    );
}
