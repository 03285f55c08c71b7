//! Allocations of the L1 automaton per committed write.
//!
//! Every commit advances an object's `t_c` and garbage-collects the per-tag
//! bookkeeping below it: the list `L`, the commit counters, the ack and
//! offload sets, the broadcast dedup maps. Pruned in place from the front,
//! that allocates no B-tree node — the emptied nodes stay for the next tag —
//! whereas splitting each map at `t_c` allocated a fresh root for the kept
//! half of every non-empty one, on every commit of every server.
//!
//! A stream of small writes to one object runs through bare automata (FIFO
//! delivery, no threads) under a counting global allocator, and the
//! allocations made inside each L1 server's steps are counted per write.
//! Past warm-up the count repeats exactly, write after write, so it is
//! pinned: a new allocation anywhere on an L1 server's write path moves it.
//! The parent of the commit that added this file, which split every map at
//! `t_c`, allocated [22, 22, 19, 19] per server per write paper-faithful
//! and [19, 19, 7, 7] high-throughput; the parent of the commit that made
//! every quorum and dedup set a bitset and memoized the encode's generator
//! rows, [14, 14, 12, 12] and [12, 12, 2, 2]. What is left is payload: an
//! offloading server's 5 coded elements and the framed copy of the short
//! value it encodes. A non-offloading high-throughput server allocates
//! nothing.

use lds_core::backend::{make_backend, BackendKind};
use lds_core::{
    ClientId, Context, L1Server, L2Server, LdsMessage, Membership, ObjectId, Process, ProcessId,
    Profile, ProtocolEvent, SimTime, SystemParams, Value, WriterClient,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

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

const WRITER: ProcessId = ProcessId(9);

/// The benchmark's deployment (`f1 = f2 = 1`, `k = 2`, `d = 3`: n1 = 4,
/// n2 = 5, MBR) under `profile`, and a FIFO queue between its automata.
struct Net {
    l1: Vec<L1Server>,
    l2: Vec<L2Server>,
    writer: WriterClient,
    queue: VecDeque<(ProcessId, ProcessId, LdsMessage)>,
    outgoing: Vec<(ProcessId, LdsMessage)>,
    events: Vec<(SimTime, ProcessId, ProtocolEvent)>,
}

impl Net {
    fn new(profile: Profile) -> Net {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let (n1, n2) = (params.n1(), params.n2());
        let membership = Membership::new(
            (0..n1).map(ProcessId).collect(),
            (n1..n1 + n2).map(ProcessId).collect(),
        );
        let backend = make_backend(BackendKind::Mbr, &params).unwrap();
        backend.warm_plans();
        Net {
            l1: (0..n1)
                .map(|j| L1Server::new(j, params, membership.clone(), backend.clone(), profile))
                .collect(),
            l2: (0..n2)
                .map(|i| L2Server::new(i, membership.clone(), backend.clone(), profile))
                .collect(),
            writer: WriterClient::new(ClientId(1), params, membership),
            queue: VecDeque::with_capacity(1024),
            outgoing: Vec::with_capacity(1024),
            events: Vec::with_capacity(16),
        }
    }

    /// Writes 256 bytes to `obj` and delivers every message it causes, in
    /// FIFO order; returns the allocations made inside each L1 server's
    /// steps.
    fn write(&mut self, obj: ObjectId) -> Vec<usize> {
        let n1 = self.l1.len();
        let mut by_server = vec![0; n1];
        let value = Value::new(vec![7; 256]);
        self.queue.push_back((
            ProcessId::EXTERNAL,
            WRITER,
            LdsMessage::InvokeWrite { obj, value },
        ));
        let mut completed = 0;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let mut ctx =
                Context::standalone(to, SimTime::ZERO, &mut self.outgoing, &mut self.events);
            match to {
                WRITER => self.writer.on_message(from, msg, &mut ctx),
                ProcessId(i) if i < n1 => {
                    let before = ALLOCATIONS.load(Ordering::Relaxed);
                    self.l1[i].on_message(from, msg, &mut ctx);
                    by_server[i] += ALLOCATIONS.load(Ordering::Relaxed) - before;
                }
                ProcessId(i) => self.l2[i - n1].on_message(from, msg, &mut ctx),
            }
            self.queue
                .extend(self.outgoing.drain(..).map(|(dest, m)| (to, dest, m)));
            completed += self.events.len();
            self.events.clear();
        }
        assert_eq!(completed, 1, "the write completed once");
        by_server
    }
}

/// Allocations per L1 server per committed small write, pinned for both
/// profiles. (One test, not two: the counter is process-wide.)
#[test]
fn a_committed_small_write_allocates_no_btree_nodes_in_gc() {
    for (profile, expected) in [
        (Profile::PaperFaithful, [6, 6, 6, 6]),
        (Profile::HighThroughput, [6, 6, 0, 0]),
    ] {
        let mut net = Net::new(profile);
        let obj = ObjectId(3);
        for _ in 0..8 {
            net.write(obj);
        }
        let counts: Vec<Vec<usize>> = (0..8).map(|_| net.write(obj)).collect();
        println!("{profile:?}: allocations per L1 server per write: {counts:?}");
        for per_server in &counts {
            assert_eq!(per_server, &expected, "{profile:?}");
        }
    }
}
