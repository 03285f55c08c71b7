//! Copy budget of the cold-read data path.
//!
//! The paper prices an idle read that regenerates from the back-end at
//! `costs::read_cost(params, 0)` values communicated (Lemma V.3: 6.4 |v| for
//! `f1 = f2 = 1, k = 2, d = 3`). The implementation may allocate that — each
//! helper, each regenerated element is a message payload — plus the value it
//! returns, and nothing else of that order: payload bytes are borrowed or
//! moved at every other hand-off.
//!
//! One cold 256 KiB MBR read is driven through bare automata (no threads, no
//! router, FIFO delivery) under a counting global allocator, so the figure is
//! a count that repeats exactly, not a timing. This file holds exactly one
//! test: the counter is process-wide.

use lds_core::backend::{make_backend, BackendKind};
use lds_core::costs;
use lds_core::server1::L1Options;
use lds_core::{
    ClientId, L1Server, L2Server, LdsMessage, Membership, ObjectId, ProtocolEvent, ReadPayload,
    ReaderClient, SystemParams, Value, WriterClient,
};
use lds_sim::{Context, Process, ProcessId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations below this size are bookkeeping (maps, queues, the test
/// harness itself); payload buffers of a 256 KiB value are all far above it.
const LARGE: usize = 4096;

/// Bytes requested by allocations of at least [`LARGE`] bytes.
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s guarantees are this allocator's. The
// only addition is a relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown buffer may move: charge its whole new size.
        count(new_size);
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
const READER: ProcessId = ProcessId(10);

/// The bare automata of one deployment and a FIFO queue between them.
struct Net {
    l1: Vec<L1Server>,
    l2: Vec<L2Server>,
    writer: WriterClient,
    reader: ReaderClient,
    queue: VecDeque<(ProcessId, ProcessId, LdsMessage)>,
    outgoing: Vec<(ProcessId, LdsMessage)>,
    events: Vec<(SimTime, ProcessId, ProtocolEvent)>,
    /// Payload bytes of the helpers and coded elements delivered so far.
    coded_bytes_delivered: usize,
}

impl Net {
    /// Delivers `first` and everything it causes, in FIFO order, until no
    /// message is left; returns the client events emitted on the way.
    fn run(&mut self, to: ProcessId, first: LdsMessage) -> Vec<ProtocolEvent> {
        let n1 = self.l1.len();
        let mut completed = Vec::new();
        self.queue.push_back((ProcessId::EXTERNAL, to, first));
        while let Some((from, to, msg)) = self.queue.pop_front() {
            match &msg {
                LdsMessage::SendHelperElem { helper, .. } => {
                    self.coded_bytes_delivered += helper.data.len();
                }
                LdsMessage::DataResp {
                    payload: ReadPayload::Coded(share),
                    ..
                } => self.coded_bytes_delivered += share.data.len(),
                _ => {}
            }
            let mut ctx =
                Context::standalone(to, SimTime::ZERO, &mut self.outgoing, &mut self.events);
            match to {
                WRITER => self.writer.on_message(from, msg, &mut ctx),
                READER => self.reader.on_message(from, msg, &mut ctx),
                ProcessId(i) if i < n1 => self.l1[i].on_message(from, msg, &mut ctx),
                ProcessId(i) => self.l2[i - n1].on_message(from, msg, &mut ctx),
            }
            self.queue
                .extend(self.outgoing.drain(..).map(|(dest, m)| (to, dest, m)));
            completed.extend(self.events.drain(..).map(|(_, _, e)| e));
        }
        completed
    }
}

#[test]
fn cold_read_allocates_what_it_communicates_plus_the_value_it_returns() {
    const VALUE_LEN: usize = 256 << 10;
    let params = SystemParams::for_failures(1, 1, 2, 3).unwrap(); // n1=4, n2=5
    let (n1, n2) = (params.n1(), params.n2());
    let membership = Membership::new(
        (0..n1).map(ProcessId).collect(),
        (n1..n1 + n2).map(ProcessId).collect(),
    );
    let backend = make_backend(BackendKind::Mbr, &params).unwrap();
    backend.warm_plans();
    let mut net = Net {
        l1: (0..n1)
            .map(|j| {
                L1Server::new(
                    j,
                    params,
                    membership.clone(),
                    backend.clone(),
                    L1Options::default(),
                )
            })
            .collect(),
        l2: (0..n2)
            .map(|i| L2Server::new(i, membership.clone(), backend.clone()))
            .collect(),
        writer: WriterClient::new(ClientId(1), params, membership.clone()),
        reader: ReaderClient::new(ClientId(2), params, membership.clone(), backend.clone()),
        queue: VecDeque::new(),
        outgoing: Vec::new(),
        events: Vec::new(),
        coded_bytes_delivered: 0,
    };

    // Write, and let every message settle: all four L1 servers offload to L2,
    // collect their acks and drop the value — the next read is cold.
    let written: Vec<u8> = (0..VALUE_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let obj = ObjectId(7);
    let events = net.run(
        WRITER,
        LdsMessage::InvokeWrite {
            obj,
            value: Value::new(written.clone()),
        },
    );
    assert!(matches!(events[..], [ProtocolEvent::WriteCompleted { .. }]));
    for server in &net.l1 {
        assert_eq!(server.temporary_storage_bytes(), 0, "value still in L1");
    }

    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let mut events = net.run(READER, LdsMessage::InvokeRead { obj });
    let returned = match events.pop() {
        // What the cluster client does with the event to build `OpOutcome::Read`.
        Some(ProtocolEvent::ReadCompleted { value, .. }) => value.into_vec(),
        other => panic!("expected one ReadCompleted, got {other:?}"),
    };
    let large = LARGE_BYTES.load(Ordering::Relaxed) - before;
    assert!(events.is_empty());
    assert!(returned == written, "read returned different bytes");
    assert_eq!(
        net.reader.reads_served_from_l1(),
        0,
        "the read was not cold"
    );

    let norm = |bytes: usize| bytes as f64 / VALUE_LEN as f64;
    let modelled = costs::read_cost(&params, 0);
    println!(
        "cold read of {VALUE_LEN} B: {large} B in allocations >= {LARGE} B = {:.2} |v|; \
         {} B = {:.2} |v| of coded payload delivered (model {modelled:.2} |v|)",
        norm(large),
        net.coded_bytes_delivered,
        norm(net.coded_bytes_delivered),
    );
    // Every delivered payload is an allocation of its own, so anything less
    // means the counter is not counting.
    assert!(large >= net.coded_bytes_delivered);
    // The rule: what the read communicates plus the value it returns, with
    // one value of head-room for framing, padding and buffer growth.
    let budget = ((modelled + 1.0).ceil() as usize + 1) * VALUE_LEN;
    assert_eq!(budget, 9 * VALUE_LEN);
    assert!(
        large <= budget,
        "cold read allocated {:.2} |v| in large buffers, budget {:.2} |v|",
        norm(large),
        norm(budget)
    );
}
