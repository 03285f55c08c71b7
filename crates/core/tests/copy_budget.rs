//! Copy budget of the data paths.
//!
//! The paper prices an idle read that regenerates from the back-end at
//! `costs::read_cost(params, 0)` values communicated (Lemma V.3: 6.4 |v| for
//! `f1 = f2 = 1, k = 2, d = 3`) and a write at `costs::write_cost` (Lemma
//! V.2: 16.0 |v|, of which the `n1` `PUT-DATA` copies share one buffer). The
//! implementation may allocate what it communicates — each helper, each
//! coded element is a message payload — plus the value a read returns or the
//! copy a write makes of the caller's bytes, and nothing else of that order:
//! payload bytes are borrowed or moved at every other hand-off, and the
//! codec reads the value where it lies.
//!
//! One 256 KiB operation is driven through bare automata (no threads, no
//! router, FIFO delivery) under a counting global allocator, so each figure
//! is a count that repeats exactly, not a timing. The allocator also keeps
//! the live heap and its peak, which prices memory rather than traffic: what
//! one offload, or one whole write, holds at once. The counters are
//! process-wide, so the tests of this file take turns.

use lds_core::backend::{make_backend, BackendKind};
use lds_core::costs;
use lds_core::{
    ClientId, Context, L1Server, L2Server, LdsMessage, Membership, ObjectId, Process, ProcessId,
    Profile, ProtocolEvent, ReadPayload, ReaderClient, RepairPayload, SimTime, SystemParams, Value,
    WriterClient,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Allocations below this size are bookkeeping (maps, queues, the test
/// harness itself); payload buffers of a 256 KiB value are all far above it.
const LARGE: usize = 4096;

/// Bytes requested by allocations of at least [`LARGE`] bytes.
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Bytes currently allocated, whatever their size.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest [`LIVE`] since a test last reset it ([`Peak`]).
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Highest [`LIVE`] during the current automaton step ([`Net::run`]).
static STEP_PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    STEP_PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

/// The live heap's growth above where it stood when the window opened.
struct Peak {
    base: usize,
}

impl Peak {
    fn open(peak: &AtomicUsize) -> Peak {
        let base = LIVE.load(Ordering::Relaxed);
        peak.store(base, Ordering::Relaxed);
        Peak { base }
    }

    fn above_base(&self, peak: &AtomicUsize) -> usize {
        peak.load(Ordering::Relaxed) - self.base
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s guarantees are this allocator's. The
// only additions are relaxed atomic updates, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown buffer may move: charge its whole new size.
        count(new_size);
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => shrink(layout.size() - new_size),
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by a test for as long as it runs: the counter is process-wide.
static TURN: Mutex<()> = Mutex::new(());

const VALUE_LEN: usize = 256 << 10;

fn norm(bytes: usize) -> f64 {
    bytes as f64 / VALUE_LEN as f64
}

const WRITER: ProcessId = ProcessId(9);
const READER: ProcessId = ProcessId(10);
/// Where a replacement L2 server reports its repair; nothing is behind it.
const COORDINATOR: ProcessId = ProcessId(11);

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
    /// The largest live-heap growth of one L1 step that sent the coded
    /// elements of a `write-to-L2`: what one offload holds at once.
    offload_peak: usize,
}

impl Net {
    /// The benchmark's deployment (`f1 = f2 = 1`, `k = 2`, `d = 3`: n1 = 4,
    /// n2 = 5) over `kind`, plans warm. The harness's own queues are sized
    /// up front, so they never grow inside a measurement.
    fn new(kind: BackendKind) -> (Net, SystemParams, MutexGuard<'static, ()>) {
        let turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let (n1, n2) = (params.n1(), params.n2());
        let membership = Membership::new(
            (0..n1).map(ProcessId).collect(),
            (n1..n1 + n2).map(ProcessId).collect(),
        );
        let backend = make_backend(kind, &params).unwrap();
        backend.warm_plans();
        let net = Net {
            l1: (0..n1)
                .map(|j| {
                    L1Server::new(
                        j,
                        params,
                        membership.clone(),
                        backend.clone(),
                        Profile::PaperFaithful,
                    )
                })
                .collect(),
            l2: (0..n2)
                .map(|i| {
                    L2Server::new(
                        i,
                        membership.clone(),
                        backend.clone(),
                        Profile::PaperFaithful,
                    )
                })
                .collect(),
            writer: WriterClient::new(ClientId(1), params, membership.clone()),
            reader: ReaderClient::new(ClientId(2), params, membership.clone(), backend.clone()),
            queue: VecDeque::with_capacity(1024),
            outgoing: Vec::with_capacity(1024),
            events: Vec::with_capacity(16),
            coded_bytes_delivered: 0,
            offload_peak: 0,
        };
        (net, params, turn)
    }

    /// Writes `written` to `obj` and lets every message settle: all four L1
    /// servers offload to L2, collect their acks and drop the value. Returns
    /// the bytes requested in large allocations on the way, the client's
    /// copy of the caller's bytes included.
    fn write(&mut self, obj: ObjectId, written: &[u8]) -> usize {
        let before = LARGE_BYTES.load(Ordering::Relaxed);
        // What `Store::submit_write(&[u8])` does with the caller's slice.
        let value = Value::new(written.to_vec());
        let events = self.run(WRITER, LdsMessage::InvokeWrite { obj, value });
        let large = LARGE_BYTES.load(Ordering::Relaxed) - before;
        assert!(matches!(events[..], [ProtocolEvent::WriteCompleted { .. }]));
        for server in &self.l1 {
            assert_eq!(server.temporary_storage_bytes(), 0, "value still in L1");
        }
        large
    }

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
                LdsMessage::WriteCodeElem { element, .. } => {
                    self.coded_bytes_delivered += element.data.len();
                }
                LdsMessage::RepairShare {
                    payload: RepairPayload::Element { helper, .. },
                    ..
                } => self.coded_bytes_delivered += helper.data.len(),
                LdsMessage::DataResp {
                    payload: ReadPayload::Coded(share),
                    ..
                } => self.coded_bytes_delivered += share.data.len(),
                _ => {}
            }
            let step = Peak::open(&STEP_PEAK);
            let mut ctx =
                Context::standalone(to, SimTime::ZERO, &mut self.outgoing, &mut self.events);
            match to {
                WRITER => self.writer.on_message(from, msg, &mut ctx),
                READER => self.reader.on_message(from, msg, &mut ctx),
                COORDINATOR => {}
                ProcessId(i) if i < n1 => self.l1[i].on_message(from, msg, &mut ctx),
                ProcessId(i) => self.l2[i - n1].on_message(from, msg, &mut ctx),
            }
            let offloaded = self
                .outgoing
                .iter()
                .any(|(_, m)| matches!(m, LdsMessage::WriteCodeElem { .. }));
            if offloaded {
                self.offload_peak = self.offload_peak.max(step.above_base(&STEP_PEAK));
            }
            self.queue
                .extend(self.outgoing.drain(..).map(|(dest, m)| (to, dest, m)));
            completed.extend(self.events.drain(..).map(|(_, _, e)| e));
        }
        completed
    }
}

fn sample_value() -> Vec<u8> {
    (0..VALUE_LEN).map(|i| (i * 131 % 251) as u8).collect()
}

/// One write on `kind`: every coded element is an allocation of its own (it
/// becomes a message payload, then the L2 server's stored element), the
/// client copies the caller's bytes once, and that is all — no framed copy
/// of the value per L1 server, let alone per element.
fn write_allocates_its_elements_and_the_client_copy(kind: BackendKind, budget_norm: f64) {
    let (mut net, params, _turn) = Net::new(kind);
    let written = sample_value();
    let large = net.write(ObjectId(7), &written);
    let elements = net.coded_bytes_delivered;
    println!(
        "{kind} write of {VALUE_LEN} B: {large} B in allocations >= {LARGE} B = {:.2} |v|; \
         {elements} B = {:.2} |v| in coded elements (write_cost communicates {:.2} |v|)",
        norm(large),
        norm(elements),
        costs::write_cost(&params),
    );
    // Anything less means the counter is not counting.
    assert!(large >= elements + VALUE_LEN);
    assert!(
        norm(large) <= budget_norm,
        "{kind} write allocated {:.2} |v| in large buffers, budget {budget_norm:.2} |v|",
        norm(large)
    );
}

/// MBR, the paper's code: 4 × 5 elements of 0.6 |v| and the client copy make
/// 13.0 |v| (17.0 when each L1 server framed the value into a copy first).
#[test]
fn mbr_write_allocates_its_elements_and_the_client_copy() {
    write_allocates_its_elements_and_the_client_copy(BackendKind::Mbr, 13.1);
}

/// Product-matrix MSR at the same parameters (`α = 1`, `B = 2`): 4 × 5
/// elements of 0.5 |v| and the client copy make 11.0 |v| (31.0 when the
/// value was framed into a copy once per element).
#[test]
fn msr_write_allocates_its_elements_and_the_client_copy() {
    write_allocates_its_elements_and_the_client_copy(BackendKind::ProductMatrixMsr, 11.1);
}

/// One cold MBR read of a value stored as `net` stores it.
fn cold_read((mut net, params, _turn): (Net, SystemParams, MutexGuard<'static, ()>)) {
    let written = sample_value();
    let obj = ObjectId(7);
    net.write(obj, &written);
    net.coded_bytes_delivered = 0;

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

#[test]
fn cold_read_allocates_what_it_communicates_plus_the_value_it_returns() {
    cold_read(Net::new(BackendKind::Mbr));
}

/// Online repair of an L2 server: the `n2 − 1` live peers each ship a
/// β-sized helper (a fifth of a value) and the replacement regenerates its
/// element from them — what is communicated and the element, nothing else:
/// 367 017 B = 1.40 |v| (the same 1.40 |v| as when the peers stored their
/// elements in four stripes: 367 052 B).
#[test]
fn l2_repair_allocates_its_helpers_and_the_element() {
    let (mut net, params, _turn) = Net::new(BackendKind::Mbr);
    let obj = ObjectId(7);
    net.write(obj, &sample_value());
    net.coded_bytes_delivered = 0;
    let (n1, failed) = (params.n1(), 2);
    let lost = std::mem::replace(
        &mut net.l2[failed],
        L2Server::rebuilding(
            failed,
            Membership::new(
                (0..n1).map(ProcessId).collect(),
                (n1..n1 + params.n2()).map(ProcessId).collect(),
            ),
            make_backend(BackendKind::Mbr, &params).unwrap(),
            Profile::PaperFaithful,
            params.n2() - 1,
            COORDINATOR,
        ),
    );
    let element = lost.storage_bytes();

    let before = LARGE_BYTES.load(Ordering::Relaxed);
    for helper in (0..params.n2()).filter(|&i| i != failed) {
        let help = LdsMessage::RepairHelp {
            obj: ObjectId(0),
            failed: ProcessId(n1 + failed),
        };
        net.run(ProcessId(n1 + helper), help);
    }
    let large = LARGE_BYTES.load(Ordering::Relaxed) - before;
    assert!(!net.l2[failed].is_rebuilding());
    assert_eq!(net.l2[failed].storage_bytes(), element);
    assert_eq!(net.l2[failed].stored_tag(obj), lost.stored_tag(obj));

    let helpers = net.coded_bytes_delivered;
    println!(
        "L2 repair of a {element} B element: {large} B in allocations >= {LARGE} B = \
         {:.2} |v|; {helpers} B = {:.2} |v| of helper payload delivered",
        norm(large),
        norm(helpers),
    );
    assert!(large >= helpers + element);
    let budget = (helpers + element) * 11 / 10;
    assert!(
        large <= budget,
        "L2 repair allocated {:.2} |v| in large buffers, budget {:.2} |v|",
        norm(large),
        norm(budget)
    );
}

/// What a write holds at once, measured on the live heap. One L1 offload
/// step holds the `n2` coded elements it sends — 5 × 0.6 |v| = 786 465 B,
/// which is what `L1Server::peak_round_bytes` reports — and nothing else of
/// that order: the encode reads the value where it lies, copying only the
/// two 2 KiB edge strips of the frame (792 108 B = 3.02 |v| in all). A
/// whole write through the FIFO harness peaks at the client copy plus the
/// elements of all four offloads, in flight together before the first
/// reaches L2: 1 + 4 × 3 = 13.00 |v|, plus bookkeeping (13.08 |v|).
#[test]
fn a_write_holds_its_elements_and_the_client_copy_at_once() {
    let (mut net, _params, _turn) = Net::new(BackendKind::Mbr);
    let written = sample_value();
    let window = Peak::open(&PEAK);
    net.write(ObjectId(7), &written);
    let write_peak = window.above_base(&PEAK);
    let round = net.l1.iter().map(L1Server::peak_round_bytes).max().unwrap();
    println!(
        "MBR write of {VALUE_LEN} B: one offload step peaks {} B = {:.2} |v| above its start \
         ({round} B of elements); the whole write peaks {write_peak} B = {:.2} |v|",
        net.offload_peak,
        norm(net.offload_peak),
        norm(write_peak),
    );
    assert_eq!(round, 786_465, "5 elements of 157 293 B");
    assert!(
        (round..=round + 2 * LARGE).contains(&net.offload_peak),
        "an offload step held {:.2} |v|, its elements are {:.2} |v|",
        norm(net.offload_peak),
        norm(round)
    );
    assert!(
        (13 * VALUE_LEN..=13 * VALUE_LEN + VALUE_LEN / 10).contains(&write_peak),
        "a write held {:.2} |v| at once, budget 13.10 |v|",
        norm(write_peak)
    );
}
