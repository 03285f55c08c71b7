//! Counts per operation, one table.
//!
//! The paper prices LDS in counts: values communicated per operation and
//! values stored (Lemmas V.2-V.5). This module drives every shape whose cost
//! the implementation pins — bare automata, the codec, the in-process store
//! and three `ldsd` daemons over loopback TCP — under the tree's one counting
//! global allocator, and compares per-operation rows with
//! `golden/counts.txt`:
//!
//! * messages delivered, and payload bytes communicated per |v|;
//! * allocation calls (in all, and by thread role), bytes requested in
//!   buffers of at least [`LARGE`] bytes, and the live heap's peak;
//! * read- and write-class system calls (`/proc/self/io`);
//! * voluntary context switches and threads by role (`/proc/self/task`);
//! * mesh frames per socket write (`Daemon::link_stats`).
//!
//! The counters are process-wide, so a process drives its shapes once, one
//! at a time, on a thread of its own named `client` ([`measure_once`]);
//! every test of the process waits for that one table and checks its own
//! rows of it ([`check`]). `counts.rs` drives every shape and checks the
//! whole file; `alloc_budget.rs`, `alloc_count.rs`, `copy_budget.rs` and
//! `gc_alloc.rs` each drive a few shapes and check their rows by name.
//!
//! A row whose count repeats exactly has band 0 and must print the same
//! text. Any other row carries a band in the file (an absolute tolerance,
//! set from repeated runs in debug and release; the comment beside it gives
//! the range seen). Rows marked `host` (threads, system calls, switches)
//! depend on the machine: they are checked only where
//! `available_parallelism` equals the file's `host_cores`, and printed
//! elsewhere. On a mismatch `counts.rs` fails and prints the whole
//! regenerated file as its `got`: a count that moved on purpose is
//! re-recorded by copying that over `golden/counts.txt`, so it shows up as a
//! reviewed diff. Run with `--nocapture` to see every measured value beside
//! its golden one.

// Every test binary compiles its own copy of this module and each drives a
// different part of it.
#![allow(dead_code)]

use lds_bench::threads::{role_of, Census};
use lds_cluster::api::{Store, StoreBuilder};
use lds_cluster::router::{Inbox, Router};
use lds_codes::mbr::ProductMatrixMbr;
use lds_codes::msr::ProductMatrixMsr;
use lds_codes::rs::ReedSolomon;
use lds_codes::{HelperData, RegeneratingCode};
use lds_core::backend::{make_backend, BackendKind};
use lds_core::{
    ClientId, Context, DataSize, L1Server, L2Server, LdsMessage, Membership, ObjectId, Process,
    ProcessId, Profile, ProtocolEvent, ReaderClient, SimTime, SystemParams, Value, WriterClient,
};
use ldsd::{Config, Daemon, NetClient};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// The counting allocator.

/// Allocations below this size are bookkeeping (maps, queues, headers);
/// every payload buffer of a 256 KiB value is far above it.
const LARGE: usize = 4096;

/// Bytes requested by allocations of at least [`LARGE`] bytes.
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated, whatever their size.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest [`LIVE`] since a window last reset it ([`Peak`]).
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Highest [`LIVE`] during the current automaton step ([`Net::run`]).
static STEP_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Roles told apart; the last slot takes the rest.
const ROLES: usize = 32;
const OTHER_ROLE: usize = ROLES - 1;
const UNRESOLVED: usize = usize::MAX;
/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) by thread role.
static ALLOCATIONS: [AtomicUsize; ROLES] = [const { AtomicUsize::new(0) }; ROLES];
/// The role of each slot of [`ALLOCATIONS`], in order of first allocation.
static ROLE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's slot of [`ALLOCATIONS`].
    static ROLE: Cell<usize> = const { Cell::new(UNRESOLVED) };
}

/// The calling thread's slot, resolved from its role ([`role_of`]: its name
/// without a numeric suffix) on its first allocation. What that lookup allocates itself is counted as other.
fn role_slot() -> usize {
    ROLE.try_with(|slot| {
        if slot.get() == UNRESOLVED {
            slot.set(OTHER_ROLE);
            let thread = std::thread::current();
            let role = role_of(thread.name().unwrap_or("unnamed"));
            let mut names = ROLE_NAMES.lock().unwrap_or_else(|p| p.into_inner());
            let index = match names.iter().position(|r| r == role) {
                Some(index) => index,
                None if names.len() < OTHER_ROLE => {
                    names.push(role.to_string());
                    names.len() - 1
                }
                None => OTHER_ROLE,
            };
            slot.set(index);
        }
        slot.get()
    })
    .unwrap_or(OTHER_ROLE)
}

fn count(size: usize) {
    ALLOCATIONS[role_slot()].fetch_add(1, Ordering::Relaxed);
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

struct CountingAlloc;

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns, so `System`'s guarantees are this allocator's. The
// additions are relaxed atomic updates and, once per thread, a name lookup
// whose own allocations re-enter this allocator only as far as `count`.
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

/// Allocation calls so far by threads of `role`.
fn allocations_of(role: &str) -> usize {
    let names = ROLE_NAMES.lock().unwrap_or_else(|p| p.into_inner());
    names
        .iter()
        .position(|r| r == role)
        .map_or(0, |i| ALLOCATIONS[i].load(Ordering::Relaxed))
}

/// Allocation calls so far by every thread.
fn allocations() -> usize {
    ALLOCATIONS.iter().map(|a| a.load(Ordering::Relaxed)).sum()
}

/// Allocation calls so far by the calling thread's role.
fn my_allocations() -> usize {
    ALLOCATIONS[role_slot()].load(Ordering::Relaxed)
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

// ---------------------------------------------------------------------------
// Procfs: system calls, threads and switches.

/// Read- and write-class system calls of the whole process so far.
fn syscalls() -> [u64; 2] {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        io.lines()
            .find_map(|line| line.strip_prefix(key)?.trim().parse().ok())
            .unwrap_or(0)
    };
    [field("syscr:"), field("syscw:")]
}

/// Voluntary switches made since `before` by the threads alive now, and the
/// live threads of each `lds*` role (the kernel keeps 15 bytes of a name).
/// Nothing where procfs is not there to read.
fn census_since(before: Option<Census>) -> (u64, BTreeMap<String, usize>) {
    let (Some(before), Some(now)) = (before, Census::take()) else {
        return (0, BTreeMap::new());
    };
    let usage = now.since(&before);
    let switches = usage.iter().map(|role| role.voluntary_switches).sum();
    let threads = usage
        .into_iter()
        .filter(|role| role.role.starts_with("lds"))
        .map(|role| (role.role, role.threads))
        .collect();
    (switches, threads)
}

// ---------------------------------------------------------------------------
// The table.

pub struct Row {
    shape: &'static str,
    name: String,
    value: String,
    /// Depends on the machine: checked only on a host with `host_cores`.
    host: bool,
}

#[derive(Default)]
pub struct Table(Vec<Row>);

impl Table {
    fn push(
        &mut self,
        shape: &'static str,
        name: impl Into<String>,
        value: impl ToString,
        host: bool,
    ) {
        let (name, value) = (name.into(), value.to_string());
        self.0.push(Row {
            shape,
            name,
            value,
            host,
        });
    }

    fn row(&mut self, shape: &'static str, name: impl Into<String>, value: impl ToString) {
        self.push(shape, name, value, false);
    }

    fn host_row(&mut self, shape: &'static str, name: impl Into<String>, value: impl ToString) {
        self.push(shape, name, value, true);
    }
}

/// Two decimals: the precision of every ratio in the table.
fn fixed(x: f64) -> String {
    format!("{x:.2}")
}

/// A row of `golden/counts.txt`.
struct Golden {
    value: String,
    band: f64,
    host: bool,
    comment: String,
}

/// The file's `host_cores` and its rows by (shape, row).
fn parse_golden(text: &str) -> (usize, BTreeMap<(String, String), Golden>) {
    let mut host_cores = None;
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let (data, comment) = line.split_once('#').unwrap_or((line, ""));
        let fields: Vec<&str> = data.split_whitespace().collect();
        match fields[..] {
            [] => {}
            ["host_cores", n] => host_cores = Some(n.parse().expect("host_cores is a number")),
            [shape, name, value, band, ref host @ ..] if matches!(host, [] | ["host"]) => {
                let golden = Golden {
                    value: value.to_string(),
                    band: band.parse().expect("a band is a number"),
                    host: !host.is_empty(),
                    comment: comment.trim().to_string(),
                };
                rows.insert((shape.to_string(), name.to_string()), golden);
            }
            _ => panic!("golden/counts.txt: cannot read `{line}`"),
        }
    }
    (
        host_cores.expect("golden/counts.txt names its host_cores"),
        rows,
    )
}

const HEADER: &str = "\
# Counts per operation of the shapes tests/counting/mod.rs drives; see its doc.
# Columns: shape, row, value, band (absolute; 0 = the same text), and
# `host` for a row checked only where available_parallelism = host_cores.
# On a mismatch the test prints this whole file regenerated: copy it over.
";

/// Compares the rows of `table` that `covers` (shape, row) with the golden
/// text; returns those rows regenerated as file text and the lines that do
/// not match. A golden row that `covers` and `table` lacks is a mismatch.
fn compare(
    table: &Table,
    golden: &str,
    cores: usize,
    covers: &dyn Fn(&str, &str) -> bool,
) -> (String, Vec<String>) {
    let (host_cores, mut want) = parse_golden(golden);
    want.retain(|(shape, name), _| covers(shape, name));
    let mut out = format!("{HEADER}host_cores {host_cores}\n");
    let mut mismatches = Vec::new();
    let mut last_shape = "";
    for row in table.0.iter().filter(|row| covers(row.shape, &row.name)) {
        if row.shape != last_shape {
            out.push('\n');
            last_shape = row.shape;
        }
        let key = (row.shape.to_string(), row.name.clone());
        let (value, band, comment, verdict) = match want.remove(&key) {
            None => (row.value.clone(), 0.0, String::new(), "new row"),
            Some(g) if row.host && cores != host_cores => {
                (g.value, g.band, g.comment, "not checked on this host")
            }
            Some(g) => {
                let holds = if g.band == 0.0 {
                    row.value == g.value
                } else {
                    let (got, want): (f64, f64) = (
                        row.value.parse().expect("a banded row is a number"),
                        g.value.parse().expect("a banded row is a number"),
                    );
                    (got - want).abs() <= g.band + 1e-9
                };
                if holds {
                    (g.value, g.band, g.comment, "ok")
                } else {
                    (row.value.clone(), g.band, g.comment, "MISMATCH")
                }
            }
        };
        println!(
            "{:<24} {:<30} {:>14}  golden {:>14} ±{band}  {verdict}",
            row.shape, row.name, row.value, value
        );
        let checked = !row.host || cores == host_cores;
        if verdict == "MISMATCH" || (verdict == "new row" && checked) {
            mismatches.push(format!("{} {}: {verdict}", row.shape, row.name));
        }
        let _ = write!(
            out,
            "{:<24} {:<32} {:>12} {:>5}{}",
            row.shape,
            row.name,
            value,
            band,
            if row.host { " host" } else { "" }
        );
        if comment.is_empty() {
            out.push('\n');
        } else {
            let _ = writeln!(out, "  # {comment}");
        }
    }
    for ((shape, name), g) in want {
        if !g.host || cores == host_cores {
            mismatches.push(format!("{shape} {name}: no longer measured"));
        }
    }
    (out, mismatches)
}

/// The table `drive` fills, driven once per process on a thread named
/// `client`; a test that calls this while the first caller drives waits for
/// it, so the process's counters see one shape at a time. The settle first
/// lets the test harness finish starting its threads.
pub fn measure_once(cell: &'static OnceLock<Table>, drive: fn(&mut Table)) -> &'static Table {
    cell.get_or_init(|| {
        settle();
        std::thread::Builder::new()
            .name("client".into())
            .spawn(move || {
                let mut table = Table::default();
                drive(&mut table);
                table
            })
            .unwrap()
            .join()
            .unwrap()
    })
}

/// Fails unless every row of `table` that `covers` (shape, row) matches
/// `golden/counts.txt`, and every golden row it covers was measured. The
/// failure prints the covered rows regenerated, to copy over their lines.
pub fn check(table: &Table, covers: impl Fn(&str, &str) -> bool) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let golden = include_str!("../golden/counts.txt");
    let (got, mismatches) = compare(table, golden, cores, &covers);
    assert!(
        mismatches.is_empty(),
        "{} rows differ from tests/golden/counts.txt:\n  {}\ngot:\n{got}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

/// Every row of one shape.
pub fn rows_of(name: &'static str) -> impl Fn(&str, &str) -> bool {
    move |shape, _| shape == name
}

// ---------------------------------------------------------------------------
// Bare automata: one 256 KiB operation at a time, FIFO delivery, no threads.

const VALUE_LEN: usize = 256 << 10;

fn per_value(bytes: usize) -> String {
    fixed(bytes as f64 / VALUE_LEN as f64)
}

const WRITER: ProcessId = ProcessId(9);
const READER: ProcessId = ProcessId(10);
/// Where a replacement L2 server reports its repair; nothing is behind it.
const COORDINATOR: ProcessId = ProcessId(11);

/// What one run of [`Net::run`] delivered and allocated.
#[derive(Default)]
struct Delivered {
    messages: usize,
    /// Payload bytes of the delivered messages ([`DataSize::data_size`]).
    bytes: usize,
    allocations: usize,
    large_bytes: usize,
    /// The largest live-heap growth of one L1 step that sent the coded
    /// elements of a `write-to-L2`: what one offload holds at once.
    offload_peak: usize,
}

/// This thread's allocation calls and the process's large-buffer bytes so
/// far: the start of a [`Delivered::add_since`].
fn mark() -> (usize, usize) {
    (my_allocations(), LARGE_BYTES.load(Ordering::Relaxed))
}

impl Delivered {
    fn add_since(&mut self, (allocations, large_bytes): (usize, usize)) {
        self.allocations += my_allocations() - allocations;
        self.large_bytes += LARGE_BYTES.load(Ordering::Relaxed) - large_bytes;
    }

    fn rows(&self, table: &mut Table, shape: &'static str) {
        table.row(shape, "messages", self.messages);
        table.row(shape, "bytes/|v|", per_value(self.bytes));
        table.row(shape, "allocations", self.allocations);
        table.row(shape, "large_bytes", self.large_bytes);
        table.row(shape, "large_bytes/|v|", per_value(self.large_bytes));
    }
}

/// The benchmark's deployment (`f1 = f2 = 1`, `k = 2`, `d = 3`: n1 = 4,
/// n2 = 5) as bare automata and a FIFO queue between them.
struct Net {
    params: SystemParams,
    membership: Membership,
    l1: Vec<L1Server>,
    l2: Vec<L2Server>,
    writer: WriterClient,
    reader: ReaderClient,
    queue: VecDeque<(ProcessId, ProcessId, LdsMessage)>,
    outgoing: Vec<(ProcessId, LdsMessage)>,
    events: Vec<(SimTime, ProcessId, ProtocolEvent)>,
}

impl Net {
    /// Plans warm; the harness's own queues are sized up front, so they
    /// never grow inside a measurement.
    fn new(kind: BackendKind, profile: Profile) -> Net {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let (n1, n2) = (params.n1(), params.n2());
        let membership = Membership::new(
            (0..n1).map(ProcessId).collect(),
            (n1..n1 + n2).map(ProcessId).collect(),
        );
        let backend = make_backend(kind, &params).unwrap();
        backend.warm_plans();
        Net {
            params,
            l1: (0..n1)
                .map(|j| L1Server::new(j, params, membership.clone(), backend.clone(), profile))
                .collect(),
            l2: (0..n2)
                .map(|i| L2Server::new(i, membership.clone(), backend.clone(), profile))
                .collect(),
            writer: WriterClient::new(ClientId(1), params, membership.clone()),
            reader: ReaderClient::new(ClientId(2), params, membership.clone(), backend),
            membership,
            queue: VecDeque::with_capacity(1024),
            outgoing: Vec::with_capacity(1024),
            events: Vec::with_capacity(16),
        }
    }

    /// Delivers `first` and everything it causes, in FIFO order, until no
    /// message is left; returns the client events emitted on the way.
    /// `l1_allocations[j]` gains the allocations made inside L1 server `j`'s
    /// steps.
    fn run(
        &mut self,
        to: ProcessId,
        first: LdsMessage,
        seen: &mut Delivered,
        l1_allocations: &mut [usize],
    ) -> Vec<ProtocolEvent> {
        let n1 = self.l1.len();
        let mut completed = Vec::new();
        let start = mark();
        self.queue.push_back((ProcessId::EXTERNAL, to, first));
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if from != ProcessId::EXTERNAL {
                seen.messages += 1;
                seen.bytes += msg.data_size();
            }
            let step = Peak::open(&STEP_PEAK);
            let mut ctx =
                Context::standalone(to, SimTime::ZERO, &mut self.outgoing, &mut self.events);
            match to {
                WRITER => self.writer.on_message(from, msg, &mut ctx),
                READER => self.reader.on_message(from, msg, &mut ctx),
                COORDINATOR => {}
                ProcessId(i) if i < n1 => {
                    let before = my_allocations();
                    self.l1[i].on_message(from, msg, &mut ctx);
                    l1_allocations[i] += my_allocations() - before;
                }
                ProcessId(i) => self.l2[i - n1].on_message(from, msg, &mut ctx),
            }
            let offloaded = self
                .outgoing
                .iter()
                .any(|(_, m)| matches!(m, LdsMessage::WriteCodeElem { .. }));
            if offloaded {
                seen.offload_peak = seen.offload_peak.max(step.above_base(&STEP_PEAK));
            }
            self.queue
                .extend(self.outgoing.drain(..).map(|(dest, m)| (to, dest, m)));
            completed.extend(self.events.drain(..).map(|(_, _, e)| e));
        }
        seen.add_since(start);
        completed
    }

    /// Writes `written` to `obj` and lets every message settle. The
    /// client's copy of the caller's bytes is counted, as
    /// `Store::submit_write(&[u8])` makes it.
    fn write(&mut self, obj: ObjectId, written: &[u8], l1_allocations: &mut [usize]) -> Delivered {
        let mut seen = Delivered::default();
        let start = mark();
        let value = Value::new(written.to_vec());
        seen.add_since(start);
        let invoke = LdsMessage::InvokeWrite { obj, value };
        let events = self.run(WRITER, invoke, &mut seen, l1_allocations);
        assert!(matches!(events[..], [ProtocolEvent::WriteCompleted { .. }]));
        seen
    }

    /// Paper-faithful, every L1 server has offloaded and dropped the value.
    fn assert_dropped(&self) {
        for server in &self.l1 {
            assert_eq!(server.temporary_storage_bytes(), 0, "value still in L1");
        }
    }
}

fn sample_value() -> Vec<u8> {
    (0..VALUE_LEN).map(|i| (i * 131 % 251) as u8).collect()
}

/// A 256 KiB write on MBR and on product-matrix MSR, a cold MBR read, and
/// an online L2 repair. A write allocates its coded elements (each becomes
/// a message payload, then an L2 server's stored element) and the client's
/// copy of the caller's bytes: 4 × 5 elements of 0.6 |v| + 1 = 13.00 |v| on
/// MBR (17.0 when each L1 server framed the value into a copy first), 4 × 5
/// × 0.5 + 1 = 11.00 |v| on MSR (31.0 when framed once per element). A cold
/// read allocates what it communicates plus the value it returns, 7.40 |v|;
/// a repair, its β-sized helpers and the regenerated element, 1.40 |v|. On
/// the live heap one offload step holds its 5 elements (786 465 B, which is
/// `L1Server::peak_round_bytes`) plus the frame's two 2 KiB edge strips, and
/// a whole write the client copy plus all four offloads in flight at once,
/// 13.00 |v| plus bookkeeping.
pub fn automata(table: &mut Table) {
    let obj = ObjectId(7);
    let written = sample_value();
    let mut l1 = [0; 4];
    for (shape, kind) in [
        ("mbr_write_256k", BackendKind::Mbr),
        ("msr_write_256k", BackendKind::ProductMatrixMsr),
    ] {
        let mut net = Net::new(kind, Profile::PaperFaithful);
        let window = Peak::open(&PEAK);
        let seen = net.write(obj, &written, &mut l1);
        let write_peak = window.above_base(&PEAK);
        net.assert_dropped();
        seen.rows(table, shape);
        if kind == BackendKind::Mbr {
            let round = net.l1.iter().map(L1Server::peak_round_bytes).max().unwrap();
            table.row(shape, "peak_round_bytes", round);
            table.row(shape, "offload_step_peak_bytes", seen.offload_peak);
            table.row(shape, "offload_step_peak/|v|", per_value(seen.offload_peak));
            table.row(shape, "write_peak/|v|", per_value(write_peak));
        }
    }

    let mut net = Net::new(BackendKind::Mbr, Profile::PaperFaithful);
    net.write(obj, &written, &mut l1);
    net.assert_dropped();
    let mut seen = Delivered::default();
    let mut events = net.run(READER, LdsMessage::InvokeRead { obj }, &mut seen, &mut l1);
    let Some(ProtocolEvent::ReadCompleted { value, .. }) = events.pop() else {
        panic!("expected one ReadCompleted, got {events:?}");
    };
    // What the cluster client does with the event to build `OpOutcome::Read`.
    let start = mark();
    let returned = value.into_vec();
    seen.add_since(start);
    assert!(events.is_empty());
    assert!(returned == written, "read returned different bytes");
    assert_eq!(
        net.reader.reads_served_from_l1(),
        0,
        "the read was not cold"
    );
    seen.rows(table, "cold_read_256k");

    let (n1, failed) = (net.params.n1(), 2);
    let lost = std::mem::replace(
        &mut net.l2[failed],
        L2Server::rebuilding(
            failed,
            net.membership.clone(),
            make_backend(BackendKind::Mbr, &net.params).unwrap(),
            Profile::PaperFaithful,
            net.params.n2() - 1,
            COORDINATOR,
        ),
    );
    let mut seen = Delivered::default();
    for helper in (0..net.params.n2()).filter(|&i| i != failed) {
        let help = LdsMessage::RepairHelp {
            obj: ObjectId(0),
            failed: ProcessId(n1 + failed),
        };
        net.run(ProcessId(n1 + helper), help, &mut seen, &mut l1);
    }
    assert!(!net.l2[failed].is_rebuilding());
    assert_eq!(net.l2[failed].storage_bytes(), lost.storage_bytes());
    assert_eq!(net.l2[failed].stored_tag(obj), lost.stored_tag(obj));
    seen.rows(table, "l2_repair");
}

/// Allocations inside each L1 server's steps per committed 256 B write,
/// past warm-up, under both profiles. Every commit garbage-collects the
/// per-tag bookkeeping below `t_c` in place, which allocates no B-tree node;
/// what is left is payload: an offloading server's 5 coded elements and the
/// framed copy of the short value it encodes ([6, 6, 6, 6]). A
/// non-offloading high-throughput server allocates nothing ([6, 6, 0, 0]).
/// Splitting every map at `t_c` made it [22, 22, 19, 19] / [19, 19, 7, 7];
/// hashed quorum sets and per-call generator rows, [14, 14, 12, 12] /
/// [12, 12, 2, 2].
pub fn small_write_gc(table: &mut Table) {
    for (shape, profile) in [
        ("gc_paper_faithful", Profile::PaperFaithful),
        ("gc_high_throughput", Profile::HighThroughput),
    ] {
        let mut net = Net::new(BackendKind::Mbr, profile);
        let obj = ObjectId(3);
        let small = [7u8; 256];
        for _ in 0..8 {
            net.write(obj, &small, &mut [0; 4]);
        }
        let mut seen: Vec<String> = Vec::new();
        for _ in 0..8 {
            let mut l1 = [0; 4];
            net.write(obj, &small, &mut l1);
            let per_server = l1.map(|n| n.to_string()).join("/");
            if !seen.contains(&per_server) {
                seen.push(per_server);
            }
        }
        table.row(shape, "allocations/L1_server/write", seen.join(";"));
    }
}

// ---------------------------------------------------------------------------
// The codec at the benchmark's dimensions (`n2 = 5`, `k = 2`, `d = 3`).

/// Allocations per call of `op` over ten calls after one warm-up call
/// (which may build the plan).
fn per_call(mut op: impl FnMut()) -> String {
    const CALLS: usize = 10;
    op();
    let before = my_allocations();
    for _ in 0..CALLS {
        op();
    }
    fixed((my_allocations() - before) as f64 / CALLS as f64)
}

/// A cold read's codec work on a 4 KiB value (`tcp_mixed`'s): a helper
/// towards failed node 0, its regeneration from `d` helpers, a decode into
/// a buffer with room; and an L1 server's encode of a 256 B value's L2 span
/// (`small_mixed`'s). The shares, symbols and plan keys of a call live on
/// the stack and the span encode takes its generator rows from the plan, so
/// a warm call allocates its output and nothing else: 1 / 1 / 0 / 1. Per-call
/// scaffolding made it 4 / 9 / 8 / 4 on MBR.
fn codec_calls<C: RegeneratingCode>(table: &mut Table, shape: &'static str, code: C) {
    let (k, d) = (code.params().k(), code.params().d());
    let value: Vec<u8> = (0..4096).map(|i| (i * 131 % 251) as u8).collect();
    let shares = code.encode(&value).unwrap();
    let failed = 0;
    let helper = per_call(|| drop(code.helper_data(&shares[1], failed).unwrap()));
    let helpers: Vec<HelperData> = (1..=d)
        .map(|h| code.helper_data(&shares[h], failed).unwrap())
        .collect();
    let repair = per_call(|| drop(code.repair(failed, &helpers).unwrap()));
    let mut out = Vec::with_capacity(2 * value.len());
    let decode = per_call(|| code.decode_into(&shares[1..=k], &mut out).unwrap());
    assert!(out == value);
    let mut elements: Vec<Vec<u8>> = (k..code.params().n())
        .map(|_| Vec::with_capacity(4096))
        .collect();
    let encode = per_call(|| {
        code.encode_share_span_into(&value[..256], k, &mut elements)
            .unwrap()
    });
    table.row(shape, "helper_allocations/call", helper);
    table.row(shape, "repair_allocations/call", repair);
    table.row(shape, "decode_into_allocations/call", decode);
    table.row(shape, "span_encode_allocations/call", encode);
}

pub fn codec(table: &mut Table) {
    let mbr = ProductMatrixMbr::with_dimensions(5, 2, 3).unwrap();
    codec_calls(table, "codec_mbr", mbr);
    let msr = ProductMatrixMsr::with_dimensions(5, 2).unwrap();
    codec_calls(table, "codec_msr", msr);
    codec_calls(
        table,
        "codec_rs",
        ReedSolomon::with_dimensions(5, 2).unwrap(),
    );
}

// ---------------------------------------------------------------------------
// Threaded deployments.

/// Lets the background work of the operations so far finish (an offload
/// outlives the write it belongs to), so that a window opened or closed
/// after it counts its own operations and no neighbour's.
fn settle() {
    std::thread::sleep(Duration::from_millis(50));
}

/// Counters of the whole process at the start of a window.
struct Window {
    ops: usize,
    census: Option<Census>,
    syscalls: [u64; 2],
    allocations: usize,
    by_role: Vec<usize>,
    large_bytes: usize,
}

impl Window {
    /// Opens a window of `ops` operations; `roles` are the thread roles
    /// whose allocations get a row each.
    fn open(ops: usize, roles: &[&str]) -> Window {
        let census = Census::take();
        let syscalls = syscalls();
        Window {
            ops,
            census,
            syscalls,
            by_role: roles.iter().map(|r| allocations_of(r)).collect(),
            allocations: allocations(),
            large_bytes: LARGE_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Closes the window and adds its rows per operation.
    fn close(self, table: &mut Table, shape: &'static str, roles: &[&str], value_len: usize) {
        let allocations = allocations() - self.allocations;
        let large_bytes = LARGE_BYTES.load(Ordering::Relaxed) - self.large_bytes;
        let by_role: Vec<usize> = roles.iter().map(|r| allocations_of(r)).collect();
        let syscalls = syscalls();
        let (switches, threads_by_role) = census_since(self.census);
        let per_op = |n: usize| fixed(n as f64 / self.ops as f64);
        table.row(shape, "allocations/op", per_op(allocations));
        for ((role, now), then) in roles.iter().zip(by_role).zip(self.by_role) {
            table.row(shape, format!("allocations/op.{role}"), per_op(now - then));
        }
        let large = large_bytes as f64 / (self.ops * value_len) as f64;
        table.row(shape, "large_bytes/op/|v|", fixed(large));
        let [reads, writes] = [0, 1].map(|i| (syscalls[i] - self.syscalls[i]) as usize);
        table.host_row(shape, "read_syscalls/op", per_op(reads));
        table.host_row(shape, "write_syscalls/op", per_op(writes));
        table.host_row(shape, "voluntary_switches/op", per_op(switches as usize));
        for (role, threads) in threads_by_role {
            table.host_row(shape, format!("threads.{role}"), threads);
        }
    }
}

/// Protocol messages handled so far by the servers of `stores`.
fn messages<'a>(stores: impl IntoIterator<Item = &'a lds_cluster::StoreHandle>) -> u64 {
    stores
        .into_iter()
        .flat_map(|s| s.admin().metrics().messages_by_class)
        .map(|(_, n)| n)
        .sum()
}

/// A blocking depth-1 client on the benchmark's `small_mixed` deployment
/// (`high_throughput(2)`, MBR, 256 B values), write/read pairs over 64
/// objects. Per pair each of the two offloaders allocates its 5 coded
/// elements and one framed copy of the short value (12), the write the
/// value and its `Arc` (2), the read the `Vec` it returns (1): 7.50 per
/// operation, all payload (48.6 when a flush was a `Batch` envelope with a
/// group `Vec`; 18.5 with hashed quorum sets). A new allocation on every
/// write or every read adds 0.5.
pub fn store(table: &mut Table) {
    const OPS: usize = 2000;
    const SHAPE: &str = "store_256b_depth1";
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Mbr)
        .high_throughput(2)
        .build()
        .unwrap();
    let mut client = store.client();
    let value = [7u8; 256];
    let mut op = |i: usize| {
        let obj = ObjectId((i / 2 % 64) as u64);
        if i.is_multiple_of(2) {
            client.write(obj, &value).unwrap();
        } else {
            assert_eq!(client.read(obj).unwrap().len(), value.len());
        }
    };
    (0..256).for_each(&mut op);
    let roles = ["client", "lds-worker"];
    settle();
    let sent = messages([&store]);
    let window = Window::open(OPS, &roles);
    (0..OPS).for_each(&mut op);
    settle();
    window.close(table, SHAPE, &roles, value.len());
    let sent = messages([&store]) - sent;
    table.row(SHAPE, "messages/op", fixed(sent as f64 / OPS as f64));
    drop(client);
    store.shutdown();
}

/// One flush of a server turn: eight COMMIT-TAG-like metadata messages for
/// one peer shard and one for another, then both inboxes drained, 1 000
/// times. Once the handle's burst buffers and the inboxes' buffers are warm,
/// a flush allocates nothing (4 when a flush was a `Batch` envelope and each
/// drain took the queue's buffer away).
pub fn router_flush(table: &mut Table) {
    let drain = |inbox: &Inbox| -> usize { inbox.rx.try_iter().map(|e| e.message_count()).sum() };
    let router = Router::new();
    let (a, b) = (ProcessId(1), ProcessId(2));
    let (inbox_a, inbox_b) = (router.register(a), router.register(b));
    let mut handle = router.handle();
    let mut round = |r: u64| {
        let flush = (0..8)
            .map(move |o| (a, ObjectId(r * 8 + o)))
            .chain(std::iter::once((b, ObjectId(r))))
            .map(|(to, obj)| (to, LdsMessage::InvokeRead { obj }));
        handle.send_batch(ProcessId(0), flush);
        assert_eq!((drain(&inbox_a), drain(&inbox_b)), (8, 1));
    };
    (0..16).for_each(&mut round);
    let before = my_allocations();
    (0..1000).for_each(&mut round);
    let flushes = fixed((my_allocations() - before) as f64 / 1000.0);
    table.row("router_flush_warm", "allocations/flush", flushes);
}

// ---------------------------------------------------------------------------
// Three `ldsd` daemons in this process, meshed over loopback TCP.

const DAEMONS: usize = 3;
/// f1 = 1, f2 = 1, k = 2, d = 3: 4 L1 + 5 L2 servers.
const SERVERS: usize = 9;
const DEPTH: usize = 16;

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
                 backend = \"mbr\"\npipeline_depth = {DEPTH}\n\n[membership]\n",
                mesh[index], rpc[index], http[index]
            );
            for pid in 0..SERVERS {
                text.push_str(&format!("{pid} = \"127.0.0.1:{}\"\n", mesh[pid % DAEMONS]));
            }
            Daemon::start(Config::parse(&text).expect("valid config")).expect("daemon starts")
        })
        .collect()
}

/// Frames sent and socket writes made, summed over the daemons' links.
fn mesh_writes(daemons: &[Daemon]) -> (u64, u64) {
    daemons
        .iter()
        .map(Daemon::link_stats)
        .fold((0, 0), |(f, w), s| (f + s.frames_sent, w + s.writes))
}

/// `ops` operations through `client` with up to `depth` in flight, harvested
/// in submission order: writes to objects 0-63 alternate with reads of
/// objects 64-127, which only [`tcp_shape`]'s warm-up writes. Every read is
/// then cold (regenerated from L2), so its messages do not depend on whether
/// an L1 server still held the value.
fn drive(client: &mut NetClient, value: &[u8], ops: usize, depth: usize) {
    let mut in_flight = VecDeque::new();
    let harvest = |client: &mut NetClient, (id, is_write): (u64, bool)| {
        if is_write {
            client.wait_written(id).expect("write over TCP");
        } else {
            assert_eq!(
                client.wait_value(id).expect("read over TCP").len(),
                value.len()
            );
        }
    };
    for i in 0..ops {
        let obj = (i / 2 % 64) as u64;
        let id = if i.is_multiple_of(2) {
            client.submit_write(ObjectId(obj), value)
        } else {
            client.submit_read(ObjectId(64 + obj))
        };
        let id = id.expect("submit over TCP");
        in_flight.push_back((id, i.is_multiple_of(2)));
        if in_flight.len() >= depth {
            harvest(client, in_flight.pop_front().unwrap());
        }
    }
    for op in in_flight {
        harvest(client, op);
    }
}

/// One shape over the daemons: warm-up, then a window of `ops` operations.
/// Every hop is wire-encoded and crosses a socket; the allocations of the
/// client, the RPC threads, the executor workers and the mesh are all in
/// the window. A mesh link coalesces the frames of one burst into one
/// socket write, and a buffer that reaches 64 KiB is flushed on the spot
/// (without that flush 64 KiB values queue behind whole sweeps and
/// throughput drops by a third).
fn tcp_shape(
    table: &mut Table,
    shape: &'static str,
    daemons: &[Daemon],
    client: &mut NetClient,
    (value_len, depth, ops): (usize, usize, usize),
) {
    let value = vec![0xA5u8; value_len];
    for obj in 64..128 {
        client.write(ObjectId(obj), &value).expect("write over TCP");
    }
    drive(client, &value, 256, depth);
    let roles = [
        "client",
        "ldsd-rpc-conn",
        "ldsd-rpc-reader",
        "lds-worker",
        "lds-tcp-mesh",
    ];
    let stores = || daemons.iter().map(|d| &**d.store());
    settle();
    let sent = messages(stores());
    let (frames, writes) = mesh_writes(daemons);
    let window = Window::open(ops, &roles);
    drive(client, &value, ops, depth);
    settle();
    window.close(table, shape, &roles, value_len);
    let sent = messages(stores()) - sent;
    table.row(shape, "messages/op", fixed(sent as f64 / ops as f64));
    let (frames_now, writes_now) = mesh_writes(daemons);
    let per_write = (frames_now - frames) as f64 / (writes_now - writes).max(1) as f64;
    table.row(shape, "mesh_frames/write", fixed(per_write));
}

/// A TCP shape: its name, value length, depth and operations in the window.
pub type TcpShape = (&'static str, (usize, usize, usize));

/// 4 KiB values at depth 1 (`tcp_mixed`'s value size, no pipelining).
pub const TCP_4K_DEPTH1: TcpShape = ("tcp_4k_depth1", (4096, 1, 2000));
/// Every TCP shape, in the order one daemon set runs them.
pub const TCP_SHAPES: [TcpShape; 3] = [
    TCP_4K_DEPTH1,
    ("tcp_4k_depth16", (4096, DEPTH, 2000)),
    ("tcp_64k_depth16", (64 << 10, DEPTH, 1000)),
];

/// `shapes` in turn over one set of freshly started daemons.
pub fn tcp(table: &mut Table, shapes: &[TcpShape]) {
    let daemons = start_daemons();
    let mut client = NetClient::connect_retry(daemons[0].client_addr(), Duration::from_secs(30))
        .expect("daemon accepts connections");
    for &(shape, dims) in shapes {
        tcp_shape(table, shape, &daemons, &mut client, dims);
    }
    drop(client);
    daemons.into_iter().for_each(Daemon::stop);
}
