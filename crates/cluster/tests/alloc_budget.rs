//! Allocation budget of the in-process message path.
//!
//! A message between two automata of one process carries its own payload
//! and nothing else: the router appends a flush's messages for one inbox to
//! that inbox in one locked step (no envelope holds a `Vec`), a
//! drained inbox keeps its buffer for the next burst, and an L1 server
//! prunes committed tags in place. Allocations are counted under a counting
//! global allocator, so each figure is a count, not a timing. The counter is
//! process-wide (worker threads included), so the tests of this file take
//! turns. Both use public API only, so the file also compiles against older
//! checkouts.

use lds_cluster::api::{ObjectId, Store, StoreBuilder};
use lds_cluster::router::{Inbox, Router};
use lds_core::backend::BackendKind;
use lds_core::LdsMessage;
use lds_core::ProcessId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Held by a test for as long as it runs: the counter is process-wide.
static TURN: Mutex<()> = Mutex::new(());

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Claims everything queued on `inbox` the way a server turn does.
fn drain(inbox: &Inbox) -> usize {
    inbox.rx.try_iter().map(|e| e.message_count()).sum()
}

/// One flush of a server turn: eight COMMIT-TAG-like metadata messages for
/// one peer shard and one for another, then both inboxes drained. Once the
/// handle's burst buffers and the inboxes' buffers are warm, a round
/// allocates nothing. (The parent of the commit that added this file
/// allocated 4 per round: the `Batch` envelope's group `Vec`, and the queue
/// buffer each drain took away and the next send regrew.)
#[test]
fn a_warm_grouped_flush_and_its_drain_allocate_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
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
    for r in 0..16 {
        round(r);
    }
    // The least of three windows: the test harness allocates now and then
    // on its own threads, never less.
    let per_window = (0..3)
        .map(|_| {
            let before = allocations();
            for r in 0..1000 {
                round(r);
            }
            allocations() - before
        })
        .min()
        .unwrap();
    println!("1000 grouped flushes + drains: {per_window} allocations");
    assert_eq!(per_window, 0, "allocations in 1000 warm rounds");
}

/// Allocations per operation of a blocking depth-1 client on the
/// benchmark's `small_mixed` deployment (`high_throughput(2)`, MBR,
/// `f1 = f2 = 1`, `k = 2`, `d = 3`, 256 B values), counted over every
/// thread of the process: 7.5, and all of it payload. Per write/read pair,
/// each of the two offloaders allocates its 5 coded elements and one framed
/// copy of the short value it encodes (12); the write allocates the value
/// and its `Arc` (2), the read the `Vec` it returns (1). Every quorum is a
/// bitset on the stack, and the encode's generator rows come from the
/// code's span plan. (The parent of the commit that added this file
/// allocated 48.6 per operation here; the parent of the commit that made
/// quorums bitsets, 18.5.) A new allocation on every write or every read
/// adds 0.5; the budget's last 0.01 is room for the few allocations a
/// window sometimes catches that are not per operation (at most 3 in 2 000
/// operations over repeated runs).
#[test]
fn a_small_operation_stays_inside_its_allocation_budget() {
    const OPS: u64 = 2000;
    const BUDGET: f64 = 7.51;
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let store = StoreBuilder::new()
        .failures(1, 1)
        .code(2, 3)
        .backend(BackendKind::Mbr)
        .high_throughput(2)
        .build()
        .unwrap();
    let mut client = store.client();
    let value = [7u8; 256];
    let mut op = |i: u64| {
        let obj = ObjectId(i / 2 % 64);
        if i.is_multiple_of(2) {
            client.write(obj, &value).unwrap();
        } else {
            assert_eq!(client.read(obj).unwrap().len(), value.len());
        }
    };
    for i in 0..256 {
        op(i);
    }
    // The least of three windows, as above.
    let per_window = (0..3)
        .map(|_| {
            let before = allocations();
            for i in 0..OPS {
                op(i);
            }
            allocations() - before
        })
        .min()
        .unwrap();
    let per_op = per_window as f64 / OPS as f64;
    println!("{OPS} depth-1 256 B operations: {per_op:.4} allocations per operation");
    drop(client);
    store.shutdown();
    assert!(
        per_op <= BUDGET,
        "{per_op:.4} allocations per operation, budget {BUDGET}"
    );
}
