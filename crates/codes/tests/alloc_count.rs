//! Allocations per codec call.
//!
//! What a helper, regenerate or decode call builds besides its result — the
//! shares it picks, the symbols of each, the key of its plan — is a handful
//! of indices and slices. That scaffolding lives on the stack, so a warm
//! call allocates its output and nothing else: one buffer for a helper or a
//! regenerated element, none for a decode into a buffer with room. A warm
//! encode of a short value's `n2` elements into buffers with room (an L1
//! server's `write-to-L2`) takes its generator rows from the span plan and
//! allocates only the framed copy of the value: one, where listing the rows
//! per call and collecting the symbols made it four.
//!
//! Counted under a counting global allocator at the benchmark's code
//! dimensions (`n2 = 5`, `k = 2`, `d = 3`), so each figure repeats exactly.
//! The counter is process-wide, so the tests of this file take turns, and
//! each figure is the least of a few rounds: the test harness allocates
//! now and then on its own threads, never less. The file uses only the code
//! traits, so it also compiles against older checkouts: the parent of the
//! commit that added it allocated (helper, repair, decode) 4, 9, 8 per call
//! on MBR and 4, 8, 7 on MSR and RS.

use lds_codes::mbr::ProductMatrixMbr;
use lds_codes::msr::ProductMatrixMsr;
use lds_codes::rs::ReedSolomon;
use lds_codes::{HelperData, RegeneratingCode};
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

/// Calls per measurement; the figures asserted are per call.
const CALLS: usize = 10;

/// Allocations per call of `op`, run [`CALLS`] times after one warm-up call
/// (which may build the plan): the least count of five rounds.
fn per_call(mut op: impl FnMut()) -> usize {
    op();
    let total = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..CALLS {
                op();
            }
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap();
    assert_eq!(total % CALLS, 0, "{total} allocations over {CALLS} calls");
    total / CALLS
}

/// A cold read's codec work on `code`, on a 4 KiB value (`tcp_mixed`'s):
/// `d` helpers towards failed node 0, its regeneration, a decode.
fn allocates_only_the_output<C: RegeneratingCode>(name: &str, code: impl FnOnce() -> C) {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let code = &code();
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
    println!("{name}: helper {helper}, repair {repair}, decode_into {decode} allocations per call");
    assert_eq!(
        (helper, repair, decode),
        (1, 1, 0),
        "{name}: (helper, repair, decode_into) allocations per call"
    );

    // The offload of a 256 B value (`small_mixed`'s): the last `n - k`
    // elements, as an L1 server encodes its L2 span.
    let mut elements: Vec<Vec<u8>> = (k..code.params().n())
        .map(|_| Vec::with_capacity(4096))
        .collect();
    let encode = per_call(|| {
        code.encode_share_span_into(&value[..256], k, &mut elements)
            .unwrap()
    });
    println!("{name}: 256 B span encode {encode} allocations per call");
    assert_eq!(encode, 1, "{name}: span encode allocations per call");
}

#[test]
fn mbr_calls_allocate_only_their_output() {
    allocates_only_the_output("MBR", || {
        ProductMatrixMbr::with_dimensions(5, 2, 3).unwrap()
    });
}

#[test]
fn msr_calls_allocate_only_their_output() {
    allocates_only_the_output("MSR", || ProductMatrixMsr::with_dimensions(5, 2).unwrap());
}

#[test]
fn rs_calls_allocate_only_their_output() {
    allocates_only_the_output("RS", || ReedSolomon::with_dimensions(5, 2).unwrap());
}
