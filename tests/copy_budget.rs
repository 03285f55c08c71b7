//! What a 256 KiB operation allocates, in bytes per |v|, as rows of
//! `golden/counts.txt`.
//!
//! The process drives a 256 KiB MBR write, a 256 KiB MSR write, a cold MBR
//! read and an online L2 repair through bare automata once, under the
//! counting allocator of `counting/mod.rs`; each test checks its rows. A
//! new copy of a coded element, a helper or the value on any of these paths
//! moves a band-0 row. `counts.rs` checks the same rows as part of the
//! whole table.

mod counting;

use counting::{check, measure_once, rows_of, Table};
use std::sync::OnceLock;

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    measure_once(&TABLE, counting::automata)
}

/// The rows of the MBR write that price the live heap rather than what
/// was allocated in all.
fn is_peak_row(row: &str) -> bool {
    row.contains("peak")
}

/// 4 × 5 elements of 0.6 |v| and the client's copy: 13.00 |v|.
#[test]
fn mbr_write_allocates_its_elements_and_the_client_copy() {
    check(table(), |shape, row| {
        shape == "mbr_write_256k" && !is_peak_row(row)
    });
}

/// 4 × 5 elements of 0.5 |v| and the client's copy: 11.00 |v|.
#[test]
fn msr_write_allocates_its_elements_and_the_client_copy() {
    check(table(), rows_of("msr_write_256k"));
}

/// One offload step holds its 5 elements (`peak_round_bytes`) and the
/// frame's edge strips, 3.02 |v|; the whole write the client copy and all
/// four offloads at once, 13.07 |v|.
#[test]
fn a_write_holds_its_elements_and_the_client_copy_at_once() {
    check(table(), |shape, row| {
        shape == "mbr_write_256k" && is_peak_row(row)
    });
}

/// What the read communicates plus the value it returns: 7.40 |v|.
#[test]
fn cold_read_allocates_what_it_communicates_plus_the_value_it_returns() {
    check(table(), rows_of("cold_read_256k"));
}

/// The β-sized helpers and the regenerated element: 1.40 |v|.
#[test]
fn l2_repair_allocates_its_helpers_and_the_element() {
    check(table(), rows_of("l2_repair"));
}
