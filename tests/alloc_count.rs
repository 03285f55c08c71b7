//! The codec's warm calls allocate only their output, as rows of
//! `golden/counts.txt`.
//!
//! The process drives a helper, a repair, a `decode_into` and a span encode
//! of MBR, MSR and Reed-Solomon at the benchmark's dimensions once, under
//! the counting allocator of `counting/mod.rs`: 1 / 1 / 0 / 1 allocations
//! per call. `counts.rs` checks the same rows as part of the whole table.

mod counting;

use counting::{check, measure_once, rows_of, Table};
use std::sync::OnceLock;

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    measure_once(&TABLE, counting::codec)
}

#[test]
fn mbr_calls_allocate_only_their_output() {
    check(table(), rows_of("codec_mbr"));
}

#[test]
fn msr_calls_allocate_only_their_output() {
    check(table(), rows_of("codec_msr"));
}

#[test]
fn rs_calls_allocate_only_their_output() {
    check(table(), rows_of("codec_rs"));
}
