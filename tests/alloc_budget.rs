//! Allocation budgets of an operation: the in-process message path and an
//! operation over TCP, as rows of `golden/counts.txt`.
//!
//! The process drives a depth-1 256 B in-process store, 1 000 warm grouped
//! router flushes and three `ldsd` daemons over loopback TCP at 4 KiB
//! depth 1, once, under the counting allocator of `counting/mod.rs`; each
//! test checks its shape's rows. `counts.rs` checks the same rows as part
//! of the whole table.

mod counting;

use counting::{check, measure_once, rows_of, Table, TCP_4K_DEPTH1};
use std::sync::OnceLock;

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    measure_once(&TABLE, |table| {
        counting::store(table);
        counting::router_flush(table);
        counting::tcp(table, &[TCP_4K_DEPTH1]);
    })
}

/// `store_256b_depth1`: 7.50 allocations per operation, all payload, and
/// 21 messages per operation.
#[test]
fn a_small_operation_stays_inside_its_allocation_budget() {
    check(table(), rows_of("store_256b_depth1"));
}

/// `router_flush_warm`: a warm grouped flush and the drain of both inboxes
/// allocate nothing.
#[test]
fn a_warm_grouped_flush_and_its_drain_allocate_nothing() {
    check(table(), rows_of("router_flush_warm"));
}

/// `tcp_4k_depth1`: allocations per operation in all and by thread role,
/// messages per operation and mesh frames per socket write.
#[test]
fn a_tcp_operation_stays_inside_its_allocation_budget() {
    check(table(), rows_of(TCP_4K_DEPTH1.0));
}
