//! A committed small write's garbage collection allocates no B-tree node,
//! as rows of `golden/counts.txt`.
//!
//! The process drives 256 B writes through bare automata under both
//! profiles once, under the counting allocator of `counting/mod.rs`: what
//! each L1 server allocates per write is payload only, [6, 6, 6, 6]
//! paper-faithful and [6, 6, 0, 0] high-throughput. `counts.rs` checks the
//! same rows as part of the whole table.

mod counting;

use counting::{check, measure_once, Table};
use std::sync::OnceLock;

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    measure_once(&TABLE, counting::small_write_gc)
}

#[test]
fn a_committed_small_write_allocates_no_btree_nodes_in_gc() {
    check(table(), |shape, _| shape.starts_with("gc_"));
}
