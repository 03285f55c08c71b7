//! The whole counts table: every shape of `counting`, checked against every
//! row of `golden/counts.txt`. See `counting/mod.rs` for the rows, the bands
//! and how to re-record the file.

mod counting;

use counting::{check, measure_once, Table, TCP_SHAPES};
use std::sync::OnceLock;

#[test]
fn counts_match_the_golden_table() {
    static TABLE: OnceLock<Table> = OnceLock::new();
    let table = measure_once(&TABLE, |table| {
        counting::automata(table);
        counting::small_write_gc(table);
        counting::codec(table);
        counting::store(table);
        counting::router_flush(table);
        counting::tcp(table, &TCP_SHAPES);
    });
    check(table, |_, _| true);
}
