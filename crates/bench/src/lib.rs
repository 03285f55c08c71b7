//! # lds-bench
//!
//! The benchmark harness reproducing every figure and analytical result of
//! the LDS paper's evaluation (§V). See `ARCHITECTURE.md` and `README.md` at
//! the repository root for the experiment index and the reproduction
//! command behind `BENCH_REPAIR.json`.
//!
//! The **experiment binary** `exp_paper` (`cargo run -p lds-bench --bin
//! exp_paper`) prints the paper's evaluation as aligned text tables, every
//! row checked against `lds_core::costs` (exit status 1 if one breaks):
//! communication and storage costs versus `n1` (Lemmas V.2, V.3), latencies
//! versus `µ = τ2/τ1` (Lemma V.4), storage versus the number of objects
//! (Fig. 6 / Lemma V.5), the MBR / MSR-point ablation (Remarks 1, 2), the
//! single-layer ABD and CAS algorithms, and online node repair at `β/α` of
//! the full-element fallback, recorded into `BENCH_REPAIR.json`.
//!
//! Timed throughput and latency of the in-process store and of the TCP
//! deployment, and raw code throughput (encode / decode / repair) and the
//! simulated protocol step, come from `lds_benchmark` (its workloads and its
//! `gf.*`, `codes.*` and `core.sim_step_ns` ladder rungs). What an operation
//! costs in counts (messages, allocations, system calls, switches, threads
//! and mesh frames per socket write) is the table of the root test
//! `tests/counts.rs`.
//!
//! [`threads`] is the per-thread-role census that table reads its thread and
//! voluntary-switch rows from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod threads;

use std::fmt::Display;

/// Prints an aligned text table: a header row followed by data rows.
///
/// Used by every experiment binary so the output format is uniform.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let header_strings: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let row_strings: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let cols = header_strings.len();
    let mut widths: Vec<usize> = header_strings.iter().map(String::len).collect();
    for row in &row_strings {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&header_strings);
    print_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &row_strings {
        print_row(row);
    }
}

/// Formats a float with three decimal places (the precision used in the
/// experiment tables).
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Version of the recorded `BENCH_*.json` schema, asserted by the CI smoke
/// checks and by a CI check over the committed files, so a future change to
/// the recorded fields fails loudly instead of silently breaking consumers
/// of the JSON. The `exp_paper` writer stamps it into `_meta.schema_version`
/// itself.
///
/// History: 1 = the original unversioned layout (implicit); 2 = identical
/// layout plus this explicit stamp; 3 and 4 added workload-axis and
/// per-phase latency fields to the rows of the in-process throughput sweep,
/// which has since been deleted (`lds_benchmark` is the one timed harness
/// for the in-process store). `BENCH_REPAIR.json` carries the stamp forward
/// unchanged.
pub const SCHEMA_VERSION: u32 = 4;

/// Logical cores available to this process, stamped into `_meta.host_cores`
/// so recorded numbers carry their parallelism caveat with them: on a
/// 1-core host, sharding gains come from batching, not parallel execution.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's algorithm —
/// no date crate offline). Stamped into the `_meta.generated` field of every
/// recorded `BENCH_*.json`.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("system clock after 1970")
        .as_secs() as i64;
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt3(2.0), "2.000");
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_input() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".to_string(), "2".to_string()]],
        );
        print_table::<&str, String>("empty", &["x"], &[]);
    }
}
