//! Quickstart: a small two-layer LDS deployment in the deterministic
//! simulator — one writer, one reader, atomicity checked at the end.
//!
//! Run with: `cargo run --example quickstart`

use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use lds_core::sim::{SimConfig, Simulation};

fn main() {
    // A deployment with 5 edge (L1) servers tolerating 1 crash and 7 back-end
    // (L2) servers tolerating 1 crash; the derived MBR code has k = 3, d = 5.
    let params = SystemParams::for_failures(1, 1, 3, 5).expect("valid parameters");
    println!("system parameters: {params}");

    let mut sim = Simulation::new(
        SimConfig::new(params)
            .backend(BackendKind::Mbr)
            .seed(2024)
            // Edge links are fast (tau0 = tau1 = 1); the back-end is 10x away.
            .latencies(1.0, 1.0, 10.0),
    );

    let writer = sim.add_writer();
    let reader = sim.add_reader();

    // A write at t = 0 and a read well after the write finished.
    sim.invoke_write(writer, 0.0, b"hello, layered storage".to_vec());
    sim.invoke_read(reader, 100.0);

    let report = sim.run();

    for op in report.history.operations() {
        let kind = if op.is_write() { "write" } else { "read " };
        println!(
            "{kind} {:<6} tag={} value={:?} latency={:.1}",
            op.op.to_string(),
            op.tag,
            String::from_utf8_lossy(op.value().as_bytes()),
            op.completed_at - op.invoked_at,
        );
    }

    report
        .history
        .check_atomicity()
        .expect("the execution must be atomic");
    println!(
        "atomicity check passed; {} messages exchanged, {} data bytes",
        report.metrics.messages_sent(),
        report.metrics.data_bytes_sent()
    );
    println!(
        "final storage: L1 (temporary) = {} bytes, L2 (permanent, coded) = {} bytes",
        sim.l1_storage_bytes(),
        sim.l2_storage_bytes()
    );
}
