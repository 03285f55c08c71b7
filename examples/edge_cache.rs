//! Edge-caching scenario from the paper's motivation (§I): when reads are
//! concurrent with writes, the edge layer (L1) serves them directly from its
//! temporary storage and the slow back-end (L2) is never on the read's
//! critical path. When the system is idle, reads regenerate the value from
//! the back-end at Θ(1) communication cost thanks to the MBR code.
//!
//! Run with: `cargo run --example edge_cache`

use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use lds_core::sim::{SimConfig, Simulation};

fn scenario(read_delay: f64) -> (f64, f64) {
    let params = SystemParams::symmetric(10, 1).expect("valid parameters");
    let mut sim = Simulation::new(
        SimConfig::new(params)
            .backend(BackendKind::Mbr)
            .seed(7)
            .latencies(1.0, 1.0, 25.0),
    );
    let writer = sim.add_writer();
    let reader = sim.add_reader();
    let payload = vec![0x5a; 32 * 1024];
    sim.invoke_write(writer, 0.0, payload.clone());
    sim.invoke_read(reader, read_delay);
    let report = sim.run();
    let read = report
        .history
        .operations()
        .iter()
        .find(|o| !o.is_write())
        .expect("read completed")
        .clone();
    let read_latency = read.completed_at - read.invoked_at;
    let read_bytes = report.metrics.data_bytes_for_kind("DATA-RESP")
        + report.metrics.data_bytes_for_kind("SEND-HELPER-ELEM");
    (read_latency, read_bytes as f64 / payload.len() as f64)
}

fn main() {
    // Read arrives while the write is still being offloaded to L2: the edge
    // layer acts as a cache and serves the value immediately.
    let (hot_latency, hot_cost) = scenario(3.0);
    // Read arrives long after the system went idle: the value only exists as
    // coded elements in L2 and must be regenerated.
    let (cold_latency, cold_cost) = scenario(1_000.0);

    println!("edge-cache behaviour (tau1 = 1, tau2 = 25):");
    println!(
        "  concurrent read  : latency = {hot_latency:>7.1}, cost = {hot_cost:>6.2} value units"
    );
    println!(
        "  idle (cold) read : latency = {cold_latency:>7.1}, cost = {cold_cost:>6.2} value units"
    );
    println!();
    println!("The concurrent read never touches the back-end, so its latency only depends");
    println!("on the fast edge links; the cold read pays 2*tau2 to regenerate, but thanks");
    println!("to the MBR code its communication cost stays Θ(1) instead of Θ(n1).");

    assert!(hot_latency < cold_latency);
}
