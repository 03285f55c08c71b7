//! Multi-object system (paper §V-A.1): `N` objects implemented by `N`
//! independent LDS instances hosted on the same servers. The example measures
//! how temporary (L1) and permanent (L2) storage behave as `N` grows — the
//! phenomenon plotted in the paper's Fig. 6.
//!
//! Run with: `cargo run --example multi_object`

use lds_core::multi_object::{run_multi_object, MultiObjectConfig};
use lds_core::params::SystemParams;

fn main() {
    let params = SystemParams::symmetric(10, 1).expect("valid parameters"); // k = d = 8
    println!("system parameters: {params}");
    println!();
    println!(
        "{:>6} {:>14} {:>10} {:>14} {:>10}",
        "N", "peak L1", "L1 bound", "final L2", "L2 model"
    );

    for objects in [1usize, 2, 4, 8, 16] {
        let config = MultiObjectConfig {
            params,
            objects,
            concurrent_writers: 2,
            writes_per_writer: objects.max(2),
            value_size: 2048,
            mu: 10.0,
            seed: 3,
        };
        let report = run_multi_object(&config);
        println!(
            "{:>6} {:>14.2} {:>10.2} {:>14.2} {:>10.2}",
            objects,
            report.l1_storage.measured,
            report.l1_storage.predicted,
            report.l2_storage.measured,
            report.l2_storage.predicted
        );
        assert!(report.l1_storage.holds() && report.l2_storage.holds());
    }

    println!();
    println!("Temporary storage in L1 is bounded by the write concurrency (independent of");
    println!("N), while permanent storage in L2 grows linearly with N at ~2/(k+1) per");
    println!("server per object — for large N the back-end dominates, which is the");
    println!("qualitative content of Fig. 6 / Lemma V.5.");
}
