//! The benchmark's fixed points: deployment, workloads and metric names.
//!
//! Everything a later change might be tempted to tune lives here and nowhere
//! else. `BENCHMARK.json` repeats the workload and metric names (a unit test
//! keeps the two in step); the regression bounds live only there.

/// f1 = 1, f2 = 1, k = 2, d = 3 → n1 = 4 L1 servers, n2 = 5 L2 servers, MBR.
pub const F1: usize = 1;
pub const F2: usize = 1;
pub const K: usize = 2;
pub const D: usize = 3;

/// Closed-loop client threads (in-process) or connections (TCP). The host
/// has two cores; more generators than that would measure the scheduler.
pub const CLIENTS: usize = 2;

/// Daemons of the TCP deployment; servers stripe over them round-robin.
pub const DAEMONS: usize = 3;

/// Default measured seconds, equal to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 21.0;

/// A measured run is this many rounds, each a fresh deployment and a window
/// of `seconds / ROUNDS`; metrics are medians over the rounds. On the 2-core
/// sandbox one 15 s window spread 8-18 % between runs and seven 3 s rounds
/// 5-9 %: the level a deployment settles at varies more than it wanders.
pub const ROUNDS: usize = 7;

/// Completed operations the median round needs before `p99_us` counts: ten
/// beyond.
pub const MIN_P99_SAMPLES: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// In-process store, `StoreBuilder::high_throughput(2)`.
    HighThroughput,
    /// In-process store, `StoreBuilder::paper_faithful()`.
    PaperFaithful,
    /// Three `ldsd::Daemon`s on loopback TCP (paper-faithful, the only
    /// profile a daemon has), driven through `NetClient`.
    Tcp,
}

impl Deploy {
    pub fn profile(self) -> &'static str {
        match self {
            Deploy::HighThroughput => "high_throughput(2)",
            Deploy::PaperFaithful | Deploy::Tcp => "paper_faithful",
        }
    }

    pub fn transport(self) -> &'static str {
        match self {
            Deploy::Tcp => "tcp-loopback",
            _ => "inproc",
        }
    }

    /// Whether L1 drops a value once it is offloaded to L2, so that an idle
    /// store holds zero temporary bytes.
    pub fn l1_drains(self) -> bool {
        self != Deploy::HighThroughput
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub deploy: Deploy,
    pub value_size: usize,
    pub read_fraction: f64,
    pub objects: u64,
    /// Zipfian skew of the key choice; 0 is uniform.
    pub theta: f64,
    /// Operations each client keeps in flight.
    pub depth: usize,
}

/// Every workload issues both operation types, because the driver's contract
/// wants every end-to-end metric from every workload: the two `large_*`
/// workloads carry a 10 % minority of the other type (ISSUE 11 had 0 %).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small_mixed",
        deploy: Deploy::HighThroughput,
        value_size: 256,
        read_fraction: 0.5,
        objects: 1024,
        theta: 0.9,
        depth: 8,
    },
    Workload {
        name: "large_write",
        deploy: Deploy::PaperFaithful,
        value_size: 256 << 10,
        read_fraction: 0.1,
        objects: 64,
        theta: 0.0,
        depth: 2,
    },
    Workload {
        name: "large_read_cold",
        deploy: Deploy::PaperFaithful,
        value_size: 256 << 10,
        read_fraction: 0.9,
        objects: 64,
        theta: 0.0,
        depth: 2,
    },
    Workload {
        name: "tcp_mixed",
        deploy: Deploy::Tcp,
        value_size: 4 << 10,
        read_fraction: 0.5,
        objects: 1024,
        theta: 0.0,
        depth: 8,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("gf.mul_add_gib_s", "GiB/s"),
    ("gf.mul_add_small_ns", "ns"),
    ("codes.encode_256_us", "us"),
    ("codes.encode_4k_us", "us"),
    ("codes.encode_256k_us", "us"),
    ("codes.helper_256k_us", "us"),
    ("codes.regenerate_256k_us", "us"),
    ("codes.decode_256k_us", "us"),
    ("codes.decode_4k_us", "us"),
    ("codes.plan_warm_ms", "ms"),
    ("core.sim_step_ns", "ns"),
    ("core.msgs_per_write", "count"),
    ("core.msgs_per_read_idle", "count"),
    ("core.write_cost_norm", "values"),
    ("core.read_cost_idle_norm", "values"),
    ("core.read_cost_concurrent_norm", "values"),
    ("core.l2_storage_norm", "values"),
    ("core.wire_encode_4k_ns", "ns"),
    ("core.wire_decode_4k_ns", "ns"),
    ("core.wire_encode_256k_ns", "ns"),
    ("core.wire_decode_256k_ns", "ns"),
    ("cluster.idle_write_us", "us"),
    ("cluster.idle_read_us", "us"),
    ("cluster.queue_residual_write_us", "us"),
    ("cluster.queue_residual_read_us", "us"),
    ("cluster.phase_tag_p50_us", "us"),
    ("cluster.phase_tag_p99_us", "us"),
    ("cluster.phase_data_p50_us", "us"),
    ("cluster.phase_data_p99_us", "us"),
    ("cluster.phase_commit_p50_us", "us"),
    ("cluster.phase_commit_p99_us", "us"),
    ("cluster.msgs_per_op", "count"),
    ("cluster.max_l1_inbox_depth", "count"),
    ("cluster.l1_temp_bytes_end", "bytes"),
    ("cluster.peak_round_bytes", "bytes"),
    ("ldsd.rpc_rtt_us", "us"),
    ("ldsd.idle_write_us", "us"),
    ("ldsd.idle_read_us", "us"),
    ("ldsd.net_tax_us", "us"),
    ("ldsd.connect_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.gen_busy_fraction", "ratio"),
    ("bench.unexplained_read_us", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_use_the_contract_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(!name_ok("has space") && !name_ok(".dot") && !name_ok("a/b"));
    }

    /// `BENCHMARK.json` sits one level above this package; the driver reads
    /// it, this binary reads these tables, so the two must list the same
    /// names and units in the same order.
    #[test]
    fn benchmark_json_lists_the_same_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .expect("string")
                        .to_string()
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)], second: bool| -> Vec<String> {
            table
                .iter()
                .map(|m| if second { m.1 } else { m.0 }.to_string())
                .collect()
        };
        assert_eq!(listed("end_to_end", "name"), ours(&END_TO_END, false));
        assert_eq!(listed("end_to_end", "unit"), ours(&END_TO_END, true));
        assert_eq!(listed("per_layer", "name"), ours(&PER_LAYER, false));
        assert_eq!(listed("per_layer", "unit"), ours(&PER_LAYER, true));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("number");
        assert_eq!(seconds, DEFAULT_SECONDS);
    }
}
