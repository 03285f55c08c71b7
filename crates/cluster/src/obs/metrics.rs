//! The metrics table: the one declaration of every metric family.
//!
//! A row of `metrics!` names a Prometheus family — name, kind, help — and
//! the [`MetricsSnapshot`] fields that are its samples: field, type and
//! label set. From the rows the macro generates the struct (the help text
//! is each field's rustdoc), [`MetricsSnapshot::empty`],
//! [`MetricsSnapshot::to_prometheus`] and [`MetricsSnapshot::FAMILIES`];
//! README's "Metrics and trace events" reference is generated from
//! `FAMILIES`. A field's value has one source:
//! the assignment in `Cluster::snapshot`. How a field *type* starts and
//! renders is the `Metric` impl below the table — scalars print one sample
//! under the row's label set, the five non-scalar types take a label *key*
//! from the row and print one sample per entry.

use crate::api::ServerRef;
use crate::obs::HistSnapshot;
use crate::transport::{FaultCounters, MESSAGE_CLASSES};
use std::fmt::Write as _;
use std::time::Duration;

/// One Prometheus metric family, as declared by a row of the metrics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family {
    /// The family name (`lds_`-prefixed).
    pub name: &'static str,
    /// `"gauge"`, `"counter"` or `"histogram"`.
    pub kind: &'static str,
    /// One entry per [`MetricsSnapshot`] field behind the family: a literal
    /// label set (`{layer="l1"}`, or empty), or the label key of a field
    /// that renders one sample per entry (`class`, `target`, `le`, …).
    pub labels: &'static [&'static str],
    /// The `# HELP` text.
    pub help: &'static str,
}

macro_rules! metrics {
    (
        $(#[$attr:meta])*
        pub struct $snapshot:ident {$(
            $family:literal $kind:ident $help:literal
            $( $(#[$more:meta])* $field:ident: $ty:ty = $labels:literal; )*
        )*}
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone)]
        pub struct $snapshot {$($(
            #[doc = concat!($help, " (`", $family, "`)")]
            #[doc = ""]
            $(#[$more])*
            pub $field: $ty,
        )*)*}

        impl $snapshot {
            /// Every metric family, in exposition order.
            pub const FAMILIES: &'static [Family] = &[$(Family {
                name: $family,
                kind: stringify!($kind),
                labels: &[$($labels,)*],
                help: $help,
            },)*];

            /// The snapshot of a deployment nothing has happened to: every
            /// count zero, every histogram empty.
            pub fn empty() -> Self {
                $snapshot { $($( $field: Metric::zero(), )*)* }
            }

            /// Renders the snapshot in the Prometheus text exposition format:
            /// per family, in table order, one `# HELP` and one `# TYPE`
            /// line, then its samples.
            ///
            /// ```rust
            /// use lds_cluster::{api::StoreBuilder, MetricsSnapshot};
            ///
            /// let store = StoreBuilder::new().build().unwrap();
            /// let text = store.admin().metrics().to_prometheus();
            /// let first = &MetricsSnapshot::FAMILIES[0];
            /// assert!(text.starts_with(&format!("# HELP {} {}\n", first.name, first.help)));
            /// assert!(text.contains(&format!("# TYPE {} {}\n{} 0\n", first.name, first.kind, first.name)));
            /// assert!(text.contains("{layer=\"l1\"} 4\n"), "four live L1 servers");
            /// store.shutdown();
            /// ```
            pub fn to_prometheus(&self) -> String {
                let mut out = String::new();
                $(
                    let _ = writeln!(out, "# HELP {} {}", $family, $help);
                    let _ = writeln!(out, "# TYPE {} {}", $family, stringify!($kind));
                    $( self.$field.render($family, $labels, &mut out); )*
                )*
                out
            }
        }
    };
}

metrics! {
    /// A point-in-time snapshot of the deployment's occupancy, health and
    /// latency metrics ([`Admin::metrics`](crate::api::Admin::metrics));
    /// per-server breakdowns come from
    /// [`Admin::inbox_depths`](crate::api::Admin::inbox_depths) and
    /// [`Admin::liveness`](crate::api::Admin::liveness).
    ///
    /// Server-side counters are published by a shard when its worker goes
    /// idle and at least every 10 ms while it does not, and restart from
    /// zero on a repaired server (Prometheus-style reset). The `heal_*`
    /// fields are zero unless the deployment is self-healing.
    pub struct MetricsSnapshot {
        "lds_l1_metadata_entries" gauge "Per-tag metadata entries across every L1 server."
            l1_metadata_entries: usize = "";
        "lds_l1_temporary_bytes" gauge "Bytes of values in L1 temporary storage."
            l1_temporary_bytes: usize = "";
        "lds_l1_inbox_depth" gauge "Messages queued across every L1 worker-shard inbox."
            l1_inbox_depth: usize = "";
        "lds_l1_inbox_depth_max" gauge
            "Largest queue length any single L1 worker-shard inbox reached."
            max_l1_inbox_depth: usize = "";
        "lds_live_servers" gauge "Live servers per layer."
            /// Live as [`Admin::liveness`](crate::api::Admin::liveness)
            /// reports it — both count one view. On a self-healing
            /// deployment a server is live iff the heartbeat monitor does
            /// not suspect it; otherwise iff it is not crash-killed. A
            /// daemon of a multi-daemon deployment observes only the
            /// servers it hosts and counts its peers' as live.
            live_l1: usize = "{layer=\"l1\"}";
            /// See [`live_l1`](Self::live_l1).
            live_l2: usize = "{layer=\"l2\"}";
        "lds_repairs_completed" counter "Successful online repairs since the store started."
            /// Exact even after the bounded report log started evicting.
            repairs_completed: usize = "";
        "lds_repair_reports_dropped" counter "Repair reports evicted from the bounded history log."
            repair_reports_dropped: u64 = "";
        "lds_heal_suspicions_raised" counter "Suspicion transitions raised by the heartbeat monitor."
            heal_suspicions_raised: u64 = "";
        "lds_heal_repairs_attempted" counter "Repair attempts started by the auto-repair supervisor."
            heal_repairs_attempted: u64 = "";
        "lds_heal_repairs_succeeded" counter "Supervisor repair attempts that completed successfully."
            heal_repairs_succeeded: u64 = "";
        "lds_heal_repairs_backed_off" counter
            "Supervisor repair attempts that failed into exponential backoff."
            heal_repairs_backed_off: u64 = "";
        "lds_heal_parked" counter "Times the supervisor parked a repair for lack of a quorum."
            heal_parked_events: u64 = "";
        "lds_heal_backoff_seconds" gauge
            "Current backoff delay per repair target still waiting one out."
            heal_backoffs: Vec<(ServerRef, Duration)> = "target";
        "lds_transport_faults" counter "Faults injected by the fault-injecting transport, by kind."
            /// All zero without a
            /// [`StoreBuilder::fault_plan`](crate::api::StoreBuilder::fault_plan).
            transport_faults: FaultCounters = "kind";
        "lds_gc_evicted_entries" counter "Temporary-store entries evicted by committed-tag GC."
            gc_evicted_entries: u64 = "";
        "lds_gc_evicted_bytes" counter "Value bytes released by committed-tag GC."
            gc_evicted_bytes: u64 = "";
        "lds_pool_peak_round_bytes" gauge
            "Bytes of the n2 coded elements of the largest write-to-L2 offload any L1 server made."
            /// What one offload holds at once: its `n2` element buffers all
            /// leave in the step that encoded them.
            peak_round_bytes: usize = "";
        "lds_gf_kernel" gauge
            "Instruction-set level of the GF(2^8) coding kernels (constant 1, level in the label)."
            /// [`lds_codes::gf_kernel`]: `"gfni"`, `"avx2"`, `"ssse3"` or
            /// `"portable"`. Coding cost differs severalfold between levels,
            /// so a latency figure is attributable only with it.
            gf_kernel: &'static str = "level";
        "lds_executor_workers" gauge "Worker threads running the server-shard automata."
            /// `min(cores, hosted automata)`.
            executor_workers: usize = "";
        "lds_executor_turns" counter
            "Automaton activations (turns that claimed at least one envelope)."
            executor_turns: u64 = "";
        "lds_executor_envelopes" counter "Envelopes claimed from server inboxes by executor turns."
            /// `envelopes ÷ turns` is how many arrivals one activation amortises.
            executor_envelopes: u64 = "";
        "lds_executor_parks" counter "Times an executor worker found every inbox empty and parked."
            executor_parks: u64 = "";
        "lds_executor_wakeups" counter
            "Wake-ups (unparks) senders issued to parked executor workers."
            /// Every other enqueue found its worker awake and cost one atomic
            /// load; `wakeups ÷ operations` is the message path's system-call
            /// share.
            executor_wakeups: u64 = "";
        "lds_messages_total" counter
            "Messages received across every server shard, by protocol class."
            /// Names per [`MESSAGE_CLASSES`], heartbeat pings last.
            messages_by_class: Vec<(&'static str, u64)> = "class";
        "lds_write_latency_seconds" histogram "End-to-end write latency."
            /// µs buckets, ≤ 12.5 % relative error (see [`crate::obs::hist`]).
            write_latency: HistSnapshot = "le";
        "lds_read_latency_seconds" histogram "End-to-end read latency."
            read_latency: HistSnapshot = "le";
        "lds_phase_tag_latency_seconds" histogram "Tag-quorum phase latency (writes and reads)."
            /// The `QUERY-TAG` / `QUERY-COMM-TAG` round, submission to first
            /// data-phase message.
            phase_tag_latency: HistSnapshot = "le";
        "lds_phase_data_latency_seconds" histogram
            "Data-transfer phase latency (write commit wait included)."
            phase_data_latency: HistSnapshot = "le";
        "lds_phase_commit_latency_seconds" histogram "Read commit (PUT-TAG round) phase latency."
            phase_commit_latency: HistSnapshot = "le";
    }
}

/// How one field type of the table starts and renders.
trait Metric {
    fn zero() -> Self;
    /// Writes the field's samples of family `name`. `labels` is the row's
    /// label entry: scalars print it verbatim, the other types use it as
    /// the key of the label their entries differ in.
    fn render(&self, name: &str, labels: &str, out: &mut String);
}

fn keyed(out: &mut String, name: &str, key: &str, entry: impl std::fmt::Display, value: f64) {
    let _ = writeln!(out, "{name}{{{key}=\"{entry}\"}} {value}");
}

macro_rules! scalar_metric {
    ($($ty:ty),*) => {$(
        impl Metric for $ty {
            fn zero() -> Self {
                Self::default()
            }
            fn render(&self, name: &str, labels: &str, out: &mut String) {
                let _ = writeln!(out, "{name}{labels} {}", *self as f64);
            }
        }
    )*};
}
scalar_metric!(usize, u64);

/// The kernel level: a constant-1 sample, the level its label.
impl Metric for &'static str {
    fn zero() -> Self {
        lds_codes::gf_kernel()
    }
    fn render(&self, name: &str, key: &str, out: &mut String) {
        keyed(out, name, key, self, 1.0);
    }
}

impl Metric for FaultCounters {
    fn zero() -> Self {
        FaultCounters::default()
    }
    fn render(&self, name: &str, key: &str, out: &mut String) {
        keyed(out, name, key, "dropped", self.dropped as f64);
        keyed(out, name, key, "duplicated", self.duplicated as f64);
        keyed(out, name, key, "delayed", self.delayed as f64);
        keyed(out, name, key, "reordered", self.reordered as f64);
        keyed(out, name, key, "partitioned", self.partitioned as f64);
    }
}

/// Backoff delays per repair target, in seconds.
impl Metric for Vec<(ServerRef, Duration)> {
    fn zero() -> Self {
        Vec::new()
    }
    fn render(&self, name: &str, key: &str, out: &mut String) {
        for (target, delay) in self {
            keyed(out, name, key, target, delay.as_secs_f64());
        }
    }
}

/// Counts per message class, in [`MESSAGE_CLASSES`] order.
impl Metric for Vec<(&'static str, u64)> {
    fn zero() -> Self {
        MESSAGE_CLASSES.iter().map(|&class| (class, 0)).collect()
    }
    fn render(&self, name: &str, key: &str, out: &mut String) {
        for (class, count) in self {
            keyed(out, name, key, class, *count as f64);
        }
    }
}

/// A µs histogram as a Prometheus one in seconds: cumulative non-empty
/// buckets, `+Inf`, `_sum`, `_count`.
impl Metric for HistSnapshot {
    fn zero() -> Self {
        HistSnapshot::empty()
    }
    fn render(&self, name: &str, key: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (upper_us, count) in self.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(
                out,
                "{name}_bucket{{{key}=\"{}\"}} {cumulative}",
                upper_us as f64 * 1e-6
            );
        }
        let _ = writeln!(out, "{name}_bucket{{{key}=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum as f64 * 1e-6);
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}
