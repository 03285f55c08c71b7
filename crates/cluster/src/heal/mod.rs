//! The self-healing control plane: heartbeat failure detection plus an
//! auto-repair supervisor, so a deployment restores its own failure budget
//! without an operator calling [`crate::api::Admin::repair`].
//!
//! Three coupled pieces (enabled together by
//! [`StoreBuilder::self_heal`](crate::api::StoreBuilder::self_heal)):
//!
//! * **Beats** — every server worker shard stamps a per-process beat slot
//!   in each executor turn that claimed an envelope from *its own* inbox
//!   (never on behalf of the worker thread's other shards). An idle shard
//!   claims nothing, so the monitor *pings* every server once per
//!   [`HealConfig::beat_interval`] ([`crate::router::Envelope::Ping`] —
//!   no protocol work, no depth accounting): claiming the ping is the beat.
//!   A crashed server is deregistered from the router, its
//!   pings are dropped, and its beat goes stale — the detector needs no
//!   extra state beyond what crash injection and repair already maintain.
//! * **Suspicion monitor** — a thread that compares each server's beat age
//!   against `beat_interval × suspicion_intervals` and flips a per-server
//!   suspicion flag. [`Admin::liveness`](crate::api::Admin::liveness) reports
//!   these observations when the control plane is attached (the unsuspected
//!   view of a fallible detector), while
//!   [`Admin::is_live`](crate::api::Admin::is_live) keeps reading the
//!   engine's crash-injection ground truth.
//! * **Repair supervisor** — a thread draining the suspected-server list
//!   into repair attempts: at most
//!   [`HealConfig::max_concurrent_repairs`] in flight, jittered exponential
//!   backoff after [`crate::RepairError::Timeout`] /
//!   [`crate::RepairError::TooFewHelpers`], and a graceful *parked* state —
//!   recorded, not spun on — while more than `f` servers of a layer are down
//!   and no repair quorum exists. Several supervisors (or a supervisor
//!   racing a manual [`Admin::repair`](crate::api::Admin::repair)) coexist
//!   safely: the per-server repair claim admits exactly one coordinator, and
//!   the loser's `RepairInProgress` is treated as a short retry, not a
//!   failure.
//!
//! Everything the loop does is observable through
//! [`MetricsSnapshot`](crate::api::MetricsSnapshot): suspicions raised,
//! repairs attempted / succeeded / backed off, park events and the current
//! per-target backoff — exported textually by
//! [`MetricsSnapshot::to_prometheus`](crate::api::MetricsSnapshot::to_prometheus).

mod monitor;
mod supervisor;

use crate::api::ServerRef;
use crate::node::Cluster;
use crate::repair::RepairLayer;
use crate::sync::Mutex;
use lds_sim::ProcessId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of the self-healing control plane (see
/// [`StoreBuilder::self_heal_with`](crate::api::StoreBuilder::self_heal_with);
/// [`StoreBuilder::self_heal`](crate::api::StoreBuilder::self_heal) applies
/// the defaults).
///
/// Defaults: 50 ms beat interval, suspicion after 4 missed intervals,
/// 100 ms base / 5 s max backoff, 2 concurrent repairs.
#[derive(Debug, Clone, Copy)]
pub struct HealConfig {
    /// How often the monitor pings every server and re-evaluates suspicion.
    /// Also the supervisor's scan cadence. Must be non-zero.
    pub beat_interval: Duration,
    /// Beat intervals without a beat before a server is suspected. Must be
    /// at least 1; higher values trade detection latency for fewer false
    /// suspicions on a loaded machine.
    pub suspicion_intervals: u32,
    /// First retry delay after a failed repair attempt; doubles per
    /// consecutive failure (with jitter). Must be non-zero.
    pub backoff_base: Duration,
    /// Upper bound the exponential backoff saturates at. Must be at least
    /// [`HealConfig::backoff_base`].
    pub backoff_max: Duration,
    /// Repairs the supervisor keeps in flight at once, so healing a burst
    /// of failures never starves live traffic. Must be at least 1.
    pub max_concurrent_repairs: usize,
    /// Seed of the deterministic backoff jitter (splitmix64), so chaos
    /// harnesses replay identically.
    pub jitter_seed: u64,
}

impl Default for HealConfig {
    fn default() -> Self {
        HealConfig {
            beat_interval: Duration::from_millis(50),
            suspicion_intervals: 4,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            max_concurrent_repairs: 2,
            jitter_seed: 0x1d5_0dc5,
        }
    }
}

impl HealConfig {
    /// Validates the knobs, returning the first problem as a message (the
    /// builder wraps it into `StoreError::InvalidConfig`).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.beat_interval.is_zero() {
            return Err("self-heal beat_interval must be non-zero".into());
        }
        if self.suspicion_intervals == 0 {
            return Err("self-heal suspicion_intervals must be at least 1".into());
        }
        if self.backoff_base.is_zero() {
            return Err("self-heal backoff_base must be non-zero".into());
        }
        if self.backoff_max < self.backoff_base {
            return Err("self-heal backoff_max must be at least backoff_base".into());
        }
        if self.max_concurrent_repairs == 0 {
            return Err("self-heal max_concurrent_repairs must be at least 1".into());
        }
        Ok(())
    }
}

/// The bookkeeping the healing loop shares with the `Admin` facade:
/// suspicion flags (fed into `Admin::liveness`), heal counters and the
/// current per-target backoffs (read by `Cluster::snapshot` into
/// `MetricsSnapshot`). Attached to the [`Cluster`] once by the builder.
pub(crate) struct HealState {
    /// Suspicion flag per server process, indexed by pid (`0..n1 + n2`).
    suspected: Vec<AtomicBool>,
    /// Transitions into the suspected state since launch.
    pub(crate) suspicions_raised: AtomicU64,
    /// Repair attempts the supervisor started.
    pub(crate) repairs_attempted: AtomicU64,
    /// Attempts that completed successfully.
    pub(crate) repairs_succeeded: AtomicU64,
    /// Attempts that failed and entered (or escalated) backoff.
    pub(crate) repairs_backed_off: AtomicU64,
    /// Transitions into the parked state (a layer degraded beyond its
    /// repair quorum, so the supervisor waits instead of attempting).
    pub(crate) parked_events: AtomicU64,
    /// Current backoff delay per target, while one is pending.
    backoffs: Mutex<HashMap<(RepairLayer, usize), Duration>>,
}

impl HealState {
    pub(crate) fn new(servers: usize) -> HealState {
        HealState {
            suspected: (0..servers).map(|_| AtomicBool::new(false)).collect(),
            suspicions_raised: AtomicU64::new(0),
            repairs_attempted: AtomicU64::new(0),
            repairs_succeeded: AtomicU64::new(0),
            repairs_backed_off: AtomicU64::new(0),
            parked_events: AtomicU64::new(0),
            backoffs: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn is_suspected(&self, pid: ProcessId) -> bool {
        self.suspected[pid.0].load(Ordering::Relaxed)
    }

    /// Raises or clears suspicion of `pid`, counting raise transitions.
    pub(crate) fn set_suspected(&self, pid: ProcessId, suspected: bool) {
        let was = self.suspected[pid.0].swap(suspected, Ordering::Relaxed);
        if suspected && !was {
            self.suspicions_raised.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_attempt(&self) {
        self.repairs_attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_success(&self) {
        self.repairs_succeeded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_backoff(&self) {
        self.repairs_backed_off.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_park(&self) {
        self.parked_events.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_backoff(&self, layer: RepairLayer, index: usize, delay: Duration) {
        self.backoffs.lock().insert((layer, index), delay);
    }

    pub(crate) fn clear_backoff(&self, layer: RepairLayer, index: usize) {
        self.backoffs.lock().remove(&(layer, index));
    }

    /// The current backoff delays, one entry per target with a pending one.
    pub(crate) fn backoff_snapshot(&self) -> Vec<(ServerRef, Duration)> {
        let backoffs = self.backoffs.lock();
        let mut entries: Vec<_> = backoffs
            .iter()
            .map(|(&(layer, index), &delay)| (ServerRef { layer, index }, delay))
            .collect();
        entries.sort_by_key(|(target, _)| (target.layer == RepairLayer::L2, target.index));
        entries
    }
}

/// The running self-healing control plane of one deployment: the monitor
/// and supervisor threads plus their stop flag. Held (shared) by every
/// clone of the owning `StoreHandle`; stopped before the servers on
/// shutdown.
pub(crate) struct HealRuntime {
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl HealRuntime {
    /// Attaches fresh [`HealState`] to the cluster and spawns the monitor
    /// and supervisor threads.
    pub(crate) fn launch(cluster: Arc<Cluster>, config: HealConfig) -> Arc<HealRuntime> {
        let params = cluster.params();
        let state = Arc::new(HealState::new(params.n1() + params.n2()));
        cluster.attach_heal(Arc::clone(&state));
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let (cluster, state) = (Arc::clone(&cluster), Arc::clone(&state));
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("lds-heal-monitor".into())
                .spawn(move || monitor::run_monitor(&cluster, &state, &config, &stop))
                .expect("spawn heal monitor thread")
        };
        let supervisor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("lds-heal-supervisor".into())
                .spawn(move || supervisor::run_supervisor(&cluster, &state, &config, &stop))
                .expect("spawn heal supervisor thread")
        };
        Arc::new(HealRuntime {
            stop,
            threads: Mutex::new(vec![monitor, supervisor]),
        })
    }

    /// Stops the monitor and supervisor and joins them (idempotent). The
    /// supervisor joins its in-flight repair workers first, so this blocks
    /// for at most roughly one repair timeout.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}
