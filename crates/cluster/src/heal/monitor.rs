//! The heartbeat/suspicion monitor thread (see the [module docs](super)).

use super::{HealConfig, HealState};
use crate::node::Cluster;
use crate::obs::EventKind;
use crate::repair::RepairLayer;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// Pings every server once per beat interval and re-evaluates each server's
/// suspicion flag from its beat age. Runs until `stop` is raised.
///
/// The ping gives even an idle server an envelope to claim, which is what
/// refreshes the beat; a crashed server's pings are dropped at
/// the router, so its beat ages past the threshold and it becomes suspected.
/// A repaired replacement publishes into the same beat slot, so suspicion
/// clears on its first wake-up — no repair-completion callback is needed.
pub(super) fn run_monitor(
    cluster: &Cluster,
    state: &HealState,
    config: &HealConfig,
    stop: &AtomicBool,
) {
    let threshold_micros = u64::try_from(config.beat_interval.as_micros())
        .unwrap_or(u64::MAX)
        .saturating_mul(u64::from(config.suspicion_intervals));
    let mut trace = cluster.recorder().handle();
    let mut suspected: HashSet<(RepairLayer, usize)> = HashSet::new();
    let params = cluster.params();
    while !stop.load(Ordering::Relaxed) {
        let now = cluster.now_micros();
        let servers = (0..params.n1())
            .map(|j| (RepairLayer::L1, j))
            .chain((0..params.n2()).map(|i| (RepairLayer::L2, i)));
        for (layer, index) in servers {
            let pid = cluster.server_pid(layer, index);
            // On a multi-daemon deployment each daemon monitors
            // only the servers it hosts; peers monitor theirs.
            if !cluster.hosts_server(pid) {
                continue;
            }
            cluster.ping_server(pid);
            let age = now.saturating_sub(cluster.beat_micros(pid));
            let suspect = age > threshold_micros;
            state.set_suspected(pid, suspect);
            let l = matches!(layer, RepairLayer::L2) as u64;
            if suspect && suspected.insert((layer, index)) {
                trace.record(EventKind::HealSuspect, l, index as u64, 0);
            } else if !suspect && suspected.remove(&(layer, index)) {
                trace.record(EventKind::HealClear, l, index as u64, 0);
            }
        }
        std::thread::sleep(config.beat_interval);
    }
}
