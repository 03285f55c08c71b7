//! The auto-repair supervisor thread (see the [module docs](super)).

use super::{HealConfig, HealState};
use crate::node::Cluster;
use crate::obs::EventKind;
use crate::repair::{RepairError, RepairLayer, RepairReport};
use crate::sync::channel::unbounded;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One repair target: the server's layer address.
type TargetKey = (RepairLayer, usize);

/// The layer code of the repair-lifecycle trace events (see
/// [`EventKind`]'s payload table).
fn layer_code(layer: RepairLayer) -> u64 {
    matches!(layer, RepairLayer::L2) as u64
}

/// Per-target retry state while a target keeps failing to repair.
struct Backoff {
    /// Consecutive failed attempts (drives the exponential delay).
    failures: u32,
    /// No new attempt before this instant.
    next_attempt: Instant,
}

/// Deterministic splitmix64 step — the jitter source, so a fixed
/// [`HealConfig::jitter_seed`] replays the same backoff schedule.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential backoff with jitter: `base · 2^failures` saturated at `max`,
/// then jittered uniformly into its upper half (`[d/2, d]`) so concurrent
/// supervisors do not retry in lockstep.
fn backoff_delay(config: &HealConfig, failures: u32, rng: &mut u64) -> Duration {
    let exp = failures.min(20);
    let computed = config
        .backoff_base
        .saturating_mul(1u32 << exp.min(31))
        .min(config.backoff_max);
    let half = computed / 2;
    let span = half.as_nanos() as u64 + 1;
    half + Duration::from_nanos(splitmix64(rng) % span)
}

/// Drains suspected servers into bounded, backed-off repair attempts until
/// `stop` is raised; joins every in-flight repair worker before returning.
///
/// Per scan (once per beat interval), for every suspected server that is
/// crashed by ground truth and not already being handled:
///
/// * **parked** — if the target's layer has fewer live helpers than its
///   repair quorum (more than `f` down), no attempt is made; the transition
///   is counted and the target re-checked next scan, so the supervisor
///   degrades to waiting instead of burning attempts that must fail;
/// * **backed off** — after a failed attempt the target waits out a
///   jittered exponential delay ([`backoff_delay`]); `RepairInProgress`
///   (another coordinator owns the claim) is a short fixed retry, not an
///   escalation, and `NotCrashed` (false suspicion, or the other
///   coordinator already finished) clears the target entirely;
/// * **attempted** — otherwise a worker thread drives
///   `Cluster::repair_server`, with at most
///   [`HealConfig::max_concurrent_repairs`] workers in flight.
pub(super) fn run_supervisor(
    cluster: &Arc<Cluster>,
    state: &HealState,
    config: &HealConfig,
    stop: &AtomicBool,
) {
    let (done_tx, done_rx) = unbounded::<(TargetKey, Result<RepairReport, RepairError>)>();
    let mut in_flight: HashMap<TargetKey, JoinHandle<()>> = HashMap::new();
    let mut backoffs: HashMap<TargetKey, Backoff> = HashMap::new();
    let mut parked: HashSet<TargetKey> = HashSet::new();
    let mut rng = config.jitter_seed;
    let mut trace = cluster.recorder().handle();
    let params = cluster.params();

    loop {
        // Reap finished workers first, so their slots free up this scan.
        while let Some((key, outcome)) = done_rx.try_recv() {
            if let Some(handle) = in_flight.remove(&key) {
                let _ = handle.join();
            }
            let (layer, index) = key;
            match outcome {
                Ok(_) => {
                    state.count_success();
                    trace.record(EventKind::RepairOk, layer_code(layer), index as u64, 0);
                    state.clear_backoff(layer, index);
                    backoffs.remove(&key);
                }
                // False suspicion, or a racing coordinator already repaired
                // it: nothing to heal, forget any backoff.
                Err(RepairError::NotCrashed) => {
                    state.clear_backoff(layer, index);
                    backoffs.remove(&key);
                }
                // Another coordinator holds the claim: re-check shortly
                // without escalating — its success will turn our retry into
                // `NotCrashed`.
                Err(RepairError::RepairInProgress) => {
                    let entry = backoffs.entry(key).or_insert(Backoff {
                        failures: 0,
                        next_attempt: Instant::now(),
                    });
                    entry.next_attempt = Instant::now() + config.backoff_base;
                    state.set_backoff(layer, index, config.backoff_base);
                }
                // A genuine failure (stalled repair, helpers lost
                // mid-stream): escalate the exponential backoff.
                Err(RepairError::Timeout) | Err(RepairError::TooFewHelpers { .. }) => {
                    state.count_backoff();
                    let entry = backoffs.entry(key).or_insert(Backoff {
                        failures: 0,
                        next_attempt: Instant::now(),
                    });
                    let delay = backoff_delay(config, entry.failures, &mut rng);
                    trace.record(
                        EventKind::RepairBackoff,
                        layer_code(layer),
                        index as u64,
                        delay.as_micros() as u64,
                    );
                    entry.failures += 1;
                    entry.next_attempt = Instant::now() + delay;
                    state.set_backoff(layer, index, delay);
                }
            }
        }

        if stop.load(Ordering::Relaxed) {
            break;
        }

        // Scan for suspected servers to heal.
        let servers = (0..params.n1())
            .map(|j| (RepairLayer::L1, j))
            .chain((0..params.n2()).map(|i| (RepairLayer::L2, i)));
        for key @ (layer, index) in servers {
            let pid = cluster.server_pid(layer, index);
            // Repairs are driven by the daemon hosting the server (the
            // replacement's threads must spawn in its process).
            if !cluster.hosts_server(pid) {
                continue;
            }
            if !state.is_suspected(pid) {
                continue;
            }
            if in_flight.contains_key(&key) {
                continue;
            }
            // Ground truth gate: a suspected-but-live server needs no
            // repair — the monitor clears the suspicion once beats resume
            // (e.g. after a scheduling stall).
            if cluster.server_is_live(layer, index) {
                continue;
            }
            // Degraded layer: fewer live helpers than the repair quorum
            // means every attempt must fail — park (and count the
            // transition) instead of spinning, and re-check next scan.
            if cluster.layer_live_count(layer) < cluster.repair_quorum(layer) {
                if parked.insert(key) {
                    state.count_park();
                    trace.record(EventKind::RepairPark, layer_code(layer), index as u64, 0);
                }
                continue;
            }
            parked.remove(&key);
            if let Some(backoff) = backoffs.get(&key) {
                if Instant::now() < backoff.next_attempt {
                    continue;
                }
            }
            if in_flight.len() >= config.max_concurrent_repairs {
                break;
            }
            state.count_attempt();
            trace.record(EventKind::RepairStart, layer_code(layer), index as u64, 0);
            let cluster = Arc::clone(cluster);
            let done_tx = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("lds-heal-repair-{layer}-{index}"))
                .spawn(move || {
                    let outcome = cluster.repair_server(layer, index, None);
                    let _ = done_tx.send((key, outcome));
                })
                .expect("spawn heal repair worker");
            in_flight.insert(key, handle);
        }

        std::thread::sleep(config.beat_interval);
    }

    // Drain: every in-flight repair either completes or times out (the
    // repair timeout bounds this), then its worker is joined.
    for (_, handle) in in_flight.drain() {
        let _ = handle.join();
    }
}
