//! Online node repair & rejoin: regenerate a crashed server while the
//! cluster keeps serving traffic, restoring the failure budget.
//!
//! # Protocol
//!
//! The coordinator (the thread calling
//! [`Admin::repair`](crate::api::Admin::repair), or the self-healing
//! supervisor) drives the handover:
//!
//! 1. **Wait** for the dead server's shard tasks to finish on their
//!    executor workers. Every one of them deregisters the process id as it
//!    finishes, so all stale routing state is retired before the
//!    replacement appears.
//! 2. **Rejoin**: a fresh automaton in *rebuilding mode* re-registers under
//!    the same process id — an epoch-bumped inbox swap, so router handles
//!    whose snapshot predates the crash drop their sends (disconnected old
//!    channels) and pick up the new inboxes on their next epoch check.
//!    From this moment the replacement absorbs the live write stream, which
//!    is how writes in flight during the repair catch it up.
//! 3. **Help**: every live peer receives a [`LdsMessage::RepairHelp`]
//!    (fanned out to each of its worker shards) and streams one
//!    [`LdsMessage::RepairShare`] per object to the replacement — `β`-sized
//!    MBR repair symbols from L2 helpers (full elements on the
//!    decode-and-re-encode backends), metadata snapshots from L1 peers —
//!    terminated by a [`LdsMessage::RepairDone`] marker.
//! 4. **Go live**: once every helper shard's marker has arrived, each
//!    replacement shard regenerates its objects at the highest
//!    repair-quorum tag (covering every completed `write-to-L2` /
//!    acknowledged write), merges tag-wise with what the live stream
//!    already delivered, reports its bandwidth accounting to the
//!    coordinator, and starts answering queries. Until then it answers
//!    none — for failure-budget purposes it is still crashed.
//!
//! The coordinator aggregates the per-shard reports into a
//! [`RepairReport`], whose per-helper byte counts are what
//! `exp_paper` records into `BENCH_REPAIR.json`.
//!
//! Repair assumes no *additional* failure strikes during the repair window
//! (the standard regenerating-code repair model); if one does, the
//! coordinator times out and returns the target to the crashed state.

use crate::node::Cluster;
use crate::router::Envelope;
use crate::sync::channel::RecvTimeoutError;
use lds_core::messages::LdsMessage;
use lds_core::tag::ObjectId;
use lds_sim::ProcessId;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Which layer a repaired server belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairLayer {
    /// Edge layer (metadata reconstruction from peers).
    L1,
    /// Back-end layer (coded-element regeneration from helpers).
    L2,
}

impl fmt::Display for RepairLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairLayer::L1 => f.write_str("L1"),
            RepairLayer::L2 => f.write_str("L2"),
        }
    }
}

/// Outcome of a successful online repair, including the bandwidth
/// accounting that backs `BENCH_REPAIR.json`.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The repaired layer.
    pub layer: RepairLayer,
    /// The repaired server's layer index.
    pub index: usize,
    /// Objects the replacement restored from helper payloads.
    pub objects: u64,
    /// Repair payload bytes received per helper (by the helper's layer
    /// index), summed over the replacement's worker shards.
    pub helper_bytes: Vec<(usize, u64)>,
    /// Total repair payload bytes moved.
    pub bytes_total: u64,
    /// Bytes the same repair — same helpers participating — would have
    /// moved had each shipped its full stored element (the
    /// decode-and-re-encode fallback). For L1 metadata reconstruction there
    /// is no coded shortcut, so this equals [`RepairReport::bytes_total`].
    pub fallback_bytes: u64,
    /// Live helpers that contributed.
    pub helpers: usize,
    /// Wall-clock duration of the repair (join → replacement live).
    pub elapsed: Duration,
}

impl RepairReport {
    /// Average repair bytes moved per restored object.
    pub fn bytes_per_object(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.bytes_total as f64 / self.objects as f64
        }
    }

    /// Measured repair traffic as a fraction of the full-element fallback
    /// (`1.0` = no saving; an L2 repair achieves exactly `β/α`, `1/α` for
    /// MBR: `lds_core::costs::CodeCosts::l2_repair_ratio`).
    pub fn bandwidth_ratio(&self) -> f64 {
        if self.fallback_bytes == 0 {
            1.0
        } else {
            self.bytes_total as f64 / self.fallback_bytes as f64
        }
    }
}

/// Why an online repair could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// The target server is live — there is nothing to repair.
    NotCrashed,
    /// Another coordinator is already repairing this server.
    RepairInProgress,
    /// Too few live peers to cover the regeneration (`needed` of `live`).
    TooFewHelpers {
        /// Helpers the backend's repair threshold requires.
        needed: usize,
        /// Live peers available.
        live: usize,
    },
    /// The repair did not complete in time (e.g. a helper crashed during
    /// the repair window); the target was returned to the crashed state.
    Timeout,
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::NotCrashed => write!(f, "server is not crashed"),
            RepairError::RepairInProgress => {
                write!(f, "another repair of this server is already in progress")
            }
            RepairError::TooFewHelpers { needed, live } => {
                write!(
                    f,
                    "repair needs {needed} live helpers, only {live} available"
                )
            }
            RepairError::Timeout => write!(f, "repair timed out"),
        }
    }
}

impl std::error::Error for RepairError {}

/// Exclusive claim on repairing one server: exactly one coordinator may
/// drive a given pid's repair at a time (a second concurrent `repair_*`
/// would re-register the pid and orphan the first replacement's inboxes).
/// Released on drop, so every early-error path gives the claim back.
///
/// The claim is taken **before** the crashed-check: only a claim holder
/// ever clears the killed state, so re-reading it after the claim is
/// authoritative — a racer that loses the claim and retries after the
/// winner finished sees the server live and backs off, instead of
/// "repairing" (and wedging on the running tasks of) a healthy server.
struct RepairClaim<'a> {
    cluster: &'a Cluster,
    pid: ProcessId,
    /// The pid's kill generation observed at claim time. The final
    /// budget-restoring removal only applies if no *new* kill arrived
    /// during the repair window.
    kill_generation: u64,
}

impl<'a> RepairClaim<'a> {
    fn acquire(cluster: &'a Cluster, pid: ProcessId) -> Result<Self, RepairError> {
        if !cluster.repairing_set().lock().insert(pid) {
            return Err(RepairError::RepairInProgress);
        }
        let mut claim = RepairClaim {
            cluster,
            pid,
            kill_generation: 0,
        };
        let Some(generation) = cluster.killed_set().lock().get(&pid).copied() else {
            return Err(RepairError::NotCrashed); // claim released by drop
        };
        claim.kill_generation = generation;
        Ok(claim)
    }

    /// Marks the repair successful: the server's killed state is cleared —
    /// unless it was killed *again* while the repair ran, in which case the
    /// newer kill wins and the server stays crashed.
    fn restore_budget(&self) {
        let mut killed = self.cluster.killed_set().lock();
        if killed.get(&self.pid) == Some(&self.kill_generation) {
            killed.remove(&self.pid);
        }
    }
}

impl Drop for RepairClaim<'_> {
    fn drop(&mut self) {
        self.cluster.repairing_set().lock().remove(&self.pid);
    }
}

/// Drives one online repair end to end (see the [module docs](self)).
/// `timeout` bounds how long the coordinator waits for the replacement to
/// report completion (from [`crate::ClusterOptions::repair_timeout`], or a
/// per-call override via [`crate::api::Admin::repair_with_timeout`]).
pub(crate) fn repair_server(
    cluster: &Cluster,
    layer: RepairLayer,
    index: usize,
    timeout: Duration,
) -> Result<RepairReport, RepairError> {
    let membership = cluster.membership().clone();
    let (pid, peers, shards) = match layer {
        RepairLayer::L1 => (
            membership.l1[index],
            membership.l1.clone(),
            cluster.options().l1_shards,
        ),
        RepairLayer::L2 => (
            membership.l2[index],
            membership.l2.clone(),
            cluster.options().l2_shards,
        ),
    };
    let _claim = RepairClaim::acquire(cluster, pid)?;
    let started = Instant::now();

    // 1. Wait for the dead server's shard tasks to finish: every deregister
    //    completes before the replacement re-registers the pid.
    cluster.await_server_exit(pid);

    // 2. Determine the live helper set.
    let helpers: Vec<ProcessId> = {
        let killed = cluster.killed_set().lock();
        peers
            .iter()
            .copied()
            .filter(|p| *p != pid && !killed.contains_key(p))
            .collect()
    };
    let needed = match layer {
        RepairLayer::L1 => 1,
        RepairLayer::L2 => cluster.backend().repair_threshold(),
    };
    if helpers.len() < needed {
        return Err(RepairError::TooFewHelpers {
            needed,
            live: helpers.len(),
        });
    }
    if layer == RepairLayer::L2 {
        // Pay the one-time repair-plan inversion for the canonical helper
        // subset (lowest-indexed live helpers — the set the replacement's
        // deterministic finalization will pick) before payloads stream.
        let mut canonical: Vec<usize> = helpers
            .iter()
            .filter_map(|&p| membership.l2_index_of(p))
            .collect();
        canonical.sort_unstable();
        canonical.truncate(needed);
        let _ = cluster.backend().prepare_l2_repair(index, &canonical);
    }

    // 3. Rejoin: the replacement must be registered before any helper
    //    starts streaming, or early shares would be dropped.
    let coordinator = cluster.alloc_aux_pid();
    let inbox = cluster.router().register(coordinator);
    let expected_dones = helpers.len() * shards;
    cluster.install_server(layer, index, Some((expected_dones, coordinator)));

    // 4. Ask every live peer for help (fan-out to each of its shards).
    let help = LdsMessage::RepairHelp {
        obj: ObjectId(0),
        failed: pid,
    };
    let mut handle = cluster.router().handle();
    handle.send_batch(coordinator, helpers.iter().map(|&h| (h, help.clone())));
    handle.flush();

    // 5. Await one completion report per replacement shard.
    let deadline = Instant::now().checked_add(timeout);
    let mut reports = 0usize;
    let mut objects = 0u64;
    let mut fallback_bytes = 0u64;
    let mut by_helper: BTreeMap<ProcessId, u64> = BTreeMap::new();
    'wait: while reports < shards {
        let remaining = deadline.map_or(Some(Duration::MAX), |d| {
            d.checked_duration_since(Instant::now())
        });
        let Some(remaining) = remaining else {
            break 'wait;
        };
        let envelope = match inbox.rx.recv_timeout(remaining) {
            Ok(envelope) => envelope,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break 'wait,
        };
        match envelope {
            Envelope::Protocol { from, msg } => {
                inbox.depth.sub(1);
                if from != pid {
                    continue;
                }
                if let LdsMessage::RepairDone {
                    objects: restored,
                    bytes_by_helper,
                    fallback_bytes: fallback,
                    ..
                } = msg
                {
                    reports += 1;
                    objects += restored;
                    fallback_bytes += fallback;
                    for (helper, bytes) in bytes_by_helper {
                        *by_helper.entry(helper).or_insert(0) += bytes;
                    }
                }
            }
            Envelope::Stop => break 'wait,
            // Heartbeat probes are not addressed to coordinators, but the
            // aux pid namespace is shared — ignore them defensively.
            Envelope::Ping => {}
        }
    }
    cluster.router().deregister(coordinator);

    if reports < shards {
        // The repair stalled (e.g. a helper died mid-stream): return the
        // target to the crashed state so the caller can retry later.
        cluster.router().send_stop(pid);
        cluster.await_server_exit(pid);
        return Err(RepairError::Timeout);
    }

    // 6. The replacement is live: restore the failure budget (unless a new
    //    kill arrived during the repair window — then the kill wins).
    _claim.restore_budget();

    let helper_bytes: Vec<(usize, u64)> = by_helper
        .into_iter()
        .filter_map(|(p, bytes)| {
            let idx = match layer {
                RepairLayer::L1 => membership.l1_index_of(p),
                RepairLayer::L2 => membership.l2_index_of(p),
            };
            idx.map(|i| (i, bytes))
        })
        .collect();
    let bytes_total = helper_bytes.iter().map(|(_, b)| b).sum();
    Ok(RepairReport {
        layer,
        index,
        objects,
        helper_bytes,
        bytes_total,
        fallback_bytes,
        helpers: helpers.len(),
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ratios() {
        let report = RepairReport {
            layer: RepairLayer::L2,
            index: 1,
            objects: 4,
            helper_bytes: vec![(0, 60), (2, 60)],
            bytes_total: 120,
            fallback_bytes: 600,
            helpers: 2,
            elapsed: Duration::from_millis(5),
        };
        assert_eq!(report.bytes_per_object(), 30.0);
        assert!((report.bandwidth_ratio() - 0.2).abs() < 1e-9);
        assert_eq!(RepairLayer::L2.to_string(), "L2");
        assert!(RepairError::Timeout.to_string().contains("timed out"));
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = RepairReport {
            layer: RepairLayer::L1,
            index: 0,
            objects: 0,
            helper_bytes: Vec::new(),
            bytes_total: 0,
            fallback_bytes: 0,
            helpers: 3,
            elapsed: Duration::ZERO,
        };
        assert_eq!(report.bytes_per_object(), 0.0);
        assert_eq!(report.bandwidth_ratio(), 1.0);
    }
}
