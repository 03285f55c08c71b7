//! Seeded chaos schedules for crash-injection harnesses.
//!
//! A [`ChaosSchedule`] is a deterministic, seeded stream of *kill events*
//! against a two-layer deployment: each event names a layer and a server
//! index, spaced by a jittered gap. The schedule is **budget-aware** — given
//! the set of servers currently down it never proposes a kill that would
//! exceed a layer's crash-fault budget (`f1` L1 / `f2` L2), so a
//! harness driving it against a live cluster keeps every kill inside the
//! envelope the protocol tolerates, no matter how slowly repairs catch up.
//!
//! The schedule is pure bookkeeping over a [`rand::rngs::SmallRng`]: it knows
//! nothing about the cluster crates, so the same schedule can drive the
//! in-process cluster runtime, the simulator, or a future networked
//! deployment. The caller owns the down-set and reports it back on each
//! draw.
//!
//! ```rust
//! use lds_workload::chaos::{ChaosLayer, ChaosScheduleConfig, ChaosSchedule};
//!
//! let mut schedule = ChaosSchedule::new(ChaosScheduleConfig {
//!     seed: 7,
//!     n1: 4,
//!     f1: 1,
//!     n2: 5,
//!     f2: 1,
//!     total_kills: 10,
//!     min_gap_ms: 5,
//!     max_gap_ms: 20,
//! });
//! let mut killed = 0;
//! while let Some(kill) = schedule.next_kill(&[]) {
//!     assert!(kill.index < if kill.layer == ChaosLayer::L1 { 4 } else { 5 });
//!     killed += 1;
//! }
//! assert_eq!(killed, 10);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The layer a chaos kill targets. Mirrors the cluster runtime's repair
/// layer enum without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosLayer {
    /// The edge/metadata layer (`n1` servers, budget `f1`).
    L1,
    /// The coded back-end layer (`n2` servers, budget `f2`).
    L2,
}

/// One kill event drawn from a [`ChaosSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChaosTarget {
    /// The victim's layer.
    pub layer: ChaosLayer,
    /// The victim's index within its layer.
    pub index: usize,
    /// Jittered gap to wait before injecting this kill, in milliseconds
    /// (drawn uniformly from `[min_gap_ms, max_gap_ms]`).
    pub gap_ms: u64,
}

/// Shape of a [`ChaosSchedule`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosScheduleConfig {
    /// Seed of the deterministic RNG — the same seed replays the same
    /// schedule against the same down-set history.
    pub seed: u64,
    /// L1 servers.
    pub n1: usize,
    /// L1 crash budget: at most this many L1 servers are ever down at once.
    pub f1: usize,
    /// L2 servers.
    pub n2: usize,
    /// L2 crash budget.
    pub f2: usize,
    /// Kills the schedule emits in total before running dry.
    pub total_kills: usize,
    /// Minimum jittered gap between kills, milliseconds.
    pub min_gap_ms: u64,
    /// Maximum jittered gap between kills, milliseconds (inclusive; must be
    /// at least `min_gap_ms`).
    pub max_gap_ms: u64,
}

/// A deterministic, budget-aware stream of kill events (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct ChaosSchedule {
    config: ChaosScheduleConfig,
    rng: SmallRng,
    emitted: usize,
}

impl ChaosSchedule {
    /// Builds the schedule for `config`.
    ///
    /// # Panics
    ///
    /// Panics if a layer size or `total_kills` is zero,
    /// if a budget is zero or not below its layer size, or if
    /// `max_gap_ms < min_gap_ms` — a schedule that can never emit a legal
    /// kill is a harness bug, not a runtime condition.
    pub fn new(config: ChaosScheduleConfig) -> ChaosSchedule {
        assert!(config.total_kills > 0, "chaos schedule needs kills to emit");
        assert!(
            config.f1 > 0 && config.f1 < config.n1,
            "L1 budget must be in 1..n1"
        );
        assert!(
            config.f2 > 0 && config.f2 < config.n2,
            "L2 budget must be in 1..n2"
        );
        assert!(
            config.max_gap_ms >= config.min_gap_ms,
            "max_gap_ms must be at least min_gap_ms"
        );
        ChaosSchedule {
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            emitted: 0,
        }
    }

    /// Kills emitted so far.
    pub fn kills_emitted(&self) -> usize {
        self.emitted
    }

    /// Whether the schedule has emitted every kill it was configured for.
    pub fn is_done(&self) -> bool {
        self.emitted >= self.config.total_kills
    }

    /// Draws the next kill, given the servers currently down.
    ///
    /// Only targets whose kill keeps every layer budget intact are
    /// candidates (a server already down is never re-killed). Returns
    /// `None` — **without consuming an event** — when the schedule is done
    /// or every layer is at its budget; the harness should let repairs
    /// catch up and call again.
    pub fn next_kill(&mut self, down: &[ChaosTarget]) -> Option<ChaosTarget> {
        if self.is_done() {
            return None;
        }
        let c = &self.config;
        let mut candidates: Vec<(ChaosLayer, usize)> = Vec::new();
        for (layer, n, f) in [(ChaosLayer::L1, c.n1, c.f1), (ChaosLayer::L2, c.n2, c.f2)] {
            let down_here = || down.iter().filter(|t| t.layer == layer);
            if down_here().count() < f {
                candidates.extend(
                    (0..n)
                        .filter(|&index| !down_here().any(|t| t.index == index))
                        .map(|index| (layer, index)),
                );
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let (layer, index) = candidates[self.rng.gen_range(0..candidates.len())];
        let gap_ms = self.rng.gen_range(c.min_gap_ms..=c.max_gap_ms);
        self.emitted += 1;
        Some(ChaosTarget {
            layer,
            index,
            gap_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> ChaosScheduleConfig {
        ChaosScheduleConfig {
            seed,
            n1: 4,
            f1: 1,
            n2: 5,
            f2: 1,
            total_kills: 25,
            min_gap_ms: 1,
            max_gap_ms: 9,
        }
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let mut a = ChaosSchedule::new(config(42));
        let mut b = ChaosSchedule::new(config(42));
        for _ in 0..25 {
            assert_eq!(a.next_kill(&[]), b.next_kill(&[]));
        }
        assert!(a.is_done() && b.is_done());
        assert_eq!(a.next_kill(&[]), None);
    }

    #[test]
    fn respects_per_layer_budgets_against_a_down_set() {
        let mut schedule = ChaosSchedule::new(config(7));
        let mut down: Vec<ChaosTarget> = Vec::new();
        // Kill without ever repairing: the schedule must stop at the budget
        // (f1 + f2 = 2 here), never exceed it, and not consume events while
        // saturated.
        while let Some(kill) = schedule.next_kill(&down) {
            assert!(
                !down
                    .iter()
                    .any(|t| (t.layer, t.index) == (kill.layer, kill.index)),
                "re-killed a down server"
            );
            down.push(kill);
            for (layer, budget) in [(ChaosLayer::L1, 1), (ChaosLayer::L2, 1)] {
                let count = down.iter().filter(|t| t.layer == layer).count();
                assert!(count <= budget, "budget exceeded on {layer:?}");
            }
        }
        assert_eq!(down.len(), 2);
        assert_eq!(schedule.kills_emitted(), 2);
        assert!(!schedule.is_done());
        // Repair everything: the schedule resumes exactly where it left off.
        down.clear();
        assert!(schedule.next_kill(&down).is_some());
        assert_eq!(schedule.kills_emitted(), 3);
    }

    #[test]
    fn gaps_stay_inside_the_configured_window() {
        let mut schedule = ChaosSchedule::new(config(3));
        while let Some(kill) = schedule.next_kill(&[]) {
            assert!((1..=9).contains(&kill.gap_ms));
        }
    }

    #[test]
    fn eventually_touches_both_layers_of_every_cluster() {
        let mut schedule = ChaosSchedule::new(config(11));
        let mut seen = std::collections::HashSet::new();
        while let Some(kill) = schedule.next_kill(&[]) {
            seen.insert(kill.layer);
        }
        assert_eq!(seen.len(), 2, "25 seeded kills should cover both layers");
    }
}
