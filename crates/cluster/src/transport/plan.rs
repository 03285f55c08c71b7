//! Declarative fault plans for the [`SimTransport`](super::SimTransport).
//!
//! A [`FaultPlan`] describes a deterministic network adversary: a seed, an
//! ordered list of probabilistic [`FaultRule`]s (drop / duplicate / delay /
//! reorder, optionally restricted to message classes and link endpoints),
//! and a list of scheduled [`PartitionSpec`]s. The plan is pure data — it is
//! validated against the deployment's [`SystemParams`] when
//! [`StoreBuilder::build`](crate::api::StoreBuilder::build) runs, and
//! compiled into the store's [`SimTransport`](super::SimTransport).

use lds_core::params::SystemParams;
use std::time::Duration;

/// Every message class a [`FaultRule`] may target: the `kind()` strings of
/// the LDS wire messages plus `"PING"` for the heartbeat monitor's liveness
/// probes, in `class_index()` order. This is the protocol table's own
/// class-name array (`lds_core::messages`), re-exported — there is no second
/// list to keep in step. Rule validation rejects class names outside it, so
/// a typo like `"COMMITTAG"` fails at `build()` instead of silently matching
/// nothing.
pub use lds_core::messages::MESSAGE_CLASSES;

/// One endpoint of a cluster link, named in deployment terms rather than raw
/// process ids (which are an internal detail of the runtime's pid layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The L1 (edge/metadata) server with this index, `0..n1`.
    L1(usize),
    /// The L2 (coded back-end) server with this index, `0..n2`.
    L2(usize),
    /// Every client handle (and any other non-server process, such as the
    /// repair coordinator's auxiliary pids).
    Clients,
}

/// A probabilistic per-link fault rule.
///
/// Rules are evaluated in plan order and the **first rule whose filters
/// match a message decides its fate** — later rules never see it. Each
/// matching message draws one seeded random number; the drop, duplicate,
/// delay and reorder probabilities partition `[0, 1)` in that order, so
/// their sum must not exceed `1.0` (the remainder delivers normally).
///
/// ```rust
/// use lds_cluster::transport::FaultRule;
/// use std::time::Duration;
///
/// // Delay every COMMIT-TAG broadcast by 1–5 ms, letting data overtake
/// // the metadata that commits it.
/// let rule = FaultRule::new()
///     .classes(&["COMMIT-TAG"])
///     .delay_prob(1.0)
///     .delay_window(Duration::from_millis(1), Duration::from_millis(5));
/// # let _ = rule;
/// ```
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Message classes the rule applies to (`kind()` strings, or `"PING"`);
    /// `None` matches every class. See [`MESSAGE_CLASSES`].
    pub classes: Option<Vec<String>>,
    /// Sender endpoints the rule applies to; `None` matches any sender.
    /// Liveness pings originate outside the membership and only ever match
    /// `None` here (target them via [`FaultRule::to`] / the `"PING"` class).
    pub from: Option<Vec<Endpoint>>,
    /// Destination endpoints the rule applies to; `None` matches any.
    pub to: Option<Vec<Endpoint>>,
    /// Probability a matching message is silently dropped.
    pub drop: f64,
    /// Probability a matching message is delivered twice (the duplicate is
    /// injected immediately and may overtake the original).
    pub duplicate: f64,
    /// Probability a matching message is held for a random duration drawn
    /// from [`FaultRule::delay_range`] before delivery.
    pub delay: f64,
    /// Probability a matching message is *reordered*: held like a delay (in
    /// an asynchronous system an unequal delay **is** a reorder — later
    /// messages on the link overtake it) but counted separately, so tests
    /// can assert reordering specifically.
    pub reorder: f64,
    /// `[min, max]` window delays and reorders are drawn from.
    pub delay_range: (Duration, Duration),
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule::new()
    }
}

impl FaultRule {
    /// A rule matching every message with all fault probabilities zero.
    pub fn new() -> FaultRule {
        FaultRule {
            classes: None,
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            reorder: 0.0,
            delay_range: (Duration::ZERO, Duration::from_millis(1)),
        }
    }

    /// Restricts the rule to these message classes (see [`MESSAGE_CLASSES`]).
    pub fn classes(mut self, classes: &[&str]) -> FaultRule {
        self.classes = Some(classes.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Restricts the rule to messages *sent by* these endpoints.
    pub fn only_from(mut self, endpoints: &[Endpoint]) -> FaultRule {
        self.from = Some(endpoints.to_vec());
        self
    }

    /// Restricts the rule to messages *sent to* these endpoints.
    pub fn only_to(mut self, endpoints: &[Endpoint]) -> FaultRule {
        self.to = Some(endpoints.to_vec());
        self
    }

    /// Sets the drop probability.
    pub fn drop_prob(mut self, p: f64) -> FaultRule {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn duplicate_prob(mut self, p: f64) -> FaultRule {
        self.duplicate = p;
        self
    }

    /// Sets the delay probability.
    pub fn delay_prob(mut self, p: f64) -> FaultRule {
        self.delay = p;
        self
    }

    /// Sets the reorder probability.
    pub fn reorder_prob(mut self, p: f64) -> FaultRule {
        self.reorder = p;
        self
    }

    /// Sets the `[min, max]` window delays/reorders are drawn from.
    pub fn delay_window(mut self, min: Duration, max: Duration) -> FaultRule {
        self.delay_range = (min, max);
        self
    }

    fn validate(&self, index: usize, params: &SystemParams) -> Result<(), String> {
        for p in [self.drop, self.duplicate, self.delay, self.reorder] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!(
                    "fault rule {index}: probabilities must be in [0, 1], got {p}"
                ));
            }
        }
        let sum = self.drop + self.duplicate + self.delay + self.reorder;
        if sum > 1.0 {
            return Err(format!(
                "fault rule {index}: drop+duplicate+delay+reorder must not exceed 1.0, got {sum}"
            ));
        }
        if self.delay_range.0 > self.delay_range.1 {
            return Err(format!(
                "fault rule {index}: delay window min exceeds max ({:?} > {:?})",
                self.delay_range.0, self.delay_range.1
            ));
        }
        if let Some(classes) = &self.classes {
            if classes.is_empty() {
                return Err(format!(
                    "fault rule {index}: empty class list matches nothing"
                ));
            }
            for class in classes {
                if !MESSAGE_CLASSES.contains(&class.as_str()) {
                    return Err(format!(
                        "fault rule {index}: unknown message class {class:?}"
                    ));
                }
            }
        }
        for (side, endpoints) in [("from", &self.from), ("to", &self.to)] {
            if let Some(endpoints) = endpoints {
                if endpoints.is_empty() {
                    return Err(format!(
                        "fault rule {index}: empty {side} endpoint list matches nothing"
                    ));
                }
                validate_endpoints(endpoints, params)
                    .map_err(|e| format!("fault rule {index} ({side}): {e}"))?;
            }
        }
        Ok(())
    }
}

/// Which direction(s) of traffic crossing a partition boundary are blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionDirection {
    /// Traffic is blocked in both directions (a classic network split).
    #[default]
    Symmetric,
    /// Only traffic *into* the partitioned group is blocked — the group can
    /// still talk out (a one-way link failure).
    Inbound,
    /// Only traffic *out of* the partitioned group is blocked — the group
    /// still hears the rest of the cluster but cannot answer.
    Outbound,
}

/// A scheduled partition isolating a group of endpoints from everything
/// outside it. Traffic *within* the group, and traffic that never crosses
/// the boundary, is unaffected. Pings cross the boundary like any message,
/// so a symmetric or inbound partition makes the group's heartbeats go
/// stale — exactly as a real network split would.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// The isolated endpoints.
    pub group: Vec<Endpoint>,
    /// Which crossing directions are blocked.
    pub direction: PartitionDirection,
    /// When the partition begins, measured from cluster construction.
    pub start: Duration,
    /// When the partition heals; `None` means it never does.
    pub heal: Option<Duration>,
}

impl PartitionSpec {
    /// A symmetric partition isolating `group` from startup, never healing.
    pub fn isolate(group: &[Endpoint]) -> PartitionSpec {
        PartitionSpec {
            group: group.to_vec(),
            direction: PartitionDirection::Symmetric,
            start: Duration::ZERO,
            heal: None,
        }
    }

    /// Sets the blocked crossing direction(s).
    pub fn direction(mut self, direction: PartitionDirection) -> PartitionSpec {
        self.direction = direction;
        self
    }

    /// Schedules the partition to begin `start` after cluster construction.
    pub fn starting_at(mut self, start: Duration) -> PartitionSpec {
        self.start = start;
        self
    }

    /// Schedules the partition to heal `heal` after cluster construction.
    pub fn healing_at(mut self, heal: Duration) -> PartitionSpec {
        self.heal = Some(heal);
        self
    }

    fn validate(&self, index: usize, params: &SystemParams) -> Result<(), String> {
        if self.group.is_empty() {
            return Err(format!("partition {index}: empty group partitions nothing"));
        }
        if let Some(heal) = self.heal {
            if heal < self.start {
                return Err(format!(
                    "partition {index}: heals at {heal:?} before it starts at {:?}",
                    self.start
                ));
            }
        }
        validate_endpoints(&self.group, params).map_err(|e| format!("partition {index}: {e}"))
    }
}

fn validate_endpoints(endpoints: &[Endpoint], params: &SystemParams) -> Result<(), String> {
    for endpoint in endpoints {
        match *endpoint {
            Endpoint::L1(i) if i >= params.n1() => {
                return Err(format!("L1 index {i} out of range (n1 = {})", params.n1()));
            }
            Endpoint::L2(i) if i >= params.n2() => {
                return Err(format!("L2 index {i} out of range (n2 = {})", params.n2()));
            }
            _ => {}
        }
    }
    Ok(())
}

/// A seeded, declarative network adversary (see the [`transport`](crate::transport) module docs).
///
/// ```rust
/// use lds_cluster::transport::{Endpoint, FaultPlan, FaultRule, PartitionSpec};
/// use std::time::Duration;
///
/// let plan = FaultPlan::seeded(0xC4A0_5EED)
///     .rule(
///         FaultRule::new()
///             .classes(&["PUT-DATA", "WRITE-CODE-ELEM"])
///             .duplicate_prob(0.3),
///     )
///     .partition(
///         PartitionSpec::isolate(&[Endpoint::L1(0)])
///             .starting_at(Duration::from_millis(100))
///             .healing_at(Duration::from_millis(400)),
///     );
/// # let _ = plan;
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream. The same seed over the same
    /// message sequence replays the same decisions.
    pub seed: u64,
    /// Probabilistic fault rules, first match wins.
    pub rules: Vec<FaultRule>,
    /// Scheduled partitions. Partitions are checked before the rules: a
    /// message blocked by an active partition is dropped without drawing
    /// from the probabilistic stream.
    pub partitions: Vec<PartitionSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) with this seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Appends a fault rule (rules are evaluated in insertion order).
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Appends a scheduled partition.
    pub fn partition(mut self, spec: PartitionSpec) -> FaultPlan {
        self.partitions.push(spec);
        self
    }

    /// Validates the plan against the deployment's parameters: probabilities
    /// in range and summing to at most 1 per rule, known message classes,
    /// endpoint indices within `n1`/`n2`, delay windows and partition
    /// schedules ordered.
    pub fn validate(&self, params: &SystemParams) -> Result<(), String> {
        for (i, rule) in self.rules.iter().enumerate() {
            rule.validate(i, params)?;
        }
        for (i, spec) in self.partitions.iter().enumerate() {
            spec.validate(i, params)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_core::messages::LdsMessage;
    use lds_core::tag::ObjectId;
    use lds_core::DataSize;

    fn params() -> SystemParams {
        SystemParams::for_failures(1, 1, 2, 3).unwrap()
    }

    #[test]
    fn class_list_matches_the_wire_kinds() {
        // Spot-check that the validated class names really are the `kind()`
        // strings of the messages tests target most.
        assert_eq!(
            LdsMessage::InvokeRead { obj: ObjectId(0) }.kind(),
            "INVOKE-READ"
        );
        assert!(MESSAGE_CLASSES.contains(&"COMMIT-TAG"));
        assert!(MESSAGE_CLASSES.contains(&"PUT-DATA"));
        assert!(MESSAGE_CLASSES.contains(&"WRITE-CODE-ELEM"));
        assert!(MESSAGE_CLASSES.contains(&"REPAIR-SHARE"));
        assert!(MESSAGE_CLASSES.contains(&"PING"));
    }

    #[test]
    fn valid_plan_passes() {
        let plan = FaultPlan::seeded(7)
            .rule(
                FaultRule::new()
                    .classes(&["COMMIT-TAG"])
                    .delay_prob(0.5)
                    .duplicate_prob(0.25),
            )
            .partition(
                PartitionSpec::isolate(&[Endpoint::L1(0), Endpoint::L2(4)])
                    .starting_at(Duration::from_millis(10))
                    .healing_at(Duration::from_millis(20)),
            );
        assert!(plan.validate(&params()).is_ok());
    }

    #[test]
    fn probability_bounds_are_enforced() {
        let params = params();
        let over = FaultPlan::seeded(1).rule(FaultRule::new().drop_prob(1.5));
        assert!(over.validate(&params).unwrap_err().contains("[0, 1]"));
        let sum = FaultPlan::seeded(1).rule(FaultRule::new().drop_prob(0.6).delay_prob(0.6));
        assert!(sum.validate(&params).unwrap_err().contains("exceed 1.0"));
        let neg = FaultPlan::seeded(1).rule(FaultRule::new().reorder_prob(-0.1));
        assert!(neg.validate(&params).is_err());
    }

    #[test]
    fn unknown_class_and_bad_endpoints_are_rejected() {
        let params = params();
        let typo = FaultPlan::seeded(1).rule(FaultRule::new().classes(&["COMMITTAG"]));
        assert!(typo.validate(&params).unwrap_err().contains("COMMITTAG"));
        let l1 = FaultPlan::seeded(1).rule(FaultRule::new().only_to(&[Endpoint::L1(4)]));
        assert!(l1.validate(&params).unwrap_err().contains("out of range"));
        let l2 = FaultPlan::seeded(1).partition(PartitionSpec::isolate(&[Endpoint::L2(5)]));
        assert!(l2.validate(&params).unwrap_err().contains("out of range"));
        let empty = FaultPlan::seeded(1).partition(PartitionSpec::isolate(&[]));
        assert!(empty.validate(&params).is_err());
    }

    #[test]
    fn schedule_and_window_ordering_is_enforced() {
        let params = params();
        let window = FaultPlan::seeded(1).rule(
            FaultRule::new()
                .delay_prob(0.1)
                .delay_window(Duration::from_millis(5), Duration::from_millis(1)),
        );
        assert!(window.validate(&params).is_err());
        let heal = FaultPlan::seeded(1).partition(
            PartitionSpec::isolate(&[Endpoint::L1(0)])
                .starting_at(Duration::from_millis(10))
                .healing_at(Duration::from_millis(5)),
        );
        assert!(heal
            .validate(&params)
            .unwrap_err()
            .contains("before it starts"));
    }
}
