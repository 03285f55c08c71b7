//! Operation histories and atomicity checking.
//!
//! The paper proves atomicity (Theorem IV.9) via the sufficient condition of
//! Lemma 13.16 of Lynch's *Distributed Algorithms*: a partial order `≺` on
//! operations such that
//!
//! * **P1** `≺` never contradicts the real-time order of non-overlapping
//!   operations,
//! * **P2** every operation is ordered with respect to all writes, and
//! * **P3** every read returns the value of the last preceding write (or the
//!   initial value).
//!
//! [`History::check_atomicity`] verifies exactly these conditions using the
//! tags the protocol assigns to operations. For additional confidence that
//! does not trust protocol tags, [`History::check_linearizable_search`]
//! performs an explicit linearization search (exponential in the worst case,
//! intended for the small histories used in tests).

use crate::idmap::IdMap;
use crate::process::SimTime;
use crate::tag::{ObjectId, OpId, Tag};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Whether an operation is a write or a read, along with its value.
#[derive(Debug, Clone, PartialEq)]
pub enum OperationKind {
    /// A write of the contained value.
    Write(Value),
    /// A read that returned the contained value.
    Read(Value),
}

/// One completed client operation.
#[derive(Debug, Clone)]
pub struct Operation {
    /// Operation id (unique per client operation).
    pub op: OpId,
    /// Object the operation acted on.
    pub obj: ObjectId,
    /// Write or read, with the associated value.
    pub kind: OperationKind,
    /// Invocation time.
    pub invoked_at: SimTime,
    /// Response time.
    pub completed_at: SimTime,
    /// The tag the protocol associated with the operation.
    pub tag: Tag,
}

impl Operation {
    /// Whether the operation is a write.
    pub fn is_write(&self) -> bool {
        matches!(self.kind, OperationKind::Write(_))
    }

    /// The operation's value (written or returned).
    pub fn value(&self) -> &Value {
        match &self.kind {
            OperationKind::Write(v) | OperationKind::Read(v) => v,
        }
    }

    /// Whether `self` finished before `other` was invoked (real-time order).
    pub fn precedes(&self, other: &Operation) -> bool {
        self.completed_at < other.invoked_at
    }
}

/// A violation of atomicity found by a checker.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicityViolation {
    /// A read returned a value that no write (and not the initial value)
    /// produced.
    UnknownValue {
        /// The offending read.
        read: OpId,
    },
    /// Two distinct writes carry the same tag.
    DuplicateWriteTag {
        /// First write.
        first: OpId,
        /// Second write.
        second: OpId,
        /// The shared tag.
        tag: Tag,
    },
    /// A read's tag does not match the tag of the write whose value it
    /// returned.
    TagValueMismatch {
        /// The offending read.
        read: OpId,
    },
    /// The tag order contradicts the real-time order: `earlier` completed
    /// before `later` was invoked, yet `later ≺ earlier`.
    RealTimeViolation {
        /// The operation that finished first.
        earlier: OpId,
        /// The operation invoked after `earlier` completed.
        later: OpId,
    },
    /// The linearization search exhausted all interleavings without finding a
    /// witness.
    NoLinearization,
}

impl fmt::Display for AtomicityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomicityViolation::UnknownValue { read } => {
                write!(f, "read {read} returned a value no write produced")
            }
            AtomicityViolation::DuplicateWriteTag { first, second, tag } => {
                write!(f, "writes {first} and {second} share tag {tag}")
            }
            AtomicityViolation::TagValueMismatch { read } => {
                write!(f, "read {read} returned a value inconsistent with its tag")
            }
            AtomicityViolation::RealTimeViolation { earlier, later } => {
                write!(f, "operation {later} is ordered before {earlier} despite starting after it completed")
            }
            AtomicityViolation::NoLinearization => write!(f, "no valid linearization exists"),
        }
    }
}

/// A per-object history of completed operations.
#[derive(Debug, Clone, Default)]
pub struct History {
    operations: Vec<Operation>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Adds a completed operation.
    pub fn record(&mut self, op: Operation) {
        self.operations.push(op);
    }

    /// All recorded operations.
    pub fn operations(&self) -> &[Operation] {
        &self.operations
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// The set of objects appearing in the history.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.by_object().into_keys().collect()
    }

    /// Checks atomicity using the protocol tags (the paper's Lemma 13.16
    /// conditions), per object, in O(n log n).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_atomicity(&self) -> Result<(), AtomicityViolation> {
        for ops in self.by_object().values() {
            Self::check_atomicity_single_object(ops)?;
        }
        Ok(())
    }

    /// The operations split by object in one pass: objects ascending, each
    /// object's operations in recorded order.
    fn by_object(&self) -> BTreeMap<ObjectId, Vec<&Operation>> {
        let mut split: BTreeMap<ObjectId, Vec<&Operation>> = BTreeMap::new();
        for op in &self.operations {
            split.entry(op.obj).or_default().push(op);
        }
        split
    }

    fn check_atomicity_single_object(ops: &[&Operation]) -> Result<(), AtomicityViolation> {
        // P3 ingredients: map write tags to values; detect duplicates.
        let mut writes_by_tag: IdMap<Tag, (OpId, &Value)> = IdMap::default();
        for op in ops.iter().filter(|o| o.is_write()) {
            if let Some((first, _)) = writes_by_tag.get(&op.tag) {
                return Err(AtomicityViolation::DuplicateWriteTag {
                    first: *first,
                    second: op.op,
                    tag: op.tag,
                });
            }
            writes_by_tag.insert(op.tag, (op.op, op.value()));
        }

        // Every read's (tag, value) must match a write or the initial value.
        for op in ops.iter().filter(|o| !o.is_write()) {
            if op.tag.is_initial() {
                if !op.value().is_empty() {
                    return Err(AtomicityViolation::UnknownValue { read: op.op });
                }
                continue;
            }
            match writes_by_tag.get(&op.tag) {
                None => return Err(AtomicityViolation::UnknownValue { read: op.op }),
                Some((_, v)) if *v != op.value() => {
                    return Err(AtomicityViolation::TagValueMismatch { read: op.op })
                }
                Some(_) => {}
            }
        }

        // P1: the partial order induced by tags must not contradict real
        // time: no `a` that completed before `b` was invoked has `b ≺ a`.
        // Sorted by response, the operations that completed before `b` are
        // a prefix (binary search), so `b` meets only its largest key.
        let mut by_response = ops.to_vec();
        by_response.sort_unstable_by_key(|o| o.completed_at);
        // `prefix_max[i]`: an operation of largest key in `by_response[..=i]`.
        let mut prefix_max: Vec<&Operation> = Vec::with_capacity(by_response.len());
        for &op in &by_response {
            let last = prefix_max.last().copied();
            prefix_max.push(
                last.filter(|&max| order_key(max) >= order_key(op))
                    .unwrap_or(op),
            );
        }
        for &b in ops {
            let before = by_response.partition_point(|a| a.completed_at < b.invoked_at);
            if let Some(&a) = prefix_max[..before].last() {
                if order_key(b) < order_key(a) {
                    return Err(AtomicityViolation::RealTimeViolation {
                        earlier: a.op,
                        later: b.op,
                    });
                }
            }
        }
        Ok(())
    }

    /// Explicit linearization search that does not trust protocol tags: looks
    /// for a total order of operations that respects real time and register
    /// semantics. Exponential in the worst case — use on small histories.
    ///
    /// # Errors
    ///
    /// Returns [`AtomicityViolation::NoLinearization`] if no witness exists,
    /// or [`AtomicityViolation::UnknownValue`] if a read returned a value
    /// that was never written.
    pub fn check_linearizable_search(&self) -> Result<(), AtomicityViolation> {
        for ops in self.by_object().values() {
            Self::search_single_object(ops)?;
        }
        Ok(())
    }

    fn search_single_object(ops: &[&Operation]) -> Result<(), AtomicityViolation> {
        let n = ops.len();
        // Values must be attributable.
        let written: HashSet<&[u8]> = ops
            .iter()
            .filter(|o| o.is_write())
            .map(|o| o.value().as_bytes())
            .collect();
        for o in ops.iter().filter(|o| !o.is_write()) {
            if !o.value().is_empty() && !written.contains(o.value().as_bytes()) {
                return Err(AtomicityViolation::UnknownValue { read: o.op });
            }
        }

        // Depth-first search over linear extensions of the real-time partial
        // order, tracking the register contents; memoise on (done-set, last
        // written value index).
        let mut memo: HashSet<(Vec<bool>, usize)> = HashSet::new();
        // `usize::MAX` represents the initial value.
        fn dfs(
            ops: &[&Operation],
            done: &mut Vec<bool>,
            last_written: usize,
            memo: &mut HashSet<(Vec<bool>, usize)>,
        ) -> bool {
            if done.iter().all(|&d| d) {
                return true;
            }
            if !memo.insert((done.clone(), last_written)) {
                return false;
            }
            for i in 0..ops.len() {
                if done[i] {
                    continue;
                }
                // Respect real time: cannot linearise `i` if some not-yet-done
                // operation completed before `i` was invoked.
                let blocked = (0..ops.len())
                    .any(|j| !done[j] && j != i && ops[j].completed_at < ops[i].invoked_at);
                if blocked {
                    continue;
                }
                let next_written = if ops[i].is_write() {
                    i
                } else {
                    let current: &[u8] = if last_written == usize::MAX {
                        &[]
                    } else {
                        ops[last_written].value().as_bytes()
                    };
                    if ops[i].value().as_bytes() != current {
                        continue;
                    }
                    last_written
                };
                done[i] = true;
                if dfs(ops, done, next_written, memo) {
                    done[i] = false;
                    return true;
                }
                done[i] = false;
            }
            false
        }

        let mut done = vec![false; n];
        if dfs(ops, &mut done, usize::MAX, &mut memo) {
            Ok(())
        } else {
            Err(AtomicityViolation::NoLinearization)
        }
    }

    /// Convenience constructor used by harnesses: builds a history from
    /// completion events plus their completion times.
    pub fn from_events<I>(events: I) -> Self
    where
        I: IntoIterator<Item = (crate::messages::ProtocolEvent, SimTime)>,
    {
        let mut history = History::new();
        for (event, completed_at) in events {
            let op = match event {
                crate::messages::ProtocolEvent::WriteCompleted {
                    op,
                    obj,
                    tag,
                    value,
                    invoked_at,
                } => Operation {
                    op,
                    obj,
                    kind: OperationKind::Write(value),
                    invoked_at,
                    completed_at,
                    tag,
                },
                crate::messages::ProtocolEvent::ReadCompleted {
                    op,
                    obj,
                    tag,
                    value,
                    invoked_at,
                } => Operation {
                    op,
                    obj,
                    kind: OperationKind::Read(value),
                    invoked_at,
                    completed_at,
                    tag,
                },
            };
            history.record(op);
        }
        history
    }

    /// Per-client operation counts, useful for workload sanity checks.
    pub fn ops_per_client(&self) -> HashMap<crate::tag::ClientId, usize> {
        let mut map = HashMap::new();
        for op in &self.operations {
            *map.entry(op.op.client).or_insert(0) += 1;
        }
        map
    }
}

/// Where `≺` places an operation: `π ≺ φ` iff `order_key(π) <
/// order_key(φ)` — a smaller tag, or the same tag with `π` a write and `φ`
/// a read.
fn order_key(op: &Operation) -> (Tag, bool) {
    (op.tag, !op.is_write())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ClientId;

    fn write(op_seq: u64, client: u64, tag: Tag, value: &str, t0: f64, t1: f64) -> Operation {
        Operation {
            op: OpId::new(ClientId(client), op_seq),
            obj: ObjectId(0),
            kind: OperationKind::Write(Value::from(value)),
            invoked_at: SimTime::new(t0),
            completed_at: SimTime::new(t1),
            tag,
        }
    }

    fn read(op_seq: u64, client: u64, tag: Tag, value: &str, t0: f64, t1: f64) -> Operation {
        Operation {
            op: OpId::new(ClientId(client), op_seq),
            obj: ObjectId(0),
            kind: OperationKind::Read(Value::from(value)),
            invoked_at: SimTime::new(t0),
            completed_at: SimTime::new(t1),
            tag,
        }
    }

    #[test]
    fn sequential_history_is_atomic() {
        let mut h = History::new();
        let t1 = Tag::new(1, ClientId(1));
        let t2 = Tag::new(2, ClientId(1));
        h.record(write(0, 1, t1, "a", 0.0, 1.0));
        h.record(read(0, 2, t1, "a", 2.0, 3.0));
        h.record(write(1, 1, t2, "b", 4.0, 5.0));
        h.record(read(1, 2, t2, "b", 6.0, 7.0));
        assert!(h.check_atomicity().is_ok());
        assert!(h.check_linearizable_search().is_ok());
        assert_eq!(h.len(), 4);
        assert_eq!(h.ops_per_client()[&ClientId(2)], 2);
    }

    #[test]
    fn stale_read_after_write_completion_is_detected() {
        // Write (tag 2) completes, then a read starts and returns tag 1's
        // value: a classic atomicity violation.
        let mut h = History::new();
        let t1 = Tag::new(1, ClientId(1));
        let t2 = Tag::new(2, ClientId(1));
        h.record(write(0, 1, t1, "a", 0.0, 1.0));
        h.record(write(1, 1, t2, "b", 2.0, 3.0));
        h.record(read(0, 2, t1, "a", 4.0, 5.0));
        assert!(matches!(
            h.check_atomicity(),
            Err(AtomicityViolation::RealTimeViolation { .. })
        ));
        assert!(matches!(
            h.check_linearizable_search(),
            Err(AtomicityViolation::NoLinearization)
        ));
    }

    #[test]
    fn concurrent_reads_may_return_old_or_new() {
        // A read concurrent with a write may return either value.
        let t1 = Tag::new(1, ClientId(1));
        for (tag, value) in [(Tag::initial(), ""), (t1, "new")] {
            let mut h = History::new();
            h.record(write(0, 1, t1, "new", 0.0, 10.0));
            h.record(read(0, 2, tag, value, 1.0, 2.0));
            assert!(
                h.check_atomicity().is_ok(),
                "value {value:?} should be allowed"
            );
            assert!(h.check_linearizable_search().is_ok());
        }
    }

    #[test]
    fn read_of_unknown_value_is_detected() {
        let mut h = History::new();
        h.record(write(0, 1, Tag::new(1, ClientId(1)), "a", 0.0, 1.0));
        h.record(read(0, 2, Tag::new(7, ClientId(9)), "ghost", 2.0, 3.0));
        assert!(matches!(
            h.check_atomicity(),
            Err(AtomicityViolation::UnknownValue { .. })
        ));
        assert!(matches!(
            h.check_linearizable_search(),
            Err(AtomicityViolation::UnknownValue { .. })
        ));
    }

    #[test]
    fn tag_value_mismatch_is_detected() {
        let mut h = History::new();
        let t1 = Tag::new(1, ClientId(1));
        h.record(write(0, 1, t1, "a", 0.0, 1.0));
        h.record(read(0, 2, t1, "b", 2.0, 3.0));
        // The tag checker flags the mismatch...
        assert!(matches!(
            h.check_atomicity(),
            Err(AtomicityViolation::TagValueMismatch { .. })
        ));
        // ...and the search cannot attribute the value either.
        assert!(h.check_linearizable_search().is_err());
    }

    #[test]
    fn duplicate_write_tags_are_detected() {
        let mut h = History::new();
        let t = Tag::new(3, ClientId(1));
        h.record(write(0, 1, t, "a", 0.0, 1.0));
        h.record(write(0, 2, t, "b", 2.0, 3.0));
        assert!(matches!(
            h.check_atomicity(),
            Err(AtomicityViolation::DuplicateWriteTag { .. })
        ));
    }

    #[test]
    fn reads_of_initial_value_are_allowed_before_any_write() {
        let mut h = History::new();
        h.record(read(0, 2, Tag::initial(), "", 0.0, 1.0));
        assert!(h.check_atomicity().is_ok());
        assert!(h.check_linearizable_search().is_ok());
    }

    #[test]
    fn new_old_inversion_between_reads_is_detected_by_tags() {
        // Read R1 returns the new value and completes; R2 starts afterwards
        // and returns the old value — forbidden by atomicity.
        let mut h = History::new();
        let t1 = Tag::new(1, ClientId(1));
        let t2 = Tag::new(2, ClientId(1));
        h.record(write(0, 1, t1, "old", 0.0, 1.0));
        h.record(write(1, 1, t2, "new", 2.0, 20.0)); // still running
        h.record(read(0, 2, t2, "new", 3.0, 4.0));
        h.record(read(1, 3, t1, "old", 5.0, 6.0));
        assert!(matches!(
            h.check_atomicity(),
            Err(AtomicityViolation::RealTimeViolation { .. })
        ));
        assert!(matches!(
            h.check_linearizable_search(),
            Err(AtomicityViolation::NoLinearization)
        ));
    }

    #[test]
    fn per_object_histories_are_independent() {
        let mut h = History::new();
        let t1 = Tag::new(1, ClientId(1));
        let mut w1 = write(0, 1, t1, "a", 0.0, 1.0);
        w1.obj = ObjectId(1);
        let mut r1 = read(0, 2, t1, "a", 2.0, 3.0);
        r1.obj = ObjectId(1);
        // Object 2 only ever sees the initial value.
        let mut r2 = read(1, 2, Tag::initial(), "", 4.0, 5.0);
        r2.obj = ObjectId(2);
        h.record(w1);
        h.record(r1);
        h.record(r2);
        assert_eq!(h.objects(), vec![ObjectId(1), ObjectId(2)]);
        assert!(h.check_atomicity().is_ok());
    }

    /// Random two-object histories whose tags and values are consistent
    /// (so P1 decides), on integer instants 0..6 so that responses and
    /// invocations tie often: the sweep agrees on every verdict with the
    /// O(n²) pairwise check it replaced, and a reported pair is a violation.
    #[test]
    fn the_sweep_agrees_with_the_pairwise_reference() {
        let violates = |a: &Operation, b: &Operation| {
            a.obj == b.obj
                && a.precedes(b)
                && (b.tag < a.tag || (b.tag == a.tag && b.is_write() && !a.is_write()))
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut atomic, mut violated) = (0, 0);
        for _ in 0..20_000 {
            let mut ops: Vec<Operation> = Vec::new();
            let mut writes: Vec<(ObjectId, Tag)> = Vec::new();
            for seq in 0..1 + next(10) {
                let obj = ObjectId(next(2));
                let t0 = next(6) as f64;
                let t1 = t0 + next(3) as f64;
                let op = if next(2) == 0 {
                    let tag = Tag::new(1 + next(4), ClientId(1 + next(3)));
                    if writes.contains(&(obj, tag)) {
                        continue;
                    }
                    writes.push((obj, tag));
                    write(seq, 1, tag, &tag.to_string(), t0, t1)
                } else {
                    let mut seen = vec![Tag::initial()];
                    seen.extend(writes.iter().filter(|w| w.0 == obj).map(|w| w.1));
                    let tag = seen[next(seen.len() as u64) as usize];
                    let value = if tag.is_initial() {
                        String::new()
                    } else {
                        tag.to_string()
                    };
                    read(seq, 2, tag, &value, t0, t1)
                };
                ops.push(Operation { obj, ..op });
            }
            let pairwise = ops.iter().any(|a| ops.iter().any(|b| violates(a, b)));
            let find = |id| ops.iter().find(|o| o.op == id).unwrap();
            match (History {
                operations: ops.clone(),
            })
            .check_atomicity()
            {
                Ok(()) if !pairwise => atomic += 1,
                Err(AtomicityViolation::RealTimeViolation { earlier, later }) if pairwise => {
                    assert!(violates(find(earlier), find(later)));
                    violated += 1;
                }
                sweep => panic!("sweep {sweep:?}, pairwise {pairwise} on {ops:?}"),
            }
        }
        assert!(atomic > 1_000 && violated > 1_000, "{atomic} / {violated}");
    }

    #[test]
    fn violation_messages_are_informative() {
        let v = AtomicityViolation::UnknownValue {
            read: OpId::new(ClientId(1), 0),
        };
        assert!(v.to_string().contains("read"));
        assert!(AtomicityViolation::NoLinearization
            .to_string()
            .contains("linearization"));
    }
}
