//! The process contract of the paper's model (§II): the automata are
//! [`Process`]es that take atomic steps, each step handed a [`Context`] to
//! send messages on reliable asynchronous channels and emit events to its
//! driver. Every driver — the simulator in [`crate::sim`], the threaded
//! cluster runtime, unit tests — steps the same automata through it.
//!
//! Time is a [`SimTime`]: a non-negative, finite `f64` in abstract latency
//! units. The paper's bounded-latency analysis expresses everything in
//! multiples of the link delays τ0, τ1, τ2, so a unitless float is the
//! natural representation; the wrapper rejects NaN so the simulator's event
//! queue has a total order.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Identifier of a process.
///
/// The simulator assigns ids densely in spawn order. The special
/// [`ProcessId::EXTERNAL`] id denotes the driver itself, used as the source
/// of injected messages (client operation invocations).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The pseudo-process representing the outside world / harness.
    pub const EXTERNAL: ProcessId = ProcessId(usize::MAX);

    /// Returns the numeric id.
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the external pseudo-process.
    pub fn is_external(self) -> bool {
        self == ProcessId::EXTERNAL
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_external() {
            write!(f, "ext")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Size accounting for messages, mirroring the paper's cost model (§II-d):
/// only object data counts, metadata (tags, counters, ids) is free.
pub trait DataSize {
    /// Number of *data* bytes carried by the message (0 for pure metadata).
    fn data_size(&self) -> usize;
    /// A short, static label used to group metrics by message type
    /// (e.g. `"PUT-DATA"`, `"SEND-HELPER-ELEM"`).
    fn kind(&self) -> &'static str;
}

impl DataSize for () {
    fn data_size(&self) -> usize {
        0
    }
    fn kind(&self) -> &'static str {
        "unit"
    }
}

/// The interface every protocol automaton implements.
///
/// `M` is the message type, `E` the event type emitted to the driver
/// (operation completions, diagnostics, …).
pub trait Process<M, E> {
    /// Called for every delivered message. `from` is the sending process or
    /// [`ProcessId::EXTERNAL`] for harness-injected commands.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M, E>);
}

/// Execution context passed to a process while it takes a step.
///
/// Sends are buffered and released into the network when the step finishes
/// (an I/O-automaton style atomic action, as assumed by the paper's proofs).
pub struct Context<'a, M, E> {
    pub(crate) self_id: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) outgoing: &'a mut Vec<(ProcessId, M)>,
    pub(crate) events: &'a mut Vec<(SimTime, ProcessId, E)>,
}

impl<'a, M, E> Context<'a, M, E> {
    /// Creates a context whose outgoing messages and emitted events are
    /// appended to the provided buffers. Every driver — the simulator, the
    /// thread-based cluster runtime, unit tests — steps the automata with
    /// one.
    pub fn standalone(
        self_id: ProcessId,
        now: SimTime,
        outgoing: &'a mut Vec<(ProcessId, M)>,
        events: &'a mut Vec<(SimTime, ProcessId, E)>,
    ) -> Self {
        Context {
            self_id,
            now,
            outgoing,
            events,
        }
    }

    /// The id of the process taking the step.
    pub fn id(&self) -> ProcessId {
        self.self_id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` over the (reliable, asynchronous) channel.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outgoing.push((to, msg));
    }

    /// Sends the same message to every process in `targets`.
    pub fn send_all(&mut self, targets: impl IntoIterator<Item = ProcessId>, msg: M)
    where
        M: Clone,
    {
        for t in targets {
            self.send(t, msg.clone());
        }
    }

    /// Emits an event to the driver.
    pub fn emit(&mut self, event: E) {
        self.events.push((self.now, self.self_id, event));
    }
}

/// A point in simulated time.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero: the start of every execution.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN or negative.
    pub fn new(t: f64) -> Self {
        assert!(
            t.is_finite() && t >= 0.0,
            "SimTime must be finite and non-negative, got {t}"
        );
        SimTime(t)
    }

    /// The underlying float value.
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<f64> for SimTime {
    fn from(t: f64) -> Self {
        SimTime::new(t)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction guarantees the values are never NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display() {
        assert_eq!(format!("{}", ProcessId(3)), "p3");
        assert_eq!(format!("{}", ProcessId::EXTERNAL), "ext");
        assert!(ProcessId::EXTERNAL.is_external());
        assert!(!ProcessId(0).is_external());
        assert_eq!(ProcessId(7).index(), 7);
    }

    #[test]
    fn context_buffers_sends_and_events() {
        let mut outgoing = Vec::new();
        let mut events = Vec::new();
        let mut ctx: Context<'_, u32, &'static str> =
            Context::standalone(ProcessId(1), SimTime::new(2.0), &mut outgoing, &mut events);
        ctx.send(ProcessId(2), 42);
        ctx.send_all([ProcessId(3), ProcessId(4)], 7);
        ctx.emit("done");
        assert_eq!(ctx.id(), ProcessId(1));
        assert_eq!(ctx.now(), SimTime::new(2.0));
        assert_eq!(
            outgoing,
            vec![(ProcessId(2), 42), (ProcessId(3), 7), (ProcessId(4), 7)]
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].2, "done");
    }

    #[test]
    fn unit_message_data_size() {
        assert_eq!(().data_size(), 0);
        assert_eq!(().kind(), "unit");
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.5);
        assert!(a < b);
        assert_eq!(b - a, 1.5);
        assert_eq!(a + 1.5, b);
        let mut c = a;
        c += 1.5;
        assert_eq!(c, b);
        assert_eq!(SimTime::ZERO.as_f64(), 0.0);
    }

    #[test]
    fn conversion_and_display() {
        let t: SimTime = 3.25.into();
        assert_eq!(t.as_f64(), 3.25);
        assert_eq!(format!("{t}"), "3.250");
        assert!(format!("{t:?}").contains("3.250"));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        let _ = SimTime::new(f64::NAN);
    }
}
