//! The flight recorder: per-thread bounded ring buffers of timestamped
//! structured events, merged on demand into a [`TraceDump`].
//!
//! Design goals, in order:
//!
//! 1. **Zero-cost when disabled.** Every recording site holds a
//!    [`TraceHandle`] whose `enabled` flag was cached at creation — the same
//!    trick the router uses for its transport `faulty` flag. A disabled
//!    handle owns no ring and every [`TraceHandle::record`] call is one
//!    predictable branch.
//! 2. **Lock-free when enabled.** Each handle owns its own ring; recording
//!    never takes a lock or allocates. The only synchronization is a
//!    per-slot seqlock (word-sized atomics, `unsafe`-free)
//!    so a concurrent [`FlightRecorder::dump`] can read a consistent slot or
//!    skip it.
//! 3. **Bounded.** A ring holds the last `capacity` events its thread
//!    recorded; older events are overwritten. A dump is a best-effort tail,
//!    not a complete log — exactly what a post-mortem wants.
//!
//! Events are quadruples `(kind, a, b, c)` of word-sized payloads; the
//! meaning of `a/b/c` per kind is one row of the event table
//! ([`crate::obs::events`]). Timestamps are microseconds since the
//! recorder's epoch (cluster start).

use super::events::EventKind;
use super::phase;
use crate::sync::Mutex;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default events retained per recording thread.
pub const DEFAULT_TRACE_EVENTS: usize = 4096;

/// The name of the client-op phase code carried by [`EventKind::OpPhase`]
/// (one of [`phase`]'s constants; `"?"` for any other code).
pub fn phase_name(code: u64) -> &'static str {
    phase::NAMES.get(code as usize).copied().unwrap_or("?")
}

/// Words per ring slot: `[seq, ts_us, kind, a, b, c]`.
const SLOT_WORDS: usize = 6;

/// One thread's event ring: `capacity` slots of [`SLOT_WORDS`] atomics.
///
/// Single writer (the owning [`TraceHandle`]), any number of readers (the
/// dump path). Each slot is a tiny seqlock: the writer bumps `seq` to an
/// odd value, writes the payload, then publishes the even `2 × (index + 1)`;
/// readers re-check `seq` around the payload load and discard torn slots.
struct Ring {
    words: Box<[AtomicU64]>,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let words: Vec<AtomicU64> = (0..capacity * SLOT_WORDS)
            .map(|_| AtomicU64::new(0))
            .collect();
        Ring {
            words: words.into(),
            capacity,
        }
    }

    /// Writes event number `index` (monotone per ring) into its slot.
    fn write(&self, index: u64, ts_us: u64, kind: EventKind, a: u64, b: u64, c: u64) {
        let base = (index as usize % self.capacity) * SLOT_WORDS;
        let slot = &self.words[base..base + SLOT_WORDS];
        // Odd seq marks the slot busy; the release fence orders the payload
        // after it and the final release store publishes everything.
        slot[0].store(index * 2 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot[1].store(ts_us, Ordering::Relaxed);
        slot[2].store(kind as u64, Ordering::Relaxed);
        slot[3].store(a, Ordering::Relaxed);
        slot[4].store(b, Ordering::Relaxed);
        slot[5].store(c, Ordering::Relaxed);
        slot[0].store((index + 1) * 2, Ordering::Release);
    }

    /// Every readable (published, untorn) event currently in the ring.
    fn read_all(&self, out: &mut Vec<TraceEvent>) {
        for s in 0..self.capacity {
            let base = s * SLOT_WORDS;
            let slot = &self.words[base..base + SLOT_WORDS];
            let seq1 = slot[0].load(Ordering::Acquire);
            if seq1 == 0 || seq1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let ts_us = slot[1].load(Ordering::Relaxed);
            let kind = slot[2].load(Ordering::Relaxed);
            let a = slot[3].load(Ordering::Relaxed);
            let b = slot[4].load(Ordering::Relaxed);
            let c = slot[5].load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let seq2 = slot[0].load(Ordering::Relaxed);
            if seq1 != seq2 {
                continue; // torn by a concurrent overwrite
            }
            if let Some(kind) = EventKind::from_u64(kind) {
                out.push(TraceEvent {
                    ts_us,
                    kind,
                    a,
                    b,
                    c,
                });
            }
        }
    }
}

/// One recorded event (see [`EventKind`] for the payload meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the recorder's epoch (cluster start).
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl TraceEvent {
    /// The event as one JSONL line (no trailing newline). Message class
    /// indices are resolved to their names; op phases to theirs.
    pub fn to_json(&self) -> String {
        let classes = crate::transport::MESSAGE_CLASSES;
        let class = |i: u64| classes.get(i as usize).copied().unwrap_or("?");
        let mut extra = String::new();
        match self.kind {
            EventKind::RouterSend => {
                extra = format!(r#","class":"{}""#, class(self.a));
            }
            EventKind::TransportFault => {
                let decision = match self.a {
                    0 => "drop",
                    1 => "duplicate",
                    2 => "delay",
                    _ => "partition",
                };
                extra = format!(r#","decision":"{}","class":"{}""#, decision, class(self.b));
            }
            EventKind::OpPhase => {
                extra = format!(r#","phase":"{}""#, phase_name(self.b));
            }
            _ => {}
        }
        format!(
            r#"{{"ts_us":{},"kind":"{}","a":{},"b":{},"c":{}{}}}"#,
            self.ts_us,
            self.kind.name(),
            self.a,
            self.b,
            self.c,
            extra
        )
    }
}

/// A merged, time-ordered view of every ring's surviving events.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    events: Vec<TraceEvent>,
}

impl TraceDump {
    /// The events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of surviving events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the dump holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole dump as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// The last `n` events as JSONL — the post-mortem tail a failing seeded
    /// test prints next to its repro command.
    pub fn tail_jsonl(&self, n: usize) -> String {
        let skip = self.events.len().saturating_sub(n);
        let mut out = String::new();
        for e in &self.events[skip..] {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// The cluster-wide flight recorder: hands out per-thread [`TraceHandle`]s
/// and merges their rings into a [`TraceDump`] on demand.
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    epoch: Instant,
    /// Every ring ever handed out (rings outlive their threads so a dump
    /// after a crash still sees the victim's last events).
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl FlightRecorder {
    /// A recorder with `capacity` events retained per recording thread.
    /// When `enabled` is false every handle is a no-op and no ring memory
    /// is ever allocated.
    pub fn new(enabled: bool, capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            enabled,
            capacity: capacity.max(16),
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
        })
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recording handle for one thread. Disabled recorders hand out
    /// inert handles (no ring, one-branch `record`).
    pub fn handle(self: &Arc<Self>) -> TraceHandle {
        if !self.enabled {
            return TraceHandle::disabled();
        }
        let ring = Arc::new(Ring::new(self.capacity));
        self.rings.lock().push(Arc::clone(&ring));
        TraceHandle {
            enabled: true,
            ring: Some(ring),
            epoch: self.epoch,
            next: 0,
        }
    }

    /// Merges every ring's surviving events into one time-ordered dump.
    pub fn dump(&self) -> TraceDump {
        let mut events = Vec::new();
        for ring in self.rings.lock().iter() {
            ring.read_all(&mut events);
        }
        events.sort_by_key(|e| e.ts_us);
        TraceDump { events }
    }
}

/// One thread's recording handle. `record` is one branch when tracing is
/// disabled; when enabled it is a timestamp read plus six relaxed stores
/// into the thread's own ring — no locks, no allocation.
pub struct TraceHandle {
    enabled: bool,
    ring: Option<Arc<Ring>>,
    epoch: Instant,
    next: u64,
}

impl TraceHandle {
    /// An inert handle for contexts without a recorder.
    pub fn disabled() -> TraceHandle {
        TraceHandle {
            enabled: false,
            ring: None,
            epoch: Instant::now(),
            next: 0,
        }
    }

    /// Whether this handle records anything — hoist loops' per-item work
    /// behind this check.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op unless enabled).
    #[inline]
    pub fn record(&mut self, kind: EventKind, a: u64, b: u64, c: u64) {
        if !self.enabled {
            return;
        }
        self.record_slow(kind, a, b, c);
    }

    #[cold]
    fn record_slow(&mut self, kind: EventKind, a: u64, b: u64, c: u64) {
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        if let Some(ring) = &self.ring {
            ring.write(self.next, ts_us, kind, a, b, c);
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_hands_out_inert_handles() {
        let rec = FlightRecorder::new(false, 64);
        let mut h = rec.handle();
        assert!(!h.enabled());
        h.record(EventKind::OpSubmitted, 1, 2, 3);
        assert!(rec.dump().is_empty());
    }

    #[test]
    fn events_round_trip_in_order() {
        let rec = FlightRecorder::new(true, 64);
        let mut h = rec.handle();
        h.record(EventKind::OpSubmitted, 7, 0, 1);
        h.record(EventKind::OpPhase, 7, 1, 1);
        h.record(EventKind::OpCompleted, 7, 0, 1234);
        let dump = rec.dump();
        assert_eq!(dump.len(), 3);
        let kinds: Vec<_> = dump.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::OpSubmitted,
                EventKind::OpPhase,
                EventKind::OpCompleted
            ]
        );
        assert!(dump.events().windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let rec = FlightRecorder::new(true, 16);
        let mut h = rec.handle();
        for i in 0..100u64 {
            h.record(EventKind::RouterSend, 0, 0, i);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 16);
        // Only the most recent events survive.
        assert!(dump.events().iter().all(|e| e.c >= 84));
    }

    #[test]
    fn dump_merges_multiple_handles() {
        let rec = FlightRecorder::new(true, 64);
        let mut h1 = rec.handle();
        let mut h2 = rec.handle();
        h1.record(EventKind::HealSuspect, 0, 1, 0);
        h2.record(EventKind::RepairStart, 0, 1, 0);
        assert_eq!(rec.dump().len(), 2);
    }

    #[test]
    fn jsonl_resolves_names() {
        let rec = FlightRecorder::new(true, 64);
        let mut h = rec.handle();
        let commit_tag = crate::transport::MESSAGE_CLASSES
            .iter()
            .position(|&c| c == "COMMIT-TAG")
            .unwrap();
        h.record(EventKind::TransportFault, 0, commit_tag as u64, 3);
        h.record(EventKind::OpPhase, 9, 2, 4);
        let jsonl = rec.dump().to_jsonl();
        assert!(jsonl.contains(r#""decision":"drop""#), "{jsonl}");
        assert!(jsonl.contains(r#""class":"COMMIT-TAG""#), "{jsonl}");
        assert!(jsonl.contains(r#""phase":"commit""#), "{jsonl}");
        // Every line parses as a flat JSON object (spot check the shape).
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn concurrent_dump_never_sees_torn_events() {
        let rec = FlightRecorder::new(true, 32);
        let writer_rec = Arc::clone(&rec);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut h = writer_rec.handle();
            let mut i = 0u64;
            while !writer_stop.load(Ordering::Relaxed) {
                // Payload invariant: b == a + 1, c == a + 2.
                h.record(EventKind::RouterSend, i, i + 1, i + 2);
                i += 1;
            }
        });
        for _ in 0..200 {
            for e in rec.dump().events() {
                assert_eq!(e.b, e.a + 1, "torn event {e:?}");
                assert_eq!(e.c, e.a + 2, "torn event {e:?}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn phase_names_decode_the_phase_constants() {
        assert_eq!(phase_name(phase::TAG), "tag");
        assert_eq!(phase_name(phase::DATA), "data");
        assert_eq!(phase_name(phase::COMMIT), "commit");
        assert_eq!(phase_name(99), "?");
    }

    #[test]
    fn tail_takes_the_newest_events() {
        let rec = FlightRecorder::new(true, 64);
        let mut h = rec.handle();
        for i in 0..10u64 {
            h.record(EventKind::GcEvict, 0, i, 0);
        }
        let tail = rec.dump().tail_jsonl(3);
        assert_eq!(tail.lines().count(), 3);
        assert!(tail.contains(r#""b":9"#));
    }
}
