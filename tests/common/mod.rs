//! The atomicity oracle for the threaded runtime.
//!
//! A [`Recorder`] logs every operation its wrapped clients complete as a
//! [`consistency::Operation`](lds_core::consistency::Operation), and
//! [`Recorder::check`] runs the paper's own proof obligation over the log:
//! `History::check_atomicity`, Lynch's Lemma 13.16 conditions P1-P3 behind
//! Theorem IV.9. Suites end with it instead of hand-kept per-reader tag or
//! per-writer sequence invariants.
//!
//! **Interval rule.** A recorded interval contains the real one, so the
//! checker may miss a violation but never invents one. Invocation is an
//! `Instant` read before `submit_*`. Completion is the earlier of two upper
//! bounds on the real one: the `Instant` read when the completion is
//! harvested, and the `Instant` read after `submit_*` returned plus
//! [`Completion::latency`], which the client measures from a stamp taken
//! inside `submit_*` to the moment the automaton completes. The harvest
//! bound keeps one thread's back-to-back operations in real-time order: an
//! operation submitted after the previous one was harvested is recorded as
//! following it. Both are converted to seconds since the recorder's epoch.
//!
//! The recorder stamps *submission*, not dispatch, so P1 cannot see the
//! per-key FIFO contract of one client's pipelined operations; the suites
//! that test that contract still assert it themselves.
//!
//! Every seeded suite reads its seed through [`chaos_seed`], so a failure
//! seen anywhere (CI's fault matrix, a local run) is reproduced by exporting
//! one environment variable, and holds a [`ReproGuard`] that prints that
//! one-line command if the test panics.

// Every test binary compiles its own copy of this module and each uses a
// different part of it.
#![allow(dead_code)]

use lds_cluster::api::{ObjectId, Store, StoreBuilder, StoreError, StoreHandle};
use lds_cluster::{Completion, OpOutcome, OpTicket, Waker};
use lds_core::consistency::{AtomicityViolation, History, Operation, OperationKind};
use lds_core::tag::{ClientId, OpId, Tag};
use lds_core::value::Value;
use lds_core::SimTime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The two protocol profiles that the fault, repair and chaos suites each
/// run under, as builders to finish with the test's own settings.
pub fn profiles() -> [(&'static str, StoreBuilder); 2] {
    [
        ("paper-faithful", StoreBuilder::new().paper_faithful()),
        ("high-throughput", StoreBuilder::new().high_throughput(2)),
    ]
}

const POISONED: &str = "a client thread panicked while recording";

struct Log {
    epoch: Instant,
    clients: AtomicU64,
    history: Mutex<History>,
}

impl Log {
    fn at(&self, instant: Instant) -> SimTime {
        SimTime::new(instant.duration_since(self.epoch).as_secs_f64())
    }
}

/// One test's operation log, shared by every client it wraps (clone it into
/// client threads).
#[derive(Clone)]
pub struct Recorder(Arc<Log>);

impl Recorder {
    /// An empty log whose epoch is now.
    pub fn new() -> Recorder {
        Recorder(Arc::new(Log {
            epoch: Instant::now(),
            clients: AtomicU64::new(0),
            history: Mutex::new(History::new()),
        }))
    }

    /// `client`, with every operation it completes recorded under a client
    /// id of its own.
    pub fn wrap<S: Store>(&self, client: S) -> Recorded<S> {
        Recorded {
            inner: client,
            id: ClientId(self.0.clients.fetch_add(1, Ordering::Relaxed)),
            seq: 0,
            log: Arc::clone(&self.0),
            pending: HashMap::new(),
        }
    }

    /// Everything recorded so far.
    pub fn history(&self) -> History {
        self.0.history.lock().expect(POISONED).clone()
    }

    /// Runs `History::check_atomicity` over everything recorded so far.
    /// Panics on a violation, naming the offending operations.
    pub fn check(&self) {
        let history = self.history();
        assert!(!history.is_empty(), "no operation was recorded");
        if let Err(violation) = history.check_atomicity() {
            let named = match violation {
                AtomicityViolation::UnknownValue { read }
                | AtomicityViolation::TagValueMismatch { read } => vec![read],
                AtomicityViolation::DuplicateWriteTag { first, second, .. } => vec![first, second],
                AtomicityViolation::RealTimeViolation { earlier, later } => vec![earlier, later],
                AtomicityViolation::NoLinearization => Vec::new(),
            };
            let ops: Vec<String> = named
                .iter()
                .filter_map(|id| history.operations().iter().find(|o| o.op == *id))
                .map(describe)
                .collect();
            panic!(
                "atomicity violated in a history of {} operations: {violation}\n  {}",
                history.len(),
                ops.join("\n  ")
            );
        }
    }
}

fn describe(op: &Operation) -> String {
    let kind = if op.is_write() { "write" } else { "read" };
    format!(
        "{} {kind} {} tag {} value {} B over [{:.6}, {:.6}] s",
        op.op,
        op.obj,
        op.tag,
        op.value().len(),
        op.invoked_at.as_f64(),
        op.completed_at.as_f64()
    )
}

/// A submitted, not yet harvested operation.
struct Pending {
    obj: ObjectId,
    /// The written value; `None` for a read.
    write: Option<Value>,
    /// Read before `submit_*` was called.
    invoked: Instant,
    /// Read after `submit_*` returned: the client's own submission stamp,
    /// from which it measures `Completion::latency`, is not later.
    returned: Instant,
}

/// A [`Store`] that records every operation it completes into its
/// [`Recorder`]. Every method forwards to the wrapped client.
pub struct Recorded<S> {
    inner: S,
    id: ClientId,
    seq: u64,
    log: Arc<Log>,
    pending: HashMap<OpTicket, Pending>,
}

impl<S: Store> Recorded<S> {
    fn book(&mut self, ticket: OpTicket, obj: ObjectId, write: Option<Value>, invoked: Instant) {
        let returned = Instant::now();
        let pending = Pending {
            obj,
            write,
            invoked,
            returned,
        };
        self.pending.insert(ticket, pending);
    }

    /// Records `completion`, harvested at `harvested`.
    fn record(&mut self, completion: &Completion, harvested: Instant) {
        let p = self
            .pending
            .remove(&completion.ticket)
            .expect("a completion of a ticket this client submitted");
        let (kind, tag) = match &completion.outcome {
            OpOutcome::Write { tag } => (OperationKind::Write(p.write.expect("a write")), *tag),
            OpOutcome::Read { tag, value } => {
                (OperationKind::Read(Value::from(value.clone())), *tag)
            }
        };
        let op = Operation {
            op: OpId::new(self.id, self.seq),
            obj: p.obj,
            kind,
            invoked_at: self.log.at(p.invoked),
            completed_at: self.log.at(harvested.min(p.returned + completion.latency)),
            tag,
        };
        self.seq += 1;
        self.log.history.lock().expect(POISONED).record(op);
    }

    fn harvest(
        &mut self,
        wait: impl FnOnce(&mut S) -> Result<Vec<Completion>, StoreError>,
    ) -> Result<Vec<Completion>, StoreError> {
        let completions = wait(&mut self.inner)?;
        let harvested = Instant::now();
        for completion in &completions {
            self.record(completion, harvested);
        }
        Ok(completions)
    }
}

impl<S: Store> Store for Recorded<S> {
    fn write(&mut self, key: ObjectId, value: &[u8]) -> Result<Tag, StoreError> {
        let ticket = self.submit_write(key, value);
        Ok(self.wait(ticket)?.outcome.tag())
    }

    fn read(&mut self, key: ObjectId) -> Result<Vec<u8>, StoreError> {
        let ticket = self.submit_read(key);
        match self.wait(ticket)?.outcome {
            OpOutcome::Read { value, .. } => Ok(value),
            OpOutcome::Write { .. } => unreachable!("read ticket yielded a write outcome"),
        }
    }

    fn submit_write(&mut self, key: ObjectId, value: &[u8]) -> OpTicket {
        self.submit_write_value(key, Value::from(value))
    }

    fn submit_write_value(&mut self, key: ObjectId, value: Value) -> OpTicket {
        let invoked = Instant::now();
        let ticket = self.inner.submit_write_value(key, value.clone());
        self.book(ticket, key, Some(value), invoked);
        ticket
    }

    fn submit_read(&mut self, key: ObjectId) -> OpTicket {
        let invoked = Instant::now();
        let ticket = self.inner.submit_read(key);
        self.book(ticket, key, None, invoked);
        ticket
    }

    fn try_submit_write(&mut self, key: ObjectId, value: &[u8]) -> Result<OpTicket, StoreError> {
        let invoked = Instant::now();
        let ticket = self.inner.try_submit_write(key, value)?;
        self.book(ticket, key, Some(Value::from(value)), invoked);
        Ok(ticket)
    }

    fn try_submit_read(&mut self, key: ObjectId) -> Result<OpTicket, StoreError> {
        let invoked = Instant::now();
        let ticket = self.inner.try_submit_read(key)?;
        self.book(ticket, key, None, invoked);
        Ok(ticket)
    }

    fn poll(&mut self) -> Result<Vec<Completion>, StoreError> {
        self.harvest(S::poll)
    }

    fn poll_wait(&mut self, max_wait: Duration) -> Result<Vec<Completion>, StoreError> {
        self.harvest(|inner| inner.poll_wait(max_wait))
    }

    fn waker(&self) -> Waker {
        self.inner.waker()
    }

    fn wait(&mut self, ticket: OpTicket) -> Result<Completion, StoreError> {
        let completion = self.inner.wait(ticket)?;
        self.record(&completion, Instant::now());
        Ok(completion)
    }

    fn wait_next(&mut self) -> Result<Vec<Completion>, StoreError> {
        self.harvest(S::wait_next)
    }

    fn wait_all(&mut self) -> Result<Vec<Completion>, StoreError> {
        self.harvest(S::wait_all)
    }

    fn set_timeout(&mut self, timeout: Duration) {
        self.inner.set_timeout(timeout);
    }

    fn pending_ops(&self) -> usize {
        self.inner.pending_ops()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn depth(&self) -> usize {
        self.inner.depth()
    }

    fn last_tag(&self) -> Option<Tag> {
        self.inner.last_tag()
    }
}

/// A recorded closed-loop workload over shared objects: `writers` pipelined
/// writers each write every object once per round, and one pipelined reader
/// reads every object once per round (depth 8 each), until
/// [`Workload::finish`]. Writers contend on every object. Any failed
/// operation panics its thread and fails the test at `finish`.
pub struct Workload {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Workload {
    /// Writes every object once (so each has a committed value before the
    /// contention starts), then starts the clients.
    pub fn spawn(
        store: &StoreHandle,
        recorder: &Recorder,
        writers: usize,
        objects: &[u64],
    ) -> Workload {
        let mut setup = recorder.wrap(store.client_with_depth(8));
        for &obj in objects {
            setup.submit_write(ObjectId(obj), format!("setup-o{obj}").as_bytes());
        }
        setup.wait_all().expect("setup writes complete");
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        // `Some(w)`: writer `w`; `None`: the reader.
        for role in (0..writers).map(Some).chain([None]) {
            let (store, recorder) = (store.clone(), recorder.clone());
            let (stop, objects) = (Arc::clone(&stop), objects.to_vec());
            handles.push(std::thread::spawn(move || {
                let mut client = recorder.wrap(store.client_with_depth(8));
                client.set_timeout(Duration::from_secs(30));
                let mut round = 0;
                while !stop.load(Ordering::Relaxed) {
                    for &obj in &objects {
                        match role {
                            Some(w) => client.submit_write(
                                ObjectId(obj),
                                format!("w{w}-o{obj}-s{round}").as_bytes(),
                            ),
                            None => client.submit_read(ObjectId(obj)),
                        };
                    }
                    client
                        .wait_all()
                        .expect("operations complete under the test's faults");
                    round += 1;
                }
            }));
        }
        Workload { stop, handles }
    }

    /// Stops every client and joins it, re-raising the first panic.
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles {
            handle
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    }
}

/// Environment variable overriding the seed of every seeded test.
pub const CHAOS_SEED_ENV: &str = "LDS_CHAOS_SEED";

/// The seed a seeded test runs with: `LDS_CHAOS_SEED` when set and
/// parseable (decimal, or hex with an `0x` prefix), otherwise `default`.
pub fn chaos_seed(default: u64) -> u64 {
    match std::env::var(CHAOS_SEED_ENV) {
        Ok(raw) => parse_seed(raw.trim()).unwrap_or(default),
        Err(_) => default,
    }
}

pub fn parse_seed(raw: &str) -> Option<u64> {
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        raw.replace('_', "").parse().ok()
    }
}

/// Prints a one-line reproduction command if the holding test panics: on a
/// clean pass it drops silently, on an assertion failure its `Drop` runs
/// while the thread is panicking and prints the command that re-runs the
/// failing test with the failing seed. Armed with
/// [`ReproGuard::with_trace`], the printout also carries the flight
/// recorder's tail — the last events leading up to the assertion, as JSONL.
pub struct ReproGuard {
    seed: u64,
    test: String,
    trace: Option<Box<dyn Fn() -> Option<String> + Send>>,
}

/// Arms a [`ReproGuard`] for the integration test binary named `test`
/// running with `seed`.
pub fn repro_guard(seed: u64, test: &str) -> ReproGuard {
    ReproGuard {
        seed,
        test: test.to_string(),
        trace: None,
    }
}

impl ReproGuard {
    /// Attaches a flight-recorder tail hook, called only if the test
    /// panics; it returns the tail as JSONL, or `None` when there is
    /// nothing to dump.
    pub fn with_trace(mut self, hook: impl Fn() -> Option<String> + Send + 'static) -> ReproGuard {
        self.trace = Some(Box::new(hook));
        self
    }
}

impl Drop for ReproGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "repro: {}={} cargo test --release --test {} -- --nocapture",
                CHAOS_SEED_ENV, self.seed, self.test
            );
            if let Some(tail) = self.trace.as_ref().and_then(|hook| hook()) {
                if !tail.is_empty() {
                    eprintln!("flight recorder tail (JSONL):");
                    eprint!("{tail}");
                }
            }
        }
    }
}
