//! The closed-loop load generator and the checks on what comes back.
//!
//! One loop serves set-up (write every object once), the measured window
//! (an endless seeded stream until a deadline) and the idle probe (depth 1):
//! keep `depth` operations in flight, harvest, verify, time from outside.

use crate::ops::{Op, OpKind, OpStream, Rng};
use crate::spec::{Workload, CLIENTS};
use crate::stamp::{self, Stamp, ValuePool};
use crate::target::{Conn, Deployment, Done};
use lds_core::tag::Tag;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Writer ids stamped into values: 0 wrote the set-up values, `1..=CLIENTS`
/// are the window's clients, the last is the idle probe.
const SETUP_WRITER: u64 = 0;
const PROBE_WRITER: u64 = CLIENTS as u64 + 1;
const WRITERS: usize = CLIENTS + 2;

/// Verification failures printed in full before only counting them.
const MAX_REPORTED_FAILURES: u64 = 5;

/// One operation as the harness saw it, relative to the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub writer: u64,
    pub kind: OpKind,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one client (or several, merged) did.
#[derive(Debug, Default)]
pub struct Report {
    /// Submit-to-completion times of verified operations that completed
    /// before the deadline, in nanoseconds.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub attempted: u64,
    /// Errors, timeouts, refusals and verification failures.
    pub failed: u64,
    /// Time inside `Store` / `NetClient` calls, and in the loop overall.
    pub in_call: Duration,
    pub in_loop: Duration,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn merge(&mut self, other: Report) {
        self.write_ns.extend(other.write_ns);
        self.read_ns.extend(other.read_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.in_call += other.in_call;
        self.in_loop += other.in_loop;
        self.spans.extend(other.spans);
    }

    pub fn completed(&self) -> usize {
        self.write_ns.len() + self.read_ns.len()
    }

    /// Share of the clients' time spent outside the program under test:
    /// generating, sealing, verifying, bookkeeping.
    pub fn gen_busy_fraction(&self) -> f64 {
        1.0 - self.in_call.as_secs_f64() / self.in_loop.as_secs_f64().max(1e-9)
    }
}

/// What a client has seen of each key, to catch time running backwards.
struct KeyHistory {
    tag: Option<Tag>,
    seq_by_writer: [u64; WRITERS],
}

struct Client<'a> {
    conn: Conn,
    workload: &'a Workload,
    writer: u64,
    next_seq: u64,
    pool: ValuePool,
    history: Vec<KeyHistory>,
    epoch: Instant,
    record_spans: bool,
    report: Report,
}

impl<'a> Client<'a> {
    fn new(
        deployment: &Deployment,
        workload: &'a Workload,
        index: usize,
        writer: u64,
        depth: usize,
        seed: u64,
        epoch: Instant,
    ) -> Client<'a> {
        Client {
            conn: deployment.connect(index, depth),
            workload,
            writer,
            next_seq: 1,
            pool: ValuePool::new(
                workload.value_size,
                &mut Rng::new(seed ^ writer.wrapping_mul(0xA5A5)),
            ),
            history: (0..workload.objects)
                .map(|_| KeyHistory {
                    tag: None,
                    seq_by_writer: [0; WRITERS],
                })
                .collect(),
            epoch,
            record_spans: false,
            report: Report::default(),
        }
    }

    /// Keeps up to `depth` of `ops` in flight until they run out or
    /// `deadline` passes, then drains what is outstanding.
    fn drive(
        &mut self,
        ops: &mut dyn Iterator<Item = Op>,
        depth: usize,
        deadline: Option<Instant>,
    ) {
        let loop_start = Instant::now();
        let mut done = Vec::new();
        let mut exhausted = false;
        loop {
            let open = !exhausted && deadline.is_none_or(|d| Instant::now() < d);
            while open && self.conn.outstanding() < depth {
                let Some(op) = ops.next() else {
                    exhausted = true;
                    break;
                };
                let seq = self.next_seq;
                let value: &[u8] = match op.kind {
                    OpKind::Write => {
                        self.next_seq += 1;
                        self.pool.sealed(Stamp {
                            obj: op.key,
                            writer: self.writer,
                            seq,
                        })
                    }
                    OpKind::Read => &[],
                };
                let submitted = Instant::now();
                let outcome = self.conn.submit(op, seq, value, submitted);
                self.report.in_call += submitted.elapsed();
                if let Err(error) = outcome {
                    self.abort(1, &error);
                    break;
                }
            }
            if self.conn.outstanding() == 0 {
                break;
            }
            let called = Instant::now();
            let outcome = self.conn.harvest(&mut done);
            let end = Instant::now();
            self.report.in_call += end - called;
            if let Err(error) = outcome {
                self.abort(0, &error);
                break;
            }
            for completion in done.drain(..) {
                self.complete(completion, end, deadline);
            }
        }
        self.report.in_loop += loop_start.elapsed();
    }

    /// A connection error fails everything outstanding (plus `extra`
    /// operations that never got out) and ends the client.
    fn abort(&mut self, extra: u64, error: &str) {
        let lost = self.conn.outstanding() as u64 + extra;
        eprintln!("writer {}: {error}; {lost} operations failed", self.writer);
        self.report.attempted += lost;
        self.report.failed += lost;
    }

    fn complete(&mut self, done: Done, end: Instant, deadline: Option<Instant>) {
        self.report.attempted += 1;
        let pending = done.pending;
        if let Err(why) = self.check(&done) {
            self.report.failed += 1;
            if self.report.failed <= MAX_REPORTED_FAILURES {
                eprintln!(
                    "writer {}: {} of key {} failed verification: {why}",
                    self.writer,
                    pending.op.kind.name(),
                    pending.op.key
                );
            }
            return;
        }
        if deadline.is_none_or(|d| end <= d) {
            let ns = (end - pending.submitted).as_nanos() as u64;
            match pending.op.kind {
                OpKind::Write => self.report.write_ns.push(ns),
                OpKind::Read => self.report.read_ns.push(ns),
            }
        }
        if self.record_spans {
            self.report.spans.push(Span {
                writer: self.writer,
                kind: pending.op.kind,
                key: pending.op.key,
                start_ns: (pending.submitted - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }

    /// A read passes only if its value is intact, names the key that was
    /// read, and is not older than what this client already saw of the key;
    /// tags must not go backwards per (client, key) either.
    fn check(&mut self, done: &Done) -> Result<(), String> {
        let op = done.pending.op;
        let history = &mut self.history[op.key as usize];
        if let Some(tag) = done.tag {
            if history.tag.is_some_and(|seen| tag < seen) {
                return Err(format!("tag {tag:?} is older than {:?}", history.tag));
            }
            history.tag = Some(tag);
        }
        let stamp = match (op.kind, &done.value) {
            (OpKind::Write, _) => Stamp {
                obj: op.key,
                writer: self.writer,
                seq: done.pending.seq,
            },
            (OpKind::Read, Some(value)) => {
                stamp::verify(value, op.key, self.workload.value_size)
                    .map_err(|e| format!("{e:?} in a value of {} bytes", value.len()))?
            }
            (OpKind::Read, None) => return Err("read completed without a value".into()),
        };
        let seen = history
            .seq_by_writer
            .get_mut(stamp.writer as usize)
            .ok_or_else(|| format!("unknown writer {}", stamp.writer))?;
        if stamp.seq < *seen {
            return Err(format!(
                "writer {}'s value {} returned after its value {}",
                stamp.writer, stamp.seq, *seen
            ));
        }
        *seen = stamp.seq;
        Ok(())
    }
}

pub struct SetUp {
    pub deployment: Deployment,
    pub seconds: f64,
    pub report: Report,
}

/// Set-up as `setup_s` times it: build the deployment (threads, codec plan
/// warm-up, for TCP the mesh and listeners), write every object once, and
/// wait until the background offload of those writes has finished.
pub fn set_up(workload: &Workload, seed: u64, trace: bool) -> SetUp {
    let start = Instant::now();
    let deployment = Deployment::build(workload.deploy, trace);
    let report = populate(&deployment, workload, seed);
    deployment.quiesce(workload.deploy);
    SetUp {
        seconds: start.elapsed().as_secs_f64(),
        deployment,
        report,
    }
}

/// Set-up traffic: writes every object once from one client, so every later
/// read finds a stamped value.
fn populate(deployment: &Deployment, workload: &Workload, seed: u64) -> Report {
    let mut client = Client::new(
        deployment,
        workload,
        0,
        SETUP_WRITER,
        workload.depth,
        seed,
        Instant::now(),
    );
    let mut ops = (0..workload.objects).map(|key| Op {
        kind: OpKind::Write,
        key,
    });
    client.drive(&mut ops, workload.depth, None);
    client.report
}

/// The measured window: `CLIENTS` closed-loop clients, each with its own
/// seeded stream (a fresh one every `round`), all released together, for
/// `seconds`. With `spans_since`, every operation is also recorded as a span
/// on that clock.
pub fn run_window(
    deployment: &Deployment,
    workload: &Workload,
    seed: u64,
    round: usize,
    seconds: f64,
    spans_since: Option<Instant>,
) -> Report {
    let barrier = Barrier::new(CLIENTS);
    let mut total = Report::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(
                        deployment,
                        workload,
                        index,
                        index as u64 + 1,
                        workload.depth,
                        seed,
                        spans_since.unwrap_or_else(Instant::now),
                    );
                    client.record_spans = spans_since.is_some();
                    let mut stream = OpStream::new(workload, seed, round * CLIENTS + index);
                    let mut ops = std::iter::from_fn(|| Some(stream.next_op()));
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    client.drive(&mut ops, workload.depth, Some(deadline));
                    client.report
                })
            })
            .collect();
        for client in clients {
            total.merge(client.join().expect("client thread panicked"));
        }
    });
    total.write_ns.sort_unstable();
    total.read_ns.sort_unstable();
    total
}

/// One blocking client on the idle store: `ops` writes, a quiesce so the
/// reads that follow are as cold as the profile makes them, then `ops`
/// reads. Its medians are the critical path with no queueing.
pub fn idle_probe(deployment: &Deployment, workload: &Workload, seed: u64, ops: usize) -> Report {
    let mut client = Client::new(
        deployment,
        workload,
        0,
        PROBE_WRITER,
        1,
        seed,
        Instant::now(),
    );
    let mut rng = Rng::new(seed ^ 0x1D1E);
    let mut keys = |kind| -> Vec<Op> {
        (0..ops)
            .map(|_| Op {
                kind,
                key: rng.next_u64() % workload.objects,
            })
            .collect()
    };
    let (writes, reads) = (keys(OpKind::Write), keys(OpKind::Read));
    client.drive(&mut writes.into_iter(), 1, None);
    deployment.quiesce(workload.deploy);
    client.drive(&mut reads.into_iter(), 1, None);
    client.report.write_ns.sort_unstable();
    client.report.read_ns.sort_unstable();
    client.report
}
