//! The run-to-completion executor under the server automata.
//!
//! An L1 or L2 server shard is a reactive automaton: everything it does is a
//! step on receipt of one message, and a step takes well under a
//! microsecond. Giving each one an OS thread makes almost every message a
//! futex wake on the sending side and a futex wait on the receiving side —
//! an order of magnitude more than the step. So a cluster runs its hosted
//! automata as [`Task`]s on `W = min(cores, tasks)` **worker threads**:
//!
//! * **Placement** is fixed at install time by the cluster (a pure function
//!   of server and shard — [`Cluster`](crate::node::Cluster) computes it, launch
//!   and repair share it), so a task never migrates and its state needs no
//!   lock. With `cores ≥ tasks` every worker hosts exactly one task: the
//!   thread-per-shard layout this executor replaced.
//! * A **sweep** gives every hosted task one [`Task::turn`]: claim the whole
//!   backlog of its inbox (envelopes, each one protocol message or a stop /
//!   ping control envelope), step the automaton through it, flush what the
//!   steps produced. A worker that found work sweeps again.
//! * Each worker has a **doorbell** ([`Bell`]). The router rings it after
//!   every enqueue into an inbox the worker hosts: one atomic load while the
//!   worker is awake, one `unpark` when it is parked. Between tasks of one
//!   worker, and towards any busy worker, a message costs no system call.
//! * A worker **parks** only when a sweep found nothing: it raises the
//!   bell's `parked` flag, *then* re-checks every inbox, its install list
//!   and the quit flag, then parks. A sender enqueues, *then* reads the
//!   flag. Whichever of the two comes second sees the other (the inbox
//!   check goes through the channel's lock; the flag is `SeqCst`), so no
//!   wake-up is lost; an `unpark` that arrives before the `park` leaves a
//!   token that makes the `park` return at once.
//! * A worker may also host [`Socket`]s — a TCP deployment's mesh
//!   connections, dealt to workers by peer. Such a worker waits in
//!   `poll(2)` on its sockets plus the bell's wake fd instead of parking,
//!   and a ring writes the wake fd instead of unparking; a frame from a
//!   peer therefore wakes the thread that runs the automata, and nothing
//!   else. A sweep serves the sockets first (what they deliver to this
//!   worker's inboxes is claimed in the same sweep); a worker that never
//!   goes idle looks at its sockets once per sweep with a poll that does
//!   not wait, so a saturated worker cannot starve its peers. A worker
//!   that hosts no socket never makes either system call.
//! * Going idle **publishes** the gauges of every task that took a step
//!   since the last publish, and so does every [`PUBLISH_EVERY_MICROS`] of
//!   uninterrupted work — a saturated worker never goes idle, and its
//!   gauges must not freeze.
//!
//! There is no spin before parking: on the depth-1 idle probes it was
//! within noise or worse.

use crate::router::{Router, RouterHandle};
use crate::transport::sys::{self, PollFd, WakeFd, POLLIN};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// The longest a worker that never goes idle runs between two publishes of
/// its tasks' gauges.
const PUBLISH_EVERY_MICROS: u64 = 10_000;

/// What one [`Task::turn`] did.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Turn {
    /// Envelopes claimed from the task's inbox: each is one protocol
    /// message, a stop request or a heartbeat ping.
    pub(crate) envelopes: usize,
    /// The task saw a stop request: the worker finishes and drops it.
    pub(crate) stop: bool,
}

/// A reactive automaton hosted by a worker thread.
pub(crate) trait Task: Send {
    /// Claims the inbox's backlog, steps through it and flushes the produced
    /// messages through `handle`. `now_micros` is the worker's clock for the
    /// sweep (microseconds since cluster start). Never blocks.
    fn turn(&mut self, now_micros: u64, handle: &mut RouterHandle) -> Turn;
    /// Whether the inbox holds anything (the pre-park check).
    fn has_mail(&self) -> bool;
    /// Publishes the task's gauges if a step ran since the last publish.
    fn publish(&mut self);
    /// Runs once, after the turn that saw the stop request and before the
    /// task is dropped: the last publish and the deregistration.
    fn finish(&mut self, router: &Router);
}

/// A socket hosted by a worker thread (see the [module docs](self)).
pub(crate) trait Socket: Send {
    /// The descriptor and the events ([`sys::POLLIN`], [`sys::POLLOUT`]) to
    /// wait for now; `None` while there is nothing to wait for on it.
    fn interest(&mut self) -> Option<(RawFd, i16)>;
    /// Serves the socket once a poll reported it ready — for its events,
    /// or with an error or a hang-up, which the next read or write then
    /// meets. Never blocks. Returns `false` once the socket is done with,
    /// and the worker drops it.
    fn serve(&mut self) -> bool;
}

/// A worker thread's doorbell (see the [module docs](self)).
#[derive(Default)]
pub(crate) struct Bell {
    /// Raised by the worker before its pre-park check, lowered by whoever
    /// wakes it (or by the worker itself when the check finds work).
    parked: AtomicBool,
    /// The worker's thread, attached by the worker before it first raises
    /// `parked`.
    thread: OnceLock<Thread>,
    /// The wake fd of a worker that hosts sockets, created by the worker
    /// itself when it adopts its first one — never while it is parked. From
    /// then on it waits in `poll` and a ring writes this instead of
    /// unparking: a ringer whose swap interrupted a wait finds it set if
    /// and only if that wait is a `poll`.
    wake: OnceLock<WakeFd>,
    /// Times the worker parked.
    parks: AtomicU64,
    /// Wake-ups actually sent.
    rings: AtomicU64,
}

impl Bell {
    /// Called after an enqueue: wakes the worker if it is parked. The load
    /// keeps the common case — a busy worker — free of a write to the shared
    /// line; the swap makes exactly one of several ringers send the wake-up.
    pub(crate) fn ring(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            self.rings.fetch_add(1, Ordering::Relaxed);
            if let Some(wake) = self.wake.get() {
                wake.wake();
            } else if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }

    /// Whether the worker has raised `parked` and nobody has rung since.
    #[cfg(test)]
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// Parks the calling worker unless `has_work` — which is evaluated
    /// *after* the flag is raised, the half of the protocol that makes a
    /// concurrent [`Bell::ring`] unmissable. A spurious return from `park`
    /// is harmless: the worker sweeps again.
    fn park_unless(&self, has_work: impl FnOnce() -> bool) {
        self.parked.store(true, Ordering::SeqCst);
        if !has_work() {
            self.parks.fetch_add(1, Ordering::Relaxed);
            std::thread::park();
        }
        self.parked.store(false, Ordering::SeqCst);
    }

    /// [`Bell::park_unless`] for a worker that hosts sockets: waits in
    /// `poll` on every socket's interest and on the wake fd, and leaves what
    /// the wait found in `sockets` for the next sweep.
    ///
    /// The wake protocol is the park protocol with the wake fd for the
    /// thread's token. The worker raises `parked`, *then* checks inboxes,
    /// installs and the quit flag, *then* asks each socket what it waits
    /// for (a link that a flush stalled now wants `POLLOUT`), *then* polls.
    /// A ringer publishes first — an enqueue, a stalled link, an install,
    /// each under a lock the worker's checks take — *then* loads `parked`;
    /// both the raise and the load are `SeqCst`, so whichever of the two
    /// comes second sees the other. If the worker's checks come second they
    /// find the work and it does not wait. If the ringer's load comes
    /// second it finds `parked` raised, wins the swap and writes the wake
    /// fd, which stays readable until drained: a write that lands before
    /// the `poll` starts makes it return at once. A socket's own readiness
    /// needs no ring; the kernel reports it whenever it comes.
    fn poll_unless(&self, wake: &WakeFd, has_work: impl FnOnce() -> bool, sockets: &mut Sockets) {
        self.parked.store(true, Ordering::SeqCst);
        if !has_work() {
            self.parks.fetch_add(1, Ordering::Relaxed);
            sockets.gather();
            sockets.set.push(PollFd::new(wake.fd(), POLLIN));
            let polled = sys::wait(&mut sockets.set, -1).is_ok();
            if sockets.set.pop().as_ref().is_some_and(PollFd::ready) {
                wake.drain();
            }
            sockets.fresh = polled;
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// The sockets one worker hosts, and the poll set they were last polled
/// with: one entry per socket, in order.
#[derive(Default)]
struct Sockets {
    hosted: Vec<Box<dyn Socket>>,
    set: Vec<PollFd>,
    /// `set` holds what a blocking wait found, not served yet.
    fresh: bool,
}

impl Sockets {
    /// Rebuilds the poll set from every socket's interest now (a
    /// placeholder the kernel skips for a socket that wants nothing).
    fn gather(&mut self) {
        self.set.clear();
        self.set.extend(self.hosted.iter_mut().map(|socket| {
            let (fd, events) = socket.interest().unwrap_or((-1, 0));
            PollFd::new(fd, events)
        }));
    }

    /// Serves every socket found ready: by the blocking wait, if it has not
    /// been served, else by a poll that does not wait. Drops the sockets
    /// that are done with.
    fn serve(&mut self) {
        if self.hosted.is_empty() {
            return;
        }
        if !std::mem::take(&mut self.fresh) {
            self.gather();
            if sys::wait(&mut self.set, 0).is_err() {
                return;
            }
        }
        let mut ready = self.set.iter().map(PollFd::ready);
        self.hosted
            .retain_mut(|socket| !ready.next().unwrap_or(false) || socket.serve());
    }
}

/// The worker threads of an executor as a transport sees them: where to
/// put a socket, and whose doorbell to ring when it needs its worker.
/// Opaque outside this crate; see [`Transport::host`](crate::transport::Transport::host).
#[derive(Clone)]
pub struct Workers(Arc<[Arc<Worker>]>);

impl Workers {
    /// Number of worker threads.
    pub(crate) fn count(&self) -> usize {
        self.0.len()
    }

    /// The doorbell of worker `worker`.
    pub(crate) fn bell(&self, worker: usize) -> Arc<Bell> {
        Arc::clone(&self.0[worker].bell)
    }

    /// Hands `socket` to worker `worker`, which adopts it at the top of its
    /// next sweep and serves it until it is done with.
    pub(crate) fn install_socket(&self, worker: usize, socket: Box<dyn Socket>) {
        let worker = &self.0[worker];
        worker.installs.lock().sockets.push(socket);
        worker.bell.ring();
    }
}

impl std::fmt::Debug for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Workers").field(&self.0.len()).finish()
    }
}

/// Held by every task of one server; see [`Finished`].
#[derive(Clone)]
pub(crate) struct Running {
    _token: Sender<()>,
}

/// Resolves once every task holding a clone of the paired [`Running`] token
/// has been dropped — which a worker does right after [`Task::finish`]. This
/// is what "joining a server" means on the executor: repair waits on it
/// before it re-registers a pid, or a late deregistration would remove the
/// replacement's route.
pub(crate) struct Finished(Receiver<()>);

/// A fresh completion signal for the tasks of one server.
pub(crate) fn completion() -> (Running, Finished) {
    let (tx, rx) = unbounded();
    (Running { _token: tx }, Finished(rx))
}

impl Finished {
    /// Blocks until every [`Running`] clone is gone.
    pub(crate) fn wait(self) {
        // Nothing is ever sent: `recv` returns when the last sender drops.
        let _ = self.0.recv();
    }
}

/// The executor's own counters, summed over its workers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecutorStats {
    /// Worker threads.
    pub(crate) workers: usize,
    /// Task turns that claimed at least one envelope.
    pub(crate) turns: u64,
    /// Envelopes (one message each, or a control envelope) claimed by
    /// those turns.
    pub(crate) envelopes: u64,
    /// Times a worker found every inbox empty and parked (or, hosting
    /// sockets, waited in `poll`).
    pub(crate) parks: u64,
    /// Wake-ups senders actually issued (an `unpark` or a wake-fd write
    /// each); every other enqueue found its worker awake and paid one
    /// atomic load.
    pub(crate) wakeups: u64,
}

/// Tasks and sockets waiting to be adopted at the top of a worker's next
/// sweep.
#[derive(Default)]
struct Installs {
    tasks: Vec<Box<dyn Task>>,
    sockets: Vec<Box<dyn Socket>>,
}

impl Installs {
    fn is_empty(&self) -> bool {
        self.tasks.is_empty() && self.sockets.is_empty()
    }
}

/// What a worker shares with the threads that install tasks on it, ring it
/// and read its counters.
#[derive(Default)]
struct Worker {
    bell: Arc<Bell>,
    installs: Mutex<Installs>,
    quit: AtomicBool,
    /// The worker's local counts as of its last publish.
    turns: AtomicU64,
    envelopes: AtomicU64,
}

impl Worker {
    fn run(&self, router: Router, started: Instant) {
        // Before `parked` is ever raised, so a ringer always finds it.
        let _ = self.bell.thread.set(std::thread::current());
        let mut handle = router.handle();
        let mut tasks: Vec<Box<dyn Task>> = Vec::new();
        let mut sockets = Sockets::default();
        let (mut turns, mut envelopes) = (0u64, 0u64);
        let mut published_at = 0u64;
        loop {
            sockets.serve();
            let mut installs = self.installs.lock();
            tasks.append(&mut installs.tasks);
            if !installs.sockets.is_empty() {
                self.bell.wake.get_or_init(|| {
                    WakeFd::new().expect("a worker that hosts sockets needs a wake fd")
                });
                sockets.hosted.append(&mut installs.sockets);
            }
            drop(installs);
            let now = started.elapsed().as_micros() as u64;
            let claimed_before = envelopes;
            tasks.retain_mut(|task| {
                let turn = task.turn(now, &mut handle);
                if turn.envelopes > 0 {
                    turns += 1;
                    envelopes += turn.envelopes as u64;
                }
                if turn.stop {
                    task.finish(&router);
                }
                !turn.stop
            });
            // The sweep is the burst: what its turns buffered for other
            // daemons leaves now, in one write per peer.
            handle.flush();
            let worked = envelopes != claimed_before;
            if worked && now - published_at < PUBLISH_EVERY_MICROS {
                continue;
            }
            for task in &mut tasks {
                task.publish();
            }
            self.turns.store(turns, Ordering::Relaxed);
            self.envelopes.store(envelopes, Ordering::Relaxed);
            published_at = now;
            if worked {
                continue;
            }
            let has_work = || {
                self.quit.load(Ordering::SeqCst)
                    || !self.installs.lock().is_empty()
                    || tasks.iter().any(|task| task.has_mail())
            };
            match self.bell.wake.get() {
                Some(wake) => self.bell.poll_unless(wake, has_work, &mut sockets),
                None => self.bell.park_unless(has_work),
            }
            if self.quit.load(Ordering::SeqCst) {
                return;
            }
        }
    }
}

/// The worker threads of one cluster.
pub(crate) struct Executor {
    workers: Workers,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// Starts `workers` worker threads (`lds-worker-<i>`) sending through
    /// `router`, their clocks counting from `started`.
    pub(crate) fn start(workers: usize, router: &Router, started: Instant) -> Executor {
        let workers: Arc<[Arc<Worker>]> = (0..workers).map(|_| Arc::default()).collect();
        let threads = workers
            .iter()
            .enumerate()
            .map(|(i, worker)| {
                let (worker, router) = (Arc::clone(worker), router.clone());
                std::thread::Builder::new()
                    .name(format!("lds-worker-{i}"))
                    .spawn(move || worker.run(router, started))
                    .expect("spawn worker thread")
            })
            .collect();
        Executor {
            workers: Workers(workers),
            threads: Mutex::new(threads),
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers.count()
    }

    /// The worker threads, for a transport whose sockets they serve.
    pub(crate) fn handle(&self) -> Workers {
        self.workers.clone()
    }

    /// The doorbell of worker `worker`: every inbox of a task installed
    /// there must ring it.
    pub(crate) fn bell(&self, worker: usize) -> Arc<Bell> {
        self.workers.bell(worker)
    }

    /// Hands `task` to worker `worker`, which adopts it at the top of its
    /// next sweep and keeps it until a turn reports a stop.
    pub(crate) fn install(&self, worker: usize, task: Box<dyn Task>) {
        let worker = &self.workers.0[worker];
        worker.installs.lock().tasks.push(task);
        worker.bell.ring();
    }

    /// Stops and joins the worker threads, dropping whatever tasks they
    /// still host. Idempotent.
    pub(crate) fn shutdown(&self) {
        for worker in self.workers.0.iter() {
            worker.quit.store(true, Ordering::SeqCst);
            worker.bell.ring();
        }
        for thread in self.threads.lock().drain(..) {
            let _ = thread.join();
        }
    }

    /// The counters as last published (going idle, or every 10 ms of work).
    pub(crate) fn stats(&self) -> ExecutorStats {
        let mut stats = ExecutorStats {
            workers: self.workers.count(),
            ..ExecutorStats::default()
        };
        for worker in self.workers.0.iter() {
            stats.turns += worker.turns.load(Ordering::Relaxed);
            stats.envelopes += worker.envelopes.load(Ordering::Relaxed);
            stats.parks += worker.bell.parks.load(Ordering::Relaxed);
            stats.wakeups += worker.bell.rings.load(Ordering::Relaxed);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A task without an inbox: claims one "envelope" per turn while `busy`,
    /// stops when told to, and reports what the worker did with it.
    #[derive(Default)]
    struct Probe {
        busy: AtomicBool,
        stop: AtomicBool,
        publishes: AtomicUsize,
        finished: AtomicBool,
    }

    struct ProbeTask {
        probe: Arc<Probe>,
        /// `finish` blocks until this yields (or disconnects).
        gate: Option<Receiver<()>>,
        _running: Running,
    }

    impl Task for ProbeTask {
        fn turn(&mut self, _now_micros: u64, _handle: &mut RouterHandle) -> Turn {
            let stop = self.probe.stop.load(Ordering::SeqCst);
            let busy = self.probe.busy.load(Ordering::SeqCst);
            Turn {
                envelopes: usize::from(stop || busy),
                stop,
            }
        }
        fn has_mail(&self) -> bool {
            self.probe.stop.load(Ordering::SeqCst) || self.probe.busy.load(Ordering::SeqCst)
        }
        fn publish(&mut self) {
            self.probe.publishes.fetch_add(1, Ordering::SeqCst);
        }
        fn finish(&mut self, _router: &Router) {
            if let Some(gate) = &self.gate {
                let _ = gate.recv();
            }
            self.probe.finished.store(true, Ordering::SeqCst);
        }
    }

    /// Installs a fresh probe on worker 0, already claiming work if `busy`.
    fn install_probe(
        executor: &Executor,
        gate: Option<Receiver<()>>,
        busy: bool,
    ) -> (Arc<Probe>, Finished) {
        let probe = Arc::new(Probe {
            busy: AtomicBool::new(busy),
            ..Probe::default()
        });
        let (running, finished) = completion();
        executor.install(
            0,
            Box::new(ProbeTask {
                probe: Arc::clone(&probe),
                gate,
                _running: running,
            }),
        );
        (probe, finished)
    }

    #[test]
    fn a_worker_that_never_goes_idle_still_publishes() {
        let executor = Executor::start(1, &Router::new(), Instant::now());
        // Busy from its first turn: no park between the install and the
        // work. The worker may still have parked before the install, on an
        // empty task list, so parks are counted from the first publish.
        let (probe, finished) = install_probe(&executor, None, true);
        let deadline = Instant::now() + Duration::from_secs(10);
        while probe.publishes.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the probe was never turned");
            std::thread::yield_now();
        }
        let parks = executor.stats().parks;
        // Continuous work: every turn claims an envelope, so the worker
        // never reaches its idle publish. The 10 ms rule must publish the
        // task's gauges and the executor's own counters regardless.
        while probe.publishes.load(Ordering::SeqCst) < 4 || executor.stats().turns == 0 {
            assert!(Instant::now() < deadline, "a busy worker never published");
            std::thread::yield_now();
        }
        assert_eq!(
            executor.stats().parks,
            parks,
            "the worker was busy throughout"
        );
        probe.stop.store(true, Ordering::SeqCst);
        finished.wait();
        assert!(probe.finished.load(Ordering::SeqCst));
        executor.shutdown();
    }

    #[test]
    fn finished_resolves_only_after_finish_has_run() {
        let executor = Executor::start(1, &Router::new(), Instant::now());
        let (gate_tx, gate_rx) = unbounded();
        let (probe, finished) = install_probe(&executor, Some(gate_rx), false);
        probe.stop.store(true, Ordering::SeqCst);
        executor.bell(0).ring();
        let (woken_tx, woken_rx) = unbounded();
        let waiter = {
            let probe = Arc::clone(&probe);
            std::thread::spawn(move || {
                finished.wait();
                let _ = woken_tx.send(probe.finished.load(Ordering::SeqCst));
            })
        };
        // The task is stuck inside `finish` (deregistration, in a cluster):
        // whoever waits to re-register its pid must still be waiting.
        assert!(
            woken_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "Finished resolved while the task's finish was still running"
        );
        gate_tx.send(()).unwrap();
        assert_eq!(
            woken_rx.recv(),
            Ok(true),
            "finish ran before the waiter woke"
        );
        waiter.join().unwrap();
        executor.shutdown();
    }

    #[test]
    fn an_idle_worker_parks_and_an_install_wakes_it() {
        let executor = Executor::start(2, &Router::new(), Instant::now());
        let deadline = Instant::now() + Duration::from_secs(10);
        while executor.stats().parks < 2 {
            assert!(Instant::now() < deadline, "idle workers never parked");
            std::thread::yield_now();
        }
        // Parked on an empty task list: the install's ring is the only
        // thing that can make worker 0 adopt the task and see its stop.
        let (probe, finished) = install_probe(&executor, None, false);
        probe.stop.store(true, Ordering::SeqCst);
        executor.bell(0).ring();
        finished.wait();
        assert!(executor.stats().wakeups >= 1);
        // Shutting down twice is fine (a store's shutdown may run again
        // when tests tear down).
        executor.shutdown();
        executor.shutdown();
    }
}
