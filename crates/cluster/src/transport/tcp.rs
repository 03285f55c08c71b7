//! The real-network transport: per-peer TCP links under the router.
//!
//! A [`TcpTransport`] connects one daemon to every other daemon of a static
//! membership. It sits behind the same [`Transport`] seam as the in-process
//! and fault-injection transports:
//!
//! ```text
//!               sender thread (executor worker / client)
//!                         │ take_remote(from, to, msg)   (msg is moved)
//!                         ▼
//!    local pid? ──yes──► handed back, routed to the in-process inbox
//!        │no
//!        ▼
//!    enqueue on the owner daemon's link (ownership moves, no clone)
//!                         │
//!                  writer thread (one per peer)
//!                  block for one message, drain the backlog behind it,
//!                  encode all of it → one write_all; reconnect with backoff
//!                         │
//!                  ═══════╪══════ network ══════════════
//!                         ▼
//!                  reader thread (one per accepted conn)
//!                  BufReader → frame → decode → DirectSender::deliver
//!                         │
//!                         ▼
//!                  destination inbox on the remote router
//! ```
//!
//! Ownership of a destination pid is decided by [`TcpTopology::owner_of`]:
//! server pids map through the configured membership, client and auxiliary
//! pids are striped across daemons by their allocation residue (each daemon
//! allocates client numbers `base + k·step` with `base = index + 1`,
//! `step = daemons`), and [`ProcessId::EXTERNAL`] is always local.
//!
//! Failure semantics are honest about what TCP gives us: a link that is down
//! or backed up **drops** messages (counted in
//! [`FaultCounters::dropped`]) rather than blocking the protocol's sender
//! threads — the LDS protocol is designed for lossy asynchronous networks,
//! and the quorum logic, not the transport, provides reliability. Writer
//! threads reconnect with exponential backoff, so a restarted peer daemon
//! re-joins the mesh without any coordination.

use super::{Decision, FaultCounters, Transport};
use crate::router::DirectSender;
use lds_core::messages::LdsMessage;
use lds_core::wire::{self, Frame};
use lds_sim::ProcessId;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

/// Per-peer outgoing queue bound, in messages. A link that is down or slow
/// beyond this backlog starts dropping (counted); the protocol's quorums
/// tolerate the loss.
const LINK_QUEUE_CAP: usize = 8192;

/// Byte budget of one coalesced write: the writer stops filling its batch
/// buffer once it holds this much, so a deep backlog becomes a run of
/// bounded writes rather than one unbounded buffer. A single frame may
/// exceed it (a large coded element); the buffer is shrunk back afterwards.
const COALESCE_CAP: usize = 64 << 10;

/// First reconnect delay; doubles up to [`RECONNECT_MAX`].
const RECONNECT_BASE: Duration = Duration::from_millis(50);

/// Ceiling on the reconnect backoff.
const RECONNECT_MAX: Duration = Duration::from_secs(2);

/// How often a blocked writer/acceptor re-checks the stop flag.
const STOP_POLL: Duration = Duration::from_millis(100);

/// The static placement of a deployment's processes onto daemons.
///
/// Shared verbatim by every daemon of a deployment (each knows its own
/// `index`); the pid → daemon rules are documented at the top of this
/// source file.
#[derive(Debug, Clone)]
pub struct TcpTopology {
    /// Number of L1 servers (`pids 0..n1`).
    pub n1: usize,
    /// Number of L2 servers (`pids n1..n1+n2`).
    pub n2: usize,
    /// This daemon's index in `peers`.
    pub index: usize,
    /// Every daemon's mesh listen address, indexed by daemon.
    pub peers: Vec<SocketAddr>,
    /// Owning daemon of each server pid (`len == n1 + n2`).
    pub server_owner: Vec<usize>,
}

impl TcpTopology {
    /// Number of daemons in the mesh.
    pub fn daemons(&self) -> usize {
        self.peers.len()
    }

    /// The daemon that hosts `pid`'s inbox.
    pub fn owner_of(&self, pid: ProcessId) -> usize {
        if pid == ProcessId::EXTERNAL {
            return self.index;
        }
        let servers = self.n1 + self.n2;
        if pid.0 < servers {
            return self.server_owner[pid.0];
        }
        // Clients and auxiliary pids: daemon `d` allocates numbers
        // `d + 1 + k·daemons` above the server range.
        (pid.0 - servers - 1) % self.daemons()
    }

    /// Whether `pid` lives on this daemon.
    pub fn is_local(&self, pid: ProcessId) -> bool {
        self.owner_of(pid) == self.index
    }

    /// The first client number this daemon allocates (see
    /// [`HostScope`](crate::node::HostScope)).
    pub fn client_base(&self) -> u64 {
        self.index as u64 + 1
    }

    /// The stride between client numbers this daemon allocates.
    pub fn client_step(&self) -> u64 {
        self.daemons() as u64
    }
}

/// One outgoing unit on a peer link.
enum Outgoing {
    Msg {
        from: ProcessId,
        to: ProcessId,
        msg: LdsMessage,
    },
    Ping {
        to: ProcessId,
    },
}

/// A peer link's sender side: unbounded channel + explicit depth bound.
struct Link {
    tx: crossbeam::channel::Sender<Outgoing>,
    depth: Arc<AtomicUsize>,
}

/// Live inbound connections: connection number → a clone of its stream.
type Inbound = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Counters shared by every link and reader thread.
#[derive(Default)]
struct Counters {
    /// Messages lost: queue overflow, link down mid-write, or undecodable
    /// inbound frames.
    dropped: AtomicU64,
    /// Successful (re)connects across all peer links.
    connects: AtomicU64,
    /// Frames received and delivered into the local router.
    delivered: AtomicU64,
}

/// The TCP transport: real per-peer network links behind the
/// [`Transport`] seam (threading model at the top of this source file).
pub struct TcpTransport {
    topo: TcpTopology,
    links: Vec<Option<Link>>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    /// Accepted inbound streams by connection number, tracked so shutdown
    /// can unblock their reader threads. A reader drops its own entry when
    /// it exits, so peer reconnects do not accumulate dead sockets.
    inbound: Inbound,
    listener: TcpListener,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds the mesh listener at `topo.peers[topo.index]` and starts one
    /// writer thread per remote peer. Reader threads start when the router
    /// installs the transport ([`Transport::attach`]).
    ///
    /// Binding eagerly means an unusable listen address is a construction
    /// error the daemon can report, not a background failure.
    pub fn bind(topo: TcpTopology) -> std::io::Result<TcpTransport> {
        assert_eq!(
            topo.server_owner.len(),
            topo.n1 + topo.n2,
            "server_owner must cover every server pid"
        );
        assert!(topo.index < topo.peers.len(), "daemon index out of range");
        let listener = TcpListener::bind(topo.peers[topo.index])?;
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut links = Vec::with_capacity(topo.peers.len());
        let mut threads = Vec::new();
        for (peer, &addr) in topo.peers.iter().enumerate() {
            if peer == topo.index {
                links.push(None);
                continue;
            }
            let (tx, rx) = crossbeam::channel::unbounded::<Outgoing>();
            let depth = Arc::new(AtomicUsize::new(0));
            let handle = std::thread::Builder::new()
                .name(format!("lds-tcp-writer-{peer}"))
                .spawn({
                    let depth = Arc::clone(&depth);
                    let counters = Arc::clone(&counters);
                    let stop = Arc::clone(&stop);
                    let me = topo.index as u64;
                    move || run_writer(addr, me, rx, depth, counters, stop)
                })
                .expect("spawn tcp writer thread");
            links.push(Some(Link { tx, depth }));
            threads.push(handle);
        }
        Ok(TcpTransport {
            topo,
            links,
            counters,
            stop,
            inbound: Arc::new(Mutex::new(HashMap::new())),
            listener,
            threads: Mutex::new(threads),
        })
    }

    /// The placement this transport routes by.
    pub fn topology(&self) -> &TcpTopology {
        &self.topo
    }

    /// The address the mesh listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("listener has a local address")
    }

    /// Frames received from peers and delivered into the local router.
    pub fn frames_delivered(&self) -> u64 {
        self.counters.delivered.load(Ordering::Relaxed)
    }

    /// Successful (re)connects across all peer links.
    pub fn connects(&self) -> u64 {
        self.counters.connects.load(Ordering::Relaxed)
    }

    /// Inbound connections currently tracked (live reader threads).
    #[cfg(test)]
    fn inbound_tracked(&self) -> usize {
        self.inbound.lock().len()
    }

    /// Enqueues one unit for the writer thread of daemon `owner`.
    fn enqueue(&self, owner: usize, item: Outgoing) {
        let Some(link) = &self.links[owner] else {
            // Addressed to ourselves — the router delivers locally.
            return;
        };
        if link.depth.load(Ordering::Relaxed) >= LINK_QUEUE_CAP {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        link.depth.fetch_add(1, Ordering::Relaxed);
        if link.tx.send(item).is_err() {
            // The writer is gone (shutdown): nothing will ever claim it.
            link.depth.fetch_sub(1, Ordering::Relaxed);
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Transport for TcpTransport {
    fn is_faulty(&self) -> bool {
        // Not a fault *injector*, but every message must be adjudicated so
        // remote-bound traffic can be intercepted.
        true
    }

    fn take_remote(&self, from: ProcessId, to: ProcessId, msg: LdsMessage) -> Option<LdsMessage> {
        if self.topo.is_local(to) {
            // `decide` keeps its default: local traffic is simply delivered.
            return Some(msg);
        }
        self.enqueue(self.topo.owner_of(to), Outgoing::Msg { from, to, msg });
        None
    }

    fn decide_ping(&self, to: ProcessId) -> Decision {
        if self.topo.is_local(to) {
            return Decision::Deliver;
        }
        self.enqueue(self.topo.owner_of(to), Outgoing::Ping { to });
        Decision::Drop
    }

    fn attach(&self, sender: DirectSender) {
        let listener = self
            .listener
            .try_clone()
            .expect("clone mesh listener for accept thread");
        let sender = Arc::new(sender);
        let counters = Arc::clone(&self.counters);
        let stop = Arc::clone(&self.stop);
        let inbound = Arc::clone(&self.inbound);
        let handle = std::thread::Builder::new()
            .name("lds-tcp-accept".into())
            .spawn(move || run_acceptor(listener, sender, counters, stop, inbound))
            .expect("spawn tcp accept thread");
        self.threads.lock().push(handle);
    }

    fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            ..FaultCounters::default()
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.local_addr());
        // Unblock reader threads parked on half-open inbound streams.
        for stream in self.inbound.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("index", &self.topo.index)
            .field("peers", &self.topo.peers)
            .finish_non_exhaustive()
    }
}

impl Outgoing {
    fn into_frame(self) -> Frame {
        match self {
            Outgoing::Msg { from, to, msg } => Frame::Msg {
                from: from.0 as u64,
                to: to.0 as u64,
                msg,
            },
            Outgoing::Ping { to } => Frame::Ping { to: to.0 as u64 },
        }
    }
}

/// Writer-thread body: connect (with backoff) → `Hello` → block for one
/// queued message, claim whatever else is queued behind it, and send it all
/// through the one reusable buffer — one `write_all` per [`COALESCE_CAP`]
/// bytes, one in all for a typical small backlog. Frames leave in queue
/// order, so per-link FIFO holds. A failed write loses its whole batch
/// (every frame counted) and reconnects.
fn run_writer(
    addr: SocketAddr,
    me: u64,
    rx: crossbeam::channel::Receiver<Outgoing>,
    depth: Arc<AtomicUsize>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
) {
    let mut backoff = RECONNECT_BASE;
    let mut buf = Vec::with_capacity(4096);
    // Appends one claimed item to the batch; 1 if it is now in `buf`.
    let append = |item: Outgoing, buf: &mut Vec<u8>| -> u64 {
        depth.fetch_sub(1, Ordering::Relaxed);
        if wire::encode_frame(&item.into_frame(), buf).is_err() {
            // Oversize: `buf` is left as it was, the message is lost.
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        1
    };
    'outer: while !stop.load(Ordering::Relaxed) {
        let mut stream = match TcpStream::connect_timeout(&addr, RECONNECT_MAX) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                stream
            }
            Err(_) => {
                // Peer not up (yet): drain nothing, retry with backoff. The
                // queue keeps absorbing traffic up to its cap meanwhile.
                let waited = std::time::Instant::now();
                while waited.elapsed() < backoff {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    std::thread::sleep(STOP_POLL.min(backoff));
                }
                backoff = (backoff * 2).min(RECONNECT_MAX);
                continue;
            }
        };
        buf.clear();
        if wire::encode_frame(&Frame::Hello { daemon: me }, &mut buf).is_err()
            || stream.write_all(&buf).is_err()
        {
            backoff = (backoff * 2).min(RECONNECT_MAX);
            continue;
        }
        counters.connects.fetch_add(1, Ordering::Relaxed);
        backoff = RECONNECT_BASE;
        loop {
            if stop.load(Ordering::Relaxed) {
                break 'outer;
            }
            let first = match rx.recv_timeout(STOP_POLL) {
                Ok(item) => item,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break 'outer,
            };
            // One lock claims the backlog queued behind `first`; it leaves
            // in queue order as a run of writes of at most COALESCE_CAP
            // bytes (plus the frame that crosses it). Whatever is unwritten
            // when a write fails goes back to the front of the queue.
            let mut backlog = rx.try_iter();
            let mut next = Some(first);
            while let Some(item) = next.take() {
                buf.clear();
                let mut frames = append(item, &mut buf);
                while buf.len() < COALESCE_CAP {
                    let Some(item) = backlog.next() else { break };
                    frames += append(item, &mut buf);
                }
                let written = stream.write_all(&buf);
                if buf.capacity() > 2 * COALESCE_CAP {
                    // One oversized frame must not pin its high-water mark.
                    buf.clear();
                    buf.shrink_to(COALESCE_CAP);
                }
                if written.is_err() {
                    // Link died under us: this batch is lost, reconnect.
                    counters.dropped.fetch_add(frames, Ordering::Relaxed);
                    continue 'outer;
                }
                next = backlog.next();
            }
        }
    }
}

/// Accept-thread body: every inbound connection gets its own reader thread.
/// Readers are detached: each exits when its stream dies (shutdown closes
/// every tracked stream) and drops its own tracking entry on the way out.
fn run_acceptor(
    listener: TcpListener,
    sender: Arc<DirectSender>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    inbound: Inbound,
) {
    for conn in 0u64.. {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let Ok(tracked) = stream.try_clone() else {
            // Untracked, shutdown could not unblock its reader: refuse it.
            continue;
        };
        // Tracked before the reader starts, under the lock the reader's own
        // removal takes: a reader that dies at once still finds its entry.
        let mut live = inbound.lock();
        live.insert(conn, tracked);
        let spawned = std::thread::Builder::new()
            .name("lds-tcp-reader".into())
            .spawn({
                let sender = Arc::clone(&sender);
                let counters = Arc::clone(&counters);
                let stop = Arc::clone(&stop);
                let inbound = Arc::clone(&inbound);
                move || {
                    run_reader(stream, sender, counters, stop);
                    inbound.lock().remove(&conn);
                }
            });
        if spawned.is_err() {
            live.remove(&conn);
        }
    }
}

/// Reader-thread body: validate the `Hello`, then deliver every decoded
/// frame into the local router. The stream is read through a `BufReader`,
/// so one `read` syscall yields every frame the peer's writer coalesced.
/// Any decode error poisons the connection (framing is lost), so the stream
/// is dropped and the peer reconnects.
fn run_reader(
    stream: TcpStream,
    sender: Arc<DirectSender>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
) {
    let mut stream = BufReader::with_capacity(wire::READ_BUF_LEN, stream);
    let mut body = Vec::with_capacity(4096);
    match wire::read_frame(&mut stream, &mut body) {
        Some(Ok(Frame::Hello { .. })) => {}
        // Shutdown's throwaway self-connection lands here too: no Hello,
        // just EOF.
        _ => return,
    }
    while !stop.load(Ordering::Relaxed) {
        match wire::read_frame(&mut stream, &mut body) {
            Some(Ok(Frame::Msg { from, to, msg })) => {
                counters.delivered.fetch_add(1, Ordering::Relaxed);
                sender.deliver(ProcessId(from as usize), ProcessId(to as usize), msg);
            }
            Some(Ok(Frame::Ping { to })) => {
                counters.delivered.fetch_add(1, Ordering::Relaxed);
                sender.deliver_ping(ProcessId(to as usize));
            }
            Some(Ok(_)) => {
                // RPC frames do not belong on the mesh port.
                counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Some(Err(_)) => {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;
    use lds_core::tag::ObjectId;

    use crate::router::{Envelope, Inbox};
    use lds_core::tag::{ClientId, OpId, Tag};
    use lds_core::value::Value;
    use std::time::Instant;

    fn loopback(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// The two-daemon placement the link tests share: pid 0 lives on
    /// daemon 0, pid 1 on daemon 1.
    fn two_daemon_topology() -> impl Fn(usize) -> TcpTopology {
        // Reserve both ephemeral ports first, then build the shared
        // topology from the resolved addresses.
        let probe_a = TcpListener::bind(loopback(0)).unwrap();
        let probe_b = TcpListener::bind(loopback(0)).unwrap();
        let peers = vec![probe_a.local_addr().unwrap(), probe_b.local_addr().unwrap()];
        move |index| TcpTopology {
            n1: 1,
            n2: 1,
            index,
            peers: peers.clone(),
            server_owner: vec![0, 1],
        }
    }

    /// One daemon's transport, router and the inbox of the pid it hosts.
    fn daemon(topo: TcpTopology) -> (Arc<TcpTransport>, Router, Inbox) {
        let pid = ProcessId(topo.index);
        let transport = Arc::new(TcpTransport::bind(topo).unwrap());
        let router = Router::with_transport(transport.clone() as Arc<dyn Transport>);
        let inbox = router.register(pid);
        (transport, router, inbox)
    }

    /// A metadata message numbered `seq`, from pid 0 to pid 1.
    fn numbered(seq: u64) -> (ProcessId, LdsMessage) {
        let op = OpId::new(ClientId(9), seq);
        (
            ProcessId(1),
            LdsMessage::QueryTag {
                obj: ObjectId(42),
                op,
            },
        )
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Two routers over two TcpTransports on loopback: a message sent to a
    /// pid owned by the other daemon crosses the wire and lands in its
    /// inbox.
    #[test]
    fn message_crosses_the_wire() {
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a) = daemon(topo(0));
        let (tb, _rb, inbox_b) = daemon(topo(1));

        let msg = LdsMessage::InvokeRead { obj: ObjectId(42) };
        let mut handle = ra.handle();
        // The writer link may still be connecting; the queue absorbs the
        // send either way.
        handle.send(ProcessId(0), ProcessId(1), msg.clone());

        let envelope = inbox_b
            .rx
            .recv_timeout(Duration::from_secs(10))
            .expect("message should cross the wire within 10s");
        match envelope {
            Envelope::Protocol { from, msg: m } => {
                assert_eq!(from, ProcessId(0));
                assert_eq!(m, msg);
            }
            other => panic!("unexpected envelope {other:?}"),
        }
        assert!(tb.frames_delivered() >= 1);
        ta.shutdown();
        tb.shutdown();
    }

    /// A backlog crosses a link whole and in order: the writer coalesces
    /// whatever is queued into bounded writes, and frames far larger than
    /// the byte budget (and than the reader's buffer) ride in between
    /// without disturbing the order around them.
    #[test]
    fn coalesced_link_is_complete_and_fifo() {
        const SMALL: u64 = 10_000;
        const LARGE_EVERY: u64 = 2_500;
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a) = daemon(topo(0));
        let (tb, _rb, inbox_b) = daemon(topo(1));

        let sender = std::thread::spawn({
            let tb = Arc::clone(&tb);
            move || {
                let mut handle = ra.handle();
                let mut sent = 0u64;
                for seq in 0..SMALL {
                    // Stay well inside the link's queue bound: an overflow
                    // would be a (counted) drop, not a reordering.
                    while sent - tb.frames_delivered() > (LINK_QUEUE_CAP / 2) as u64 {
                        std::thread::yield_now();
                    }
                    let (to, msg) = numbered(seq);
                    handle.send(ProcessId(0), to, msg);
                    sent += 1;
                    if seq % LARGE_EVERY == LARGE_EVERY - 1 {
                        let large = LdsMessage::PutData {
                            obj: ObjectId(42),
                            op: OpId::new(ClientId(9), seq),
                            tag: Tag::new(seq, ClientId(9)),
                            value: Value::new(vec![seq as u8; 256 << 10]),
                        };
                        handle.send(ProcessId(0), to, large);
                        sent += 1;
                    }
                }
                sent
            }
        });

        let mut next = 0u64;
        let mut large = 0u64;
        while next < SMALL || large < SMALL / LARGE_EVERY {
            let envelope = inbox_b
                .rx
                .recv_timeout(Duration::from_secs(20))
                .expect("the backlog keeps arriving");
            let Envelope::Protocol { from, msg } = envelope else {
                panic!("unexpected envelope {envelope:?}");
            };
            assert_eq!(from, ProcessId(0));
            match msg {
                LdsMessage::QueryTag { op, .. } => {
                    assert_eq!(op.seq, next, "metadata out of order");
                    next += 1;
                }
                LdsMessage::PutData { op, value, .. } => {
                    // Sent right after metadata message `op.seq`.
                    assert_eq!(op.seq + 1, next, "large frame out of order");
                    assert_eq!(value.as_bytes(), &vec![op.seq as u8; 256 << 10][..]);
                    large += 1;
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        let sent = sender.join().unwrap();
        assert_eq!(sent, SMALL + SMALL / LARGE_EVERY);
        assert_eq!(tb.frames_delivered(), sent);
        assert_eq!(ta.fault_counters().dropped, 0);
        ta.shutdown();
        tb.shutdown();
    }

    /// Killing the peer mid-stream: the reader that served it untracks
    /// itself, every frame of a write that fails is counted as dropped (so
    /// nothing sent is unaccounted for), and the writer reconnects to the
    /// restarted peer and flushes what it still holds.
    #[test]
    fn dead_peer_drops_are_counted_and_the_writer_reconnects() {
        const BURST: u64 = 2_000;
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a) = daemon(topo(0));
        let (tb, rb, inbox_b) = daemon(topo(1));
        let mut handle = ra.handle();

        let (to, msg) = numbered(0);
        handle.send(ProcessId(0), to, msg);
        inbox_b
            .rx
            .recv_timeout(Duration::from_secs(10))
            .expect("link comes up");
        assert_eq!(ta.connects(), 1);
        assert_eq!(tb.inbound_tracked(), 1);

        // The peer dies: its reader exits and drops its own tracking entry,
        // then the listener goes away with the transport.
        tb.shutdown();
        wait_until("the dead link's reader to untrack itself", || {
            tb.inbound_tracked() == 0
        });
        drop((rb, inbox_b, tb));

        // The first write into the dead socket may still "succeed" (the
        // reset comes back after it); that one frame is TCP's to lose.
        let (to, msg) = numbered(1);
        handle.send(ProcessId(0), to, msg);
        std::thread::sleep(Duration::from_millis(100));
        let before = ta.fault_counters().dropped;

        // Everything after it is either counted when its write fails, or
        // still queued and delivered once the peer is back.
        handle.send_batch(ProcessId(0), (0..BURST).map(|seq| numbered(2 + seq)));
        wait_until("a failed write to be counted", || {
            ta.fault_counters().dropped > before
        });

        let (tb, _rb, inbox_b) = daemon(topo(1));
        wait_until("the writer to reconnect", || ta.connects() >= 2);
        wait_until("every frame to be delivered or counted", || {
            tb.frames_delivered() + (ta.fault_counters().dropped - before) >= BURST
        });
        // What did arrive kept its order.
        let mut last = 1;
        while let Some(envelope) = inbox_b.rx.try_recv() {
            let Envelope::Protocol {
                msg: LdsMessage::QueryTag { op, .. },
                ..
            } = envelope
            else {
                panic!("unexpected envelope {envelope:?}");
            };
            assert!(op.seq > last, "{} after {last}", op.seq);
            last = op.seq;
        }
        ta.shutdown();
        tb.shutdown();
    }

    #[test]
    fn ownership_rules() {
        let topo = TcpTopology {
            n1: 2,
            n2: 3,
            index: 1,
            peers: vec![loopback(1), loopback(2), loopback(3)],
            server_owner: vec![0, 1, 1, 2, 2],
        };
        assert_eq!(topo.owner_of(ProcessId(0)), 0);
        assert_eq!(topo.owner_of(ProcessId(2)), 1);
        assert_eq!(topo.owner_of(ProcessId(4)), 2);
        // Client pids: daemon d allocates numbers d + 1 + k·3 above the
        // server range (5 servers).
        assert_eq!(topo.owner_of(ProcessId(5 + 1)), 0);
        assert_eq!(topo.owner_of(ProcessId(5 + 2)), 1);
        assert_eq!(topo.owner_of(ProcessId(5 + 3)), 2);
        assert_eq!(topo.owner_of(ProcessId(5 + 4)), 0);
        assert!(topo.is_local(ProcessId::EXTERNAL));
        assert_eq!(topo.client_base(), 2);
        assert_eq!(topo.client_step(), 3);
    }
}
