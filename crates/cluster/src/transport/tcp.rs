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
//!    encoded onto the owner daemon's link buffer (under the link's lock)
//!                         │
//!                         │ flush(), at the end of the sender's burst
//!                         │ (or once 64 KiB are buffered): one non-blocking
//!                         │ `write` per non-empty link, made by the thread
//!                         │ that produced the frames
//!                         │
//!                         │     link thread (one per peer): connect with
//!                         │     backoff + Hello; drains the buffer with
//!                         │     blocking writes while the link is stalled
//!                         │
//!                  ═══════╪══════ network ══════════════
//!                         ▼
//!                  reader thread (one per accepted conn)
//!                  BufReader → every frame one `read` yielded → decode
//!                  → DirectSender::deliver_many → one ring per worker
//!                         │
//!                         ▼
//!                  destination inboxes on the remote router
//! ```
//!
//! Ownership of a destination pid is decided by [`TcpTopology::owner_of`]:
//! server pids map through the configured membership, client and auxiliary
//! pids are striped across daemons by their allocation residue (each daemon
//! allocates client numbers `base + k·step` with `base = index + 1`,
//! `step = daemons`), and [`ProcessId::EXTERNAL`] is always local.
//!
//! # The link
//!
//! A link is one byte buffer of encoded-but-unwritten frames and one
//! socket under one lock. The lock is held to append and to take the buffer,
//! never across a system call; at most one thread — the socket's *owner* —
//! writes what it took, outside the lock, so frames leave in the order they
//! were appended: per-link FIFO.
//!
//! * **Direct** (the steady state): senders append, and the first
//!   [`Transport::flush`] to find frames takes the socket, swaps the buffer
//!   out and pushes it into the non-blocking socket with one `write`;
//!   whoever flushes meanwhile leaves its frames to that owner, which goes
//!   round again until the buffer is empty. No other thread is involved. A
//!   sender that fills the buffer to [`COALESCE_CAP`] flushes it without
//!   waiting for the end of its burst.
//! * **Stalled**: a flush met a full socket (`WouldBlock` or a partial
//!   write). Senders keep appending, up to the byte budget, and never touch
//!   the socket; the link thread alone drains the buffer — the same swap,
//!   then `write_all` with the socket switched to blocking — and hands
//!   writing back once the buffer is empty. A link also starts out stalled
//!   after every (re)connect, so a backlog that built up while it was down
//!   leaves through the link thread.
//! * **Down**: no socket. Senders append up to the budget; the link thread
//!   reconnects with exponential backoff, so a restarted peer daemon
//!   re-joins the mesh without any coordination.
//!
//! # Failure semantics
//!
//! These are honest about what TCP gives us: no thread that sends or
//! flushes ever blocks on a socket, so a link that is down or backed up
//! **drops** messages rather than stalling the protocol's sender threads —
//! the LDS protocol is designed for lossy asynchronous networks, and the
//! quorum logic, not the transport, provides reliability. Every lost frame
//! is counted once in [`FaultCounters::dropped`]: a frame over
//! [`wire::MAX_FRAME`], a frame that would push a link's unwritten backlog
//! past [`LINK_BACKLOG_CAP`] bytes, and every frame buffered on a link whose
//! write failed (TCP cannot say which of them the peer still received).

use super::{Decision, FaultCounters, Transport};
use crate::router::DirectSender;
use lds_core::messages::LdsMessage;
use lds_core::wire::{self, Frame};
use lds_sim::ProcessId;
use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use parking_lot::Mutex;

/// Byte budget of one link's unwritten backlog (buffered plus being
/// drained). A link that is down or slow beyond it starts dropping
/// (counted); the protocol's quorums tolerate the loss. A single frame may
/// exceed it when nothing else is queued (a large coded element).
const LINK_BACKLOG_CAP: usize = 32 << 20;

/// Byte budget of one coalesced write: a link buffer that reaches it is
/// flushed by the thread that filled it, without waiting for the end of its
/// burst. Small frames leave a burst at a time; a burst of large frames (coded
/// elements) leaves as it is produced, from a buffer that stays cache-sized,
/// while the peer already works on its head. A single frame may exceed it.
/// Also the capacity a link buffer keeps (see [`reset`]).
const COALESCE_CAP: usize = 64 << 10;

/// Most frames a reader hands over in one
/// [`DirectSender::deliver_many`], however many one `read` yielded.
const READ_BURST: usize = 256;

/// First reconnect delay; doubles up to [`RECONNECT_MAX`].
const RECONNECT_BASE: Duration = Duration::from_millis(50);

/// Ceiling on the reconnect backoff.
const RECONNECT_MAX: Duration = Duration::from_secs(2);

/// How often an idle link thread re-checks the stop flag.
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

/// Counters shared by every link and reader thread.
#[derive(Default)]
struct Counters {
    /// Messages lost: over a link's byte budget, oversize, buffered on a
    /// link whose write failed, or undecodable inbound frames.
    dropped: AtomicU64,
    /// Successful (re)connects across all peer links.
    connects: AtomicU64,
    /// Frames received and delivered into the local router.
    delivered: AtomicU64,
    /// Frames handed to a socket by a write that succeeded.
    frames_sent: AtomicU64,
    /// Socket writes that carried them: one per flush of a non-empty link,
    /// one per buffer the link thread drained.
    writes: AtomicU64,
    /// Flushes that met a full socket and left the rest to the link thread.
    stalls: AtomicU64,
}

/// What the outgoing links have done so far, summed over every peer (see
/// [`TcpTransport::link_stats`]). `frames_sent / writes` is how many frames
/// the average burst put into one socket write.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames handed to a socket by a write that succeeded.
    pub frames_sent: u64,
    /// The socket writes that carried them.
    pub writes: u64,
    /// Flushes that met a full socket (`WouldBlock` or a partial write).
    pub stalls: u64,
    /// Encoded bytes no write has taken yet, right now.
    pub backlog_bytes: usize,
}

/// Who writes a link's socket.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// Nobody at the moment: the next flush that finds frames takes it.
    Senders,
    /// A flush, which is writing what it took.
    Flush,
    /// The link thread: the link is stalled, connecting or down.
    #[default]
    LinkThread,
}

/// What a link's lock guards.
#[derive(Default)]
struct LinkState {
    /// Encoded frames nobody has taken yet, in send order.
    buf: Vec<u8>,
    /// Frames with bytes in `buf`.
    frames: u64,
    /// Bytes the owner took out of `buf` and is writing; they still count
    /// against the budget.
    in_flight: usize,
    /// The buffer of the last write, emptied: the next one swaps it in, so
    /// neither allocates in the steady state.
    spare: Vec<u8>,
    /// The connected socket; `None` while the link is down.
    stream: Option<Arc<TcpStream>>,
    owner: Owner,
}

/// One peer link (see "The link" at the top of this source file).
struct Link {
    state: Mutex<LinkState>,
    /// The link thread, unparked when the link stalls or its socket fails.
    thread: OnceLock<Thread>,
    counters: Arc<Counters>,
}

/// Empties `buf`, giving back what a large frame or a backlog made it grow
/// by.
fn reset(buf: &mut Vec<u8>) {
    buf.clear();
    if buf.capacity() > 2 * COALESCE_CAP {
        buf.shrink_to(COALESCE_CAP);
    }
}

impl LinkState {
    /// Takes everything buffered, and its frame count, for a write outside
    /// the lock.
    fn take(&mut self) -> (Vec<u8>, u64) {
        let chunk = std::mem::replace(&mut self.buf, std::mem::take(&mut self.spare));
        self.in_flight = chunk.len();
        (chunk, std::mem::take(&mut self.frames))
    }

    /// The write of `chunk` is over, one way or another.
    fn give_back(&mut self, mut chunk: Vec<u8>) {
        reset(&mut chunk);
        self.spare = chunk;
        self.in_flight = 0;
    }

    /// The socket failed: everything buffered (plus `in_flight` frames of
    /// the write that died) is lost and counted, the stream is discarded and
    /// the link thread reconnects.
    fn fail(&mut self, counters: &Counters, in_flight: u64) {
        let lost = in_flight + std::mem::take(&mut self.frames);
        counters.dropped.fetch_add(lost, Ordering::Relaxed);
        reset(&mut self.buf);
        self.stream = None;
        self.owner = Owner::LinkThread;
    }
}

impl Link {
    fn ring(&self) {
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }

    /// Appends one frame to the backlog, or drops and counts it: oversize,
    /// or over the byte budget with something already queued. A buffer that
    /// has reached [`COALESCE_CAP`] is flushed at once.
    fn push(&self, frame: &Frame) {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let start = state.buf.len();
        let fits = wire::encode_frame(frame, &mut state.buf).is_ok()
            && (start + state.in_flight == 0
                || state.buf.len() + state.in_flight <= LINK_BACKLOG_CAP);
        if !fits {
            state.buf.truncate(start);
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        state.frames += 1;
        if state.buf.len() >= COALESCE_CAP {
            drop(guard);
            self.flush();
        }
    }

    /// Pushes the backlog into the socket, one non-blocking `write` per
    /// round, unless somebody else owns the socket (and will write what this
    /// thread appended). A socket that does not take all of it stalls the
    /// link; one that fails loses it. Either way the link thread is rung and
    /// this thread moves on.
    fn flush(&self) {
        let counters = &*self.counters;
        let mut state = self.state.lock();
        if state.owner != Owner::Senders {
            return;
        }
        let Some(stream) = state.stream.clone() else {
            return;
        };
        while !state.buf.is_empty() {
            state.owner = Owner::Flush;
            let (mut chunk, frames) = state.take();
            drop(state);
            let written = loop {
                match (&*stream).write(&chunk) {
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(0),
                    other => break other,
                }
            };
            state = self.state.lock();
            match written {
                Ok(n) if n == chunk.len() => {
                    counters.writes.fetch_add(1, Ordering::Relaxed);
                    counters.frames_sent.fetch_add(frames, Ordering::Relaxed);
                    state.give_back(chunk);
                    state.owner = Owner::Senders;
                }
                Ok(n) => {
                    // The socket is full. What it did not take goes back in
                    // front of what was appended meanwhile, and all of it to
                    // the link thread.
                    chunk.drain(..n);
                    chunk.extend_from_slice(&state.buf);
                    std::mem::swap(&mut state.buf, &mut chunk);
                    state.give_back(chunk);
                    state.frames += frames;
                    state.owner = Owner::LinkThread;
                    counters.stalls.fetch_add(1, Ordering::Relaxed);
                    self.ring();
                    return;
                }
                Err(_) => {
                    state.give_back(chunk);
                    state.fail(counters, frames);
                    self.ring();
                    return;
                }
            }
        }
    }
}

/// Live inbound connections: connection number → a clone of its stream.
type Inbound = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// The TCP transport: real per-peer network links behind the
/// [`Transport`] seam (threading model at the top of this source file).
pub struct TcpTransport {
    topo: TcpTopology,
    /// By daemon index; `None` at this daemon's own.
    links: Vec<Option<Arc<Link>>>,
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
    /// link thread per remote peer. Reader threads start when the router
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
            let link = Arc::new(Link {
                state: Mutex::default(),
                thread: OnceLock::new(),
                counters: Arc::clone(&counters),
            });
            let handle = std::thread::Builder::new()
                .name(format!("lds-tcp-link-{peer}"))
                .spawn({
                    let link = Arc::clone(&link);
                    let stop = Arc::clone(&stop);
                    let me = topo.index as u64;
                    move || run_link(addr, me, &link, &stop)
                })
                .expect("spawn tcp link thread");
            // Nothing can ring the link before `bind` returns.
            let _ = link.thread.set(handle.thread().clone());
            links.push(Some(link));
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

    /// What the outgoing links have written, and what they still hold.
    pub fn link_stats(&self) -> LinkStats {
        let backlog_bytes = self
            .links
            .iter()
            .flatten()
            .map(|link| {
                let state = link.state.lock();
                state.buf.len() + state.in_flight
            })
            .sum();
        LinkStats {
            frames_sent: self.counters.frames_sent.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            stalls: self.counters.stalls.load(Ordering::Relaxed),
            backlog_bytes,
        }
    }

    /// Inbound connections currently tracked (live reader threads).
    #[cfg(test)]
    fn inbound_tracked(&self) -> usize {
        self.inbound.lock().len()
    }

    /// The link to the daemon hosting `pid`; `None` when that is this
    /// daemon and the router delivers locally.
    fn link_to(&self, pid: ProcessId) -> Option<&Link> {
        self.links[self.topo.owner_of(pid)].as_deref()
    }
}

impl Transport for TcpTransport {
    fn is_faulty(&self) -> bool {
        // Not a fault *injector*, but every message must be adjudicated so
        // remote-bound traffic can be intercepted.
        true
    }

    fn take_remote(&self, from: ProcessId, to: ProcessId, msg: LdsMessage) -> Option<LdsMessage> {
        let Some(link) = self.link_to(to) else {
            // `decide` keeps its default: local traffic is simply delivered.
            return Some(msg);
        };
        link.push(&Frame::Msg {
            from: from.0 as u64,
            to: to.0 as u64,
            msg,
        });
        None
    }

    fn decide_ping(&self, to: ProcessId) -> Decision {
        let Some(link) = self.link_to(to) else {
            return Decision::Deliver;
        };
        link.push(&Frame::Ping { to: to.0 as u64 });
        Decision::Drop
    }

    fn flush(&self) {
        for link in self.links.iter().flatten() {
            link.flush();
        }
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
        // Unblock link threads: one parked on its doorbell, one inside a
        // blocking drain of a peer that stopped reading. A link thread that
        // installs a socket after this pass sees `stop` before it writes.
        for link in self.links.iter().flatten() {
            if let Some(stream) = &link.state.lock().stream {
                let _ = stream.shutdown(Shutdown::Both);
            }
            link.ring();
        }
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

impl Drop for TcpTransport {
    /// Link threads hold their link, not the transport: tell them to go.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for link in self.links.iter().flatten() {
            link.ring();
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

/// Connects to `addr` and introduces this daemon, the socket still
/// blocking.
fn connect(addr: SocketAddr, me: u64) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, RECONNECT_MAX)?;
    let _ = stream.set_nodelay(true);
    let mut hello = Vec::new();
    wire::encode_frame(&Frame::Hello { daemon: me }, &mut hello).expect("a Hello is small");
    stream.write_all(&hello)?;
    Ok(stream)
}

/// Link-thread body: connect (with backoff) → `Hello` → install the socket,
/// stalled → drain → hand the socket to the senders → sleep on the doorbell
/// until a flush stalls the link again (drain, hand back) or a write fails
/// (reconnect). Senders and this thread share one socket, so switching its
/// blocking mode here switches it for the senders — who do not touch a
/// stalled link's socket.
fn run_link(addr: SocketAddr, me: u64, link: &Link, stop: &AtomicBool) {
    let counters = &*link.counters;
    let mut backoff = RECONNECT_BASE;
    'reconnect: while !stop.load(Ordering::SeqCst) {
        let Ok(stream) = connect(addr, me).map(Arc::new) else {
            // Peer not up (yet): the buffer keeps absorbing traffic up to
            // its budget meanwhile.
            let waited = std::time::Instant::now();
            while waited.elapsed() < backoff {
                if stop.load(Ordering::SeqCst) {
                    break 'reconnect;
                }
                std::thread::sleep(STOP_POLL.min(backoff));
            }
            backoff = (backoff * 2).min(RECONNECT_MAX);
            continue;
        };
        counters.connects.fetch_add(1, Ordering::Relaxed);
        backoff = RECONNECT_BASE;
        link.state.lock().stream = Some(Arc::clone(&stream));
        while !stop.load(Ordering::SeqCst) {
            let mut state = link.state.lock();
            if state.stream.is_none() {
                continue 'reconnect; // a sender's write failed
            }
            if state.owner != Owner::LinkThread {
                drop(state);
                std::thread::park_timeout(STOP_POLL);
                continue;
            }
            if state.buf.is_empty() {
                // Drained: senders write the socket themselves again.
                match stream.set_nonblocking(true) {
                    Ok(()) => state.owner = Owner::Senders,
                    Err(_) => state.fail(counters, 0),
                }
                continue;
            }
            let (chunk, frames) = state.take();
            drop(state);
            let written = stream
                .set_nonblocking(false)
                .and_then(|()| (&*stream).write_all(&chunk));
            let mut state = link.state.lock();
            state.give_back(chunk);
            match written {
                Ok(()) => {
                    counters.writes.fetch_add(1, Ordering::Relaxed);
                    counters.frames_sent.fetch_add(frames, Ordering::Relaxed);
                }
                Err(_) => state.fail(counters, frames),
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
                    run_reader(stream, &sender, &counters, &stop);
                    inbound.lock().remove(&conn);
                }
            });
        if spawned.is_err() {
            live.remove(&conn);
        }
    }
}

/// Whether `buffered` starts with a whole frame: the next `read_frame`
/// then returns without waiting for the peer.
fn holds_frame(buffered: &[u8]) -> bool {
    buffered
        .split_first_chunk::<{ wire::HEADER_LEN }>()
        .is_some_and(|(header, rest)| wire::frame_len(*header).is_ok_and(|len| rest.len() >= len))
}

/// Reader-thread body: validate the `Hello`, then deliver every decoded
/// frame into the local router, a burst at a time. The stream is read
/// through a `BufReader`, so one `read` syscall yields every frame the
/// peer's burst put into one write; the messages among them are handed over
/// together ([`DirectSender::deliver_many`]: all enqueued, then one ring
/// per worker). A burst ends where the next frame would have to be waited
/// for, at [`READ_BURST`] messages, or at anything that is not a message —
/// what preceded it is delivered first. Any decode error poisons the
/// connection (framing is lost), so the stream is dropped and the peer
/// reconnects.
fn run_reader(stream: TcpStream, sender: &DirectSender, counters: &Counters, stop: &AtomicBool) {
    let mut stream = BufReader::with_capacity(wire::READ_BUF_LEN, stream);
    let mut body = Vec::with_capacity(4096);
    match wire::read_frame(&mut stream, &mut body) {
        Some(Ok(Frame::Hello { .. })) => {}
        // Shutdown's throwaway self-connection lands here too: no Hello,
        // just EOF.
        _ => return,
    }
    let mut burst = Vec::new();
    let deliver = |burst: &mut Vec<(ProcessId, ProcessId, LdsMessage)>| {
        counters
            .delivered
            .fetch_add(burst.len() as u64, Ordering::Relaxed);
        sender.deliver_many(burst.drain(..));
    };
    while !stop.load(Ordering::Relaxed) {
        let frame = wire::read_frame(&mut stream, &mut body);
        if let Some(Ok(Frame::Msg { from, to, msg })) = frame {
            burst.push((ProcessId(from as usize), ProcessId(to as usize), msg));
            if burst.len() == READ_BURST || !holds_frame(stream.buffer()) {
                deliver(&mut burst);
            }
            continue;
        }
        deliver(&mut burst);
        match frame {
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
    use crate::api::{Store, StoreBuilder};
    use crate::executor::{Executor, Task, Turn};
    use crate::node::HostScope;
    use crate::router::{DepthGauge, Envelope, Inbox, Router, RouterHandle};
    use lds_core::tag::{ClientId, ObjectId, OpId, Tag};
    use lds_core::value::Value;
    use lds_core::wire::Request;
    use std::io::Read;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    const LARGE: usize = 256 << 10;

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

    /// Metadata message `seq` of `sender`, for pid 1.
    fn query_tag(sender: u64, seq: u64) -> (ProcessId, LdsMessage) {
        let op = OpId::new(ClientId(sender), seq);
        let obj = ObjectId(42);
        (ProcessId(1), LdsMessage::QueryTag { obj, op })
    }

    /// A metadata message numbered `seq`, from pid 0 to pid 1.
    fn numbered(seq: u64) -> (ProcessId, LdsMessage) {
        query_tag(9, seq)
    }

    /// A [`LARGE`] message numbered `seq` of `sender`, for pid 1.
    fn large(sender: u64, seq: u64) -> (ProcessId, LdsMessage) {
        let msg = LdsMessage::PutData {
            obj: ObjectId(42),
            op: OpId::new(ClientId(sender), seq),
            tag: Tag::new(seq, ClientId(sender)),
            value: Value::new(vec![seq as u8; LARGE]),
        };
        (ProcessId(1), msg)
    }

    fn encoded(frame: &Frame) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::encode_frame(frame, &mut bytes).unwrap();
        bytes
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Waits until the link to `peer` is up and its senders write the
    /// socket themselves.
    fn wait_direct(transport: &TcpTransport, peer: usize) {
        let link = transport.links[peer].as_ref().expect("a remote peer");
        wait_until("the link to be handed to its senders", || {
            link.state.lock().owner == Owner::Senders
        });
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
        // The link may still be connecting; its buffer absorbs the send
        // either way.
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

    /// Sends `small` numbered metadata messages from pid 0 to pid 1, a
    /// [`LARGE`] one after every `large_every`-th, each flushed on its own,
    /// and checks that all of it arrives, whole and in order. Returns the
    /// sending transport's final link statistics.
    fn fifo_run(small: u64, large_every: u64) -> LinkStats {
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a) = daemon(topo(0));
        let (tb, _rb, inbox_b) = daemon(topo(1));
        // From here on only a full socket takes the link from its senders.
        wait_direct(&ta, 1);

        let sender = std::thread::spawn({
            let ta = Arc::clone(&ta);
            move || {
                let mut handle = ra.handle();
                let mut sent = 0u64;
                for seq in 0..small {
                    // Stay well inside the link's budget: an overflow would
                    // be a (counted) drop, not a reordering.
                    while ta.link_stats().backlog_bytes > LINK_BACKLOG_CAP / 2 {
                        std::thread::yield_now();
                    }
                    let (to, msg) = numbered(seq);
                    handle.send(ProcessId(0), to, msg);
                    sent += 1;
                    if seq % large_every == large_every - 1 {
                        let (to, msg) = large(9, seq);
                        handle.send(ProcessId(0), to, msg);
                        sent += 1;
                    }
                }
                sent
            }
        });

        let mut next = 0u64;
        let mut larges = 0u64;
        while next < small || larges < small / large_every {
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
                    assert_eq!(value.as_bytes(), &vec![op.seq as u8; LARGE][..]);
                    larges += 1;
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        let sent = sender.join().unwrap();
        assert_eq!(sent, small + small / large_every);
        assert_eq!(tb.frames_delivered(), sent);
        assert_eq!(ta.fault_counters().dropped, 0);
        // Whatever the link went through, it ends up with its senders.
        wait_direct(&ta, 1);
        let stats = ta.link_stats();
        assert_eq!((stats.frames_sent, stats.backlog_bytes), (sent, 0));
        ta.shutdown();
        tb.shutdown();
        stats
    }

    /// A stream of small frames crosses a link whole and in order, and
    /// frames far larger than the reader's buffer ride in between without
    /// disturbing the order around them.
    #[test]
    fn coalesced_link_is_complete_and_fifo() {
        fifo_run(10_000, 2_500);
    }

    /// 50 MiB of large frames among the small ones fill the socket again and
    /// again: the link goes direct → stalled → direct many times, and every
    /// hand-over keeps the stream whole and in order.
    #[test]
    fn a_link_that_keeps_stalling_is_complete_and_fifo() {
        let stats = fifo_run(2_000, 10);
        assert!(stats.stalls > 0, "200 large frames never filled the socket");
    }

    /// A peer that accepts and never reads: senders keep returning at once,
    /// the backlog stops at the byte budget, what is lost is counted — and
    /// when the peer does read, everything that was not counted arrives
    /// whole, in each sender's order, and the link goes back to its senders.
    #[test]
    fn a_peer_that_never_reads_blocks_no_sender_and_loses_only_what_is_counted() {
        // 2 × 160 × 256 KiB = 80 MiB into a 32 MiB budget plus whatever the
        // kernel's socket buffers take.
        const PER_SENDER: u64 = 160;
        let peer = TcpListener::bind(loopback(0)).unwrap();
        let own = TcpListener::bind(loopback(0)).unwrap().local_addr();
        let (ta, ra, _inbox_a) = daemon(TcpTopology {
            n1: 1,
            n2: 1,
            index: 0,
            peers: vec![own.unwrap(), peer.local_addr().unwrap()],
            server_owner: vec![0, 1],
        });
        let (conn, _) = peer.accept().unwrap();
        wait_direct(&ta, 1);

        let senders: Vec<_> = (0..2u64)
            .map(|sender| {
                let ta = Arc::clone(&ta);
                let mut handle = ra.handle();
                std::thread::spawn(move || {
                    let mut slowest = Duration::ZERO;
                    for seq in 0..PER_SENDER {
                        let started = Instant::now();
                        handle.send_batch(ProcessId(0), [large(sender, seq)]);
                        handle.flush();
                        slowest = slowest.max(started.elapsed());
                        assert!(ta.link_stats().backlog_bytes <= LINK_BACKLOG_CAP);
                    }
                    slowest
                })
            })
            .collect();
        for sender in senders {
            // Blocked on this peer it would never return; the bound only has
            // to survive a busy test host.
            let slowest = sender.join().unwrap();
            assert!(slowest < Duration::from_secs(1), "a send took {slowest:?}");
        }
        let sent = 2 * PER_SENDER;
        let dropped = ta.fault_counters().dropped;
        assert!(dropped > 0 && dropped < sent, "{dropped} of {sent} dropped");
        assert!(ta.link_stats().stalls > 0);

        // The peer starts reading.
        let mut conn = BufReader::with_capacity(wire::READ_BUF_LEN, conn);
        let mut body = Vec::new();
        let hello = wire::read_frame(&mut conn, &mut body);
        assert!(matches!(hello, Some(Ok(Frame::Hello { daemon: 0 }))));
        let mut next = [0u64; 2];
        for _ in 0..sent - dropped {
            let frame = wire::read_frame(&mut conn, &mut body);
            let Some(Ok(Frame::Msg {
                from: 0,
                to: 1,
                msg: LdsMessage::PutData { op, value, .. },
            })) = frame
            else {
                panic!("a torn or foreign frame: {frame:?}");
            };
            let sender = op.client.0 as usize;
            assert!(op.seq >= next[sender], "sender {sender} reordered");
            next[sender] = op.seq + 1;
            assert_eq!(value.as_bytes(), &vec![op.seq as u8; LARGE][..]);
        }
        assert_eq!(ta.fault_counters().dropped, dropped);

        // Stalled → direct: the next burst is written by its sender, behind
        // the last drained byte.
        wait_direct(&ta, 1);
        let before = ta.link_stats();
        assert_eq!(
            (before.frames_sent, before.backlog_bytes),
            (sent - dropped, 0)
        );
        let mut handle = ra.handle();
        handle.send_batch(ProcessId(0), (0..8).map(numbered));
        handle.flush();
        assert_eq!(ta.link_stats().writes, before.writes + 1);
        for seq in 0..8 {
            let frame = wire::read_frame(&mut conn, &mut body);
            let (_, msg) = numbered(seq);
            assert_eq!(
                frame,
                Some(Ok(Frame::Msg {
                    from: 0,
                    to: 1,
                    msg
                }))
            );
        }
        ta.shutdown();
    }

    /// `send_batch` only buffers; the flush that ends the burst is one
    /// socket write for all of it.
    #[test]
    fn a_burst_to_one_peer_is_one_socket_write() {
        const BURST: u64 = 64;
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a) = daemon(topo(0));
        let (tb, _rb, inbox_b) = daemon(topo(1));
        wait_direct(&ta, 1);
        let before = ta.link_stats();
        assert_eq!(before, LinkStats::default());

        let mut handle = ra.handle();
        handle.send_batch(ProcessId(0), (0..BURST).map(numbered));
        let buffered = ta.link_stats();
        assert_eq!((buffered.frames_sent, buffered.writes), (0, 0));
        assert!(buffered.backlog_bytes > 0);
        handle.flush();
        let flushed = LinkStats {
            frames_sent: BURST,
            writes: 1,
            stalls: 0,
            backlog_bytes: 0,
        };
        assert_eq!(ta.link_stats(), flushed);
        // Nothing to write, no write.
        handle.flush();
        assert_eq!(ta.link_stats(), flushed);

        wait_until("the burst to arrive", || tb.frames_delivered() == BURST);
        let arrived: usize = inbox_b.rx.try_iter().map(|e| e.message_count()).sum();
        assert_eq!(arrived as u64, BURST);
        ta.shutdown();
        tb.shutdown();
    }

    /// Killing the peer mid-stream: the reader that served it untracks
    /// itself, every frame buffered when a write fails is counted as dropped
    /// (so nothing sent is unaccounted for), a dead peer's backlog stops at
    /// the byte budget, and the link thread reconnects to the restarted peer
    /// and sends what the link still holds.
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
        // still buffered and delivered once the peer is back.
        handle.send_batch(ProcessId(0), (0..BURST).map(|seq| numbered(2 + seq)));
        handle.flush();
        wait_until("a failed write to be counted", || {
            ta.fault_counters().dropped > before
        });

        // 48 MiB for a peer that is not there: what the link keeps is
        // bounded in bytes, the rest is counted.
        let counted = ta.fault_counters().dropped;
        for seq in 0..192 {
            handle.send_batch(ProcessId(0), [large(9, seq)]);
            handle.flush();
        }
        assert!(ta.link_stats().backlog_bytes <= LINK_BACKLOG_CAP);
        let overflowed = ta.fault_counters().dropped - counted;
        assert!((64..192).contains(&overflowed), "{overflowed} of 192");

        let (tb, _rb, inbox_b) = daemon(topo(1));
        wait_until("the link thread to reconnect", || ta.connects() >= 2);
        wait_until("every frame to be delivered or counted", || {
            tb.frames_delivered() + (ta.fault_counters().dropped - before) >= BURST + 192
        });
        // What did arrive kept its order.
        let mut last = 1;
        while let Some(envelope) = inbox_b.rx.try_recv() {
            match envelope {
                Envelope::Protocol {
                    msg: LdsMessage::QueryTag { op, .. },
                    ..
                } => {
                    assert!(op.seq > last, "{} after {last}", op.seq);
                    last = op.seq;
                }
                Envelope::Protocol {
                    msg: LdsMessage::PutData { .. },
                    ..
                } => {}
                other => panic!("unexpected envelope {other:?}"),
            }
        }
        ta.shutdown();
        tb.shutdown();
    }

    /// Drains an inbox on an executor worker.
    struct Sink {
        inbox: Inbox,
        claimed: Arc<AtomicUsize>,
    }

    impl Task for Sink {
        fn turn(&mut self, _now_micros: u64, _handle: &mut RouterHandle) -> Turn {
            let mut turn = Turn::default();
            for envelope in self.inbox.rx.try_iter() {
                turn.envelopes += 1;
                self.inbox.depth.sub(envelope.message_count());
                self.claimed
                    .fetch_add(envelope.message_count(), Ordering::SeqCst);
            }
            turn
        }
        fn has_mail(&self) -> bool {
            !self.inbox.rx.is_empty()
        }
        fn publish(&mut self) {}
        fn finish(&mut self, _router: &Router) {}
    }

    /// A burst for two tasks of one parked worker wakes it once, after all
    /// of the burst is in their inboxes.
    #[test]
    fn a_burst_rings_a_parked_worker_once() {
        let router = Router::new();
        let executor = Executor::start(1, &router, Instant::now());
        let claimed = Arc::new(AtomicUsize::new(0));
        for pid in 0..2 {
            let gauges = [Arc::new(DepthGauge::default())];
            let bell_of = |_| Some(executor.bell(0));
            let inbox = router
                .register_shards(ProcessId(pid), &gauges, bell_of)
                .pop()
                .expect("one shard");
            let claimed = Arc::clone(&claimed);
            executor.install(0, Box::new(Sink { inbox, claimed }));
        }
        let burst = |len: u64| {
            (0..len).map(|seq| {
                let (_, msg) = numbered(seq);
                (ProcessId(9), ProcessId((seq % 2) as usize), msg)
            })
        };
        // Both tasks adopted and served, then the worker goes back to sleep.
        let sender = router.direct();
        sender.deliver_many(burst(2));
        wait_until("the worker to serve both tasks", || {
            claimed.load(Ordering::SeqCst) == 2
        });
        wait_until("the worker to park", || executor.bell(0).is_parked());

        let before = executor.stats().wakeups;
        sender.deliver_many(burst(10));
        wait_until("the burst to be claimed", || {
            claimed.load(Ordering::SeqCst) == 12
        });
        assert_eq!(executor.stats().wakeups, before + 1);
        executor.shutdown();
    }

    /// A burst ends at anything that is not a message — a ping, a frame
    /// that does not belong on the mesh, an undecodable frame, the end of
    /// the stream — and what preceded it is delivered, in order. The
    /// undecodable frame here is a message of a class no row of the protocol
    /// table has: it costs its sender the connection and this daemon
    /// nothing.
    #[test]
    fn a_burst_delivers_what_preceded_its_interruption() {
        let topo = two_daemon_topology();
        let (ta, _ra, inbox_a) = daemon(topo(0));
        let msg = |seq| {
            let (_, msg) = numbered(seq);
            let (from, to) = (1, 0);
            encoded(&Frame::Msg { from, to, msg })
        };
        let hello = encoded(&Frame::Hello { daemon: 1 });
        let mut hostile = msg(4);
        // The class byte follows the length, the kind and the two pids.
        hostile[wire::HEADER_LEN + 1 + 8 + 8] = u8::MAX;
        let stray = encoded(&Frame::Request {
            id: 1,
            req: Request::Read { obj: ObjectId(42) },
        });
        let ping = encoded(&Frame::Ping { to: 0 });
        let stream = [
            &hello,
            &msg(0),
            &msg(1),
            &ping,
            &msg(2),
            &stray,
            &msg(3),
            &hostile,
        ];

        let mut conn = TcpStream::connect(ta.local_addr()).unwrap();
        conn.write_all(&stream.map(|frame| &frame[..]).concat())
            .unwrap();
        // The connection is gone …
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
        assert!(rest.is_empty());
        wait_until("the reader to untrack itself", || ta.inbound_tracked() == 0);
        // … what came before the hostile frame is not …
        let mut seqs = Vec::new();
        let mut pings = 0;
        for envelope in inbox_a.rx.try_iter() {
            match envelope {
                Envelope::Protocol {
                    msg: LdsMessage::QueryTag { op, .. },
                    ..
                } => seqs.push(op.seq),
                Envelope::Ping => {
                    assert_eq!(seqs, [0, 1], "the ping overtook or was overtaken");
                    pings += 1;
                }
                other => panic!("unexpected envelope {other:?}"),
            }
        }
        assert_eq!((seqs, pings), (vec![0, 1, 2, 3], 1));
        assert_eq!(ta.fault_counters().dropped, 2, "the stray and the hostile");
        assert_eq!(ta.frames_delivered(), 5);
        // … and the daemon serves the next connection, up to its EOF.
        let mut conn = TcpStream::connect(ta.local_addr()).unwrap();
        conn.write_all(&[&hello[..], &msg(4), &msg(5)[..7]].concat())
            .unwrap();
        drop(conn);
        let envelope = inbox_a.rx.recv_timeout(Duration::from_secs(10));
        assert!(matches!(
            envelope,
            Ok(Envelope::Protocol { msg: LdsMessage::QueryTag { op, .. }, .. }) if op.seq == 4
        ));
        ta.shutdown();
    }

    /// Whoever owns a router handle flushes before it sleeps: after a
    /// blocking client operation (whose L1 → L2 offload the workers finish
    /// on their own, after the client has its answer) every link buffer of
    /// both daemons ends up empty and every frame sent has arrived.
    #[test]
    fn nobody_goes_to_sleep_on_an_unflushed_burst() {
        let probes = [(); 2].map(|()| TcpListener::bind(loopback(0)).unwrap());
        let peers: Vec<SocketAddr> = probes.iter().map(|p| p.local_addr().unwrap()).collect();
        drop(probes);
        // f1 = f2 = 1, k = 2, d = 3: pids 0..4 are L1, 4..9 are L2, dealt
        // round-robin over two daemons.
        let daemons: Vec<_> = (0..2usize)
            .map(|index| {
                let transport = Arc::new(
                    TcpTransport::bind(TcpTopology {
                        n1: 4,
                        n2: 5,
                        index,
                        peers: peers.clone(),
                        server_owner: (0..9).map(|pid| pid % 2).collect(),
                    })
                    .unwrap(),
                );
                let store = StoreBuilder::new()
                    .failures(1, 1)
                    .code(2, 3)
                    .transport(transport.clone() as Arc<dyn Transport>)
                    .host_scope(HostScope {
                        l1: (0..4).filter(|j| j % 2 == index).collect(),
                        l2: (0..5).filter(|i| (4 + i) % 2 == index).collect(),
                        client_base: index as u64 + 1,
                        client_step: 2,
                    })
                    .build()
                    .unwrap();
                (transport, store)
            })
            .collect();
        let mut client = daemons[0].1.client();
        client.write(ObjectId(7), &[0xA5; 4096]).unwrap();
        assert_eq!(client.read(ObjectId(7)).unwrap(), [0xA5; 4096]);

        let (a, b) = (&daemons[0].0, &daemons[1].0);
        let mut calm = 0;
        wait_until("both daemons to go quiet with nothing buffered", || {
            let (sa, sb) = (a.link_stats(), b.link_stats());
            let quiet = sa.backlog_bytes + sb.backlog_bytes == 0
                && sa.frames_sent == b.frames_delivered()
                && sb.frames_sent == a.frames_delivered();
            calm = if quiet { calm + 1 } else { 0 };
            calm == 25
        });
        drop(client);
        for (_, store) in &daemons {
            store.shutdown();
        }
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
