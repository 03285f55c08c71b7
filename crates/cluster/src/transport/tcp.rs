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
//!                         │ that produced the frames; a full socket stalls
//!                         │ the link, and the worker hosting it drains the
//!                         │ rest each time `poll` reports POLLOUT
//!                         │
//!                  ═══════╪══════ network ══════════════
//!                         ▼
//!                  executor worker `peer % W`, waiting in `poll` on its
//!                  share of the sockets: every byte one `read` yielded →
//!                  each whole frame decoded → one router Burst
//!                  (DirectSender::deliver_many): one locked append per
//!                  inbox, then one ring per worker
//!                         │
//!                         ▼
//!                  destination inboxes on the remote router
//! ```
//!
//! One `lds-tcp-mesh` thread per daemon does what may wait: it accepts
//! inbound connections and reads each one's `Hello` (within
//! [`wire::HELLO_TIMEOUT`], never blocking on one peer), connects and reconnects
//! the outgoing links with exponential backoff, and installs every socket,
//! non-blocking, on worker `peer % W` ([`Transport::host`]). Both sockets of
//! a peer therefore live on one worker, which serves them in its own sweep:
//! a frame from a peer wakes the thread that runs the automata, and nothing
//! else. Each inbound socket keeps its own partial-frame buffer across
//! sweeps, so a slow or byte-at-a-time peer never blocks its worker.
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
//! non-blocking socket under one lock. The lock is held to append and to
//! take the buffer, never across a system call; at most one thread — the
//! socket's *owner* — writes what it took, outside the lock, so frames
//! leave in the order they were appended: per-link FIFO.
//!
//! * **Direct** (the steady state): senders append, and the first
//!   [`Transport::flush`] to find frames takes the socket, swaps the buffer
//!   out and pushes it into the socket with one `write`; whoever flushes
//!   meanwhile leaves its frames to that owner, which goes round again
//!   until the buffer is empty. No other thread is involved. A sender that
//!   fills the buffer to [`COALESCE_CAP`] flushes it without waiting for
//!   the end of its burst.
//! * **Stalled**: a flush met a full socket (`WouldBlock` or a partial
//!   write) and rang the link's worker. Senders keep appending, up to the
//!   byte budget, and never touch the socket; the worker polls it for
//!   `POLLOUT` and drains the buffer with non-blocking writes — the same
//!   swap, a partly written buffer kept across polls — and hands writing
//!   back once the buffer is empty. A link also starts out stalled after
//!   every (re)connect, so a backlog that built up while it was down leaves
//!   through its worker. Nothing on the send path ever waits for a peer,
//!   even with one worker (W = 1) owning every socket.
//! * **Down**: no socket. Senders append up to the budget; the mesh thread
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
//! past [`LINK_BACKLOG_CAP`] bytes, every frame buffered on a link whose
//! write failed (TCP cannot say which of them the peer still received), and
//! every inbound frame that is undecodable (which also costs its sender the
//! connection) or does not belong on the mesh.

use super::sys::{self, PollFd, WakeFd, POLLIN, POLLOUT};
use super::{Decision, FaultCounters, Transport, Workers};
use crate::executor::{Bell, Socket};
use crate::router::{Burst, DirectSender};
use lds_core::messages::LdsMessage;
use lds_core::wire::{self, Frame, HEADER_LEN, HELLO_TIMEOUT};
use lds_core::ProcessId;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::Mutex;

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

/// Most frames an inbound socket hands over in one [`Burst`], however many
/// one `read` yielded.
const READ_BURST: usize = 256;

/// An inbound buffer larger than this (it grew for a large frame) is given
/// back once it is empty.
const READ_BUF_KEEP: usize = 1 << 20;

/// First reconnect delay; doubles up to [`RECONNECT_MAX`].
const RECONNECT_BASE: Duration = Duration::from_millis(50);

/// Ceiling on the reconnect backoff.
const RECONNECT_MAX: Duration = Duration::from_secs(2);

/// Room for an encoded `Hello`; a connection whose first frame announces
/// more is not a peer daemon.
const HELLO_MAX: usize = 64;

/// The static placement of a deployment's processes onto daemons.
///
/// Shared verbatim by every daemon of a deployment (each knows its own
/// `index`); the pid → daemon rules are documented at the top of this
/// source file.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// The layer indices of the servers this daemon hosts: L1's, then
    /// L2's.
    pub fn local_servers(&self) -> [Vec<usize>; 2] {
        let local = |first: usize, count: usize| -> Vec<usize> {
            (0..count)
                .filter(|&i| self.server_owner[first + i] == self.index)
                .collect()
        };
        [local(0, self.n1), local(self.n1, self.n2)]
    }

    /// The first client number this daemon allocates.
    pub fn client_base(&self) -> u64 {
        self.index as u64 + 1
    }

    /// The stride between client numbers this daemon allocates.
    pub fn client_step(&self) -> u64 {
        self.daemons() as u64
    }
}

/// Counters shared by every link and socket of a transport.
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
    /// one per buffer a worker drained.
    writes: AtomicU64,
    /// Flushes that met a full socket and left the rest to the link's
    /// worker.
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
    /// The worker hosting the link, on `POLLOUT`: the link is stalled, or
    /// (no socket) down.
    #[default]
    Worker,
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
    /// The doorbell of the worker hosting the link, rung when a flush
    /// stalls it or a new socket is installed.
    bell: OnceLock<Arc<Bell>>,
    /// The mesh thread's wake fd, written when the link's socket fails.
    mesh: Arc<WakeFd>,
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
    /// the write that died) is lost and counted, and the stream is
    /// discarded. The caller wakes the mesh thread, which reconnects.
    fn fail(&mut self, counters: &Counters, in_flight: u64) {
        let lost = in_flight + std::mem::take(&mut self.frames);
        counters.dropped.fetch_add(lost, Ordering::Relaxed);
        reset(&mut self.buf);
        self.stream = None;
        self.owner = Owner::Worker;
    }
}

impl Link {
    fn ring_worker(&self) {
        if let Some(bell) = self.bell.get() {
            bell.ring();
        }
    }

    /// Installs a freshly connected (non-blocking) socket, stalled: the
    /// link's worker writes the backlog, then hands the socket to the
    /// senders.
    fn install(&self, stream: TcpStream) {
        let mut state = self.state.lock();
        state.stream = Some(Arc::new(stream));
        state.owner = Owner::Worker;
        drop(state);
        self.ring_worker();
    }

    fn is_down(&self) -> bool {
        self.state.lock().stream.is_none()
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
    /// link and rings its worker; one that fails loses it and wakes the
    /// mesh thread. Either way this thread moves on.
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
                    // the worker.
                    chunk.drain(..n);
                    chunk.extend_from_slice(&state.buf);
                    std::mem::swap(&mut state.buf, &mut chunk);
                    state.give_back(chunk);
                    state.frames += frames;
                    state.owner = Owner::Worker;
                    counters.stalls.fetch_add(1, Ordering::Relaxed);
                    drop(state);
                    self.ring_worker();
                    return;
                }
                Err(_) => {
                    state.give_back(chunk);
                    state.fail(counters, frames);
                    drop(state);
                    self.mesh.wake();
                    return;
                }
            }
        }
    }
}

/// The outgoing half of a peer on its worker: while the link is stalled it
/// waits for `POLLOUT` and drains the buffer with non-blocking writes. A
/// buffer the socket took only part of is kept here, not put back, so a
/// long backlog is not copied again at every `POLLOUT`.
struct Drain {
    link: Arc<Link>,
    /// The socket the last [`Socket::interest`] named, held so that its
    /// descriptor cannot be reused before the poll is over.
    polled: Option<Arc<TcpStream>>,
    /// The buffer being written, taken from the link, and its frames; the
    /// first `written` bytes are in the socket.
    chunk: Vec<u8>,
    frames: u64,
    written: usize,
}

impl Drain {
    fn new(link: Arc<Link>) -> Drain {
        Drain {
            link,
            polled: None,
            chunk: Vec::new(),
            frames: 0,
            written: 0,
        }
    }

    /// Writes until the link's buffer is empty (and hands the socket back
    /// to the senders) or the socket is full (and the next `POLLOUT` goes
    /// on).
    fn drain(&mut self) {
        let link = &*self.link;
        let counters = &*link.counters;
        loop {
            let mut state = link.state.lock();
            if state.owner != Owner::Worker {
                return;
            }
            let Some(stream) = state.stream.clone() else {
                return;
            };
            if self.chunk.is_empty() {
                if state.buf.is_empty() {
                    state.owner = Owner::Senders;
                    return;
                }
                (self.chunk, self.frames) = state.take();
                self.written = 0;
            }
            drop(state);
            let written = match (&*stream).write(&self.chunk[self.written..]) {
                Ok(0) => Err(ErrorKind::WriteZero.into()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                other => other,
            };
            let Ok(n) = written else {
                let mut state = link.state.lock();
                state.give_back(std::mem::take(&mut self.chunk));
                state.fail(counters, self.frames);
                drop(state);
                link.mesh.wake();
                return;
            };
            self.written += n;
            if self.written == self.chunk.len() {
                counters.writes.fetch_add(1, Ordering::Relaxed);
                counters
                    .frames_sent
                    .fetch_add(self.frames, Ordering::Relaxed);
                link.state.lock().give_back(std::mem::take(&mut self.chunk));
            }
        }
    }
}

impl Socket for Drain {
    fn interest(&mut self) -> Option<(RawFd, i16)> {
        let state = self.link.state.lock();
        self.polled = match state.owner {
            Owner::Worker => state.stream.clone(),
            Owner::Senders | Owner::Flush => None,
        };
        Some((self.polled.as_ref()?.as_raw_fd(), POLLOUT))
    }

    fn serve(&mut self) -> bool {
        self.drain();
        true
    }
}

/// Accepted inbound streams by connection number, each a clone of a
/// socket some worker serves, so shutdown can end them.
type Tracked = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// The incoming half of a peer on its worker: on `POLLIN` it reads once,
/// decodes every whole frame it has and delivers the messages a burst at a
/// time ([`DirectSender::deliver_many`] of one [`Burst`]: one locked append
/// per inbox, then one ring per worker). A burst ends at [`READ_BURST`]
/// messages, at the end of what the read yielded, or at anything that is not
/// a message — what preceded it is delivered first. An undecodable frame poisons the connection
/// (framing is lost): it is dropped and the peer reconnects.
struct Inbound {
    stream: TcpStream,
    /// Read and not decoded yet: `buf[start..end]` — after a serve, at most
    /// the head of one frame.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    burst: Burst,
    sender: Arc<DirectSender>,
    counters: Arc<Counters>,
    /// This connection's entry in `tracked`, removed when it is dropped.
    conn: u64,
    tracked: Tracked,
}

impl Inbound {
    /// Serves `stream` (non-blocking, its `Hello` read), tracked in
    /// `tracked` under `conn`.
    fn new(
        stream: TcpStream,
        sender: Arc<DirectSender>,
        counters: Arc<Counters>,
        conn: u64,
        tracked: Tracked,
    ) -> Inbound {
        Inbound {
            stream,
            buf: Vec::new(),
            start: 0,
            end: 0,
            burst: Burst::default(),
            sender,
            counters,
            conn,
            tracked,
        }
    }

    /// Makes room for the rest of the frame in progress, and at least a
    /// read buffer's worth.
    fn make_room(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > READ_BUF_KEEP {
                self.buf = Vec::new();
            }
        } else if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        let frame = self.buf[..self.end]
            .first_chunk::<HEADER_LEN>()
            .and_then(|header| wire::frame_len(*header).ok())
            .map_or(0, |len| HEADER_LEN + len);
        let room = frame.max(self.end + wire::READ_BUF_LEN);
        if self.buf.len() < room {
            self.buf.resize(room.max(2 * wire::READ_BUF_LEN), 0);
        }
    }

    /// Decodes every whole frame buffered; `false` once one is undecodable.
    fn decode(&mut self) -> bool {
        while let Some(&header) = self.buf[self.start..self.end].first_chunk::<HEADER_LEN>() {
            let Ok(len) = wire::frame_len(header) else {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            };
            let body = self.start + HEADER_LEN;
            if body + len > self.end {
                break;
            }
            self.start = body + len;
            match wire::decode_frame(&self.buf[body..self.start]) {
                Ok(Frame::Msg { from, to, msg }) => {
                    let (from, to) = (ProcessId(from as usize), ProcessId(to as usize));
                    self.burst.push(from, to, msg);
                    if self.burst.len() == READ_BURST {
                        self.deliver();
                    }
                }
                Ok(Frame::Ping { to }) => {
                    self.deliver();
                    self.counters.delivered.fetch_add(1, Ordering::Relaxed);
                    self.sender.deliver_ping(ProcessId(to as usize));
                }
                frame => {
                    // RPC frames do not belong on the mesh port.
                    self.deliver();
                    self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    if frame.is_err() {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn deliver(&mut self) {
        if self.burst.is_empty() {
            return;
        }
        let frames = self.burst.len() as u64;
        self.counters.delivered.fetch_add(frames, Ordering::Relaxed);
        self.sender.deliver_many(&mut self.burst);
    }
}

impl Socket for Inbound {
    fn interest(&mut self) -> Option<(RawFd, i16)> {
        Some((self.stream.as_raw_fd(), POLLIN))
    }

    fn serve(&mut self) -> bool {
        self.make_room();
        let open = loop {
            match (&self.stream).read(&mut self.buf[self.end..]) {
                Ok(0) => break false,
                Ok(n) => {
                    self.end += n;
                    break true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => break e.kind() == ErrorKind::WouldBlock,
            }
        };
        let intact = self.decode();
        self.deliver();
        open && intact
    }
}

impl Drop for Inbound {
    fn drop(&mut self) {
        self.tracked.lock().remove(&self.conn);
    }
}

/// The TCP transport: real per-peer network links behind the
/// [`Transport`] seam (threading model at the top of this source file).
pub struct TcpTransport {
    topo: TcpTopology,
    /// By daemon index; `None` at this daemon's own.
    links: Vec<Option<Arc<Link>>>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    /// Inbound streams some worker serves; an [`Inbound`] drops its own
    /// entry, so peer reconnects do not accumulate dead sockets.
    tracked: Tracked,
    listener: TcpListener,
    /// The mesh thread's wake fd: written when a link fails, and to stop.
    mesh_wake: Arc<WakeFd>,
    /// The router's delivery path, from [`Transport::attach`].
    sender: OnceLock<Arc<DirectSender>>,
    mesh: Mutex<Option<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds the mesh listener at `topo.peers[topo.index]`. Nothing
    /// connects or accepts until the deployment's executor hosts the
    /// transport ([`Transport::host`]): then the mesh thread starts, and the
    /// workers serve the sockets.
    ///
    /// Binding eagerly means an unusable listen address is a construction
    /// error the daemon can report, not a background failure.
    ///
    /// # Panics
    ///
    /// Panics unless `server_owner` has one entry per server pid, each
    /// naming a daemon of `peers`, and `index` names one too.
    pub fn bind(topo: TcpTopology) -> std::io::Result<TcpTransport> {
        assert_eq!(
            topo.server_owner.len(),
            topo.n1 + topo.n2,
            "server_owner must cover every server pid"
        );
        assert!(topo.index < topo.peers.len(), "daemon index out of range");
        assert!(
            topo.server_owner
                .iter()
                .all(|&owner| owner < topo.peers.len()),
            "server_owner names a daemon outside peers"
        );
        let listener = TcpListener::bind(topo.peers[topo.index])?;
        let mesh_wake = Arc::new(WakeFd::new()?);
        let counters = Arc::new(Counters::default());
        let links = (0..topo.peers.len())
            .map(|peer| {
                (peer != topo.index).then(|| {
                    Arc::new(Link {
                        state: Mutex::default(),
                        bell: OnceLock::new(),
                        mesh: Arc::clone(&mesh_wake),
                        counters: Arc::clone(&counters),
                    })
                })
            })
            .collect();
        Ok(TcpTransport {
            topo,
            links,
            counters,
            stop: Arc::new(AtomicBool::new(false)),
            tracked: Arc::default(),
            listener,
            mesh_wake,
            sender: OnceLock::new(),
            mesh: Mutex::new(None),
        })
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

    /// Inbound connections currently served by a worker.
    #[cfg(test)]
    fn inbound_tracked(&self) -> usize {
        self.tracked.lock().len()
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

    fn topology(&self) -> Option<&TcpTopology> {
        Some(&self.topo)
    }

    fn attach(&self, sender: DirectSender) {
        let _ = self.sender.set(Arc::new(sender));
    }

    /// Puts each peer's link on worker `peer % W` and starts the mesh
    /// thread, which puts each peer's inbound connections on the same
    /// worker.
    fn host(&self, workers: &Workers) {
        let mut mesh = self.mesh.lock();
        if mesh.is_some() {
            return;
        }
        let sender = self
            .sender
            .get()
            .cloned()
            .expect("the router attaches its transport before an executor hosts it");
        let mut peers = Vec::new();
        for (peer, link) in self.links.iter().enumerate() {
            let Some(link) = link else { continue };
            let worker = peer % workers.count();
            let _ = link.bell.set(workers.bell(worker));
            workers.install_socket(worker, Box::new(Drain::new(Arc::clone(link))));
            let dial = Dial {
                addr: self.topo.peers[peer],
                link: Arc::clone(link),
                due: Instant::now(),
                backoff: RECONNECT_BASE,
            };
            peers.push(dial);
        }
        let listener = self
            .listener
            .try_clone()
            .and_then(|listener| listener.set_nonblocking(true).map(|()| listener))
            .expect("a non-blocking clone of the mesh listener");
        let thread = Mesh {
            me: self.topo.index as u64,
            listener,
            peers,
            workers: workers.clone(),
            sender,
            counters: Arc::clone(&self.counters),
            tracked: Arc::clone(&self.tracked),
            wake: Arc::clone(&self.mesh_wake),
            stop: Arc::clone(&self.stop),
        };
        let handle = std::thread::Builder::new()
            .name("lds-tcp-mesh".into())
            .spawn(move || thread.run())
            .expect("spawn the tcp mesh thread");
        *mesh = Some(handle);
    }

    fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            ..FaultCounters::default()
        }
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.mesh_wake.wake();
        // Joined first: no socket is installed after the pass below.
        if let Some(mesh) = self.mesh.lock().take() {
            let _ = mesh.join();
        }
        // A worker still serving a socket sees it fail or end.
        for link in self.links.iter().flatten() {
            if let Some(stream) = &link.state.lock().stream {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for stream in self.tracked.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for TcpTransport {
    /// The mesh thread holds what it needs, not the transport: tell it to go.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.mesh_wake.wake();
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

/// Connects to `addr` and introduces this daemon; the socket is returned
/// non-blocking.
fn connect(addr: SocketAddr, me: u64) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, RECONNECT_MAX)?;
    let _ = stream.set_nodelay(true);
    let mut hello = Vec::new();
    wire::encode_frame(&Frame::Hello { daemon: me }, &mut hello).expect("a Hello is small");
    stream.write_all(&hello)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// One outgoing link as the mesh thread keeps it up.
struct Dial {
    addr: SocketAddr,
    link: Arc<Link>,
    /// When a link that is down may be dialled next.
    due: Instant,
    backoff: Duration,
}

/// An accepted connection whose `Hello` has not fully arrived.
struct Pending {
    stream: TcpStream,
    hello: [u8; HELLO_MAX],
    filled: usize,
    deadline: Instant,
}

/// What reading a [`Pending`] connection came to.
enum Hello {
    /// The `Hello` is not whole yet.
    Waiting,
    /// It is, from this daemon.
    From(u64),
    /// The connection is not a peer's (or is gone): drop it.
    Refused,
}

impl Pending {
    /// Reads what has arrived of the `Hello`, never past it: what follows
    /// is the worker's to read.
    fn read(&mut self, counters: &Counters) -> Hello {
        let refuse = || {
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            Hello::Refused
        };
        loop {
            let need = match self.hello[..self.filled].first_chunk::<HEADER_LEN>() {
                None => HEADER_LEN,
                Some(&header) => match wire::frame_len(header) {
                    Ok(len) if HEADER_LEN + len <= HELLO_MAX => HEADER_LEN + len,
                    _ => return refuse(),
                },
            };
            if self.filled == need && need > HEADER_LEN {
                return match wire::decode_frame(&self.hello[HEADER_LEN..need]) {
                    Ok(Frame::Hello { daemon }) => Hello::From(daemon),
                    _ => refuse(),
                };
            }
            match (&self.stream).read(&mut self.hello[self.filled..need]) {
                // Shut down, or gone before it said who it is.
                Ok(0) => return Hello::Refused,
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Hello::Waiting,
                Err(_) => return Hello::Refused,
            }
        }
    }
}

/// The mesh thread: everything about the sockets that may wait.
struct Mesh {
    me: u64,
    /// Non-blocking.
    listener: TcpListener,
    peers: Vec<Dial>,
    workers: Workers,
    sender: Arc<DirectSender>,
    counters: Arc<Counters>,
    tracked: Tracked,
    wake: Arc<WakeFd>,
    stop: Arc<AtomicBool>,
}

impl Mesh {
    /// Until stopped: dial the links that are down and due, then wait in
    /// `poll` for a connection, a byte of a `Hello`, a failed link (the wake
    /// fd), a `Hello`'s deadline or the next dial.
    fn run(mut self) {
        let mut pending: Vec<Pending> = Vec::new();
        let mut set = Vec::new();
        let mut conns = 0u64;
        while !self.stop.load(Ordering::SeqCst) {
            self.dial();
            let now = Instant::now();
            let next = self
                .peers
                .iter()
                .filter(|dial| dial.link.is_down())
                .map(|dial| dial.due)
                .chain(pending.iter().map(|p| p.deadline))
                .min();
            let timeout_ms = next.map_or(-1, |next| {
                let wait = next
                    .saturating_duration_since(now)
                    .as_micros()
                    .div_ceil(1000);
                i32::try_from(wait).unwrap_or(i32::MAX)
            });
            set.clear();
            set.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            set.push(PollFd::new(self.wake.fd(), POLLIN));
            set.extend(
                pending
                    .iter()
                    .map(|p| PollFd::new(p.stream.as_raw_fd(), POLLIN)),
            );
            if sys::wait(&mut set, timeout_ms).is_err() {
                continue;
            }
            if set[1].ready() {
                self.wake.drain();
            }
            let now = Instant::now();
            let ready = set[2..].iter().map(PollFd::ready);
            for (mut p, ready) in std::mem::take(&mut pending).into_iter().zip(ready) {
                match if ready {
                    p.read(&self.counters)
                } else {
                    Hello::Waiting
                } {
                    Hello::Waiting if now < p.deadline => pending.push(p),
                    Hello::Waiting | Hello::Refused => {}
                    Hello::From(daemon) => {
                        conns += 1;
                        self.serve(daemon, conns, p.stream);
                    }
                }
            }
            if set[0].ready() {
                while let Ok((stream, _)) = self.listener.accept() {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_ok() {
                        pending.push(Pending {
                            stream,
                            hello: [0; HELLO_MAX],
                            filled: 0,
                            deadline: now + HELLO_TIMEOUT,
                        });
                    }
                }
            }
        }
    }

    /// Connects every link that is down and due; a failed attempt doubles
    /// the link's backoff, a success resets it.
    fn dial(&mut self) {
        for dial in &mut self.peers {
            if !dial.link.is_down() || Instant::now() < dial.due {
                continue;
            }
            match connect(dial.addr, self.me) {
                Ok(stream) => {
                    self.counters.connects.fetch_add(1, Ordering::Relaxed);
                    dial.link.install(stream);
                    dial.backoff = RECONNECT_BASE;
                }
                Err(_) => {
                    // Peer not up (yet): the buffer keeps absorbing traffic
                    // up to its budget meanwhile.
                    dial.due = Instant::now() + dial.backoff;
                    dial.backoff = (dial.backoff * 2).min(RECONNECT_MAX);
                }
            }
        }
    }

    /// Hands the connection of peer `daemon` to its worker, tracked.
    fn serve(&self, daemon: u64, conn: u64, stream: TcpStream) {
        let Ok(tracked) = stream.try_clone() else {
            // Untracked, shutdown could not end it: refuse it.
            return;
        };
        self.tracked.lock().insert(conn, tracked);
        let worker = (daemon % self.workers.count() as u64) as usize;
        let inbound = Inbound::new(
            stream,
            Arc::clone(&self.sender),
            Arc::clone(&self.counters),
            conn,
            Arc::clone(&self.tracked),
        );
        self.workers.install_socket(worker, Box::new(inbound));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Store, StoreBuilder};
    use crate::executor::{Executor, Task, Turn};
    use crate::router::{DepthGauge, Envelope, Inbox, Router, RouterHandle};
    use crate::sync::channel::{unbounded, Receiver};
    use lds_core::tag::{ClientId, ObjectId, OpId, Tag};
    use lds_core::value::Value;
    use lds_core::wire::Request;
    use std::io::{BufReader, Read};
    use std::sync::atomic::AtomicUsize;

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

    /// An executor serving a transport's sockets, stopped when dropped.
    struct Hosted(Executor);

    impl Drop for Hosted {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// One daemon's transport, router, the inbox of the pid it hosts and
    /// the one worker that serves its sockets.
    fn daemon(topo: TcpTopology) -> (Arc<TcpTransport>, Router, Inbox, Hosted) {
        let pid = ProcessId(topo.index);
        let transport = Arc::new(TcpTransport::bind(topo).unwrap());
        let router = Router::with_transport(transport.clone() as Arc<dyn Transport>);
        let inbox = router.register(pid);
        let executor = Executor::start(1, &router, Instant::now());
        transport.host(&executor.handle());
        (transport, router, inbox, Hosted(executor))
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
        let (ta, ra, _inbox_a, _ea) = daemon(topo(0));
        let (tb, _rb, inbox_b, _eb) = daemon(topo(1));

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

    /// A task whose first turn blocks until its gate yields (or
    /// disconnects): it holds the worker it is installed on, and with it
    /// every socket that worker serves.
    struct Gate(Option<Receiver<()>>);

    impl Task for Gate {
        fn turn(&mut self, _now_micros: u64, _handle: &mut RouterHandle) -> Turn {
            if let Some(gate) = self.0.take() {
                let _ = gate.recv();
            }
            Turn::default()
        }
        fn has_mail(&self) -> bool {
            self.0.is_some()
        }
        fn publish(&mut self) {}
        fn finish(&mut self, _router: &Router) {}
    }

    /// Sends `small` numbered metadata messages from pid 0 to pid 1, a
    /// [`LARGE`] one after every `large_every`-th, each flushed on its own,
    /// and checks that all of it arrives, whole and in order. With
    /// `stall_first`, the receiver's only worker is held in a [`Gate`] until
    /// the link has stalled at least once. Returns the sending transport's
    /// final link statistics.
    fn fifo_run(small: u64, large_every: u64, stall_first: bool) -> LinkStats {
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a, _ea) = daemon(topo(0));
        let (tb, _rb, inbox_b, eb) = daemon(topo(1));
        // From here on only a full socket takes the link from its senders.
        wait_direct(&ta, 1);
        let release = stall_first.then(|| {
            let (release, gate) = unbounded();
            eb.0.install(0, Box::new(Gate(Some(gate))));
            release
        });

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

        if let Some(release) = release {
            // Nobody reads the socket: the sender fills it and the link
            // stalls however the host schedules the two daemons.
            wait_until("the link to stall", || ta.link_stats().stalls > 0);
            release.send(()).unwrap();
        }
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
        fifo_run(10_000, 2_500, false);
    }

    /// 50 MiB of large frames among the small ones fill the socket again and
    /// again: the link goes direct → stalled → direct many times, and every
    /// hand-over keeps the stream whole and in order. The receiver is held
    /// until the first stall, so at least one hand-over happens by
    /// construction, not by how busy the host is.
    #[test]
    fn a_link_that_keeps_stalling_is_complete_and_fifo() {
        let stats = fifo_run(2_000, 10, true);
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
        let (ta, ra, _inbox_a, _ea) = daemon(TcpTopology {
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
        let (ta, ra, _inbox_a, _ea) = daemon(topo(0));
        let (tb, _rb, inbox_b, _eb) = daemon(topo(1));
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

    /// Killing the peer mid-stream: the socket that served it untracks
    /// itself, every frame buffered when a write fails is counted as dropped
    /// (so nothing sent is unaccounted for), a dead peer's backlog stops at
    /// the byte budget, and the mesh thread reconnects to the restarted peer
    /// and sends what the link still holds.
    #[test]
    fn dead_peer_drops_are_counted_and_the_writer_reconnects() {
        const BURST: u64 = 2_000;
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a, _ea) = daemon(topo(0));
        let (tb, rb, inbox_b, eb) = daemon(topo(1));
        let mut handle = ra.handle();

        let (to, msg) = numbered(0);
        handle.send(ProcessId(0), to, msg);
        inbox_b
            .rx
            .recv_timeout(Duration::from_secs(10))
            .expect("link comes up");
        assert_eq!(ta.connects(), 1);
        assert_eq!(tb.inbound_tracked(), 1);

        // The peer dies: its worker drops the inbound socket, which drops
        // its own tracking entry; then the listener goes away with the
        // transport.
        tb.shutdown();
        wait_until("the dead link's socket to untrack itself", || {
            tb.inbound_tracked() == 0
        });
        drop((rb, inbox_b, tb, eb));

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

        let (tb, _rb, inbox_b, _eb) = daemon(topo(1));
        wait_until("the mesh thread to reconnect", || ta.connects() >= 2);
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
        sender.deliver_many(&mut burst(2).collect());
        wait_until("the worker to serve both tasks", || {
            claimed.load(Ordering::SeqCst) == 2
        });
        wait_until("the worker to park", || executor.bell(0).is_parked());

        let before = executor.stats().wakeups;
        sender.deliver_many(&mut burst(10).collect());
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
        let (ta, _ra, inbox_a, _ea) = daemon(topo(0));
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
        wait_until("the socket to untrack itself", || ta.inbound_tracked() == 0);
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

    /// A store over a transport hosts exactly the servers its topology calls
    /// local, and numbers its clients so that `owner_of` maps them back to
    /// it: placement is stated once, in `server_owner`.
    #[test]
    fn a_store_hosts_what_its_topology_calls_local() {
        let probes = [(); 2].map(|()| TcpListener::bind(loopback(0)).unwrap());
        let peers: Vec<SocketAddr> = probes.iter().map(|p| p.local_addr().unwrap()).collect();
        drop(probes);
        for index in 0..2 {
            let topo = TcpTopology {
                n1: 4,
                n2: 5,
                index,
                peers: peers.clone(),
                server_owner: vec![1, 0, 0, 1, 0, 1, 1, 0, 1],
            };
            let transport = Arc::new(TcpTransport::bind(topo.clone()).unwrap());
            let store = StoreBuilder::new()
                .failures(1, 1)
                .code(2, 3)
                .transport(transport as Arc<dyn Transport>)
                .build()
                .unwrap();
            let router = store.cluster.router();
            for pid in (0..9).map(ProcessId) {
                assert_eq!(router.contains(pid), topo.is_local(pid), "{pid:?}");
            }
            let clients = [store.client(), store.client()];
            let client_pids: Vec<ProcessId> = (9..20)
                .map(ProcessId)
                .filter(|&pid| router.contains(pid))
                .collect();
            assert_eq!(client_pids.len(), 2, "{client_pids:?}");
            for pid in client_pids {
                assert_eq!(topo.owner_of(pid), index, "{pid:?}");
            }
            drop(clients);
            store.shutdown();
        }
    }

    /// An owner outside `peers` is refused at `bind`: otherwise the first
    /// message to that server panics the executor worker sending it.
    #[test]
    #[should_panic(expected = "server_owner names a daemon outside peers")]
    fn a_server_owned_by_no_daemon_is_refused_at_bind() {
        let mut topo = two_daemon_topology()(0);
        topo.server_owner[1] = 2;
        let _ = TcpTransport::bind(topo);
    }

    /// A topology that sizes the layers differently from the params is a
    /// configuration error at `build()`, before anything starts.
    #[test]
    fn a_topology_of_other_layer_sizes_is_invalid() {
        let topo = two_daemon_topology();
        let transport = Arc::new(TcpTransport::bind(topo(0)).unwrap());
        let result = StoreBuilder::new()
            .failures(1, 1)
            .code(2, 3)
            .transport(transport as Arc<dyn Transport>)
            .build();
        assert!(
            matches!(result, Err(crate::api::StoreError::InvalidConfig(_))),
            "{result:?}"
        );
    }

    /// `submit_*` only buffers what it sends to another daemon: the socket
    /// write waits for the next `poll`, which makes one per peer for
    /// everything submitted since.
    #[test]
    fn submissions_leave_at_the_next_poll_one_write_per_peer() {
        // Daemon 0 hosts no server and its one peer never answers, so all
        // that crosses is the client's, and nothing comes back to make it
        // send again.
        let peer = TcpListener::bind(loopback(0)).unwrap();
        let own = TcpListener::bind(loopback(0)).unwrap().local_addr();
        let transport = Arc::new(
            TcpTransport::bind(TcpTopology {
                n1: 4,
                n2: 5,
                index: 0,
                peers: vec![own.unwrap(), peer.local_addr().unwrap()],
                server_owner: vec![1; 9],
            })
            .unwrap(),
        );
        let store = StoreBuilder::new()
            .failures(1, 1)
            .code(2, 3)
            .transport(transport.clone() as Arc<dyn Transport>)
            .build()
            .unwrap();
        wait_direct(&transport, 1);
        let mut client = store.client_with_depth(8);
        let before = transport.link_stats();
        for obj in 0..8u8 {
            client.submit_write(ObjectId(obj.into()), &[obj; 64]);
        }
        let submitted = transport.link_stats();
        assert_eq!(submitted.writes, before.writes);
        assert!(submitted.backlog_bytes > 0);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(transport.link_stats().writes, before.writes);

        assert!(client.poll().unwrap().is_empty());
        let polled = transport.link_stats();
        assert_eq!(polled.writes, before.writes + 1, "one peer, one write");
        assert_eq!(polled.backlog_bytes, 0);
        drop(client);
        store.shutdown();
    }

    /// While a well-behaved link keeps delivering, three hostile
    /// connections share its worker: one sends its `Hello` and a frame a
    /// byte at a time, 1 ms apart; one connects and says nothing; one
    /// follows its `Hello` with garbage. The slow frame arrives whole, the
    /// garbage is dropped and counted, the silent one is let go after
    /// [`HELLO_TIMEOUT`], and the link loses nothing and keeps its order.
    #[test]
    fn hostile_peers_do_not_disturb_a_well_behaved_link() {
        const LEAST: u64 = 500;
        let topo = two_daemon_topology();
        let (ta, ra, _inbox_a, _ea) = daemon(topo(0));
        let (tb, _rb, inbox_b, _eb) = daemon(topo(1));
        wait_direct(&ta, 1);
        let hello = encoded(&Frame::Hello { daemon: 0 });

        let mut silent = TcpStream::connect(tb.local_addr()).unwrap();
        let mut garbage = TcpStream::connect(tb.local_addr()).unwrap();
        garbage
            .write_all(&[&hello[..], &[0xFF; 64]].concat())
            .unwrap();
        let (to, slow_msg) = query_tag(77, 0);
        let slow_frame = encoded(&Frame::Msg {
            from: 0,
            to: to.0 as u64,
            msg: slow_msg.clone(),
        });
        let slow_done = Arc::new(AtomicBool::new(false));
        let slow = std::thread::spawn({
            let (addr, done) = (tb.local_addr(), Arc::clone(&slow_done));
            let bytes = [&hello[..], &slow_frame].concat();
            move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                let _ = conn.set_nodelay(true);
                for byte in bytes {
                    conn.write_all(&[byte]).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
                done.store(true, Ordering::SeqCst);
                conn
            }
        });

        let mut handle = ra.handle();
        let mut sent = 0;
        while sent < LEAST || !slow_done.load(Ordering::SeqCst) {
            let (to, msg) = numbered(sent);
            handle.send(ProcessId(0), to, msg);
            sent += 1;
            std::thread::sleep(Duration::from_micros(100));
        }
        let _slow_conn = slow.join().unwrap();

        let (mut next, mut slow_arrived) = (0, false);
        while next < sent || !slow_arrived {
            let envelope = inbox_b
                .rx
                .recv_timeout(Duration::from_secs(20))
                .expect("the link and the slow frame arrive");
            let Envelope::Protocol { msg, .. } = envelope else {
                panic!("unexpected envelope {envelope:?}");
            };
            match msg {
                LdsMessage::QueryTag { op, .. } if op.client == ClientId(9) => {
                    assert_eq!(op.seq, next, "the link lost its order");
                    next += 1;
                }
                msg => {
                    assert!(!slow_arrived && msg == slow_msg, "unexpected {msg:?}");
                    slow_arrived = true;
                }
            }
        }
        assert_eq!(ta.fault_counters().dropped, 0);
        assert_eq!(tb.fault_counters().dropped, 1, "the garbage, once");
        assert_eq!(tb.frames_delivered(), sent + 1);
        // The garbage cost its sender the connection; the silent one is let
        // go once its Hello is overdue.
        let mut rest = Vec::new();
        assert_eq!(garbage.read_to_end(&mut rest).map_or(0, |n| n), 0);
        silent.set_read_timeout(Some(HELLO_TIMEOUT * 5)).unwrap();
        assert_eq!(
            silent.read(&mut [0; 1]).unwrap(),
            0,
            "the silent one is closed"
        );
        ta.shutdown();
        tb.shutdown();
    }

    /// The wake protocol of a worker that polls, under stress: one worker
    /// (W = 1) hosts an inbox and a socket, and another thread alternates a
    /// delivery into the inbox (which must ring the worker out of its
    /// `poll`) with a frame written to the socket (which the kernel must
    /// report), each time waiting for the worker to claim it — often while
    /// it is on its way into the wait. A lost ring hangs a round, and the
    /// deadline fails the test.
    #[test]
    fn a_polling_worker_loses_no_ring() {
        const ROUNDS: usize = 100_000;
        let router = Router::new();
        let executor = Executor::start(1, &router, Instant::now());
        let claimed = Arc::new(AtomicUsize::new(0));
        let gauges = [Arc::new(DepthGauge::default())];
        let inbox = router
            .register_shards(ProcessId(0), &gauges, |_| Some(executor.bell(0)))
            .pop()
            .expect("one shard");
        let sink = Sink {
            inbox,
            claimed: Arc::clone(&claimed),
        };
        executor.install(0, Box::new(sink));
        let listener = TcpListener::bind(loopback(0)).unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _ = peer.set_nodelay(true);
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        let inbound = Inbound::new(
            served,
            Arc::new(router.direct()),
            Arc::default(),
            0,
            Arc::default(),
        );
        executor.handle().install_socket(0, Box::new(inbound));

        let sender = router.direct();
        let (_, msg) = query_tag(9, 0);
        let frame = encoded(&Frame::Msg {
            from: 9,
            to: 0,
            msg: msg.clone(),
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        let claim = |count: usize| {
            while claimed.load(Ordering::SeqCst) < count {
                assert!(Instant::now() < deadline, "a ring was lost at {count}");
                std::thread::yield_now();
            }
        };
        for round in 0..ROUNDS {
            sender.deliver_many(
                &mut [(ProcessId(9), ProcessId(0), msg.clone())]
                    .into_iter()
                    .collect(),
            );
            claim(2 * round + 1);
            peer.write_all(&frame).unwrap();
            claim(2 * round + 2);
        }
        assert!(executor.stats().parks > 0, "the worker never waited");
        executor.shutdown();
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
