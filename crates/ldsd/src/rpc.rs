//! The daemon's client-facing RPC server.
//!
//! Clients speak the same wire codec as the mesh (`lds_core::wire`), but
//! over a separate listener and with [`Frame::Request`]/[`Frame::Response`]
//! instead of raw protocol messages. A connection starts with a `Hello`
//! exchange (the client sends `daemon = u64::MAX`, the daemon answers with
//! its index), then carries any number of concurrently outstanding requests;
//! responses are matched by request id, not by order.
//!
//! Per connection the daemon runs two threads:
//!
//! * a **reader** that decodes frames off the (buffered) socket, queues
//!   `(id, Request)` pairs and wakes the worker;
//! * a **worker** that owns a pipelined [`StoreClient`] plus an [`Admin`]
//!   handle and is purely event-driven: with nothing in flight it blocks on
//!   the request queue, otherwise in [`Store::poll_wait`] — which returns on
//!   the next store message or on the reader's wake. It drains the queue
//!   (data ops become `submit_*` calls, admin ops run inline), and every
//!   response one turn produced leaves in a single `write`.
//!
//! Nothing on this path sleeps or polls on an interval; the only timeouts
//! are the [`STOP_POLL`] bounds after which a blocked thread re-checks the
//! stop flag, and [`HELLO_TIMEOUT`], within which a new connection must send
//! its `Hello`.
//!
//! Admin requests targeting a server hosted by a *different* daemon answer
//! with a [`Response::Error`] naming the owner — repairs must run where the
//! replacement's threads live.

use crate::config::Config;
use lds_cluster::repair::RepairLayer;
use lds_cluster::sync::channel::{unbounded, RecvTimeoutError, Sender};
use lds_cluster::sync::Mutex;
use lds_cluster::{Admin, OpOutcome, OpTicket, ServerRef, Store, StoreClient, StoreHandle, Waker};
use lds_core::value::Value;
use lds_core::wire::{self, Frame, Request, Response, HELLO_TIMEOUT};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked accept/worker loops re-check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(100);

/// One decoded event from a connection's reader thread.
enum Event {
    /// A well-formed request frame.
    Request(u64, Request),
    /// The stream died or framing was lost; the worker should exit.
    Closed,
}

/// One live connection as the server tracks it.
struct Conn {
    /// A clone of the socket, so `stop` can unblock the connection.
    stream: TcpStream,
    /// The connection's worker thread.
    worker: JoinHandle<()>,
}

/// Live connections by connection number. A worker drops its own entry when
/// it exits, so a daemon serving many short-lived clients holds no dead
/// sockets or join handles.
type Conns = Arc<Mutex<HashMap<u64, Conn>>>;

/// The running RPC server; stopped via [`RpcServer::stop`].
pub(crate) struct RpcServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Conns,
    acceptor: Option<JoinHandle<()>>,
}

impl RpcServer {
    /// Binds `addr` and starts the accept loop. `shutdown_tx` fires when a
    /// client sends [`Request::Shutdown`].
    pub(crate) fn start(
        addr: SocketAddr,
        store: Arc<StoreHandle>,
        config: Arc<Config>,
        shutdown_tx: Sender<()>,
    ) -> std::io::Result<RpcServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
        let acceptor = std::thread::Builder::new()
            .name("ldsd-rpc-accept".into())
            .spawn({
                let stop = Arc::clone(&stop);
                let conns = Arc::clone(&conns);
                move || run_acceptor(listener, store, config, shutdown_tx, stop, conns)
            })?;
        Ok(RpcServer {
            addr,
            stop,
            conns,
            acceptor: Some(acceptor),
        })
    }

    /// The address actually bound (resolves `:0`).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently tracked (socket + worker handle each).
    #[cfg(test)]
    pub(crate) fn tracked_connections(&self) -> usize {
        self.conns.lock().len()
    }

    /// Stops accepting, closes every live connection and joins all threads.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Taken out under the lock, joined outside it: an exiting worker
        // locks the table to drop its own (by then absent) entry.
        let live: Vec<Conn> = self.conns.lock().drain().map(|(_, conn)| conn).collect();
        for conn in &live {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for conn in live {
            let _ = conn.worker.join();
        }
    }
}

fn run_acceptor(
    listener: TcpListener,
    store: Arc<StoreHandle>,
    config: Arc<Config>,
    shutdown_tx: Sender<()>,
    stop: Arc<AtomicBool>,
    conns: Conns,
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
            // Untracked, `stop` could not unblock it: refuse the connection.
            continue;
        };
        // Spawned and tracked under the lock the worker's own removal takes,
        // so a worker that exits at once still finds its entry to drop.
        let mut live = conns.lock();
        let worker = std::thread::Builder::new()
            .name("ldsd-rpc-conn".into())
            .spawn({
                let store = Arc::clone(&store);
                let config = Arc::clone(&config);
                let shutdown_tx = shutdown_tx.clone();
                let stop = Arc::clone(&stop);
                let conns = Arc::clone(&conns);
                move || {
                    run_connection(stream, store, config, shutdown_tx, stop);
                    // Dropping its own handle detaches a thread that is done.
                    conns.lock().remove(&conn);
                }
            });
        if let Ok(worker) = worker {
            live.insert(
                conn,
                Conn {
                    stream: tracked,
                    worker,
                },
            );
        }
    }
}

/// Reader-thread body: decode frames into `tx` until the stream dies,
/// waking the worker after each one (it may be blocked on the store).
fn run_reader(mut stream: BufReader<TcpStream>, tx: Sender<Event>, waker: Waker) {
    let mut body = Vec::with_capacity(4096);
    loop {
        let event = match wire::read_frame(&mut stream, &mut body) {
            Some(Ok(Frame::Request { id, req })) => Event::Request(id, req),
            // A late Hello is harmless; anything else on the RPC port —
            // or a decode error, which loses framing — ends the session.
            Some(Ok(Frame::Hello { .. })) => continue,
            _ => Event::Closed,
        };
        let closed = matches!(event, Event::Closed);
        let gone = tx.send(event).is_err();
        waker.wake();
        if closed || gone {
            return;
        }
    }
}

/// Worker-thread body: handshake, then serve until the peer goes away.
fn run_connection(
    mut stream: TcpStream,
    store: Arc<StoreHandle>,
    config: Arc<Config>,
    shutdown_tx: Sender<()>,
    stop: Arc<AtomicBool>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut read_half = BufReader::with_capacity(wire::READ_BUF_LEN, read_half);
    // The handshake happens on the worker so a half-open connection cannot
    // occupy a reader pair: no Hello, no session. A connection that stays
    // silent is let go at the mesh's Hello deadline; after the handshake the
    // reader blocks on idle clients for as long as they stay connected.
    if stream.set_read_timeout(Some(HELLO_TIMEOUT)).is_err() {
        return;
    }
    match wire::read_frame(&mut read_half, &mut Vec::new()) {
        Some(Ok(Frame::Hello { .. })) => {}
        _ => return,
    }
    if stream.set_read_timeout(None).is_err() {
        return;
    }
    // Every response of one worker turn is encoded here and written once.
    let mut out = Vec::with_capacity(4096);
    let hello = Frame::Hello {
        daemon: config.topology.index as u64,
    };
    if wire::encode_frame(&hello, &mut out).is_err() || !flush(&mut stream, &mut out) {
        return;
    }

    let mut client = store.client();
    let admin = store.admin();
    let (tx, rx) = unbounded::<Event>();
    // The reader inherits the buffered read half: requests a client
    // pipelined behind its Hello are already in that buffer.
    let waker = client.waker();
    let reader = std::thread::Builder::new()
        .name("ldsd-rpc-reader".into())
        .spawn(move || run_reader(read_half, tx, waker));
    let Ok(reader) = reader else {
        return;
    };

    let mut pending: HashMap<OpTicket, u64> = HashMap::new();
    let mut open = true;
    'serve: while open || !pending.is_empty() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Nothing in flight: the request queue is the only event source.
        let first = if pending.is_empty() {
            match rx.recv_timeout(STOP_POLL) {
                Ok(event) => Some(event),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => Some(Event::Closed),
            }
        } else {
            None
        };
        // Ingest everything queued (one lock for the backlog).
        for event in first.into_iter().chain(rx.try_iter()) {
            let (id, req) = match event {
                Event::Request(id, req) => (id, req),
                Event::Closed => {
                    open = false;
                    break;
                }
            };
            let (resp, shutdown) =
                match handle_request(id, req, &mut client, &admin, &config, &mut pending) {
                    Action::NoResponseYet => continue,
                    Action::Respond(resp) => (resp, false),
                    Action::ShutdownDaemon(resp) => (resp, true),
                };
            if !push_response(&mut out, id, resp) {
                break 'serve;
            }
            if shutdown {
                let _ = flush(&mut stream, &mut out);
                let _ = shutdown_tx.send(());
                break 'serve;
            }
        }
        // Wait for the store — or for the reader's wake — and harvest.
        if !pending.is_empty() {
            match client.poll_wait(STOP_POLL) {
                Ok(completions) => {
                    for completion in completions {
                        let Some(id) = pending.remove(&completion.ticket) else {
                            continue;
                        };
                        let resp = match completion.outcome {
                            OpOutcome::Write { tag } => Response::Written { tag },
                            OpOutcome::Read { value, .. } => Response::Value { bytes: value },
                        };
                        if !push_response(&mut out, id, resp) {
                            break 'serve;
                        }
                    }
                }
                Err(error) => {
                    // The store is gone (shutdown under us): fail every
                    // outstanding request once, then drop the session.
                    let message = error.to_string();
                    for (_, id) in pending.drain() {
                        let resp = Response::Error {
                            message: message.clone(),
                        };
                        if !push_response(&mut out, id, resp) {
                            break;
                        }
                    }
                    let _ = flush(&mut stream, &mut out);
                    break 'serve;
                }
            }
        }
        if !flush(&mut stream, &mut out) {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
}

/// What the worker does right after handling one request.
enum Action {
    /// A data op was submitted; the response comes from a later completion.
    NoResponseYet,
    /// Answer immediately.
    Respond(Response),
    /// Answer, then bring the whole daemon down.
    ShutdownDaemon(Response),
}

fn handle_request(
    id: u64,
    req: Request,
    client: &mut StoreClient,
    admin: &Admin,
    config: &Config,
    pending: &mut HashMap<OpTicket, u64>,
) -> Action {
    match req {
        Request::Write { obj, value } => {
            // The decoded bytes are owned: frame them without another copy.
            let ticket = client.submit_write_value(obj, Value::new(value));
            pending.insert(ticket, id);
            Action::NoResponseYet
        }
        Request::Read { obj } => {
            let ticket = client.submit_read(obj);
            pending.insert(ticket, id);
            Action::NoResponseYet
        }
        Request::Kill { layer, index } => Action::Respond(admin_op(layer, index, config, |s| {
            admin.kill(s).map(|()| Response::Killed)
        })),
        Request::Repair { layer, index } => Action::Respond(admin_op(layer, index, config, |s| {
            admin.repair(s).map(|report| Response::Repaired {
                objects: report.objects,
            })
        })),
        Request::Liveness => {
            let liveness = admin.liveness();
            let count = |layer: &[bool]| layer.iter().filter(|&&live| live).count() as u64;
            Action::Respond(Response::Liveness {
                live_l1: count(&liveness.l1),
                live_l2: count(&liveness.l2),
            })
        }
        Request::Shutdown => Action::ShutdownDaemon(Response::ShuttingDown),
        // The wire enum is non-exhaustive: a newer client may send a
        // request this daemon does not know.
        _ => Action::Respond(Response::Error {
            message: "unsupported request".into(),
        }),
    }
}

/// Runs one admin operation against a locally hosted server, or explains
/// which daemon owns it.
fn admin_op(
    layer: u8,
    index: u64,
    config: &Config,
    op: impl FnOnce(ServerRef) -> Result<Response, lds_cluster::StoreError>,
) -> Response {
    let index = index as usize;
    let (n1, n2) = (config.params.n1(), config.params.n2());
    let (server, pid, bound) = match layer {
        0 => (ServerRef::l1(index), index, n1),
        1 => (ServerRef::l2(index), n1 + index, n2),
        _ => {
            return Response::Error {
                message: format!("unknown layer {layer} (0 = L1, 1 = L2)"),
            }
        }
    };
    if index >= bound {
        return Response::Error {
            message: format!("{server} out of range (layer has {bound} servers)"),
        };
    }
    let topology = &config.topology;
    let owner = topology.server_owner[pid];
    if owner != topology.index {
        return Response::Error {
            message: format!(
                "{server} is hosted by daemon {owner} at {}; send admin requests there",
                topology.peers[owner]
            ),
        };
    }
    match op(server) {
        Ok(resp) => resp,
        Err(error) => Response::Error {
            message: error.to_string(),
        },
    }
}

/// Appends one response frame to the turn's buffer; `false` when it cannot
/// be encoded (oversize), which ends the session.
fn push_response(out: &mut Vec<u8>, id: u64, resp: Response) -> bool {
    wire::encode_frame(&Frame::Response { id, resp }, out).is_ok()
}

/// Writes whatever the turn buffered in one `write_all` and resets the
/// buffer; `false` when the stream is dead.
fn flush(stream: &mut TcpStream, out: &mut Vec<u8>) -> bool {
    if out.is_empty() {
        return true;
    }
    let written = stream.write_all(out).is_ok();
    out.clear();
    written
}

/// The layer byte of a [`RepairLayer`] as used by [`Request::Kill`] /
/// [`Request::Repair`].
pub fn layer_byte(layer: RepairLayer) -> u8 {
    matches!(layer, RepairLayer::L2) as u8
}
