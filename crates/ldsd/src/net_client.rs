//! A blocking + pipelined network client for an `ldsd` daemon.
//!
//! [`NetClient`] speaks the request/response side of the wire codec over
//! one TCP connection to a daemon's `client_listen` port. It mirrors the
//! in-process [`Store`](lds_cluster::Store) facade's shape:
//!
//! * **blocking**: [`NetClient::write`] / [`NetClient::read`] send one
//!   request and wait for its response;
//! * **pipelined**: [`NetClient::submit_write`] / [`NetClient::submit_read`]
//!   return a request id immediately; [`NetClient::wait_written`] /
//!   [`NetClient::wait_value`] harvest responses in any order (out-of-order
//!   arrivals are stashed until asked for).
//!
//! Admin verbs ([`NetClient::kill`], [`NetClient::repair`], …) must target
//! a server hosted by the connected daemon; the daemon's error response
//! names the right one otherwise.

use lds_core::tag::{ObjectId, Tag};
use lds_core::wire::{self, Frame, Request, Response, WireError};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A failure of a network store operation.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The connection failed or died.
    Io(std::io::Error),
    /// A frame could not be decoded (protocol corruption).
    Wire(WireError),
    /// The daemon rejected or failed the request; the string is its
    /// one-line error rendering.
    Remote(String),
    /// The daemon answered with a response of the wrong kind.
    UnexpectedResponse(&'static str),
    /// The peer did not complete the `Hello` exchange.
    Handshake,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "connection error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Remote(message) => write!(f, "daemon error: {message}"),
            NetError::UnexpectedResponse(expected) => {
                write!(f, "unexpected response kind (expected {expected})")
            }
            NetError::Handshake => write!(f, "handshake failed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

/// One connection to an `ldsd` daemon (see the [module docs](self)).
pub struct NetClient {
    /// The write half.
    stream: TcpStream,
    /// The read half (a clone of `stream`), buffered so one `read` yields
    /// every response the daemon coalesced into one write.
    reader: BufReader<TcpStream>,
    /// Reusable encode buffer.
    buf: Vec<u8>,
    /// Reusable frame-body decode buffer.
    body: Vec<u8>,
    next_id: u64,
    /// Responses that arrived while waiting for a different id.
    stash: HashMap<u64, Response>,
    /// The daemon index the peer announced in its `Hello`.
    daemon: u64,
}

impl NetClient {
    /// Connects and performs the `Hello` exchange.
    pub fn connect(addr: SocketAddr) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        NetClient::handshake(stream)
    }

    /// [`NetClient::connect`], retrying for up to `timeout` while the
    /// daemon is still coming up (connection refused / reset). A timeout
    /// too large to add to the clock (`Duration::MAX`) retries without a
    /// deadline.
    pub fn connect_retry(addr: SocketAddr, timeout: Duration) -> Result<NetClient, NetError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            match NetClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(error) => {
                    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                        return Err(error);
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }

    fn handshake(mut stream: TcpStream) -> Result<NetClient, NetError> {
        stream.set_nodelay(true)?;
        let mut buf = Vec::with_capacity(4096);
        // Clients are not mesh members; u64::MAX marks the Hello as one
        // from outside the daemon index space.
        wire::encode_frame(&Frame::Hello { daemon: u64::MAX }, &mut buf)?;
        stream.write_all(&buf)?;
        let mut reader = BufReader::with_capacity(wire::READ_BUF_LEN, stream.try_clone()?);
        let mut body = Vec::with_capacity(4096);
        let daemon = match wire::read_frame(&mut reader, &mut body) {
            Some(Ok(Frame::Hello { daemon })) => daemon,
            Some(Err(error)) => return Err(error.into()),
            _ => return Err(NetError::Handshake),
        };
        Ok(NetClient {
            stream,
            reader,
            buf,
            body,
            next_id: 0,
            stash: HashMap::new(),
            daemon,
        })
    }

    /// The index the connected daemon announced during the handshake.
    pub fn daemon_index(&self) -> u64 {
        self.daemon
    }

    // ------------------------------------------------------------------
    // Pipelined data plane
    // ------------------------------------------------------------------

    /// Sends a write; the returned id is redeemed with
    /// [`NetClient::wait_written`].
    pub fn submit_write(&mut self, obj: ObjectId, value: &[u8]) -> Result<u64, NetError> {
        self.send(Request::Write {
            obj,
            value: value.to_vec(),
        })
    }

    /// Sends a read; the returned id is redeemed with
    /// [`NetClient::wait_value`].
    pub fn submit_read(&mut self, obj: ObjectId) -> Result<u64, NetError> {
        self.send(Request::Read { obj })
    }

    /// Waits for request `id` to complete as a write.
    pub fn wait_written(&mut self, id: u64) -> Result<Tag, NetError> {
        match self.wait(id)? {
            Response::Written { tag } => Ok(tag),
            Response::Error { message } => Err(NetError::Remote(message)),
            _ => Err(NetError::UnexpectedResponse("Written")),
        }
    }

    /// Waits for request `id` to complete as a read.
    pub fn wait_value(&mut self, id: u64) -> Result<Vec<u8>, NetError> {
        match self.wait(id)? {
            Response::Value { bytes } => Ok(bytes),
            Response::Error { message } => Err(NetError::Remote(message)),
            _ => Err(NetError::UnexpectedResponse("Value")),
        }
    }

    // ------------------------------------------------------------------
    // Blocking data plane
    // ------------------------------------------------------------------

    /// Writes `value` under `obj` and returns the committed tag.
    pub fn write(&mut self, obj: ObjectId, value: &[u8]) -> Result<Tag, NetError> {
        let id = self.submit_write(obj, value)?;
        self.wait_written(id)
    }

    /// Reads the latest committed value of `obj`.
    pub fn read(&mut self, obj: ObjectId) -> Result<Vec<u8>, NetError> {
        let id = self.submit_read(obj)?;
        self.wait_value(id)
    }

    // ------------------------------------------------------------------
    // Admin plane
    // ------------------------------------------------------------------

    /// Crashes the server at (`layer`, `index`); `layer` 0 = L1, 1 = L2.
    pub fn kill(&mut self, layer: u8, index: u64) -> Result<(), NetError> {
        let id = self.send(Request::Kill { layer, index })?;
        match self.wait(id)? {
            Response::Killed => Ok(()),
            Response::Error { message } => Err(NetError::Remote(message)),
            _ => Err(NetError::UnexpectedResponse("Killed")),
        }
    }

    /// Repairs the server at (`layer`, `index`), returning how many objects
    /// the replacement regenerated.
    pub fn repair(&mut self, layer: u8, index: u64) -> Result<u64, NetError> {
        let id = self.send(Request::Repair { layer, index })?;
        match self.wait(id)? {
            Response::Repaired { objects } => Ok(objects),
            Response::Error { message } => Err(NetError::Remote(message)),
            _ => Err(NetError::UnexpectedResponse("Repaired")),
        }
    }

    /// Per-layer live-server counts as the connected daemon observes them.
    pub fn liveness(&mut self) -> Result<(u64, u64), NetError> {
        let id = self.send(Request::Liveness)?;
        match self.wait(id)? {
            Response::Liveness { live_l1, live_l2 } => Ok((live_l1, live_l2)),
            Response::Error { message } => Err(NetError::Remote(message)),
            _ => Err(NetError::UnexpectedResponse("Liveness")),
        }
    }

    /// Asks the connected daemon to shut down; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        let id = self.send(Request::Shutdown)?;
        match self.wait(id)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { message } => Err(NetError::Remote(message)),
            _ => Err(NetError::UnexpectedResponse("ShuttingDown")),
        }
    }

    // ------------------------------------------------------------------

    /// Sends one request frame, returning its id.
    fn send(&mut self, req: Request) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.buf.clear();
        wire::encode_frame(&Frame::Request { id, req }, &mut self.buf)?;
        self.stream.write_all(&self.buf)?;
        Ok(id)
    }

    /// Blocks until the response for `id` arrives, stashing any other
    /// responses that land first.
    fn wait(&mut self, id: u64) -> Result<Response, NetError> {
        loop {
            if let Some(resp) = self.stash.remove(&id) {
                return Ok(resp);
            }
            match wire::read_frame(&mut self.reader, &mut self.body) {
                Some(Ok(Frame::Response { id: got, resp })) => {
                    if got == id {
                        return Ok(resp);
                    }
                    self.stash.insert(got, resp);
                }
                Some(Ok(Frame::Hello { .. })) => {}
                Some(Ok(_)) => return Err(NetError::UnexpectedResponse("Response")),
                Some(Err(error)) => return Err(error.into()),
                None => {
                    return Err(NetError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    )))
                }
            }
        }
    }
}

impl fmt::Debug for NetClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetClient")
            .field("daemon", &self.daemon)
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}
