//! The daemon's embedded HTTP/1.1 responder: `GET /metrics` and
//! `GET /health`.
//!
//! One acceptor thread, one short-lived connection per request
//! (`Connection: close`), no keep-alive, no dependency. `/metrics` renders
//! [`MetricsSnapshot::to_prometheus`](lds_cluster::MetricsSnapshot::to_prometheus)
//! on demand, so a scrape always sees current counters.

use lds_cluster::{Admin, StoreHandle};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one client has to send its whole request head.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// The most bytes of request head read from one client.
const HEAD_MAX: u64 = 8 << 10;

/// The running HTTP responder; dropped via [`HttpServer::stop`].
pub(crate) struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and starts the acceptor thread.
    pub(crate) fn start(addr: SocketAddr, store: Arc<StoreHandle>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = std::thread::Builder::new()
            .name("ldsd-http".into())
            .spawn({
                let stop = Arc::clone(&stop);
                move || run_acceptor(listener, store, stop)
            })?;
        Ok(HttpServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address actually bound (resolves `:0`).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and joins it.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn run_acceptor(listener: TcpListener, store: Arc<StoreHandle>, stop: Arc<AtomicBool>) {
    let admin = store.admin();
    loop {
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
        // Requests are tiny and responses are one write: serving inline on
        // the acceptor keeps the daemon's thread count flat. A stuck or
        // endless client cannot wedge it: its head is cut at `HEAD_MAX`
        // bytes and `REQUEST_DEADLINE` after it connected.
        let _ = serve_one(stream, &admin);
    }
}

/// A socket whose reads all end by one instant: each sets the read timeout
/// to the time left.
struct Deadline {
    stream: TcpStream,
    until: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one request head and writes one response.
fn serve_one(stream: TcpStream, admin: &Admin) -> std::io::Result<()> {
    let until = Instant::now() + REQUEST_DEADLINE;
    let mut reader = BufReader::new(Deadline { stream, until }.take(HEAD_MAX));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers until the blank line; their content is irrelevant.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let oversize = reader.get_ref().limit() == 0;
    let (status, content_type, body) = match (method, path) {
        _ if oversize => (
            "431 Request Header Fields Too Large",
            "text/plain",
            "request head too large\n".to_string(),
        ),
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4",
            admin.metrics().to_prometheus(),
        ),
        ("GET", "/health") => ("200 OK", "text/plain", "ok\n".to_string()),
        ("GET", _) => ("404 Not Found", "text/plain", "not found\n".to_string()),
        _ => (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n".to_string(),
        ),
    };
    let mut stream = reader.into_inner().into_inner().stream;
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_cluster::StoreBuilder;

    /// A client that streams an endless request line holds the daemon's
    /// only HTTP thread for at most `HEAD_MAX` bytes: a health check sent
    /// meanwhile is answered at once.
    #[test]
    fn an_endless_request_line_does_not_hold_the_responder() {
        let store = Arc::new(StoreBuilder::new().build().unwrap());
        let server = HttpServer::start("127.0.0.1:0".parse().unwrap(), Arc::clone(&store)).unwrap();
        let addr = server.local_addr();
        let mut endless = TcpStream::connect(addr).unwrap();
        // Accepted first, and kept open; writes fail once the daemon has
        // answered and closed.
        let _ = endless.write_all(&[b'a'; 64 << 10]);

        let started = Instant::now();
        let mut health = TcpStream::connect(addr).unwrap();
        health
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        health.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        health.read_to_string(&mut response).unwrap();
        let waited = started.elapsed();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response:?}");
        assert!(
            waited < Duration::from_secs(1),
            "health check waited {waited:?}"
        );
        drop(endless);
        server.stop();
        store.shutdown();
    }
}
