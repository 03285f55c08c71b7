//! # ldsd
//!
//! The standalone LDS server daemon: one OS process hosting its share of a
//! deployment's L1/L2 servers, meshed with its peers over real TCP.
//!
//! A deployment is described by one TOML config file per daemon
//! ([`config::Config`]); the `[membership]` section pins every server pid
//! to a daemon's mesh address, and each daemon derives its own slice
//! (which servers to spawn, which client-id residues to allocate) from
//! where its `listen` address appears in that table. Three listeners per
//! daemon:
//!
//! * **mesh** (`daemon.listen`) — server ↔ server protocol traffic,
//!   carried by the cluster runtime's
//!   [`TcpTransport`] under the router;
//! * **client RPC** (`daemon.client_listen`) — [`NetClient`] connections
//!   speaking request/response frames of the same [`lds_core::wire`] codec;
//! * **HTTP** (`daemon.http_listen`) — `GET /metrics` (Prometheus text
//!   exposition) and `GET /health`.
//!
//! The binary (`ldsd --config path.toml`) wraps [`Daemon::start`]; the
//! library surface exists so tests, benches and examples can run whole
//! multi-daemon deployments in one process while still crossing real
//! sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod http;
pub mod net_client;
mod rpc;

pub use config::{Config, ConfigError};
pub use net_client::{NetClient, NetError};
pub use rpc::layer_byte;

use lds_cluster::sync::channel::{unbounded, Receiver, RecvTimeoutError};
use lds_cluster::transport::{LinkStats, TcpTransport, Transport};
use lds_cluster::{StoreBuilder, StoreError, StoreHandle};
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A failure to start (or run) a daemon.
#[derive(Debug)]
#[non_exhaustive]
pub enum DaemonError {
    /// The configuration was rejected (see [`Config::parse`]).
    Config(ConfigError),
    /// A listener could not be bound or a socket failed; `context` names
    /// which one.
    Io {
        /// Which listener/socket operation failed.
        context: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The store runtime refused the derived deployment.
    Store(StoreError),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Config(e) => write!(f, "config error: {e}"),
            DaemonError::Io { context, source } => write!(f, "{context}: {source}"),
            DaemonError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<ConfigError> for DaemonError {
    fn from(e: ConfigError) -> DaemonError {
        DaemonError::Config(e)
    }
}

impl From<StoreError> for DaemonError {
    fn from(e: StoreError) -> DaemonError {
        DaemonError::Store(e)
    }
}

/// One running daemon: its hosted slice of the cluster, the mesh
/// transport, the client RPC listener and the HTTP endpoint.
pub struct Daemon {
    config: Arc<Config>,
    transport: Arc<TcpTransport>,
    store: Arc<StoreHandle>,
    rpc: Option<rpc::RpcServer>,
    http: Option<http::HttpServer>,
    shutdown_rx: Receiver<()>,
}

impl Daemon {
    /// Builds and starts every component of the daemon, in dependency
    /// order; any failure tears down cleanly and reports one error.
    pub fn start(config: Config) -> Result<Daemon, DaemonError> {
        let config = Arc::new(config);
        let transport =
            Arc::new(
                TcpTransport::bind(config.topology()).map_err(|source| DaemonError::Io {
                    context: "bind mesh listener",
                    source,
                })?,
            );
        let mut builder = StoreBuilder::new()
            .failures(config.cluster.f1, config.cluster.f2)
            .code(config.cluster.k, config.cluster.d)
            .backend(config.cluster.backend)
            .pipeline_depth(config.cluster.pipeline_depth)
            .transport(Arc::clone(&transport) as Arc<dyn Transport>)
            .host_scope(config.host_scope());
        if config.heal.enabled {
            builder = builder.self_heal_with(config.heal.to_heal_config());
        }
        let store = Arc::new(builder.build()?);

        let http = http::HttpServer::start(config.daemon.http_listen, Arc::clone(&store)).map_err(
            |source| {
                store.shutdown();
                DaemonError::Io {
                    context: "bind http listener",
                    source,
                }
            },
        )?;

        let (shutdown_tx, shutdown_rx) = unbounded();
        let rpc = rpc::RpcServer::start(
            config.daemon.client_listen,
            Arc::clone(&store),
            Arc::clone(&config),
            shutdown_tx,
        );
        let rpc = match rpc {
            Ok(rpc) => rpc,
            Err(source) => {
                http.stop();
                store.shutdown();
                return Err(DaemonError::Io {
                    context: "bind client rpc listener",
                    source,
                });
            }
        };

        Ok(Daemon {
            config,
            transport,
            store,
            rpc: Some(rpc),
            http: Some(http),
            shutdown_rx,
        })
    }

    /// The configuration this daemon runs under.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The client RPC address actually bound.
    pub fn client_addr(&self) -> SocketAddr {
        self.rpc.as_ref().expect("rpc runs until stop").local_addr()
    }

    /// The HTTP address actually bound.
    pub fn http_addr(&self) -> SocketAddr {
        self.http
            .as_ref()
            .expect("http runs until stop")
            .local_addr()
    }

    /// The hosted store (for in-process tests and benches that want the
    /// local facade next to the network one).
    pub fn store(&self) -> &Arc<StoreHandle> {
        &self.store
    }

    /// What this daemon's mesh links have written so far (frames, socket
    /// writes, stalls) and what they still hold.
    pub fn link_stats(&self) -> LinkStats {
        self.transport.link_stats()
    }

    /// Blocks until a client asks this daemon to shut down
    /// ([`NetClient::shutdown`]), checking `deadline` so embedders can
    /// bound the wait. Returns `true` when a shutdown request arrived.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        match self.shutdown_rx.recv_timeout(timeout) {
            Ok(()) => true,
            Err(RecvTimeoutError::Timeout) => false,
            Err(RecvTimeoutError::Disconnected) => true,
        }
    }

    /// Stops every component in reverse start order: RPC first (no new
    /// requests), then HTTP, then the store runtime (which also shuts the
    /// mesh transport down).
    pub fn stop(mut self) {
        if let Some(rpc) = self.rpc.take() {
            rpc.stop();
        }
        if let Some(http) = self.http.take() {
            http.stop();
        }
        self.store.shutdown();
    }
}

impl fmt::Debug for Daemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Daemon")
            .field("index", &self.config.daemon_index)
            .field("listen", &self.config.daemon.listen)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_cluster::{ObjectId, StoreClient, Waker};
    use std::net::TcpListener;
    use std::time::Instant;

    /// One daemon hosting the whole `n1 = 4, n2 = 5` membership.
    fn single_daemon() -> Daemon {
        let ports: Vec<u16> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .map(|l| l.local_addr().unwrap().port())
            .collect();
        let mut text = format!(
            "[daemon]\nlisten = \"127.0.0.1:{0}\"\nclient_listen = \"127.0.0.1:{1}\"\n\
             http_listen = \"127.0.0.1:{2}\"\n\n[cluster]\nf1 = 1\nf2 = 1\nk = 2\nd = 3\n\
             backend = \"mbr\"\n\n[heal]\nenabled = false\n\n[membership]\n",
            ports[0], ports[1], ports[2]
        );
        for pid in 0..9 {
            text.push_str(&format!("{pid} = \"127.0.0.1:{}\"\n", ports[0]));
        }
        Daemon::start(Config::parse(&text).unwrap()).unwrap()
    }

    /// The thread-safety contract embedders build on: daemons and store
    /// handles are shared by reference between threads, clients move to one.
    #[test]
    fn handles_are_send_and_sync_where_callers_share_them() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Daemon>();
        assert_send_sync::<StoreHandle>();
        assert_send::<NetClient>();
        assert_send::<StoreClient>();
        assert_send::<Waker>();
    }

    /// A daemon that serves many short-lived clients must not keep one dead
    /// socket and one join handle per connection it ever accepted.
    #[test]
    fn closed_connections_are_untracked() {
        let daemon = single_daemon();
        let addr = daemon.client_addr();
        let mut kept = NetClient::connect_retry(addr, Duration::from_secs(10)).unwrap();
        kept.write(ObjectId(1), b"kept open").unwrap();
        for round in 0..200u64 {
            let mut client = NetClient::connect(addr).unwrap();
            if round % 10 == 0 {
                assert_eq!(client.read(ObjectId(1)).unwrap(), b"kept open");
            }
        }
        // Each worker untracks itself once it has seen its peer's EOF.
        let rpc = daemon.rpc.as_ref().expect("rpc runs until stop");
        let deadline = Instant::now() + Duration::from_secs(10);
        while rpc.tracked_connections() != 1 {
            assert!(
                Instant::now() < deadline,
                "{} connections still tracked with 1 live",
                rpc.tracked_connections()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(kept.read(ObjectId(1)).unwrap(), b"kept open");
        drop(kept);
        daemon.stop();
    }

    /// A connection that never sends its `Hello` is closed and untracked at
    /// the handshake deadline instead of pinning a thread until shutdown;
    /// one that handshook may then stay idle for longer than that.
    #[test]
    fn a_silent_connection_is_let_go_at_the_hello_deadline() {
        use lds_core::wire::HELLO_TIMEOUT;
        use std::io::Read;
        let daemon = single_daemon();
        let addr = daemon.client_addr();
        let mut idle = NetClient::connect_retry(addr, Duration::from_secs(10)).unwrap();
        idle.write(ObjectId(2), b"idle but alive").unwrap();
        let rpc = daemon.rpc.as_ref().expect("rpc runs until stop");
        assert_eq!(rpc.tracked_connections(), 1);

        let started = Instant::now();
        let mut silent = std::net::TcpStream::connect(addr).unwrap();
        let margin = Duration::from_secs(3);
        silent
            .set_read_timeout(Some(HELLO_TIMEOUT + margin))
            .unwrap();
        let closed = silent.read(&mut [0u8; 1]);
        assert!(
            matches!(closed, Ok(0)),
            "a silent connection was not closed: {closed:?}"
        );
        while rpc.tracked_connections() != 1 {
            assert!(
                started.elapsed() < HELLO_TIMEOUT + margin,
                "the silent connection is still tracked"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // By now the handshaken client has sat idle past the deadline.
        assert!(started.elapsed() > HELLO_TIMEOUT);
        assert_eq!(idle.read(ObjectId(2)).unwrap(), b"idle but alive");
        drop(idle);
        daemon.stop();
    }
}
