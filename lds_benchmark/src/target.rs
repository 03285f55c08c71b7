//! What the benchmark drives: an in-process store or three daemons on
//! loopback TCP, behind one pair of types so the load generator, the
//! set-up and the probes are written once.

use crate::ops::{Op, OpKind};
use crate::spec::{Deploy, D, DAEMONS, F1, F2, K};
use lds_cluster::api::{ObjectId, Store, StoreBuilder, StoreClient, StoreHandle};
use lds_cluster::{HistSnapshot, OpOutcome, OpTicket};
use lds_core::backend::BackendKind;
use lds_core::tag::Tag;
use ldsd::{Config, Daemon, NetClient};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Longer than any operation of a healthy run; a wait this long is a
/// failure, not a latency.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

pub enum Deployment {
    InProc(StoreHandle),
    Tcp(Vec<Daemon>),
}

/// The slice of `Admin::metrics()` the benchmark reads, summed (or maxed)
/// over every store of the deployment: one for in-process, one per daemon.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub l1_inbox_depth: usize,
    pub l1_temporary_bytes: usize,
    pub max_l1_inbox_depth: usize,
    pub peak_round_bytes: usize,
    pub messages: u64,
    pub phase_tag: HistSnapshot,
    pub phase_data: HistSnapshot,
    pub phase_commit: HistSnapshot,
}

impl Deployment {
    /// Builds the deployment (threads, plan warm-up, for TCP the mesh and
    /// the RPC listeners). `trace` turns the flight recorder on; daemons
    /// have no such switch and ignore it.
    pub fn build(deploy: Deploy, trace: bool) -> Deployment {
        let builder = StoreBuilder::new()
            .failures(F1, F2)
            .code(K, D)
            .backend(BackendKind::Mbr);
        match deploy {
            Deploy::HighThroughput => Deployment::InProc(
                builder
                    .high_throughput(2)
                    .trace(trace)
                    .build()
                    .expect("benchmark deployment is valid"),
            ),
            Deploy::PaperFaithful => Deployment::InProc(
                builder
                    .paper_faithful()
                    .trace(trace)
                    .build()
                    .expect("benchmark deployment is valid"),
            ),
            Deploy::Tcp => Deployment::Tcp(start_daemons()),
        }
    }

    /// Connection `index` of a closed-loop client keeping `depth` in flight.
    /// TCP clients spread over the daemons, one connection each.
    pub fn connect(&self, index: usize, depth: usize) -> Conn {
        match self {
            Deployment::InProc(store) => {
                let mut client = store.client_with_depth(depth);
                client.set_timeout(OP_TIMEOUT);
                Conn::InProc {
                    client,
                    pending: HashMap::new(),
                }
            }
            Deployment::Tcp(daemons) => {
                let addr = daemons[index % daemons.len()].client_addr();
                Conn::Tcp {
                    client: NetClient::connect_retry(addr, Duration::from_secs(10))
                        .expect("daemon accepts connections"),
                    pending: VecDeque::new(),
                }
            }
        }
    }

    pub fn rpc_addr(&self, daemon: usize) -> Option<SocketAddr> {
        match self {
            Deployment::InProc(_) => None,
            Deployment::Tcp(daemons) => Some(daemons[daemon].client_addr()),
        }
    }

    fn stores(&self) -> Vec<&StoreHandle> {
        match self {
            Deployment::InProc(store) => vec![store],
            Deployment::Tcp(daemons) => daemons.iter().map(|d| &**d.store()).collect(),
        }
    }

    pub fn counters(&self) -> Counters {
        let mut total = Counters::default();
        for store in self.stores() {
            let m = store.admin().metrics();
            total.l1_inbox_depth += m.l1_inbox_depth;
            total.l1_temporary_bytes += m.l1_temporary_bytes;
            total.max_l1_inbox_depth = total.max_l1_inbox_depth.max(m.max_l1_inbox_depth);
            total.peak_round_bytes = total.peak_round_bytes.max(m.peak_round_bytes);
            total.messages += m.messages_by_class.iter().map(|(_, n)| n).sum::<u64>();
            total.phase_tag.merge(&m.phase_tag_latency);
            total.phase_data.merge(&m.phase_data_latency);
            total.phase_commit.merge(&m.phase_commit_latency);
        }
        total
    }

    /// Waits until no L1 inbox holds a message and, where the profile drops
    /// offloaded values, until L1 holds no temporary bytes: the background
    /// offload of every earlier write has then finished. Polls the program's
    /// own gauges, so it takes as long as the program takes.
    pub fn quiesce(&self, deploy: Deploy) {
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            let c = self.counters();
            if c.l1_inbox_depth == 0 && (!deploy.l1_drains() || c.l1_temporary_bytes == 0) {
                return;
            }
            assert!(Instant::now() < deadline, "store did not quiesce: {c:?}");
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The flight recorder's surviving events as JSONL (empty when tracing
    /// is off).
    pub fn trace_jsonl(&self) -> String {
        self.stores()
            .iter()
            .map(|store| store.admin().trace_dump().to_jsonl())
            .collect()
    }

    /// Stops every thread the deployment started and waits for them.
    pub fn shutdown(self) {
        match self {
            Deployment::InProc(store) => store.shutdown(),
            Deployment::Tcp(daemons) => daemons.into_iter().for_each(Daemon::stop),
        }
    }
}

fn start_daemons() -> Vec<Daemon> {
    // Three ports per daemon, picked by the kernel. They are released before
    // the daemons bind them; nothing else on a benchmark host races for them.
    let listeners: Vec<TcpListener> = (0..3 * DAEMONS)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback port"))
        .collect();
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address").port())
        .collect();
    drop(listeners);
    let (mesh, rest) = ports.split_at(DAEMONS);
    let (rpc, http) = rest.split_at(DAEMONS);
    let servers = (2 * F1 + K) + (2 * F2 + D);
    (0..DAEMONS)
        .map(|index| {
            let mut text = format!(
                "[daemon]\nlisten = \"127.0.0.1:{}\"\nclient_listen = \"127.0.0.1:{}\"\n\
                 http_listen = \"127.0.0.1:{}\"\n\n[cluster]\nf1 = {F1}\nf2 = {F2}\nk = {K}\n\
                 d = {D}\nbackend = \"mbr\"\n\n[membership]\n",
                mesh[index], rpc[index], http[index]
            );
            for pid in 0..servers {
                text.push_str(&format!("{pid} = \"127.0.0.1:{}\"\n", mesh[pid % DAEMONS]));
            }
            let config = Config::parse(&text).expect("benchmark daemon config is valid");
            Daemon::start(config).expect("daemon starts")
        })
        .collect()
}

/// An operation in flight, as the load generator remembers it.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    pub op: Op,
    /// Per-writer sequence number stamped into a write's value.
    pub seq: u64,
    pub submitted: Instant,
}

/// A completed operation. `tag` is absent for TCP reads (the RPC returns
/// bytes only); `value` is present for reads.
pub struct Done {
    pub pending: Pending,
    pub tag: Option<Tag>,
    pub value: Option<Vec<u8>>,
}

pub enum Conn {
    InProc {
        client: StoreClient,
        pending: HashMap<OpTicket, Pending>,
    },
    /// Responses are awaited in submission order (a FIFO window).
    Tcp {
        client: NetClient,
        pending: VecDeque<(u64, Pending)>,
    },
}

impl Conn {
    pub fn outstanding(&self) -> usize {
        match self {
            Conn::InProc { pending, .. } => pending.len(),
            Conn::Tcp { pending, .. } => pending.len(),
        }
    }

    /// Starts `op` at `submitted`; `value` is the bytes of a write.
    pub fn submit(
        &mut self,
        op: Op,
        seq: u64,
        value: &[u8],
        submitted: Instant,
    ) -> Result<(), String> {
        let entry = Pending { op, seq, submitted };
        let key = ObjectId(op.key);
        match self {
            Conn::InProc { client, pending } => {
                let ticket = match op.kind {
                    OpKind::Write => client.submit_write(key, value),
                    OpKind::Read => client.submit_read(key),
                };
                pending.insert(ticket, entry);
            }
            Conn::Tcp { client, pending } => {
                let id = match op.kind {
                    OpKind::Write => client.submit_write(key, value),
                    OpKind::Read => client.submit_read(key),
                }
                .map_err(|e| e.to_string())?;
                pending.push_back((id, entry));
            }
        }
        Ok(())
    }

    /// Blocks until at least one outstanding operation completes and appends
    /// every completion at hand to `done`. An error fails every operation
    /// still outstanding.
    pub fn harvest(&mut self, done: &mut Vec<Done>) -> Result<(), String> {
        match self {
            Conn::InProc { client, pending } => {
                for completion in client.wait_next().map_err(|e| e.to_string())? {
                    let entry = pending
                        .remove(&completion.ticket)
                        .ok_or("completion for an unknown ticket")?;
                    let (tag, value) = match completion.outcome {
                        OpOutcome::Write { tag } => (tag, None),
                        OpOutcome::Read { tag, value } => (tag, Some(value)),
                    };
                    done.push(Done {
                        pending: entry,
                        tag: Some(tag),
                        value,
                    });
                }
            }
            Conn::Tcp { client, pending } => {
                let Some((id, entry)) = pending.pop_front() else {
                    return Ok(());
                };
                let (tag, value) = match entry.op.kind {
                    OpKind::Write => (
                        Some(client.wait_written(id).map_err(|e| e.to_string())?),
                        None,
                    ),
                    OpKind::Read => (
                        None,
                        Some(client.wait_value(id).map_err(|e| e.to_string())?),
                    ),
                };
                done.push(Done {
                    pending: entry,
                    tag,
                    value,
                });
            }
        }
        Ok(())
    }
}
