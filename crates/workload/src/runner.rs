//! Wiring a complete two-layer LDS deployment into the simulator.

use lds_core::backend::{make_backend, BackendCodec, BackendKind};
use lds_core::consistency::History;
use lds_core::membership::{Membership, CLIENT_GROUP, L1_GROUP, L2_GROUP};
use lds_core::messages::{LdsMessage, ProtocolEvent};
use lds_core::params::{Profile, SystemParams};
use lds_core::reader::ReaderClient;
use lds_core::server1::L1Server;
use lds_core::server2::L2Server;
use lds_core::sim::{ClassLatency, LinkSpec, NetworkMetrics, SimConfig, Simulation};
use lds_core::tag::{ClientId, ObjectId};
use lds_core::value::Value;
use lds_core::writer::WriterClient;
use lds_core::{ProcessId, SimTime};
use std::sync::Arc;

/// Configuration of a simulated LDS deployment.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// System parameters (layer sizes, fault tolerances, code parameters).
    pub params: SystemParams,
    /// Back-end code used in L2.
    pub backend: BackendKind,
    /// Simulation seed.
    pub seed: u64,
    /// Upper bound on L1 ↔ L1 link delay (τ0).
    pub tau0: f64,
    /// Upper bound on client ↔ L1 link delay (τ1).
    pub tau1: f64,
    /// Upper bound on L1 ↔ L2 link delay (τ2).
    pub tau2: f64,
    /// Fraction of jitter: each delay is drawn uniformly from
    /// `[(1 − jitter)·τ, τ]`. Zero gives the deterministic bounded-latency
    /// model used in the paper's latency analysis.
    pub jitter: f64,
    /// Which message flow the servers run (default
    /// [`Profile::PaperFaithful`]).
    pub profile: Profile,
}

impl RunnerConfig {
    /// Creates a configuration with the paper's default latency regime
    /// (τ0 = τ1 = 1, τ2 = 10) and an MBR back-end.
    pub fn new(params: SystemParams) -> Self {
        RunnerConfig {
            params,
            backend: BackendKind::Mbr,
            seed: 0,
            tau0: 1.0,
            tau1: 1.0,
            tau2: 10.0,
            jitter: 0.0,
            profile: Profile::PaperFaithful,
        }
    }

    /// Sets the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the back-end code.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the three link-delay bounds.
    pub fn latencies(mut self, tau0: f64, tau1: f64, tau2: f64) -> Self {
        self.tau0 = tau0;
        self.tau1 = tau1;
        self.tau2 = tau2;
        self
    }

    /// Sets the jitter fraction (0 = deterministic delays).
    pub fn jitter(mut self, jitter: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&jitter),
            "jitter must be within [0, 1]"
        );
        self.jitter = jitter;
        self
    }

    /// Sets the protocol profile of every server.
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    fn latency_model(&self) -> ClassLatency {
        let spec = |tau: f64| {
            if self.jitter > 0.0 {
                LinkSpec::uniform(tau * (1.0 - self.jitter), tau)
            } else {
                LinkSpec::fixed(tau)
            }
        };
        ClassLatency::new(spec(self.tau1))
            .with_link(CLIENT_GROUP, L1_GROUP, spec(self.tau1))
            .with_link(L1_GROUP, L1_GROUP, spec(self.tau0))
            .with_link(L1_GROUP, L2_GROUP, spec(self.tau2))
            .with_link(L2_GROUP, L2_GROUP, spec(self.tau2))
            .with_link(CLIENT_GROUP, L2_GROUP, spec(self.tau2))
    }
}

/// The result of running a simulated workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Completed-operation history (input to the atomicity checkers).
    pub history: History,
    /// Traffic counters for the whole run.
    pub metrics: NetworkMetrics,
    /// Simulated time at which the run finished.
    pub finished_at: SimTime,
    /// Total bytes in L1 temporary storage at the end of the run.
    pub l1_storage_bytes: usize,
    /// Total bytes in L2 permanent storage at the end of the run.
    pub l2_storage_bytes: usize,
}

/// A complete simulated LDS deployment: `n1` L1 servers, `n2` L2 servers and
/// any number of writer / reader clients, all driven by the deterministic
/// simulator.
pub struct SimRunner {
    config: RunnerConfig,
    sim: Simulation<LdsMessage, ProtocolEvent>,
    membership: Membership,
    backend: Arc<dyn BackendCodec>,
    writers: Vec<ProcessId>,
    readers: Vec<ProcessId>,
    next_client_id: u64,
}

impl SimRunner {
    /// Builds the deployment described by `config`.
    pub fn new(config: RunnerConfig) -> Self {
        let params = config.params;
        let backend =
            make_backend(config.backend, &params).expect("backend construction for valid params");
        // Pre-warm the codec's memoized decode / repair plans for the
        // canonical quorums so measured operations run at steady-state speed.
        backend.warm_plans();
        let sim_config = SimConfig::with_seed(config.seed).latency(config.latency_model());
        let mut sim: Simulation<LdsMessage, ProtocolEvent> = Simulation::new(sim_config);

        // Process ids are assigned densely in spawn order, so the membership
        // can be computed up front: L1 first, then L2.
        let l1: Vec<ProcessId> = (0..params.n1()).map(ProcessId).collect();
        let l2: Vec<ProcessId> = (params.n1()..params.n1() + params.n2())
            .map(ProcessId)
            .collect();
        let membership = Membership::new(l1.clone(), l2.clone());

        for (j, &expected) in l1.iter().enumerate() {
            let server = L1Server::new(
                j,
                params,
                membership.clone(),
                Arc::clone(&backend),
                config.profile,
            );
            let pid = sim.spawn(server, L1_GROUP);
            assert_eq!(
                pid, expected,
                "spawn order must match the precomputed membership"
            );
        }
        for (i, &expected) in l2.iter().enumerate() {
            let server = L2Server::new(i, membership.clone(), Arc::clone(&backend), config.profile);
            let pid = sim.spawn(server, L2_GROUP);
            assert_eq!(
                pid, expected,
                "spawn order must match the precomputed membership"
            );
        }

        SimRunner {
            config,
            sim,
            membership,
            backend,
            writers: Vec::new(),
            readers: Vec::new(),
            next_client_id: 1,
        }
    }

    /// The system parameters of this deployment.
    pub fn params(&self) -> SystemParams {
        self.config.params
    }

    /// The configuration the runner was built with.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// The deployment's membership (server process ids).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Direct access to the underlying simulation (advanced probes).
    pub fn sim(&self) -> &Simulation<LdsMessage, ProtocolEvent> {
        &self.sim
    }

    /// Adds a writer client and returns its process id.
    pub fn add_writer(&mut self) -> ProcessId {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        let writer = WriterClient::new(id, self.config.params, self.membership.clone());
        let pid = self.sim.spawn(writer, CLIENT_GROUP);
        self.writers.push(pid);
        pid
    }

    /// Adds a reader client and returns its process id.
    pub fn add_reader(&mut self) -> ProcessId {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        let reader = ReaderClient::new(
            id,
            self.config.params,
            self.membership.clone(),
            Arc::clone(&self.backend),
        );
        let pid = self.sim.spawn(reader, CLIENT_GROUP);
        self.readers.push(pid);
        pid
    }

    /// All writer process ids added so far.
    pub fn writers(&self) -> &[ProcessId] {
        &self.writers
    }

    /// All reader process ids added so far.
    pub fn readers(&self) -> &[ProcessId] {
        &self.readers
    }

    /// Schedules a write of `value` to the default object at `time`. Accepts
    /// anything convertible into a [`Value`] — `Vec<u8>` is framed once,
    /// already-framed `Value`s (e.g. from a reuse-friendly
    /// [`crate::ValueGenerator`]) are passed through without copying.
    pub fn invoke_write(&mut self, writer: ProcessId, time: f64, value: impl Into<Value>) {
        self.invoke_write_obj(writer, time, ObjectId(0), value);
    }

    /// Schedules a write to a specific object at `time`.
    pub fn invoke_write_obj(
        &mut self,
        writer: ProcessId,
        time: f64,
        obj: ObjectId,
        value: impl Into<Value>,
    ) {
        self.sim.inject_at(
            time,
            writer,
            LdsMessage::InvokeWrite {
                obj,
                value: value.into(),
            },
        );
    }

    /// Schedules a read of the default object at `time`.
    pub fn invoke_read(&mut self, reader: ProcessId, time: f64) {
        self.invoke_read_obj(reader, time, ObjectId(0));
    }

    /// Schedules a read of a specific object at `time`.
    pub fn invoke_read_obj(&mut self, reader: ProcessId, time: f64, obj: ObjectId) {
        self.sim
            .inject_at(time, reader, LdsMessage::InvokeRead { obj });
    }

    /// Crashes the L1 server with code index `index` at `time`.
    pub fn crash_l1(&mut self, index: usize, time: f64) {
        self.sim.schedule_crash(time, self.membership.l1[index]);
    }

    /// Crashes the L2 server with code index `index` at `time`.
    pub fn crash_l2(&mut self, index: usize, time: f64) {
        self.sim.schedule_crash(time, self.membership.l2[index]);
    }

    /// Runs until quiescence and collects the report.
    pub fn run(&mut self) -> RunReport {
        self.sim.run();
        self.report()
    }

    /// Runs until simulated `time` (events after it stay queued).
    pub fn run_until(&mut self, time: f64) {
        self.sim.run_until(time);
    }

    /// Current total bytes of temporary storage across L1 servers.
    pub fn l1_storage_bytes(&self) -> usize {
        self.membership
            .l1
            .iter()
            .filter_map(|&pid| self.sim.process_ref::<L1Server>(pid))
            .map(L1Server::temporary_storage_bytes)
            .sum()
    }

    /// Current total bytes of permanent storage across L2 servers.
    pub fn l2_storage_bytes(&self) -> usize {
        self.membership
            .l2
            .iter()
            .filter_map(|&pid| self.sim.process_ref::<L2Server>(pid))
            .map(L2Server::storage_bytes)
            .sum()
    }

    /// Number of readers currently registered across all L1 servers (useful
    /// to verify that reads unregister themselves).
    pub fn registered_readers(&self) -> usize {
        self.membership
            .l1
            .iter()
            .filter_map(|&pid| self.sim.process_ref::<L1Server>(pid))
            .map(L1Server::registered_readers)
            .sum()
    }

    /// Builds the report for the events observed so far without consuming
    /// pending events.
    pub fn report(&self) -> RunReport {
        let history =
            History::from_events(self.sim.events().iter().map(|(t, _, e)| (e.clone(), *t)));
        RunReport {
            history,
            metrics: self.sim.metrics().clone(),
            finished_at: self.sim.now(),
            l1_storage_bytes: self.l1_storage_bytes(),
            l2_storage_bytes: self.l2_storage_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> SystemParams {
        SystemParams::for_failures(1, 1, 2, 3).unwrap() // n1=4, n2=5, k=2, d=3
    }

    #[test]
    fn single_write_and_read_roundtrip() {
        let mut runner = SimRunner::new(RunnerConfig::new(small_params()).seed(42));
        let w = runner.add_writer();
        let r = runner.add_reader();
        runner.invoke_write(w, 0.0, b"layered".to_vec());
        runner.invoke_read(r, 200.0);
        let report = runner.run();

        assert_eq!(report.history.len(), 2);
        report.history.check_atomicity().unwrap();
        let read = report
            .history
            .operations()
            .iter()
            .find(|o| !o.is_write())
            .expect("read completed");
        assert_eq!(read.value().as_bytes(), b"layered");
        assert_eq!(runner.registered_readers(), 0);
    }

    #[test]
    fn read_with_no_prior_write_returns_initial_value() {
        let mut runner = SimRunner::new(RunnerConfig::new(small_params()).seed(3));
        let r = runner.add_reader();
        runner.invoke_read(r, 0.0);
        let report = runner.run();
        assert_eq!(report.history.len(), 1);
        let read = &report.history.operations()[0];
        assert!(read.value().is_empty());
        assert!(read.tag.is_initial());
        report.history.check_atomicity().unwrap();
    }

    #[test]
    fn value_is_offloaded_to_l2_and_gc_from_l1() {
        let mut runner = SimRunner::new(RunnerConfig::new(small_params()).seed(7));
        let w = runner.add_writer();
        runner.invoke_write(w, 0.0, vec![9u8; 900]);
        let report = runner.run();
        assert_eq!(report.history.len(), 1);
        // After quiescence the value lives only as coded elements in L2.
        assert_eq!(report.l1_storage_bytes, 0, "L1 storage is temporary");
        assert!(report.l2_storage_bytes > 0, "L2 holds the coded elements");
        // With the MBR code the total L2 storage is far below n2 full copies.
        assert!(report.l2_storage_bytes < 5 * 900);
    }

    #[test]
    fn read_concurrent_with_write_is_served_from_l1() {
        let mut runner = SimRunner::new(RunnerConfig::new(small_params()).seed(1));
        let w = runner.add_writer();
        let r = runner.add_reader();
        runner.invoke_write(w, 0.0, b"concurrent".to_vec());
        // The read starts while the write is still in flight (write takes
        // ~6 time units under unit latencies).
        runner.invoke_read(r, 1.0);
        let report = runner.run();
        assert_eq!(report.history.len(), 2);
        report.history.check_atomicity().unwrap();
    }

    #[test]
    fn survives_maximum_failures_in_both_layers() {
        let mut runner = SimRunner::new(RunnerConfig::new(small_params()).seed(5));
        let w = runner.add_writer();
        let r = runner.add_reader();
        // f1 = 1 crash in L1 and f2 = 1 crash in L2, before any operation.
        runner.crash_l1(0, 0.0);
        runner.crash_l2(4, 0.0);
        runner.invoke_write(w, 1.0, b"fault tolerant".to_vec());
        runner.invoke_read(r, 300.0);
        let report = runner.run();
        assert_eq!(
            report.history.len(),
            2,
            "operations complete despite crashes"
        );
        let read = report
            .history
            .operations()
            .iter()
            .find(|o| !o.is_write())
            .unwrap();
        assert_eq!(read.value().as_bytes(), b"fault tolerant");
        report.history.check_atomicity().unwrap();
    }

    #[test]
    fn high_throughput_sends_fewer_messages_for_the_same_history() {
        let run = |profile: Profile| {
            let mut runner =
                SimRunner::new(RunnerConfig::new(small_params()).seed(9).profile(profile));
            let w = runner.add_writer();
            let r = runner.add_reader();
            runner.invoke_write(w, 0.0, b"x".to_vec());
            runner.invoke_read(r, 100.0);
            let report = runner.run();
            report.history.check_atomicity().unwrap();
            let read = report.history.operations().iter().find(|o| !o.is_write());
            assert_eq!(read.unwrap().value().as_bytes(), b"x");
            report.metrics.messages_sent()
        };
        assert!(run(Profile::HighThroughput) < run(Profile::PaperFaithful));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut runner =
                SimRunner::new(RunnerConfig::new(small_params()).seed(seed).jitter(0.3));
            let w = runner.add_writer();
            let r = runner.add_reader();
            runner.invoke_write(w, 0.0, b"det".to_vec());
            runner.invoke_read(r, 10.0);
            let report = runner.run();
            (report.metrics.messages_sent(), report.finished_at)
        };
        assert_eq!(run(11), run(11));
    }
}
