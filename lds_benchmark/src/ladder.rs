//! The layer ladder: every layer of the program timed alone, from outside,
//! through the same public calls the program makes. None of it depends on
//! the workload being run, so a workload's latency can be set against the
//! cost of the layers on its path.

use crate::load::{self, Report};
use crate::ops::Rng;
use crate::spec::{self, Deploy, Workload, D, F1, F2, K};
use crate::stats::{self, percentile_us};
use crate::target::Deployment;
use lds_core::backend::{make_backend, BackendCodec, BackendKind};
use lds_core::params::SystemParams;
use lds_core::tag::ObjectId;
use lds_core::value::Value;
use lds_core::wire::{self, Frame, Request};
use lds_gf::{bulk, Gf256};
use lds_workload::measure::measure_costs;
use lds_workload::{ClosedLoopWorkload, RunnerConfig, SimRunner};
use ldsd::NetClient;
use std::hint::black_box;
use std::time::Instant;

/// Value sizes of the three deployments' workloads.
pub const SIZES: [(usize, &str); 3] = [(256, "256"), (4 << 10, "4k"), (256 << 10, "256k")];

/// How much work each rung does: full, or `--smoke`'s tenth.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Batches per timed call; the median batch is reported.
    pub reps: usize,
    /// Divides every iteration and operation count.
    pub divisor: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        reps: 7,
        divisor: 1,
    };
    pub const SMOKE: Effort = Effort {
        reps: 3,
        divisor: 10,
    };

    pub fn count(self, full: usize) -> usize {
        (full / self.divisor).max(2)
    }
}

/// Codec costs at one value size, in microseconds per call.
#[derive(Debug, Clone, Copy)]
pub struct CodecCosts {
    pub encode_us: f64,
    pub helper_us: f64,
    pub regenerate_us: f64,
    pub decode_us: f64,
}

pub struct Ladder {
    /// `(metric name, value)` for every rung that is a reported metric.
    pub metrics: Vec<(String, f64)>,
    /// Codec costs per entry of [`SIZES`], reported or not: the
    /// reconciliation needs them at every workload's value size.
    pub codec: Vec<CodecCosts>,
    /// One span per rung: `(name, start, end)` in ns since `epoch`.
    pub spans: Vec<(String, u64, u64)>,
    /// Operations the probes issued and how many failed verification.
    pub attempted: u64,
    pub failed: u64,
    epoch: Instant,
    effort: Effort,
}

fn params() -> SystemParams {
    SystemParams::for_failures(F1, F2, K, D).expect("benchmark parameters are valid")
}

impl Ladder {
    pub fn run(seed: u64, effort: Effort, epoch: Instant) -> Ladder {
        let mut ladder = Ladder {
            metrics: Vec::new(),
            codec: Vec::new(),
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            epoch,
            effort,
        };
        let mut rng = Rng::new(seed ^ 0x001A_DDE4);
        ladder.gf(&mut rng);
        ladder.codes(&mut rng);
        ladder.core_sim(seed);
        ladder.core_wire(&mut rng);
        ladder.stores(seed);
        ladder
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("ladder has no rung {name}"))
    }

    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Median over batches of the mean nanoseconds per call of `f`, recorded
    /// as one span named `name`.
    fn time_ns(&mut self, name: &str, iters: usize, mut f: impl FnMut()) -> f64 {
        let iters = self.effort.count(iters);
        let start = self.epoch.elapsed();
        f(); // warm caches and lazily built tables
        let mut batches: Vec<f64> = (0..self.effort.reps)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        self.span(name, start);
        stats::median_f64(&mut batches)
    }

    fn span(&mut self, name: &str, start: std::time::Duration) {
        let end = self.epoch.elapsed();
        self.spans.push((
            name.to_string(),
            start.as_nanos() as u64,
            end.as_nanos() as u64,
        ));
    }

    /// `gf`: the multiply-accumulate every code path runs on, at a size that
    /// streams (64 KiB) and at one that is all call overhead (64 B).
    fn gf(&mut self, rng: &mut Rng) {
        let coeff = Gf256::new(0x57);
        let mut src = vec![0u8; 64 << 10];
        let mut dst = vec![0u8; 64 << 10];
        rng.fill(&mut src);
        rng.fill(&mut dst);
        let ns = self.time_ns("gf.mul_add_64k", 2000, || {
            bulk::mul_add_slice(coeff, black_box(&src), black_box(&mut dst));
        });
        self.put(
            "gf.mul_add_gib_s",
            src.len() as f64 / ns * 1e9 / (1u64 << 30) as f64,
        );
        let ns = self.time_ns("gf.mul_add_64", 200_000, || {
            bulk::mul_add_slice(coeff, black_box(&src[..64]), black_box(&mut dst[..64]));
        });
        self.put("gf.mul_add_small_ns", ns);
    }

    /// `codes`, through `BackendCodec` as the servers and readers call it:
    /// encode all n2 elements (every L1 server, per write, off the critical
    /// path); one helper, one regenerate and one decode (per cold read, on
    /// it). Decoded bytes are checked against the value.
    fn codes(&mut self, rng: &mut Rng) {
        let params = params();
        // A fresh codec each call: nothing is memoized across instances.
        let plan_warm_ns = self.time_ns("codes.plan_warm", 2000, || {
            let backend = make_backend(BackendKind::Mbr, &params).expect("MBR backend");
            backend.warm_plans();
            black_box(&backend);
        });

        let backend = make_backend(BackendKind::Mbr, &params).expect("MBR backend");
        backend.warm_plans();
        for (size, label) in SIZES {
            let costs = self.codec_costs(&*backend, size, label, rng);
            self.put(format!("codes.encode_{label}_us"), costs.encode_us);
            if size >= 4 << 10 {
                self.put(format!("codes.decode_{label}_us"), costs.decode_us);
            }
            if size == 256 << 10 {
                self.put("codes.helper_256k_us", costs.helper_us);
                self.put("codes.regenerate_256k_us", costs.regenerate_us);
            }
            self.codec.push(costs);
        }
        self.put("codes.plan_warm_ms", plan_warm_ns / 1e6);
    }

    fn codec_costs(
        &mut self,
        backend: &dyn BackendCodec,
        size: usize,
        label: &str,
        rng: &mut Rng,
    ) -> CodecCosts {
        let iters = (64 << 20) / (size + (16 << 10)) / 8;
        let mut bytes = vec![0u8; size];
        rng.fill(&mut bytes);
        let value = Value::new(bytes);
        let mut outs = vec![Vec::new(); backend.n2()];
        let encode = self.time_ns(&format!("codes.encode_{label}"), iters, || {
            backend
                .encode_l2_elements_into(black_box(&value), &mut outs)
                .expect("encode");
        });
        let elements: Vec<_> = (0..backend.n2())
            .map(|i| {
                backend
                    .encode_l2_element(&value, i)
                    .expect("encode element")
            })
            .collect();
        let helper = self.time_ns(&format!("codes.helper_{label}"), iters * 4, || {
            black_box(
                backend
                    .helper_for_l1(black_box(&elements[0]), 0, 0)
                    .expect("helper"),
            );
        });
        let helpers_for = |l1: usize| -> Vec<_> {
            (0..backend.repair_threshold())
                .map(|i| backend.helper_for_l1(&elements[i], i, l1).expect("helper"))
                .collect()
        };
        let helpers = helpers_for(0);
        let regenerate = self.time_ns(&format!("codes.regenerate_{label}"), iters * 2, || {
            black_box(
                backend
                    .regenerate_l1(0, black_box(&helpers))
                    .expect("regenerate"),
            );
        });
        let shares: Vec<_> = (0..backend.decode_threshold())
            .map(|l1| {
                backend
                    .regenerate_l1(l1, &helpers_for(l1))
                    .expect("regenerate")
            })
            .collect();
        let mut decoded = Vec::new();
        let decode = self.time_ns(&format!("codes.decode_{label}"), iters * 2, || {
            backend
                .decode_from_l1_into(black_box(&shares), &mut decoded)
                .expect("decode");
        });
        self.attempted += 1;
        if decoded != value.as_bytes() {
            eprintln!("ladder: {size}-byte value did not survive encode, regenerate, decode");
            self.failed += 1;
        }
        CodecCosts {
            encode_us: encode / 1e3,
            helper_us: helper / 1e3,
            regenerate_us: regenerate / 1e3,
            decode_us: decode / 1e3,
        }
    }

    /// `core`, the automata without threads: the seeded simulator delivers
    /// every message of a closed-loop run at 256 B with zero link delay, so
    /// wall time per delivered message is the cost of an automaton step.
    /// The message counts and the paper's normalised costs come from
    /// single-operation runs and repeat exactly.
    fn core_sim(&mut self, seed: u64) {
        let params = params();
        let config = || {
            RunnerConfig::new(params)
                .seed(seed)
                .latencies(0.0, 0.0, 0.0)
        };
        let per_client = self.effort.count(400);
        let start = self.epoch.elapsed();
        let mut steps: Vec<f64> = (0..self.effort.reps)
            .map(|_| {
                let mut runner = SimRunner::new(config());
                for _ in 0..2 {
                    runner.add_writer();
                    runner.add_reader();
                }
                let workload = ClosedLoopWorkload {
                    writes_per_writer: per_client,
                    reads_per_reader: per_client,
                    value_size: 256,
                    think_time: 0.0,
                    objects: 16,
                    seed,
                };
                let t = Instant::now();
                let report = workload.run(&mut runner);
                let ns = t.elapsed().as_nanos() as f64;
                self.attempted += 1;
                if report.history.len() != workload.total_ops(2, 2)
                    || report.history.check_atomicity().is_err()
                {
                    eprintln!("ladder: simulated run is incomplete or not atomic");
                    self.failed += 1;
                }
                ns / report.metrics.messages_delivered() as f64
            })
            .collect();
        self.span("core.sim_closed_loop", start);
        self.put("core.sim_step_ns", stats::median_f64(&mut steps));

        let start = self.epoch.elapsed();
        let messages = |with_read: bool| -> u64 {
            let mut runner = SimRunner::new(RunnerConfig::new(params).seed(seed));
            let writer = runner.add_writer();
            let reader = runner.add_reader();
            runner.invoke_write(writer, 0.0, vec![0xA5u8; 256]);
            if with_read {
                runner.invoke_read(reader, 1000.0);
            }
            runner.run().metrics.messages_sent()
        };
        let write_only = messages(false);
        self.put("core.msgs_per_write", write_only as f64);
        self.put(
            "core.msgs_per_read_idle",
            (messages(true) - write_only) as f64,
        );
        let costs = measure_costs(params, BackendKind::Mbr, 10.0);
        self.put("core.write_cost_norm", costs.write_cost.measured);
        self.put("core.read_cost_idle_norm", costs.read_cost_idle.measured);
        self.put(
            "core.read_cost_concurrent_norm",
            costs.read_cost_concurrent.measured,
        );
        self.put("core.l2_storage_norm", costs.l2_storage.measured);
        self.span("core.sim_counts", start);
    }

    /// `core::wire`: one client write request framed and parsed back, the
    /// unit of work of every socket hop.
    fn core_wire(&mut self, rng: &mut Rng) {
        for (size, label) in &SIZES[1..] {
            let mut value = vec![0u8; *size];
            rng.fill(&mut value);
            let frame = Frame::Request {
                id: 7,
                req: Request::Write {
                    obj: ObjectId(9),
                    value,
                },
            };
            let iters = (256 << 20) / size / 8;
            let mut buf = Vec::new();
            let encode = self.time_ns(&format!("core.wire_encode_{label}"), iters, || {
                buf.clear();
                wire::encode_frame(black_box(&frame), &mut buf).expect("frame fits");
            });
            let decode = self.time_ns(&format!("core.wire_decode_{label}"), iters, || {
                black_box(wire::decode_framed(black_box(&buf)).expect("frame parses"));
            });
            self.attempted += 1;
            if wire::decode_framed(&buf).ok().map(|(f, _)| f) != Some(frame) {
                eprintln!("ladder: {size}-byte request did not survive the wire codec");
                self.failed += 1;
            }
            self.put(format!("core.wire_encode_{label}_ns"), encode);
            self.put(format!("core.wire_decode_{label}_ns"), decode);
        }
    }

    /// Whole stores at fixed operating points, idle: the 4 KiB write over
    /// TCP against the same write in-process prices the network path, and
    /// the cold 256 KiB in-process read is what the codec rungs must explain.
    fn stores(&mut self, seed: u64) {
        let [_, _, large_read_cold, tcp_mixed] = spec::WORKLOADS;
        let tcp = Workload {
            objects: 64,
            ..tcp_mixed
        };
        let inproc_4k = Workload {
            deploy: Deploy::PaperFaithful,
            ..tcp
        };
        let ops = self.effort.count(200);

        let mut connects: Vec<f64> = Vec::new();
        let mut round_trips: Vec<f64> = Vec::new();
        let reps = self.effort.reps;
        let probe = self.idle_store("ldsd.idle_probe", &tcp, seed, ops, |deployment| {
            let addr = deployment.rpc_addr(0).expect("tcp deployment");
            let mut client = None;
            for _ in 0..reps {
                let t = Instant::now();
                client = Some(NetClient::connect(addr).expect("daemon accepts connections"));
                connects.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let mut client = client.expect("at least one connect");
            for _ in 0..ops {
                let t = Instant::now();
                client.liveness().expect("liveness rpc");
                round_trips.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        });
        let tcp_write_us = percentile_us(&probe.write_ns, 50.0);
        self.put("ldsd.rpc_rtt_us", stats::median_f64(&mut round_trips));
        self.put("ldsd.idle_write_us", tcp_write_us);
        self.put("ldsd.idle_read_us", percentile_us(&probe.read_ns, 50.0));
        self.put("ldsd.connect_ms", stats::median_f64(&mut connects));

        let probe = self.idle_store("cluster.idle_probe_4k", &inproc_4k, seed, ops, |_| {});
        self.put(
            "ldsd.net_tax_us",
            tcp_write_us - percentile_us(&probe.write_ns, 50.0),
        );

        let probe = self.idle_store(
            "cluster.idle_probe_256k",
            &large_read_cold,
            seed,
            ops,
            |_| {},
        );
        let codec = self.codec[2];
        let explained = codec.helper_us
            + codec.regenerate_us
            + codec.decode_us
            + self.get("core.msgs_per_read_idle") * self.get("core.sim_step_ns") / 1e3;
        self.put(
            "bench.unexplained_read_us",
            percentile_us(&probe.read_ns, 50.0) - explained,
        );
    }

    /// Sets `workload` up on a store of its own, lets `first` use the idle
    /// deployment, probes it with one blocking client, and tears it down;
    /// one span covers it all.
    fn idle_store(
        &mut self,
        span: &str,
        workload: &Workload,
        seed: u64,
        ops: usize,
        first: impl FnOnce(&Deployment),
    ) -> Report {
        let start = self.epoch.elapsed();
        let set_up = load::set_up(workload, seed, false);
        first(&set_up.deployment);
        let report = load::idle_probe(&set_up.deployment, workload, seed, ops);
        set_up.deployment.shutdown();
        self.span(span, start);
        self.attempted += set_up.report.attempted + report.attempted;
        self.failed += set_up.report.failed + report.failed;
        report
    }
}
