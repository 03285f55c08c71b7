//! Value generators and the closed-loop workload driver of the simulator.

use crate::sim::{RunReport, Simulation};
use crate::tag::ObjectId;
use crate::value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Generates write values: unique contents (so the linearizability search can
/// attribute reads) of a configurable size.
///
/// Values are produced as [`Value`]s backed by a small ring of reusable
/// `Arc<Vec<u8>>` buffers: when the previous holder of a ring slot has
/// dropped its `Value` (the common closed-loop case), the buffer is refilled
/// in place instead of allocated fresh — at large value sizes this removes
/// one `value_size` allocation + zeroing per operation from the workload
/// driver's hot path. Slots still referenced by an in-flight `Value` are
/// replaced with a fresh allocation, so the returned contents are always
/// exclusively owned until handed over.
#[derive(Debug, Clone)]
pub struct ValueGenerator {
    size: usize,
    counter: u64,
    rng: SmallRng,
    buffers: Vec<Arc<Vec<u8>>>,
    next_buf: usize,
}

impl ValueGenerator {
    /// Creates a generator producing values of `size` bytes.
    pub fn new(size: usize, seed: u64) -> Self {
        // Bound the ring's resident memory: enough slots to cover a deep
        // client pipeline at small sizes, few slots at multi-MiB sizes.
        const MAX_BUFFERS: usize = 64;
        const MAX_RING_BYTES: usize = 64 << 20;
        let ring = (MAX_RING_BYTES / size.max(16)).clamp(4, MAX_BUFFERS);
        ValueGenerator {
            size,
            counter: 0,
            rng: SmallRng::seed_from_u64(seed),
            // Each slot needs its own Arc — `vec![arc; n]` would alias them.
            buffers: (0..ring).map(|_| Arc::new(Vec::new())).collect(),
            next_buf: 0,
        }
    }

    /// Produces the next value. The first 16 bytes encode a unique counter
    /// and a random nonce, so every generated value is distinct even at size
    /// 16; the rest is pseudo-random filler.
    pub fn next_value(&mut self) -> Value {
        self.counter += 1;
        let len = self.size.max(16);
        let index = self.next_buf;
        self.next_buf = (self.next_buf + 1) % self.buffers.len();
        let slot = &mut self.buffers[index];
        let buf = match Arc::get_mut(slot) {
            Some(buf) => {
                buf.resize(len, 0);
                buf
            }
            None => {
                // The previous Value from this slot is still alive somewhere
                // (deep pipeline): give it its buffer and start a new one.
                *slot = Arc::new(vec![0u8; len]);
                Arc::get_mut(slot).expect("freshly created Arc is unique")
            }
        };
        buf[..8].copy_from_slice(&self.counter.to_le_bytes());
        let nonce: u64 = self.rng.gen();
        buf[8..16].copy_from_slice(&nonce.to_le_bytes());
        for chunk in buf[16..].chunks_mut(8) {
            let filler: u64 = self.rng.gen();
            chunk.copy_from_slice(&filler.to_le_bytes()[..chunk.len()]);
        }
        Value::from(Arc::clone(slot))
    }
}

/// A closed-loop workload: each client issues its next operation a fixed
/// "think time" after its previous operation completed, which guarantees
/// well-formedness without knowing operation latencies in advance.
#[derive(Debug, Clone)]
pub struct ClosedLoopWorkload {
    /// Operations each writer performs.
    pub writes_per_writer: usize,
    /// Operations each reader performs.
    pub reads_per_reader: usize,
    /// Size of written values in bytes.
    pub value_size: usize,
    /// Delay between an operation completing and the client's next
    /// invocation.
    pub think_time: f64,
    /// Number of objects; operations round-robin over them.
    pub objects: usize,
    /// Seed for value generation.
    pub seed: u64,
}

impl Default for ClosedLoopWorkload {
    fn default() -> Self {
        ClosedLoopWorkload {
            writes_per_writer: 3,
            reads_per_reader: 3,
            value_size: 64,
            think_time: 1.0,
            objects: 1,
            seed: 0,
        }
    }
}

impl ClosedLoopWorkload {
    /// Drives the workload on `sim` (which must already have its writers
    /// and readers added) until every client finished its quota, then runs
    /// the simulation to quiescence and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to make progress (an operation neither
    /// completes nor generates new events for a long stretch of simulated
    /// time), which would indicate a protocol liveness bug.
    pub fn run(&self, sim: &mut Simulation) -> RunReport {
        let mut values = ValueGenerator::new(self.value_size, self.seed);
        let writers: Vec<_> = sim.writers().to_vec();
        let readers: Vec<_> = sim.readers().to_vec();

        // Remaining-op counters per client.
        let mut writes_left: Vec<usize> = vec![self.writes_per_writer; writers.len()];
        let mut reads_left: Vec<usize> = vec![self.reads_per_reader; readers.len()];
        let mut next_obj: u64 = 0;

        // Kick off the first operation of every client at t = 0.
        for (i, &w) in writers.iter().enumerate() {
            if writes_left[i] > 0 {
                writes_left[i] -= 1;
                let obj = ObjectId(next_obj % self.objects as u64);
                next_obj += 1;
                sim.invoke_write_obj(w, 0.0, obj, values.next_value());
            }
        }
        for (i, &r) in readers.iter().enumerate() {
            if reads_left[i] > 0 {
                reads_left[i] -= 1;
                let obj = ObjectId(next_obj % self.objects as u64);
                next_obj += 1;
                sim.invoke_read_obj(r, 0.0, obj);
            }
        }

        // Step the simulation, re-arming clients as their operations finish.
        let mut seen_events = 0usize;
        let step = (self.think_time.max(1.0)) * 2.0;
        let mut now = 0.0;
        let mut idle_rounds = 0;
        loop {
            now += step;
            sim.run_until(now);
            let new_events: Vec<(f64, crate::ProcessId)> = sim.events()[seen_events..]
                .iter()
                .map(|(t, pid, _)| (t.as_f64(), *pid))
                .collect();
            seen_events += new_events.len();
            let progressed = !new_events.is_empty();
            for (t, pid) in new_events {
                let at = (t + self.think_time).max(now);
                if let Some(i) = writers.iter().position(|&w| w == pid) {
                    if writes_left[i] > 0 {
                        writes_left[i] -= 1;
                        let obj = ObjectId(next_obj % self.objects as u64);
                        next_obj += 1;
                        sim.invoke_write_obj(pid, at, obj, values.next_value());
                    }
                } else if let Some(i) = readers.iter().position(|&r| r == pid) {
                    if reads_left[i] > 0 {
                        reads_left[i] -= 1;
                        let obj = ObjectId(next_obj % self.objects as u64);
                        next_obj += 1;
                        sim.invoke_read_obj(pid, at, obj);
                    }
                }
            }
            let all_done = writes_left.iter().all(|&w| w == 0)
                && reads_left.iter().all(|&r| r == 0)
                && seen_events
                    == self.writes_per_writer * writers.len()
                        + self.reads_per_reader * readers.len();
            if all_done {
                break;
            }
            if progressed {
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                assert!(
                    idle_rounds < 10_000,
                    "closed-loop workload stalled: liveness violation in the protocol under test"
                );
            }
        }
        // Let background activity (write-to-L2 offloading) quiesce.
        sim.run()
    }

    /// Total number of operations this workload will perform for the given
    /// client counts.
    pub fn total_ops(&self, writers: usize, readers: usize) -> usize {
        self.writes_per_writer * writers + self.reads_per_reader * readers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SystemParams;
    use crate::sim::SimConfig;

    #[test]
    fn value_generator_produces_unique_values() {
        let mut g = ValueGenerator::new(16, 1);
        let a = g.next_value();
        let b = g.next_value();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        // Small sizes are padded up to 16 bytes to stay unique.
        let mut g = ValueGenerator::new(4, 1);
        assert_eq!(g.next_value().len(), 16);
        // Larger sizes honoured exactly.
        let mut g = ValueGenerator::new(100, 2);
        assert_eq!(g.next_value().len(), 100);
    }

    #[test]
    fn value_generator_reuses_dropped_buffers_in_place() {
        let mut g = ValueGenerator::new(64, 1);
        let ring = g.buffers.len();
        // Dropping each value before drawing the next lets every ring slot be
        // refilled in place: after a full lap no new Arc has been created.
        let first_lap: Vec<*const u8> = (0..ring)
            .map(|_| {
                let v = g.next_value();
                v.as_bytes().as_ptr()
            })
            .collect();
        let second_lap: Vec<*const u8> = (0..ring)
            .map(|_| {
                let v = g.next_value();
                v.as_bytes().as_ptr()
            })
            .collect();
        assert_eq!(first_lap, second_lap, "ring buffers were not reused");
        // A value still held elsewhere forces a fresh allocation for its slot
        // instead of clobbering the held bytes.
        let held = g.next_value();
        let held_snapshot = held.as_bytes().to_vec();
        for _ in 0..ring {
            let _ = g.next_value();
        }
        assert_eq!(held.as_bytes(), &held_snapshot[..], "held value mutated");
    }

    #[test]
    fn closed_loop_workload_completes_and_is_atomic() {
        let params = SystemParams::for_failures(1, 1, 2, 3).unwrap();
        let mut sim = Simulation::new(SimConfig::new(params).seed(17));
        for _ in 0..2 {
            sim.add_writer();
        }
        for _ in 0..2 {
            sim.add_reader();
        }
        let workload = ClosedLoopWorkload {
            writes_per_writer: 3,
            reads_per_reader: 3,
            value_size: 32,
            think_time: 2.0,
            objects: 1,
            seed: 5,
        };
        let report = workload.run(&mut sim);
        assert_eq!(report.history.len(), workload.total_ops(2, 2));
        report.history.check_atomicity().unwrap();
    }
}
