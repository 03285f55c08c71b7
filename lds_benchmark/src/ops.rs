//! The operation stream of one client: which key, read or write. It is a
//! function of `(workload, seed, client)` only, so two runs with one seed
//! offer the program the same inputs. The generator is the benchmark's own,
//! not the library's, so a library change cannot move the inputs.

use crate::spec::Workload;

/// SplitMix64: small, seedable, and good enough to pick keys and coins.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Write,
    Read,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Read => "read",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    read_fraction: f64,
    objects: u64,
    /// Cumulative Zipfian probabilities by key rank; empty means uniform.
    cdf: Vec<f64>,
}

impl OpStream {
    /// Stream number `stream` of `seed`: one per client per round.
    pub fn new(workload: &Workload, seed: u64, stream: usize) -> OpStream {
        let mut cdf = Vec::new();
        if workload.theta > 0.0 {
            let weights = (1..=workload.objects).map(|rank| (rank as f64).powf(-workload.theta));
            let total: f64 = weights.clone().sum();
            let mut acc = 0.0;
            cdf.extend(weights.map(|w| {
                acc += w / total;
                acc
            }));
        }
        // Independent streams per seed: mix the stream number in through the
        // generator itself instead of adding it to the seed.
        let mut mixer = Rng::new(seed);
        for _ in 0..=stream {
            mixer = Rng::new(mixer.next_u64() ^ 0x6C64_735F_6F70_7321);
        }
        OpStream {
            rng: mixer,
            read_fraction: workload.read_fraction,
            objects: workload.objects,
            cdf,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let kind = if self.rng.next_f64() < self.read_fraction {
            OpKind::Read
        } else {
            OpKind::Write
        };
        let key = if self.cdf.is_empty() {
            self.rng.next_u64() % self.objects
        } else {
            let u = self.rng.next_f64();
            (self.cdf.partition_point(|&c| c < u) as u64).min(self.objects - 1)
        };
        Op { kind, key }
    }
}

/// FNV-1a over the first `ops_per_client` operations of every client: the
/// fingerprint of a run's inputs, printed so two runs can be told to have
/// offered the same traffic.
pub fn digest(workload: &Workload, seed: u64, clients: usize, ops_per_client: usize) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for client in 0..clients {
        let mut stream = OpStream::new(workload, seed, client);
        for _ in 0..ops_per_client {
            let op = stream.next_op();
            eat(op.key << 1 | (op.kind == OpKind::Read) as u64);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CLIENTS, WORKLOADS};

    #[test]
    fn same_seed_same_ops_and_another_seed_other_ops() {
        for workload in &WORKLOADS {
            let a = digest(workload, 7, CLIENTS, 2000);
            assert_eq!(a, digest(workload, 7, CLIENTS, 2000), "{}", workload.name);
            assert_ne!(a, digest(workload, 8, CLIENTS, 2000), "{}", workload.name);
        }
    }

    #[test]
    fn clients_draw_different_streams() {
        let workload = &WORKLOADS[0];
        let mut a = OpStream::new(workload, 1, 0);
        let mut b = OpStream::new(workload, 1, 1);
        let same = (0..200).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100, "{same} of 200 ops coincide");
    }

    #[test]
    fn mix_and_skew_follow_the_workload() {
        let small = &WORKLOADS[0];
        let mut stream = OpStream::new(small, 3, 0);
        let ops: Vec<Op> = (0..20_000).map(|_| stream.next_op()).collect();
        let reads = ops.iter().filter(|op| op.kind == OpKind::Read).count() as f64;
        assert!((reads / 20_000.0 - small.read_fraction).abs() < 0.02);
        assert!(ops.iter().all(|op| op.key < small.objects));
        // Zipfian 0.9 over 1024 keys: the hottest key draws about 9 %.
        let hottest = ops.iter().filter(|op| op.key == 0).count() as f64 / 20_000.0;
        assert!(
            (0.07..0.12).contains(&hottest),
            "hottest key share {hottest}"
        );

        let uniform = &WORKLOADS[3];
        let mut stream = OpStream::new(uniform, 3, 0);
        let hottest = (0..20_000).filter(|_| stream.next_op().key == 0).count();
        assert!(hottest < 60, "uniform key 0 drawn {hottest} times");
    }
}
