//! Closed-form performance costs from §V of the paper (Lemmas V.2–V.5 and
//! Lemma V.4's latency bounds), and of the single-layer ABD and CAS
//! algorithms the paper compares LDS against.
//!
//! All communication and storage costs are normalised by the value size, as
//! in the paper. [`CodeCosts`] states them for any back-end code, either as
//! the paper counts (a value is exactly `B` code symbols) or at the length
//! the codec really moves (the value framed by `lds_codes::striping`). The
//! simulator's measurements are held to the framed form, as equalities.

use crate::backend::BackendKind;
use crate::params::SystemParams;
use lds_codes::striping::symbol_len;

/// Per-object costs of LDS over one back-end code, in value-size units.
///
/// Every coded payload is a whole number of message symbols: a stored
/// element is `α` of them and a regeneration helper `β`, out of the `B` a
/// value is cut into ([`lds_codes::CodeParams`]). With `s` the size of one
/// symbol in value sizes — `1/B` as the paper counts, `⌈(|v| + 8)/B⌉ / |v|`
/// at the framed length — the protocol moves:
///
/// * **write** `n1 + n1·n2·α·s`: `PUT-DATA` carries the value itself,
///   unframed, to each of the `n1` L1 servers, and each L1 server's
///   `write-to-L2` sends one element to each of the `n2` L2 servers;
/// * **read** `n1·(n2·β + α)·s + n1·I(δ > 0)`: with no concurrent write,
///   every L1 server regenerates its element from one helper per L2 server
///   (`SEND-HELPER-ELEM`) and sends it to the reader (`DATA-RESP`); under
///   concurrency an L1 server may serve the value itself, so the `n1` term
///   bounds that read from above;
/// * **L2 storage** `n2·α·s`: one element per L2 server.
///
/// For the paper's MBR code (`α = d`, `β = 1`, `B = k(2d − k + 1)/2`) these
/// are Lemmas V.2 and V.3 ([`write_cost`], [`read_cost`],
/// [`l2_storage_cost`]). At the MSR point of Remark 1 (`k = d`:
/// Reed–Solomon with whole-element repair, `α = β = 1`, `B = k`) the idle
/// read is `n1·(n2 + 1)/k`, linear in `n1`, and the storage `n2/k`, at least
/// half of MBR's (Remark 2). Replication stores and ships the value itself
/// (`α = β = s = 1`): write `n1 + n1·n2`, read `n1·(n2 + 1)`, storage `n2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCosts {
    n1: f64,
    n2: f64,
    alpha: f64,
    beta: f64,
    /// One message symbol, in value sizes.
    symbol: f64,
}

impl CodeCosts {
    /// The paper's accounting: a value is exactly `B` symbols.
    ///
    /// # Panics
    ///
    /// Panics if `kind` has no code at `params` (see
    /// [`BackendKind::code_params`]).
    pub fn unframed(params: &SystemParams, kind: BackendKind) -> Self {
        Self::with_symbol(params, kind, |file_size| 1.0 / file_size as f64)
    }

    /// What the codec moves for a `value_size`-byte value: `B` symbols of
    /// `⌈(|v| + 8)/B⌉` bytes each (the 8-byte length header and the zero
    /// padding of the framing).
    ///
    /// # Panics
    ///
    /// As [`CodeCosts::unframed`].
    pub fn framed(params: &SystemParams, kind: BackendKind, value_size: usize) -> Self {
        Self::with_symbol(params, kind, |file_size| {
            symbol_len(value_size, file_size) as f64 / value_size as f64
        })
    }

    fn with_symbol(
        params: &SystemParams,
        kind: BackendKind,
        symbol: impl Fn(usize) -> f64,
    ) -> Self {
        let code = kind
            .code_params(params)
            .expect("the back-end has a code at these parameters");
        let (alpha, beta, symbol) = match code {
            Some(code) => (
                code.alpha() as f64,
                code.beta() as f64,
                symbol(code.file_size()),
            ),
            None => (1.0, 1.0, 1.0),
        };
        CodeCosts {
            n1: params.n1() as f64,
            n2: params.n2() as f64,
            alpha,
            beta,
            symbol,
        }
    }

    /// Communication cost of a write: `n1 + n1·n2·α·s`.
    pub fn write(&self) -> f64 {
        self.n1 + self.n1 * self.n2 * self.alpha * self.symbol
    }

    /// Communication cost of a read: `n1·(n2·β + α)·s + n1·I(δ > 0)`, exact
    /// at `δ = 0` and an upper bound above.
    pub fn read(&self, concurrency_delta: usize) -> f64 {
        let regenerate = self.n1 * (self.n2 * self.beta + self.alpha) * self.symbol;
        regenerate + if concurrency_delta > 0 { self.n1 } else { 0.0 }
    }

    /// Permanent (L2) storage of one object: `n2·α·s`.
    pub fn l2_storage(&self) -> f64 {
        self.n2 * self.alpha * self.symbol
    }

    /// Online repair of one L2 server, as a fraction of the fallback in
    /// which every helper ships its whole element: `β/α`. That is `1/α =
    /// 1/d` for MBR (§II-c), `1/(k − 1)` for product-matrix MSR and 1 for
    /// Reed–Solomon and replication.
    pub fn l2_repair_ratio(&self) -> f64 {
        self.beta / self.alpha
    }
}

/// Communication cost of a write operation (Lemma V.2):
/// `n1 + n1·n2·2d / (k(2d − k + 1))`, which is `Θ(n1)`.
pub fn write_cost(params: &SystemParams) -> f64 {
    CodeCosts::unframed(params, BackendKind::Mbr).write()
}

/// Communication cost of a successful read operation (Lemma V.2):
/// `n1·(1 + n2/d)·2d / (k(2d − k + 1)) + n1·I(δ > 0)`, which is
/// `Θ(1) + n1·I(δ > 0)`.
pub fn read_cost(params: &SystemParams, concurrency_delta: usize) -> f64 {
    CodeCosts::unframed(params, BackendKind::Mbr).read(concurrency_delta)
}

/// Permanent (L2) storage cost for a single object (Lemma V.3):
/// `2·d·n2 / (k(2d − k + 1))`, which is `Θ(1)`.
pub fn l2_storage_cost(params: &SystemParams) -> f64 {
    CodeCosts::unframed(params, BackendKind::Mbr).l2_storage()
}

/// Write, read and storage cost of a single-layer algorithm, in value sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleLayerCosts {
    /// Communication cost of a write.
    pub write: f64,
    /// Communication cost of a read with no concurrent write.
    pub read: f64,
    /// Storage cost of one object.
    pub storage: f64,
}

/// ABD (the paper's ref. \[3\]), replication on one layer of `n` servers: a
/// write sends the value to all `n` servers, a read collects `n` value
/// responses and writes the value back to all `n`, and every server stores
/// one copy — write `n`, read `2n`, storage `n`.
pub fn abd_costs(n: usize) -> SingleLayerCosts {
    let n = n as f64;
    SingleLayerCosts {
        write: n,
        read: 2.0 * n,
        storage: n,
    }
}

/// CAS (the paper's ref. \[6\]), an `[n, k]` Reed–Solomon code on one layer
/// of `n` servers: a write pre-writes one element to each server, a read
/// collects one from each, and each server stores one. An element is one of
/// the `k` framed symbols of the value, so every cost is
/// `n·⌈(|v| + 8)/k⌉ / |v|` (`n/k` as the paper counts).
pub fn cas_costs(n: usize, k: usize, value_size: usize) -> SingleLayerCosts {
    let cost = n as f64 * symbol_len(value_size, k) as f64 / value_size as f64;
    SingleLayerCosts {
        write: cost,
        read: cost,
        storage: cost,
    }
}

/// Worst-case temporary (L1) storage cost in the multi-object system of
/// Lemma V.5: `⌈5 + 2µ⌉·θ·n1`, where `µ = τ2/τ1` and `θ` bounds the number of
/// concurrent extended writes per `τ1` interval. (Assumes the lemma's
/// symmetric configuration `n1 = n2`, `f1 = f2`, `τ0 = τ1`.)
pub fn l1_storage_bound_multi_object(params: &SystemParams, theta: f64, mu: f64) -> f64 {
    (5.0 + 2.0 * mu).ceil() * theta * params.n1() as f64
}

/// Permanent (L2) storage cost for `n_objects` objects in the symmetric
/// configuration of Lemma V.5 (`k = d`): `2·N·n2 / (k + 1)`.
pub fn l2_storage_bound_multi_object(params: &SystemParams, n_objects: usize) -> f64 {
    2.0 * n_objects as f64 * params.n2() as f64 / (params.k() as f64 + 1.0)
}

/// Link-latency bounds (τ0, τ1, τ2) used by the latency analysis of §V-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBounds {
    /// Bound on L1 ↔ L1 links.
    pub tau0: f64,
    /// Bound on client ↔ L1 links.
    pub tau1: f64,
    /// Bound on L1 ↔ L2 links.
    pub tau2: f64,
}

impl LatencyBounds {
    /// Creates a bound set.
    pub fn new(tau0: f64, tau1: f64, tau2: f64) -> Self {
        LatencyBounds { tau0, tau1, tau2 }
    }

    /// The ratio `µ = τ2 / τ1`.
    pub fn mu(&self) -> f64 {
        self.tau2 / self.tau1
    }

    /// Upper bound on the duration of a successful write (Lemma V.4):
    /// `4·τ1 + 2·τ0`.
    pub fn write_latency_bound(&self) -> f64 {
        4.0 * self.tau1 + 2.0 * self.tau0
    }

    /// Upper bound on the duration of the *extended* write (Lemma V.4):
    /// `max(3·τ1 + 2·τ0 + 2·τ2, 4·τ1 + 2·τ0)`.
    pub fn extended_write_latency_bound(&self) -> f64 {
        (3.0 * self.tau1 + 2.0 * self.tau0 + 2.0 * self.tau2).max(4.0 * self.tau1 + 2.0 * self.tau0)
    }

    /// Upper bound on the duration of a successful read (Lemma V.4):
    /// `max(6·τ1 + 2·τ2, 6·τ1 + 2·τ0 + τ2)`.
    ///
    /// The paper states the bound as `max(6τ1 + 2τ2, 5τ1 + 2τ0 + τ2)` in the
    /// lemma and derives `max(4τ1 + 2τ2, 4τ1 + τ2 + 2τ0) + 2τ1` in the
    /// appendix; we use the (slightly looser) appendix form, which is the one
    /// the proof actually establishes.
    pub fn read_latency_bound(&self) -> f64 {
        (6.0 * self.tau1 + 2.0 * self.tau2).max(6.0 * self.tau1 + 2.0 * self.tau0 + self.tau2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_params() -> SystemParams {
        // Fig. 6 configuration: n1 = n2 = 100, k = d = 80.
        SystemParams::symmetric(100, 10).unwrap()
    }

    #[test]
    fn write_cost_is_theta_n1() {
        // With n1 = Θ(n2), k = Θ(n2), d = Θ(n2), the second term is Θ(1)·n1's
        // order; check the formula value and the linear growth in n1.
        let small = SystemParams::symmetric(20, 2).unwrap();
        let large = SystemParams::symmetric(100, 10).unwrap();
        let ratio = write_cost(&large) / write_cost(&small);
        assert!(
            ratio > 3.0 && ratio < 7.0,
            "write cost should scale roughly with n1, got {ratio}"
        );
        // Explicit value for the paper configuration.
        let p = paper_params();
        let expected = 100.0 + 100.0 * 100.0 * 160.0 / (80.0 * 81.0);
        assert!((write_cost(&p) - expected).abs() < 1e-9);
    }

    #[test]
    fn read_cost_is_constant_without_concurrency() {
        // δ = 0: the read cost should not grow with n1.
        let costs: Vec<f64> = [20usize, 60, 100]
            .iter()
            .map(|&n| read_cost(&SystemParams::symmetric(n, n / 10).unwrap(), 0))
            .collect();
        let spread = costs.iter().cloned().fold(f64::MIN, f64::max)
            - costs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 1.5,
            "read cost at delta=0 is Θ(1), spread was {spread}: {costs:?}"
        );
        // δ > 0 adds n1.
        let p = paper_params();
        assert!((read_cost(&p, 3) - read_cost(&p, 0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn l2_storage_cost_matches_lemma() {
        let p = paper_params();
        // 2 d n2 / (k (2d - k + 1)) = 2*80*100 / (80 * 81) = 200/81 ≈ 2.47.
        assert!((l2_storage_cost(&p) - 200.0 / 81.0).abs() < 1e-9);
        // The paper highlights this is < 3 per object, vs 100 for replication.
        assert!(l2_storage_cost(&p) < 3.0);
        let replication = CodeCosts::unframed(&p, BackendKind::Replication);
        assert_eq!(replication.l2_storage(), 100.0);
        let msr = CodeCosts::unframed(&p, BackendKind::MsrPoint);
        assert!((msr.l2_storage() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn multi_object_bounds_match_figure_6() {
        let p = paper_params();
        let theta = 100.0;
        let mu = 10.0;
        // L1 bound: ceil(5 + 20) * 100 * 100 = 250_000, independent of N.
        assert!((l1_storage_bound_multi_object(&p, theta, mu) - 250_000.0).abs() < 1e-6);
        // L2 bound grows linearly in N: 2*N*100/81.
        let at_1000 = l2_storage_bound_multi_object(&p, 1000);
        let at_2000 = l2_storage_bound_multi_object(&p, 2000);
        assert!((at_2000 / at_1000 - 2.0).abs() < 1e-9);
        assert!((at_1000 - 2000.0 * 100.0 / 81.0).abs() < 1e-6);
        // Crossover: for very large N the L2 cost dominates (the L1 bound is
        // independent of N, so the linear L2 term overtakes it eventually —
        // here around N ≈ 101k).
        assert!(
            l2_storage_bound_multi_object(&p, 200_000)
                > l1_storage_bound_multi_object(&p, theta, mu)
        );
        assert!(
            l2_storage_bound_multi_object(&p, 10_000)
                < l1_storage_bound_multi_object(&p, theta, mu)
        );
    }

    #[test]
    fn latency_bounds() {
        let b = LatencyBounds::new(1.0, 1.0, 10.0);
        assert_eq!(b.mu(), 10.0);
        assert_eq!(b.write_latency_bound(), 6.0);
        assert_eq!(b.extended_write_latency_bound(), 25.0);
        assert_eq!(b.read_latency_bound(), 26.0);
        // τ2 dominates in edge settings: read latency grows with τ2, write
        // latency does not (the key benefit of the layered design).
        let far = LatencyBounds::new(1.0, 1.0, 100.0);
        assert_eq!(far.write_latency_bound(), b.write_latency_bound());
        assert!(far.read_latency_bound() > b.read_latency_bound());
    }

    /// Framing scales every coded term by `⌈(|v| + 8)/B⌉·B / |v|` and leaves
    /// the unframed `PUT-DATA` term alone; the rows are what the simulator
    /// measured (32 KiB values, `k = d = 0.8n`; Fig. 6's 1 KiB at n = 10).
    #[test]
    fn framed_costs_are_the_lemmas_scaled_by_the_padding() {
        let v = 1 << 15;
        for (n, write, read, l2) in [
            (10, "32.241", "5.004", "2.224"),
            (40, "138.438", "5.537", "2.461"),
            (100, "368.555", "6.042", "2.686"),
        ] {
            let p = SystemParams::symmetric(n, n / 10).unwrap();
            let framed = CodeCosts::framed(&p, BackendKind::Mbr, v);
            let file_size = p.k() * (2 * p.d() - p.k() + 1) / 2;
            let pad = (v + 8).div_ceil(file_size) * file_size;
            let factor = pad as f64 / v as f64;
            let n1 = n as f64;
            assert!(((framed.write() - n1) - (write_cost(&p) - n1) * factor).abs() < 1e-9);
            assert!((framed.read(0) - read_cost(&p, 0) * factor).abs() < 1e-9);
            assert!((framed.l2_storage() - l2_storage_cost(&p) * factor).abs() < 1e-9);
            assert_eq!(
                [framed.write(), framed.read(0), framed.l2_storage()].map(|x| format!("{x:.3}")),
                [write, read, l2],
                "n = {n}"
            );
        }
        let p = SystemParams::symmetric(10, 1).unwrap();
        let fig6 = CodeCosts::framed(&p, BackendKind::Mbr, 1024);
        assert_eq!(format!("{:.3}", fig6.l2_storage()), "2.266");
    }

    /// Remark 1's MSR point in closed form, against what the simulator
    /// measured at n = 10 and 40; Remark 2's factor of two.
    #[test]
    fn msr_point_rows_and_remark_2() {
        for (n, write, read, l2) in [
            (10, "22.503", "13.753", "1.250"),
            (40, "90.049", "51.300", "1.251"),
        ] {
            let p = SystemParams::symmetric(n, n / 10).unwrap();
            let msr = CodeCosts::framed(&p, BackendKind::MsrPoint, 1 << 15);
            assert_eq!(
                [msr.write(), msr.read(0), msr.l2_storage()].map(|x| format!("{x:.3}")),
                [write, read, l2],
                "n = {n}"
            );
            let mbr = CodeCosts::unframed(&p, BackendKind::Mbr);
            let msr = CodeCosts::unframed(&p, BackendKind::MsrPoint);
            assert!(msr.l2_storage() < mbr.l2_storage());
            assert!(mbr.l2_storage() <= 2.0 * msr.l2_storage());
        }
    }

    #[test]
    fn l2_repair_ratio_is_beta_over_alpha() {
        let p = SystemParams::for_failures(1, 1, 3, 5).unwrap(); // k = 3, d = 5
        let ratio = |kind| CodeCosts::unframed(&p, kind).l2_repair_ratio();
        assert_eq!(ratio(BackendKind::Mbr), 0.2);
        assert_eq!(ratio(BackendKind::ProductMatrixMsr), 0.5);
        assert_eq!(ratio(BackendKind::MsrPoint), 1.0);
        assert_eq!(ratio(BackendKind::Replication), 1.0);
    }

    /// The last simulated run of the single-layer ABD and CAS automata
    /// (one write, then one idle read, 32 KiB values, `k = 0.8n`) measured
    /// exactly these closed forms.
    #[test]
    fn single_layer_algorithms_match_their_last_simulated_run() {
        for (n, cas) in [
            (10, 1.250305175781),
            (20, 1.250610351562),
            (40, 1.251220703125),
        ] {
            let abd = abd_costs(n);
            let n_f = n as f64;
            assert_eq!((abd.write, abd.read, abd.storage), (n_f, 2.0 * n_f, n_f));
            let measured = cas_costs(n, n * 8 / 10, 1 << 15);
            for cost in [measured.write, measured.read, measured.storage] {
                assert!((cost - cas).abs() < 1e-12, "n = {n}: {cost}");
            }
        }
    }
}
