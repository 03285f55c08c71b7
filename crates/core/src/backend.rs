//! The pluggable back-end (L2) codec.
//!
//! LDS stores the object in L2 as coded elements of a code `C` of length
//! `n = n1 + n2`: the last `n2` code symbols (the code `C2`) live on the L2
//! servers, and the first `n1` symbols (the code `C1`) are what L1 servers
//! *regenerate* during reads and what readers decode from.
//!
//! The paper fixes `C` to a product-matrix MBR code (the choice that yields
//! `Θ(1)` read cost and `Θ(1)` per-object permanent storage); this module
//! also provides the alternatives the paper argues against, so the benchmark
//! harness can reproduce the comparisons of Remarks 1–2 and Fig. 6:
//!
//! * [`BackendKind::Mbr`] — the paper's choice.
//! * [`BackendKind::MsrPoint`] — an MDS code at the minimum-storage point
//!   with naive repair (equivalent to an MSR code when `k = d`, i.e. the
//!   symmetric configuration of Remark 1); implemented with Reed–Solomon.
//! * [`BackendKind::ProductMatrixMsr`] — a true product-matrix MSR code
//!   (`d_code = 2k − 2`), usable when the layer parameters admit it.
//! * [`BackendKind::Replication`] — full replication in L2 (the "cost would
//!   have been `n2`" comparison under Fig. 6).

use crate::params::SystemParams;
use crate::value::Value;
use lds_codes::mbr::ProductMatrixMbr;
use lds_codes::msr::ProductMatrixMsr;
use lds_codes::rs::ReedSolomon;
use lds_codes::{CodeError, CodeParams, HelperData, RegeneratingCode, Share};
use std::fmt;
use std::sync::Arc;

/// Which code family the back-end layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Product-matrix MBR regenerating code (the paper's design point).
    Mbr,
    /// MDS code at the minimum-storage point with naive (full-share) repair —
    /// what an MSR code degenerates to when `k = d` (Remark 1).
    MsrPoint,
    /// Product-matrix MSR code with `d_code = 2k − 2` exact repair.
    ProductMatrixMsr,
    /// Full replication in L2.
    Replication,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BackendKind::Mbr => "MBR",
            BackendKind::MsrPoint => "MSR-point(k=d)",
            BackendKind::ProductMatrixMsr => "PM-MSR",
            BackendKind::Replication => "replication",
        };
        f.write_str(s)
    }
}

impl BackendKind {
    /// The parameters (`α`, `β`, file size `B`, …) of the code this back-end
    /// runs at `params`; `None` for replication, which stores the value
    /// itself. [`make_backend`] builds its codec from them and
    /// [`crate::costs::CodeCosts`] prices an operation with them.
    ///
    /// # Errors
    ///
    /// As [`make_backend`].
    pub fn code_params(self, params: &SystemParams) -> Result<Option<CodeParams>, CodeError> {
        let (n, k, d) = (params.code_length(), params.k(), params.d());
        match self {
            BackendKind::Mbr => CodeParams::mbr(n, k, d).map(Some),
            BackendKind::MsrPoint => CodeParams::reed_solomon(n, k).map(Some),
            BackendKind::ProductMatrixMsr if d + 2 < 2 * k => Err(CodeError::InvalidParameters(
                format!("product-matrix MSR needs d >= 2k - 2, got k={k}, d={d}"),
            )),
            BackendKind::ProductMatrixMsr => CodeParams::msr(n, k).map(Some),
            BackendKind::Replication => Ok(None),
        }
    }
}

/// Operations the LDS protocol needs from the back-end code.
///
/// Indices `0..n1` denote L1 servers (code `C1`), indices `n1..n1+n2` denote
/// L2 servers (code `C2`), matching the paper's numbering `s_1 … s_{n1+n2}`.
pub trait BackendCodec: Send + Sync {
    /// The code family.
    fn kind(&self) -> BackendKind;

    /// Number of L1 servers.
    fn n1(&self) -> usize;

    /// Number of L2 servers.
    fn n2(&self) -> usize;

    /// How many coded elements (of `C1`) a reader needs to decode a value.
    fn decode_threshold(&self) -> usize;

    /// How many helper payloads an L1 server needs to regenerate its coded
    /// element.
    fn repair_threshold(&self) -> usize;

    /// Computes the coded element `c_{n1 + l2_index}` stored by L2 server
    /// `l2_index` for `value` (used by the internal `write-to-L2` operation).
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if the index is out of range.
    fn encode_l2_element(&self, value: &Value, l2_index: usize) -> Result<Share, CodeError>;

    /// Buffer-reuse variant of [`BackendCodec::encode_l2_element`]: writes the
    /// coded bytes into `out` (prior contents discarded, capacity reused).
    /// Coded backends route this through the code's `encode_share_into`.
    ///
    /// # Errors
    ///
    /// As for [`BackendCodec::encode_l2_element`].
    fn encode_l2_element_into(
        &self,
        value: &Value,
        l2_index: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        let share = self.encode_l2_element(value, l2_index)?;
        out.clear();
        out.extend_from_slice(&share.data);
        Ok(())
    }

    /// Encodes the coded elements of **every** L2 server for `value` into
    /// `outs` (one buffer per server, prior contents discarded, capacity
    /// reused). This is the per-write hot path of `write-to-L2`; every coded
    /// backend overrides the per-element default with the code's span encode,
    /// which produces all `n2` elements in one pass over the value, reading
    /// it where it lies and writing each element byte once.
    ///
    /// # Errors
    ///
    /// As for [`BackendCodec::encode_l2_element`]. `outs` must have exactly
    /// `n2` buffers.
    fn encode_l2_elements_into(
        &self,
        value: &Value,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodeError> {
        for (i, out) in outs.iter_mut().enumerate() {
            self.encode_l2_element_into(value, i, out)?;
        }
        Ok(())
    }

    /// The coded element held by L2 server `l2_index` for the initial value
    /// `v0` (every L2 server starts from this state).
    fn initial_l2_element(&self, l2_index: usize) -> Share;

    /// Helper payload computed by L2 server `l2_index` to help L1 server
    /// `l1_index` regenerate its coded element (`regenerate-from-L2-resp`).
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] on malformed input.
    fn helper_for_l1(
        &self,
        l2_element: &Share,
        l2_index: usize,
        l1_index: usize,
    ) -> Result<HelperData, CodeError>;

    /// Regenerates the coded element `c_{l1_index}` from helper payloads
    /// (`regenerate-from-L2-complete`). At least
    /// [`BackendCodec::repair_threshold`] distinct helpers are required.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if too few or inconsistent helpers are given.
    fn regenerate_l1(&self, l1_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError>;

    /// Repair symbol computed by live L2 server `l2_index` towards the
    /// online regeneration of crashed L2 server `failed_l2_index`'s coded
    /// element. The MBR backend ships the bandwidth-optimal `β`-sized
    /// product-matrix helper (`1/α` of its element); the MSR backend its
    /// exact-repair symbol; Reed–Solomon and replication fall back to
    /// shipping the whole element.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] on out-of-range indices or malformed elements.
    fn helper_for_l2(
        &self,
        l2_element: &Share,
        l2_index: usize,
        failed_l2_index: usize,
    ) -> Result<HelperData, CodeError>;

    /// Regenerates the coded element `c_{n1 + l2_index}` of a crashed L2
    /// server from repair symbols produced by [`BackendCodec::helper_for_l2`]
    /// (at least [`BackendCodec::repair_threshold`] distinct helpers).
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if too few or inconsistent helpers are given.
    fn regenerate_l2(&self, l2_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError>;

    /// Builds and memoizes the repair plan for regenerating the element of
    /// L2 server `failed_l2_index` from the given helper **L2 indices** (the
    /// one-time matrix inversion), so a node-repair run pays it before
    /// per-object payloads stream in. Replication needs no plan.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] when the index set cannot form a repair plan.
    fn prepare_l2_repair(
        &self,
        failed_l2_index: usize,
        helper_l2_indices: &[usize],
    ) -> Result<(), CodeError> {
        let _ = (failed_l2_index, helper_l2_indices);
        Ok(())
    }

    /// Decodes a value from coded elements of `C1` (used by readers when they
    /// receive `k` coded elements for a common tag).
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if too few or inconsistent shares are given.
    fn decode_from_l1(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError>;

    /// Buffer-reuse variant of [`BackendCodec::decode_from_l1`]: writes the
    /// decoded value into `out` (cleared first, capacity reused). The coded
    /// backends decode straight into `out`, so the buffer a reader passes is
    /// the one its value keeps; on error `out` holds unspecified bytes.
    ///
    /// # Errors
    ///
    /// As for [`BackendCodec::decode_from_l1`].
    fn decode_from_l1_into(&self, shares: &[Share], out: &mut Vec<u8>) -> Result<(), CodeError> {
        let value = self.decode_from_l1(shares)?;
        out.clear();
        out.extend_from_slice(&value);
        Ok(())
    }

    /// Primes the codec's memoized plans for the steady-state index sets:
    /// the canonical first-`k` decode quorum and every L1 server's
    /// regeneration from the first `d` L2 helpers. Called once at cluster /
    /// runner start-up so the first client operation does not pay the
    /// one-time inversion cost.
    fn warm_plans(&self) {}
}

/// Creates the backend codec of the requested kind for the given system
/// parameters.
///
/// # Errors
///
/// Returns a [`CodeError`] if the requested code cannot be constructed for
/// these parameters (e.g. a true product-matrix MSR code needs
/// `d ≥ 2k − 2` and a small enough `n` for GF(256)).
pub fn make_backend(
    kind: BackendKind,
    params: &SystemParams,
) -> Result<Arc<dyn BackendCodec>, CodeError> {
    let (n1, n2) = (params.n1(), params.n2());
    Ok(match (kind, kind.code_params(params)?) {
        (BackendKind::Mbr, Some(code)) => Arc::new(CodedBackend {
            code: ProductMatrixMbr::new(code)?,
            kind,
            n1,
            n2,
        }),
        (BackendKind::MsrPoint, Some(code)) => Arc::new(CodedBackend {
            code: ReedSolomon::new(code)?,
            kind,
            n1,
            n2,
        }),
        (BackendKind::ProductMatrixMsr, Some(code)) => Arc::new(CodedBackend {
            code: ProductMatrixMsr::new(code)?,
            kind,
            n1,
            n2,
        }),
        _ => Arc::new(ReplicationBackend { n1, n2 }),
    })
}

/// A regenerating-code back-end: the paper's MBR design, the MDS
/// (Reed–Solomon) minimum-storage point with naive whole-element repair, and
/// the true product-matrix MSR code differ only in `code`. Every operation
/// forwards to it with L2 server `i` mapped to code symbol `n1 + i`.
struct CodedBackend<C> {
    code: C,
    kind: BackendKind,
    n1: usize,
    n2: usize,
}

impl<C: RegeneratingCode> BackendCodec for CodedBackend<C> {
    fn kind(&self) -> BackendKind {
        self.kind
    }
    fn n1(&self) -> usize {
        self.n1
    }
    fn n2(&self) -> usize {
        self.n2
    }
    fn decode_threshold(&self) -> usize {
        self.code.params().k()
    }
    fn repair_threshold(&self) -> usize {
        // The code's own repair degree: d for MBR, 2k − 2 for product-matrix
        // MSR, k for Reed–Solomon's whole-share repair.
        self.code.params().d()
    }
    fn encode_l2_element(&self, value: &Value, l2_index: usize) -> Result<Share, CodeError> {
        self.code.encode_share(value.as_bytes(), self.n1 + l2_index)
    }
    fn encode_l2_element_into(
        &self,
        value: &Value,
        l2_index: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        self.code
            .encode_share_into(value.as_bytes(), self.n1 + l2_index, out)
    }
    fn encode_l2_elements_into(
        &self,
        value: &Value,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodeError> {
        self.code
            .encode_share_span_into(value.as_bytes(), self.n1, outs)
    }
    fn initial_l2_element(&self, l2_index: usize) -> Share {
        self.code
            .encode_share(Value::initial().as_bytes(), self.n1 + l2_index)
            .expect("initial value encoding cannot fail for valid indices")
    }
    fn helper_for_l1(
        &self,
        l2_element: &Share,
        _l2_index: usize,
        l1_index: usize,
    ) -> Result<HelperData, CodeError> {
        self.code.helper_data(l2_element, l1_index)
    }
    fn regenerate_l1(&self, l1_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        self.code.repair(l1_index, helpers)
    }
    fn helper_for_l2(
        &self,
        l2_element: &Share,
        _l2_index: usize,
        failed_l2_index: usize,
    ) -> Result<HelperData, CodeError> {
        self.code.helper_data(l2_element, self.n1 + failed_l2_index)
    }
    fn regenerate_l2(&self, l2_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        self.code.repair(self.n1 + l2_index, helpers)
    }
    fn prepare_l2_repair(
        &self,
        failed_l2_index: usize,
        helper_l2_indices: &[usize],
    ) -> Result<(), CodeError> {
        let indices: Vec<usize> = helper_l2_indices.iter().map(|&i| self.n1 + i).collect();
        self.code
            .prepare_repair(self.n1 + failed_l2_index, &indices)
    }
    fn decode_from_l1(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError> {
        self.code.decode(shares)
    }
    fn decode_from_l1_into(&self, shares: &[Share], out: &mut Vec<u8>) -> Result<(), CodeError> {
        self.code.decode_into(shares, out)
    }
    fn warm_plans(&self) {
        // The canonical steady-state quorums: readers decode from the first k
        // L1 elements, every L1 server regenerates its own from the first
        // `repair_threshold` L2 helpers.
        let params = self.code.params();
        let _ = self
            .code
            .prepare_decode(&(0..params.k()).collect::<Vec<_>>());
        let helpers: Vec<usize> = (self.n1..self.n1 + params.d()).collect();
        for l1_index in 0..self.n1 {
            let _ = self.code.prepare_repair(l1_index, &helpers);
        }
    }
}

/// Replicated back-end: every L2 server stores the full value.
struct ReplicationBackend {
    n1: usize,
    n2: usize,
}

impl BackendCodec for ReplicationBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Replication
    }
    fn n1(&self) -> usize {
        self.n1
    }
    fn n2(&self) -> usize {
        self.n2
    }
    fn decode_threshold(&self) -> usize {
        // A single full copy decodes the value; decode_from_l1 accepts any
        // non-empty set.
        1
    }
    fn repair_threshold(&self) -> usize {
        1
    }
    fn encode_l2_element(&self, value: &Value, l2_index: usize) -> Result<Share, CodeError> {
        if l2_index >= self.n2 {
            return Err(CodeError::IndexOutOfRange {
                index: l2_index,
                n: self.n2,
            });
        }
        Ok(Share::new(self.n1 + l2_index, value.as_bytes().to_vec()))
    }
    fn initial_l2_element(&self, l2_index: usize) -> Share {
        Share::new(self.n1 + l2_index, Vec::new())
    }
    fn helper_for_l1(
        &self,
        l2_element: &Share,
        l2_index: usize,
        l1_index: usize,
    ) -> Result<HelperData, CodeError> {
        if l1_index >= self.n1 {
            return Err(CodeError::IndexOutOfRange {
                index: l1_index,
                n: self.n1,
            });
        }
        Ok(self.replica_as_helper(l2_element, l2_index, l1_index))
    }
    fn regenerate_l1(&self, l1_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        Self::replica_from_helpers(l1_index, helpers)
    }
    fn helper_for_l2(
        &self,
        l2_element: &Share,
        l2_index: usize,
        failed_l2_index: usize,
    ) -> Result<HelperData, CodeError> {
        if failed_l2_index >= self.n2 {
            return Err(CodeError::IndexOutOfRange {
                index: failed_l2_index,
                n: self.n2,
            });
        }
        Ok(self.replica_as_helper(l2_element, l2_index, self.n1 + failed_l2_index))
    }
    fn regenerate_l2(&self, l2_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        Self::replica_from_helpers(self.n1 + l2_index, helpers)
    }
    fn decode_from_l1(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError> {
        let first = shares
            .first()
            .ok_or(CodeError::NotEnoughShares { needed: 1, got: 0 })?;
        Ok(first.data.clone())
    }
}

impl ReplicationBackend {
    /// The replica itself is the helper payload.
    fn replica_as_helper(&self, replica: &Share, l2_index: usize, failed: usize) -> HelperData {
        HelperData::new(self.n1 + l2_index, failed, replica.data.clone())
    }

    fn replica_from_helpers(index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        let first = helpers
            .first()
            .ok_or(CodeError::NotEnoughShares { needed: 1, got: 0 })?;
        Ok(Share::new(index, first.data.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lds_codes::linear::{Construction, LinearCode};

    fn params() -> SystemParams {
        SystemParams::for_failures(1, 1, 3, 5).unwrap() // n1=5, n2=7, k=3, d=5
    }

    fn roundtrip_through_backend(kind: BackendKind) {
        let p = params();
        let backend = make_backend(kind, &p).unwrap();
        assert_eq!(backend.kind(), kind);
        assert_eq!(backend.n1(), 5);
        assert_eq!(backend.n2(), 7);
        let value = Value::from("layered data storage value");

        // write-to-L2 path: every L2 server gets its coded element.
        let l2_elements: Vec<Share> = (0..7)
            .map(|i| backend.encode_l2_element(&value, i).unwrap())
            .collect();

        // regenerate-from-L2 path: L1 server 2 regenerates its element.
        let l1_index = 2;
        let helpers: Vec<HelperData> = l2_elements
            .iter()
            .enumerate()
            .take(backend.repair_threshold())
            .map(|(i, s)| backend.helper_for_l1(s, i, l1_index).unwrap())
            .collect();
        let regenerated = backend.regenerate_l1(l1_index, &helpers).unwrap();

        // reader path: decode from `decode_threshold` regenerated elements of C1.
        let mut c1_shares = Vec::new();
        for l1 in 0..backend.decode_threshold() {
            let helpers: Vec<HelperData> = l2_elements
                .iter()
                .enumerate()
                .take(backend.repair_threshold())
                .map(|(i, s)| backend.helper_for_l1(s, i, l1).unwrap())
                .collect();
            c1_shares.push(backend.regenerate_l1(l1, &helpers).unwrap());
        }
        assert_eq!(
            backend.decode_from_l1(&c1_shares).unwrap(),
            value.as_bytes()
        );
        assert_eq!(regenerated.index, l1_index);
    }

    #[test]
    fn mbr_backend_roundtrip() {
        roundtrip_through_backend(BackendKind::Mbr);
    }

    #[test]
    fn msr_point_backend_roundtrip() {
        roundtrip_through_backend(BackendKind::MsrPoint);
    }

    #[test]
    fn replication_backend_roundtrip() {
        roundtrip_through_backend(BackendKind::Replication);
    }

    #[test]
    fn product_matrix_msr_backend_roundtrip() {
        // Needs d >= 2k - 2: use k = 3, d = 5 > 4. OK.
        roundtrip_through_backend(BackendKind::ProductMatrixMsr);
    }

    #[test]
    fn product_matrix_msr_rejects_small_d() {
        // k = d = 3 < 2k - 2 = 4.
        let p = SystemParams::for_failures(1, 1, 3, 3).unwrap();
        assert!(make_backend(BackendKind::ProductMatrixMsr, &p).is_err());
    }

    #[test]
    fn l2_repair_roundtrip_across_backends() {
        let p = params(); // n1=5, n2=7, k=3, d=5
        let value = Value::from("regenerate a crashed back-end server");
        for kind in [
            BackendKind::Mbr,
            BackendKind::MsrPoint,
            BackendKind::ProductMatrixMsr,
            BackendKind::Replication,
        ] {
            let backend = make_backend(kind, &p).unwrap();
            let failed = 2usize;
            let helpers_l2: Vec<usize> = (0..7).filter(|&i| i != failed).collect();
            // Warm the plan for the canonical set, as the repair driver does.
            backend
                .prepare_l2_repair(failed, &helpers_l2[..backend.repair_threshold()])
                .unwrap();
            let helpers: Vec<HelperData> = helpers_l2
                .iter()
                .take(backend.repair_threshold())
                .map(|&i| {
                    let elem = backend.encode_l2_element(&value, i).unwrap();
                    backend.helper_for_l2(&elem, i, failed).unwrap()
                })
                .collect();
            let regenerated = backend.regenerate_l2(failed, &helpers).unwrap();
            let direct = backend.encode_l2_element(&value, failed).unwrap();
            assert_eq!(regenerated, direct, "{kind}: exact element regeneration");
        }
    }

    /// `warm_plans` covers the steady state of every coded backend: after it,
    /// every L1 server's regeneration from the first `d` L2 helpers and the
    /// decode of the first `k` regenerated elements build no plan.
    #[test]
    fn warm_plans_leave_nothing_to_build_on_the_canonical_quorums() {
        fn check<C: Construction + Clone>(code: LinearCode<C>, kind: BackendKind) {
            let (n1, n2) = (params().n1(), params().n2());
            let backend = CodedBackend {
                code: code.clone(),
                kind,
                n1,
                n2,
            };
            let plans = || (code.cached_decode_plans(), code.cached_repair_plans());
            assert_eq!(plans(), (0, 0), "{kind}");
            backend.warm_plans();
            let warm = plans();
            // MBR's `Ψ_rep⁻¹` serves every L1 server; MSR and RS fold the
            // failed node into the plan.
            let repair_plans = if kind == BackendKind::Mbr { 1 } else { n1 };
            assert_eq!(warm, (1, repair_plans), "{kind}");

            let value = Value::from("nothing left to invert");
            let c1: Vec<Share> = (0..n1)
                .map(|l1| {
                    let helpers: Vec<HelperData> = (0..backend.repair_threshold())
                        .map(|i| {
                            let element = backend.encode_l2_element(&value, i).unwrap();
                            backend.helper_for_l1(&element, i, l1).unwrap()
                        })
                        .collect();
                    backend.regenerate_l1(l1, &helpers).unwrap()
                })
                .collect();
            let decoded = backend.decode_from_l1(&c1[..backend.decode_threshold()]);
            assert_eq!(decoded.unwrap(), value.as_bytes(), "{kind}");
            assert_eq!(plans(), warm, "{kind}: a warm operation built a plan");
        }
        let p = params();
        let (n, k, d) = (p.code_length(), p.k(), p.d());
        check(
            ProductMatrixMbr::with_dimensions(n, k, d).unwrap(),
            BackendKind::Mbr,
        );
        check(
            ReedSolomon::with_dimensions(n, k).unwrap(),
            BackendKind::MsrPoint,
        );
        check(
            ProductMatrixMsr::with_dimensions(n, k).unwrap(),
            BackendKind::ProductMatrixMsr,
        );
    }

    #[test]
    fn mbr_l2_repair_helpers_are_beta_sized() {
        // The bandwidth story of the repair subsystem: an MBR helper ships
        // 1/α of its element, every fallback backend ships the whole thing.
        let p = params();
        let value = Value::new(vec![5u8; 4096]);
        let mbr = make_backend(BackendKind::Mbr, &p).unwrap();
        let rs = make_backend(BackendKind::MsrPoint, &p).unwrap();
        let elem = mbr.encode_l2_element(&value, 0).unwrap();
        let helper = mbr.helper_for_l2(&elem, 0, 3).unwrap();
        assert_eq!(helper.data.len() * p.d(), elem.data.len(), "β = element/α");
        let rs_elem = rs.encode_l2_element(&value, 0).unwrap();
        let rs_helper = rs.helper_for_l2(&rs_elem, 0, 3).unwrap();
        assert_eq!(rs_helper.data.len(), rs_elem.data.len(), "full fallback");
    }

    #[test]
    fn bulk_l2_encode_matches_per_element_encode() {
        let p = params();
        let value = Value::from("span-encoded write-to-L2 payload");
        for kind in [
            BackendKind::Mbr,
            BackendKind::MsrPoint,
            BackendKind::ProductMatrixMsr,
            BackendKind::Replication,
        ] {
            let backend = make_backend(kind, &p).unwrap();
            let mut outs: Vec<Vec<u8>> = (0..backend.n2()).map(|_| vec![0xAA; 3]).collect();
            backend.encode_l2_elements_into(&value, &mut outs).unwrap();
            for (i, out) in outs.iter().enumerate() {
                assert_eq!(
                    out,
                    &backend.encode_l2_element(&value, i).unwrap().data,
                    "{kind} element {i}"
                );
            }
        }
    }

    #[test]
    fn storage_sizes_differ_as_the_paper_predicts() {
        let p = SystemParams::symmetric(10, 2).unwrap(); // k = d = 6
        let value = Value::new(vec![7u8; 6000]);

        let mbr = make_backend(BackendKind::Mbr, &p).unwrap();
        let rs = make_backend(BackendKind::MsrPoint, &p).unwrap();
        let rep = make_backend(BackendKind::Replication, &p).unwrap();

        let mbr_elem = mbr.encode_l2_element(&value, 0).unwrap().data.len() as f64;
        let rs_elem = rs.encode_l2_element(&value, 0).unwrap().data.len() as f64;
        let rep_elem = rep.encode_l2_element(&value, 0).unwrap().data.len() as f64;

        // Replication stores the full value; MBR stores ~2/(k+1) of it
        // (~0.29), MSR-point ~1/k (~0.17).
        assert_eq!(rep_elem as usize, 6000);
        assert!(mbr_elem < 0.5 * rep_elem);
        assert!(rs_elem < mbr_elem);
        // MBR is at most 2x the MSR-point storage (Remark 2).
        assert!(mbr_elem <= 2.1 * rs_elem);
    }

    #[test]
    fn helper_sizes_differ_as_the_paper_predicts() {
        let p = SystemParams::symmetric(10, 2).unwrap();
        let value = Value::new(vec![3u8; 6000]);

        let mbr = make_backend(BackendKind::Mbr, &p).unwrap();
        let rs = make_backend(BackendKind::MsrPoint, &p).unwrap();

        let mbr_elem = mbr.encode_l2_element(&value, 0).unwrap();
        let rs_elem = rs.encode_l2_element(&value, 0).unwrap();
        let mbr_helper = mbr.helper_for_l1(&mbr_elem, 0, 1).unwrap().data.len() as f64;
        let rs_helper = rs.helper_for_l1(&rs_elem, 0, 1).unwrap().data.len() as f64;

        // MBR helper = 1/d of its element; RS ships the whole element. This
        // is exactly why the MBR read cost is Θ(1) while the MSR-point read
        // cost is Ω(n1) in the symmetric system (Remark 1).
        assert!(mbr_helper * (p.d() as f64 - 0.5) < mbr_elem.data.len() as f64);
        assert_eq!(rs_helper as usize, rs_elem.data.len());
    }

    #[test]
    fn initial_elements_decode_to_initial_value() {
        let p = params();
        for kind in [BackendKind::Mbr, BackendKind::MsrPoint] {
            let backend = make_backend(kind, &p).unwrap();
            let mut c1 = Vec::new();
            for l1 in 0..backend.decode_threshold() {
                let helpers: Vec<HelperData> = (0..backend.repair_threshold())
                    .map(|i| {
                        backend
                            .helper_for_l1(&backend.initial_l2_element(i), i, l1)
                            .unwrap()
                    })
                    .collect();
                c1.push(backend.regenerate_l1(l1, &helpers).unwrap());
            }
            assert_eq!(
                backend.decode_from_l1(&c1).unwrap(),
                Vec::<u8>::new(),
                "{kind}"
            );
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(BackendKind::Mbr.to_string(), "MBR");
        assert!(BackendKind::MsrPoint.to_string().contains("MSR"));
    }
}
