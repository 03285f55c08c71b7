//! Reed–Solomon erasure coding over GF(2^8).
//!
//! The generator matrix is the `n × k` Vandermonde matrix, whose every `k × k`
//! sub-matrix is invertible, so any `k` shares decode. Repair is "naive": the
//! code also implements [`RegeneratingCode`] by letting each helper ship its
//! whole share and reconstructing via decode-then-re-encode — exactly the
//! behaviour the regenerating-code literature (and the paper's choice of MBR
//! codes) improves upon. Having it here lets the benchmarks quantify the gap.
//!
//! Encoding applies the generator rows of a span of nodes in one kernel
//! call over the value (`linear::encode_span`); decoding memoizes the
//! inverse of the selected generator rows per sorted survivor set
//! ([`crate::plan::PlanCache`]), so steady-state decodes perform no matrix
//! inversion.

use crate::error::CodeError;
use crate::linear::{apply_symbols_into, encode_span};
use crate::params::{CodeKind, CodeParams};
use crate::plan::PlanCache;
use crate::share::{HelperData, Share};
use crate::striping::unframe_in_place;
use crate::traits::{dedup_by_index, dedup_helpers, ErasureCode, RegeneratingCode};
use lds_gf::Matrix;
use std::sync::Arc;

/// A Reed–Solomon code with parameters from [`CodeParams::reed_solomon`].
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: CodeParams,
    /// `n × k` Vandermonde generator matrix.
    generator: Matrix,
    /// Sorted-survivor-set → inverse of the selected generator rows.
    decode_plans: Arc<PlanCache<Matrix>>,
}

impl ReedSolomon {
    /// Creates a Reed–Solomon code instance.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `params` does not describe
    /// a Reed–Solomon code.
    pub fn new(params: CodeParams) -> Result<Self, CodeError> {
        if params.kind() != CodeKind::ReedSolomon {
            return Err(CodeError::InvalidParameters(format!(
                "expected Reed-Solomon parameters, got {params}"
            )));
        }
        let generator = Matrix::vandermonde(params.n(), params.k());
        Ok(ReedSolomon {
            params,
            generator,
            decode_plans: Arc::new(PlanCache::new()),
        })
    }

    /// Convenience constructor from `(n, k)`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_dimensions(n: usize, k: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::reed_solomon(n, k)?)
    }

    /// Number of decode plans currently memoized (for tests and warm-up
    /// assertions).
    pub fn cached_decode_plans(&self) -> usize {
        self.decode_plans.len()
    }

    fn check_index(&self, index: usize) -> Result<(), CodeError> {
        if index >= self.params.n() {
            Err(CodeError::IndexOutOfRange {
                index,
                n: self.params.n(),
            })
        } else {
            Ok(())
        }
    }
}

impl ErasureCode for ReedSolomon {
    fn params(&self) -> &CodeParams {
        &self.params
    }

    fn encode_share_span_into(
        &self,
        data: &[u8],
        start: usize,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodeError> {
        // α = 1: a node's one generator row is its row of the Vandermonde
        // matrix over the k message symbols.
        encode_span(&self.params, data, start, outs, |index, rows| {
            rows.push_row(self.generator.row(index).iter().copied().enumerate())
        })
    }

    fn prepare_decode(&self, survivors: &[usize]) -> Result<(), CodeError> {
        let mut key = survivors.to_vec();
        key.sort_unstable();
        key.dedup();
        if key.len() != self.params.k() {
            return Err(CodeError::NotEnoughShares {
                needed: self.params.k(),
                got: key.len(),
            });
        }
        for &i in &key {
            self.check_index(i)?;
        }
        self.decode_plans
            .get_or_build(&key, |ids| Ok(self.generator.select_rows(ids).inverse()?))
            .map(|_| ())
    }

    fn decode(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError> {
        let mut out = Vec::new();
        self.decode_into(shares, &mut out)?;
        Ok(out)
    }

    fn decode_into(&self, shares: &[Share], out: &mut Vec<u8>) -> Result<(), CodeError> {
        let k = self.params.k();
        let usable = dedup_by_index(shares);
        if usable.len() < k {
            return Err(CodeError::NotEnoughShares {
                needed: k,
                got: usable.len(),
            });
        }
        let mut chosen: Vec<&Share> = usable[..k].to_vec();
        for s in &chosen {
            self.check_index(s.index)?;
        }
        let symbol_len = chosen[0].data.len();
        if chosen.iter().any(|s| s.data.len() != symbol_len) || symbol_len == 0 {
            return Err(CodeError::MalformedShare(
                "RS shares must have equal, non-zero length".into(),
            ));
        }
        // The plan key is the sorted survivor set; order the inputs to match.
        chosen.sort_by_key(|s| s.index);
        let indices: Vec<usize> = chosen.iter().map(|s| s.index).collect();
        let inv = self.decode_plans.get_or_build(&indices, |ids| {
            Ok(self.generator.select_rows(ids).inverse()?)
        })?;
        // Message symbol m = Σ_j inv[m, j] * share_j, decoded straight into
        // `out` and unframed where it is.
        let inputs: Vec<&[u8]> = chosen.iter().map(|s| s.data.as_slice()).collect();
        apply_symbols_into(&inv, &inputs, symbol_len, out)?;
        unframe_in_place(out)
    }
}

impl RegeneratingCode for ReedSolomon {
    fn helper_data(&self, helper: &Share, failed_index: usize) -> Result<HelperData, CodeError> {
        self.check_index(helper.index)?;
        self.check_index(failed_index)?;
        // Naive repair: the helper contributes its entire share.
        Ok(HelperData::new(
            helper.index,
            failed_index,
            helper.data.clone(),
        ))
    }

    fn repair(&self, failed_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        self.check_index(failed_index)?;
        let k = self.params.k();
        let usable = dedup_helpers(helpers);
        if usable.len() < k {
            return Err(CodeError::NotEnoughShares {
                needed: k,
                got: usable.len(),
            });
        }
        if usable.iter().any(|h| h.failed_index != failed_index) {
            return Err(CodeError::MalformedShare(
                "helper payloads disagree on the failed node index".into(),
            ));
        }
        let shares: Vec<Share> = usable
            .iter()
            .map(|h| Share::new(h.helper_index, h.data.clone()))
            .collect();
        let value = self.decode(&shares)?;
        self.encode_share(&value, failed_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 256) as u8).collect()
    }

    #[test]
    fn roundtrip_from_any_k_shares() {
        let code = ReedSolomon::with_dimensions(8, 5).unwrap();
        let value = sample_value(333);
        let shares = code.encode(&value).unwrap();
        assert_eq!(shares.len(), 8);

        for subset in [[0, 1, 2, 3, 4], [3, 4, 5, 6, 7], [0, 2, 4, 6, 7]] {
            let chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(code.decode(&chosen).unwrap(), value, "subset {subset:?}");
        }
        assert_eq!(code.cached_decode_plans(), 3);
    }

    #[test]
    fn decode_plan_is_reused_across_calls_and_orderings() {
        let code = ReedSolomon::with_dimensions(6, 3).unwrap();
        let value = sample_value(100);
        let shares = code.encode(&value).unwrap();
        // The same survivor set in different arrival orders hits one plan.
        for order in [[0usize, 2, 4], [4, 0, 2], [2, 4, 0]] {
            let chosen: Vec<Share> = order.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(code.decode(&chosen).unwrap(), value);
        }
        assert_eq!(code.cached_decode_plans(), 1);
        // Clones share the warmed cache.
        let clone = code.clone();
        assert_eq!(clone.cached_decode_plans(), 1);
    }

    #[test]
    fn decode_uses_first_k_distinct_shares() {
        let code = ReedSolomon::with_dimensions(6, 3).unwrap();
        let value = sample_value(50);
        let shares = code.encode(&value).unwrap();
        // Duplicates of the same index must not count twice.
        let mixed = vec![
            shares[0].clone(),
            shares[0].clone(),
            shares[1].clone(),
            shares[5].clone(),
        ];
        assert_eq!(code.decode(&mixed).unwrap(), value);
    }

    #[test]
    fn too_few_shares_rejected() {
        let code = ReedSolomon::with_dimensions(6, 4).unwrap();
        let shares = code.encode(&sample_value(10)).unwrap();
        let err = code.decode(&shares[..3]).unwrap_err();
        assert_eq!(err, CodeError::NotEnoughShares { needed: 4, got: 3 });
    }

    #[test]
    fn mismatched_share_lengths_rejected() {
        let code = ReedSolomon::with_dimensions(5, 2).unwrap();
        let mut shares = code.encode(&sample_value(40)).unwrap();
        shares[1].data.pop();
        assert!(matches!(
            code.decode(&shares[..2]),
            Err(CodeError::MalformedShare(_))
        ));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let code = ReedSolomon::with_dimensions(5, 2).unwrap();
        assert!(matches!(
            code.encode_share(b"x", 5),
            Err(CodeError::IndexOutOfRange { index: 5, n: 5 })
        ));
    }

    #[test]
    fn wrong_kind_rejected() {
        let p = CodeParams::mbr(6, 2, 3).unwrap();
        assert!(ReedSolomon::new(p).is_err());
    }

    #[test]
    fn naive_repair_reconstructs_exact_share() {
        let code = ReedSolomon::with_dimensions(7, 4).unwrap();
        let value = sample_value(200);
        let shares = code.encode(&value).unwrap();
        let failed = 2;
        let helpers: Vec<HelperData> = [0, 3, 5, 6]
            .iter()
            .map(|&h| code.helper_data(&shares[h], failed).unwrap())
            .collect();
        let repaired = code.repair(failed, &helpers).unwrap();
        assert_eq!(repaired, shares[failed]);
    }

    #[test]
    fn repair_validates_failed_index_consistency() {
        let code = ReedSolomon::with_dimensions(6, 3).unwrap();
        let shares = code.encode(&sample_value(64)).unwrap();
        let mut helpers: Vec<HelperData> = (0..3)
            .map(|h| code.helper_data(&shares[h], 4).unwrap())
            .collect();
        helpers[1].failed_index = 5;
        assert!(matches!(
            code.repair(4, &helpers),
            Err(CodeError::MalformedShare(_))
        ));
    }

    #[test]
    fn repair_bandwidth_is_k_full_shares() {
        // This is the inefficiency regenerating codes remove: each helper ships
        // a full share, so total repair traffic equals the whole value.
        let code = ReedSolomon::with_dimensions(8, 4).unwrap();
        let value = sample_value(4096);
        let shares = code.encode(&value).unwrap();
        let helper = code.helper_data(&shares[0], 7).unwrap();
        assert_eq!(helper.data.len(), shares[0].data.len());
    }

    #[test]
    fn share_size_is_value_size_over_k() {
        let code = ReedSolomon::with_dimensions(10, 5).unwrap();
        let value = sample_value(5000);
        let shares = code.encode(&value).unwrap();
        // Each share is ~ |v|/k (plus framing overhead).
        let expected = (5000 + 8) / 5 + 2;
        assert!(shares[0].data.len() <= expected + 8);
    }

    #[test]
    fn empty_and_tiny_values_roundtrip() {
        let code = ReedSolomon::with_dimensions(5, 3).unwrap();
        for len in [0usize, 1, 2, 3] {
            let value = sample_value(len);
            let shares = code.encode(&value).unwrap();
            assert_eq!(code.decode(&shares[1..4]).unwrap(), value);
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let code = ReedSolomon::with_dimensions(6, 3).unwrap();
        let value = sample_value(120);
        let mut share_buf = Vec::new();
        code.encode_share_into(&value, 2, &mut share_buf).unwrap();
        assert_eq!(share_buf, code.encode_share(&value, 2).unwrap().data);

        let shares = code.encode(&value).unwrap();
        let mut out = vec![0xEEu8; 500]; // stale contents must be discarded
        code.decode_into(&shares[1..4], &mut out).unwrap();
        assert_eq!(out, value);
    }
}
