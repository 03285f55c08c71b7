//! Reed–Solomon erasure coding over GF(2^8).
//!
//! The generator matrix is the `n × k` Vandermonde matrix, whose every `k × k`
//! sub-matrix is invertible, so any `k` shares decode. Repair is "naive" in
//! what it moves: the code also implements
//! [`RegeneratingCode`](crate::RegeneratingCode) by letting each of `k`
//! helpers ship its whole share — exactly the behaviour the
//! regenerating-code literature (and the paper's choice of MBR codes)
//! improves upon. Having it here lets the benchmarks quantify the gap.
//!
//! # What the construction supplies
//!
//! [`Rs`] lists, for the shared engine ([`crate::linear`]): the one
//! **generator** row `g_i` of a node (`α = 1`); the **helper row** `[1]` (the
//! share itself); the **repair matrix** `g_f · G_K⁻¹`, one `1 × k` row. The
//! **decode matrix** is the engine's default, the inverse `G_K⁻¹` of the
//! stacked generator.

use crate::error::CodeError;
use crate::linear::{Construction, LinearCode};
use crate::params::{CodeKind, CodeParams};
use lds_gf::bulk::RowTerms;
use lds_gf::{Gf256, Matrix};

/// The Reed–Solomon construction: the Vandermonde generator.
#[derive(Debug, Clone)]
pub struct Rs {
    params: CodeParams,
    /// `n × k` Vandermonde generator matrix.
    generator: Matrix,
}

/// A Reed–Solomon code with parameters from [`CodeParams::reed_solomon`].
pub type ReedSolomon = LinearCode<Rs>;

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
        Ok(LinearCode::over(Rs { params, generator }))
    }

    /// Convenience constructor from `(n, k)`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_dimensions(n: usize, k: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::reed_solomon(n, k)?)
    }
}

impl Construction for Rs {
    fn params(&self) -> &CodeParams {
        &self.params
    }

    fn push_generator_rows(&self, index: usize, rows: &mut RowTerms) {
        rows.push_row(self.generator.row(index).iter().copied().enumerate());
    }

    fn helper_coefficients(&self, _failed: usize) -> &[Gf256] {
        &[Gf256::ONE]
    }

    /// The helpers' shares are `G_K · m`, so `m = G_K⁻¹ · shares` and the
    /// failed share is `g_f · m`.
    fn repair_matrix(&self, failed: usize, helpers: &[usize]) -> Result<Matrix, CodeError> {
        Ok(self
            .generator
            .select_rows(&[failed])
            .checked_mul(&self.decode_matrix(helpers)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErasureCode, HelperData, RegeneratingCode, Share};

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
