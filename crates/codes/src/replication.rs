//! Full replication, viewed through the erasure-code interface.
//!
//! Every node stores a complete copy of the value; any single share decodes
//! it and any single helper repairs a crashed node. This is the baseline the
//! paper contrasts in the Fig. 6 discussion: with replication in L2 the
//! per-object permanent storage cost is `n2` instead of `2n2/(k+1)`.

use crate::error::CodeError;
use crate::params::{CodeKind, CodeParams};
use crate::share::{HelperData, Share};
use crate::traits::{dedup_by_index, dedup_helpers, ErasureCode, RegeneratingCode};

/// `n`-fold replication.
#[derive(Debug, Clone)]
pub struct Replication {
    params: CodeParams,
}

impl Replication {
    /// Creates a replication "code".
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `params` is not a
    /// replication parameter set.
    pub fn new(params: CodeParams) -> Result<Self, CodeError> {
        if params.kind() != CodeKind::Replication {
            return Err(CodeError::InvalidParameters(format!(
                "expected replication parameters, got {params}"
            )));
        }
        Ok(Replication { params })
    }

    /// Convenience constructor from the number of replicas.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_replicas(n: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::replication(n)?)
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

impl ErasureCode for Replication {
    fn params(&self) -> &CodeParams {
        &self.params
    }

    fn encode_share_span_into(
        &self,
        data: &[u8],
        start: usize,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodeError> {
        for (s, out) in outs.iter_mut().enumerate() {
            self.check_index(start.saturating_add(s))?;
            out.clear();
            out.extend_from_slice(data);
        }
        Ok(())
    }

    fn decode(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError> {
        let usable = dedup_by_index(shares);
        let first = usable
            .first()
            .ok_or(CodeError::NotEnoughShares { needed: 1, got: 0 })?;
        self.check_index(first.index)?;
        Ok(first.data.clone())
    }
}

impl RegeneratingCode for Replication {
    fn helper_data(&self, helper: &Share, failed_index: usize) -> Result<HelperData, CodeError> {
        self.check_index(helper.index)?;
        self.check_index(failed_index)?;
        Ok(HelperData::new(
            helper.index,
            failed_index,
            helper.data.clone(),
        ))
    }

    fn repair(&self, failed_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        self.check_index(failed_index)?;
        let usable = dedup_helpers(helpers);
        let first = usable
            .first()
            .ok_or(CodeError::NotEnoughShares { needed: 1, got: 0 })?;
        if first.failed_index != failed_index {
            return Err(CodeError::MalformedShare(
                "helper payload is for a different failed node".into(),
            ));
        }
        Ok(Share::new(failed_index, first.data.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_share_is_a_full_copy() {
        let code = Replication::with_replicas(5).unwrap();
        let value = b"replicated value".to_vec();
        let shares = code.encode(&value).unwrap();
        assert_eq!(shares.len(), 5);
        assert!(shares.iter().all(|s| s.data == value));
        assert_eq!(code.decode(&shares[3..4]).unwrap(), value);
    }

    #[test]
    fn repair_from_single_helper() {
        let code = Replication::with_replicas(3).unwrap();
        let value = vec![42u8; 100];
        let shares = code.encode(&value).unwrap();
        let helper = code.helper_data(&shares[0], 2).unwrap();
        let repaired = code.repair(2, &[helper]).unwrap();
        assert_eq!(repaired.index, 2);
        assert_eq!(repaired.data, value);
    }

    #[test]
    fn empty_inputs_rejected() {
        let code = Replication::with_replicas(3).unwrap();
        assert!(matches!(
            code.decode(&[]),
            Err(CodeError::NotEnoughShares { .. })
        ));
        assert!(matches!(
            code.repair(0, &[]),
            Err(CodeError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn index_bounds_enforced() {
        let code = Replication::with_replicas(3).unwrap();
        assert!(code.encode_share(b"x", 3).is_err());
        let bogus = Share::new(9, vec![1]);
        assert!(code.decode(&[bogus]).is_err());
    }

    #[test]
    fn wrong_kind_rejected() {
        let p = CodeParams::reed_solomon(4, 2).unwrap();
        assert!(Replication::new(p).is_err());
    }

    #[test]
    fn mismatched_failed_index_rejected() {
        let code = Replication::with_replicas(4).unwrap();
        let shares = code.encode(b"v").unwrap();
        let helper = code.helper_data(&shares[0], 1).unwrap();
        assert!(matches!(
            code.repair(2, &[helper]),
            Err(CodeError::MalformedShare(_))
        ));
    }

    #[test]
    fn storage_overhead_is_n_times_value() {
        let code = Replication::with_replicas(7).unwrap();
        let value = vec![1u8; 1000];
        let shares = code.encode(&value).unwrap();
        let total: usize = shares.iter().map(|s| s.data.len()).sum();
        assert_eq!(total, 7 * 1000);
    }
}
