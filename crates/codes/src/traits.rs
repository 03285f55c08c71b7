//! The [`ErasureCode`] and [`RegeneratingCode`] traits.

use crate::error::CodeError;
use crate::params::CodeParams;
use crate::share::{HelperData, Share};

/// An erasure code mapping a value (arbitrary bytes) to `n` coded shares such
/// that any `k` of them recover the value.
pub trait ErasureCode: Send + Sync {
    /// The `(n, k, d)(α, β)` parameters of this code instance.
    fn params(&self) -> &CodeParams;

    /// Encodes the shares of the contiguous node span `start..start +
    /// outs.len()`, one output buffer per node (each buffer's prior contents
    /// discarded, capacity reused). Every other encode entry point is this
    /// one with a span of `n` or 1; the span is the primitive because the
    /// LDS `write-to-L2` encodes all `n2` back-end elements of one value at
    /// once, and the coded codecs produce a whole span in a single pass over
    /// the value.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] if the span leaves `0..n`.
    fn encode_share_span_into(
        &self,
        data: &[u8],
        start: usize,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodeError>;

    /// Encodes a value into all `n` shares.
    ///
    /// # Errors
    ///
    /// Returns an error if the value cannot be framed for this code.
    fn encode(&self, data: &[u8]) -> Result<Vec<Share>, CodeError> {
        let mut outs = vec![Vec::new(); self.params().n()];
        self.encode_share_span_into(data, 0, &mut outs)?;
        Ok(outs
            .into_iter()
            .enumerate()
            .map(|(index, data)| Share::new(index, data))
            .collect())
    }

    /// Encodes only the share for node `index`. Used by L1 servers, which
    /// compute coded elements for individual L2 servers on demand.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] if `index >= n`.
    fn encode_share(&self, data: &[u8], index: usize) -> Result<Share, CodeError> {
        let mut out = Vec::new();
        self.encode_share_into(data, index, &mut out)?;
        Ok(Share::new(index, out))
    }

    /// Buffer-reuse variant of [`ErasureCode::encode_share`]: writes the
    /// coded bytes of share `index` into `out` (prior contents discarded,
    /// capacity reused).
    ///
    /// # Errors
    ///
    /// As for [`ErasureCode::encode_share`].
    fn encode_share_into(
        &self,
        data: &[u8],
        index: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodeError> {
        self.encode_share_span_into(data, index, std::slice::from_mut(out))
    }

    /// Builds and memoizes the decode plan of the first `k` distinct indices
    /// of `survivors` without decoding anything — called at cluster start-up
    /// to pre-warm the steady-state quorums.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughShares`] if `survivors` holds fewer than
    /// `k` distinct indices, or an index/inversion error.
    fn prepare_decode(&self, survivors: &[usize]) -> Result<(), CodeError>;

    /// Decodes the value from at least `k` distinct shares.
    ///
    /// # Errors
    ///
    /// As for [`ErasureCode::decode_into`].
    fn decode(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError> {
        let mut out = Vec::new();
        self.decode_into(shares, &mut out)?;
        Ok(out)
    }

    /// Decodes the value from the first `k` distinct shares into `out`
    /// (prior contents discarded, capacity reused): the framed message is
    /// decoded straight into `out` and unframed there, so no second
    /// value-sized buffer exists.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughShares`] when fewer than `k` distinct
    /// shares are supplied, or [`CodeError::MalformedShare`] /
    /// [`CodeError::CorruptPayload`] for inconsistent inputs; `out` then
    /// holds unspecified bytes.
    fn decode_into(&self, shares: &[Share], out: &mut Vec<u8>) -> Result<(), CodeError>;
}

/// A regenerating code: an erasure code that additionally supports repair of
/// a single node from `β`-sized helper payloads computed by any `d` survivors.
pub trait RegeneratingCode: ErasureCode {
    /// Computes the helper payload that node `helper.index` contributes to
    /// repairing `failed_index`.
    ///
    /// The product-matrix constructions guarantee this depends only on the
    /// helper's own content and the failed index (not on the identity of the
    /// other helpers) — the property required by the LDS `regenerate-from-L2`
    /// operation.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] or [`CodeError::MalformedShare`]
    /// on invalid inputs.
    fn helper_data(&self, helper: &Share, failed_index: usize) -> Result<HelperData, CodeError>;

    /// Reconstructs the exact content of node `failed_index` from the first
    /// `d` distinct helper payloads.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughShares`] when fewer than `d` distinct
    /// helpers are supplied, or [`CodeError::MalformedShare`] when helper
    /// payloads are inconsistent.
    fn repair(&self, failed_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError>;

    /// Builds and memoizes the plan that repairs node `failed_index` from
    /// the first `d` distinct indices of `helpers` without repairing
    /// anything, so start-up or a node-repair driver pays the one-time
    /// inversion before payloads stream in.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughShares`] if `helpers` holds fewer than
    /// `d` distinct indices, or an index/inversion error.
    fn prepare_repair(&self, failed_index: usize, helpers: &[usize]) -> Result<(), CodeError>;
}

/// Deduplicates shares by index, preserving first occurrence order.
pub(crate) fn dedup_by_index(shares: &[Share]) -> Vec<&Share> {
    let mut seen = std::collections::HashSet::new();
    shares.iter().filter(|s| seen.insert(s.index)).collect()
}

/// Deduplicates helpers by helper index, preserving first occurrence order.
pub(crate) fn dedup_helpers(helpers: &[HelperData]) -> Vec<&HelperData> {
    let mut seen = std::collections::HashSet::new();
    helpers
        .iter()
        .filter(|h| seen.insert(h.helper_index))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_by_index_keeps_first() {
        let shares = vec![
            Share::new(1, vec![1]),
            Share::new(2, vec![2]),
            Share::new(1, vec![3]),
            Share::new(3, vec![4]),
        ];
        let deduped = dedup_by_index(&shares);
        assert_eq!(deduped.len(), 3);
        assert_eq!(deduped[0].data, vec![1]);
    }

    #[test]
    fn dedup_helpers_keeps_first() {
        let helpers = vec![
            HelperData::new(5, 0, vec![1]),
            HelperData::new(5, 0, vec![2]),
            HelperData::new(6, 0, vec![3]),
        ];
        let deduped = dedup_helpers(&helpers);
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0].data, vec![1]);
    }
}
