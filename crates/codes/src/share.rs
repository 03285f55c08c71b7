//! Coded shares and repair helper data.

use std::fmt;

/// One node's coded content for a single value.
///
/// A share carries the node index it was encoded for and `α · symbol_len`
/// bytes of coded data (symbol-major layout: symbol `a` occupies bytes
/// `[a·symbol_len, (a+1)·symbol_len)`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Share {
    /// Index of the storage node this share belongs to, in `0..n`.
    pub index: usize,
    /// Coded bytes (`α` symbols, each `symbol_len` bytes).
    pub data: Vec<u8>,
}

impl Share {
    /// Creates a share.
    pub fn new(index: usize, data: Vec<u8>) -> Self {
        Share { index, data }
    }

    /// Length of the coded payload in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the share carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Length of one symbol buffer given the code's per-node symbol count α.
    ///
    /// # Panics
    ///
    /// Panics if the payload length is not a multiple of `alpha`.
    pub fn symbol_len(&self, alpha: usize) -> usize {
        assert!(
            alpha > 0 && self.data.len().is_multiple_of(alpha),
            "share length must be alpha-aligned"
        );
        self.data.len() / alpha
    }

    /// Borrows symbol `a` (of `alpha`) as a byte slice.
    pub fn symbol(&self, a: usize, alpha: usize) -> &[u8] {
        let sl = self.symbol_len(alpha);
        &self.data[a * sl..(a + 1) * sl]
    }
}

impl fmt::Debug for Share {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Share {{ index: {}, len: {} }}",
            self.index,
            self.data.len()
        )
    }
}

/// Helper data computed by a surviving node to repair a failed node.
///
/// In the product-matrix MBR/MSR constructions the helper only needs to know
/// the index of the failed node — a property the LDS protocol relies on
/// (paper §II-c) because an L1 server collects the *first* `d` responses and
/// helpers cannot know which other nodes will participate.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct HelperData {
    /// Index of the surviving node that computed this helper payload.
    pub helper_index: usize,
    /// Index of the failed node being repaired.
    pub failed_index: usize,
    /// Helper bytes (`β` symbols, each `symbol_len` bytes).
    pub data: Vec<u8>,
}

impl HelperData {
    /// Creates a helper-data record.
    pub fn new(helper_index: usize, failed_index: usize, data: Vec<u8>) -> Self {
        HelperData {
            helper_index,
            failed_index,
            data,
        }
    }

    /// Length of the helper payload in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the helper payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl fmt::Debug for HelperData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HelperData {{ helper: {}, failed: {}, len: {} }}",
            self.helper_index,
            self.failed_index,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_symbol_access() {
        let share = Share::new(3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(share.len(), 6);
        assert!(!share.is_empty());
        assert_eq!(share.symbol_len(3), 2);
        assert_eq!(share.symbol(0, 3), &[1, 2]);
        assert_eq!(share.symbol(2, 3), &[5, 6]);
    }

    #[test]
    #[should_panic(expected = "alpha-aligned")]
    fn misaligned_symbol_len_panics() {
        let share = Share::new(0, vec![1, 2, 3, 4, 5]);
        let _ = share.symbol_len(2);
    }

    #[test]
    fn helper_data_basics() {
        let h = HelperData::new(7, 2, vec![9, 9]);
        assert_eq!(h.helper_index, 7);
        assert_eq!(h.failed_index, 2);
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert!(format!("{h:?}").contains("helper: 7"));
    }

    #[test]
    fn debug_hides_payload_bytes() {
        let share = Share::new(1, vec![0; 1024]);
        let dbg = format!("{share:?}");
        assert!(dbg.contains("len: 1024"));
        assert!(dbg.len() < 100, "debug output should not dump the payload");
    }
}
