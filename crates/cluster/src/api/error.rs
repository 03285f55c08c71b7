//! The unified error type of the [`Store`](crate::api::Store) facade.

use crate::repair::RepairError;
use std::fmt;

/// Everything that can go wrong across the `Store` data plane, the
/// [`StoreBuilder`](crate::api::StoreBuilder) and the
/// [`Admin`](crate::api::Admin) control plane, in one enum.
///
/// The data plane reports its failures as `StoreError` variants directly;
/// [`RepairError`] (control plane), [`lds_core::params::InvalidParams`] and
/// [`lds_codes::CodeError`] (configuration) convert into it, with `source()`
/// chains where an underlying error exists.
///
/// The enum is `#[non_exhaustive]`: future failure classes (e.g. resharding
/// handover errors) can be added without breaking matches that already
/// handle the documented ones.
///
/// ```rust
/// use lds_cluster::api::{Store, StoreBuilder, StoreError};
///
/// let store = StoreBuilder::new().build().unwrap();
/// let mut client = store.client();
/// // A full pipeline refuses instead of queueing:
/// match client.try_submit_read(0.into()) {
///     Ok(_) | Err(StoreError::WouldBlock) => {}
///     Err(other) => panic!("unexpected error: {other}"),
/// }
/// store.shutdown();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The operation did not complete within the client's timeout — with
    /// more than `f1` / `f2` servers crashed this is the expected outcome.
    /// Every outstanding operation of the handle is aborted.
    Timeout,
    /// The store was already shut down (its channels are disconnected).
    Disconnected,
    /// The awaited ticket does not correspond to an outstanding or completed
    /// operation of this handle (already harvested, aborted, or foreign).
    UnknownTicket,
    /// A non-blocking submission was refused: the pipeline is full or an
    /// earlier operation on the same key is still outstanding. Nothing was
    /// enqueued — harvest completions and retry.
    WouldBlock,
    /// The requested configuration is invalid; reported by
    /// [`StoreBuilder::build`](crate::api::StoreBuilder::build) before any
    /// thread is spawned, or by [`Admin`](crate::api::Admin) calls that
    /// reference a server outside the deployment.
    InvalidConfig(String),
    /// An online repair could not be performed (server live, repair already
    /// claimed, too few helpers, or the repair stalled).
    Repair(RepairError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Timeout => write!(f, "operation timed out"),
            StoreError::Disconnected => write!(f, "store is shut down"),
            StoreError::UnknownTicket => write!(f, "ticket is not outstanding on this handle"),
            StoreError::WouldBlock => write!(f, "pipeline full or key busy"),
            StoreError::InvalidConfig(reason) => write!(f, "invalid store configuration: {reason}"),
            StoreError::Repair(e) => write!(f, "online repair failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Repair(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RepairError> for StoreError {
    fn from(e: RepairError) -> Self {
        StoreError::Repair(e)
    }
}

impl From<lds_core::params::InvalidParams> for StoreError {
    fn from(e: lds_core::params::InvalidParams) -> Self {
        StoreError::InvalidConfig(e.to_string())
    }
}

impl From<lds_codes::CodeError> for StoreError {
    fn from(e: lds_codes::CodeError) -> Self {
        StoreError::InvalidConfig(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_map_every_legacy_error() {
        assert_eq!(
            StoreError::from(RepairError::NotCrashed),
            StoreError::Repair(RepairError::NotCrashed)
        );
        assert_eq!(
            StoreError::from(lds_core::params::InvalidParams::Constraint("k > d".into())),
            StoreError::InvalidConfig("invalid LDS system parameters: k > d".into())
        );
    }

    #[test]
    fn repair_errors_keep_their_source_chain() {
        let e = StoreError::from(RepairError::NotCrashed);
        assert!(e.source().is_some(), "repair errors chain their cause");
        assert!(e.to_string().contains("repair"));
        assert!(StoreError::Timeout.source().is_none());
    }
}
