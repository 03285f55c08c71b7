//! Single-layer baselines the paper compares against.
//!
//! * [`abd`] — the replication-based multi-writer multi-reader atomic
//!   register of Attiya, Bar-Noy and Dolev (the paper's ref. \[3\]).
//! * [`cas`] — a Reed–Solomon-coded atomic storage algorithm in the style of
//!   Cadambe, Lynch, Médard and Musial (the paper's ref. \[6\]), with
//!   pre-write / finalise labels and quorums of size `⌈(n + k)/2⌉`.
//!
//! Both run on a single layer of `n` servers and are driven by the same
//! simulator as LDS, so their communication and storage costs are measured
//! under identical conditions (the `exp_baselines` binary in `lds-bench`).

pub mod abd;
pub mod cas;

use crate::value::Value;
use lds_codes::Share;
use lds_sim::{DataSize, ProcessId};

use crate::tag::{ObjectId, OpId, Tag};

/// The position of `from` among a baseline's `servers`: its bit in a
/// [`ServerSet`](crate::ServerSet). `None` for a process that is not one of
/// them, whose response counts towards no quorum.
fn server_index(servers: &[ProcessId], from: ProcessId) -> Option<usize> {
    servers.iter().position(|&p| p == from)
}

/// Messages shared by the single-layer baseline protocols.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineMessage {
    /// Harness command: start a write.
    InvokeWrite {
        /// Target object.
        obj: ObjectId,
        /// Value to write.
        value: Value,
    },
    /// Harness command: start a read.
    InvokeRead {
        /// Target object.
        obj: ObjectId,
    },
    /// Query the server's highest (finalised) tag.
    QueryTag {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
    },
    /// Response to [`BaselineMessage::QueryTag`].
    TagResp {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// The server's tag.
        tag: Tag,
    },
    /// ABD: query the server's current `(tag, value)` pair.
    QueryValue {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
    },
    /// ABD: response to [`BaselineMessage::QueryValue`].
    ValueResp {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// The server's tag.
        tag: Tag,
        /// The server's value.
        value: Value,
    },
    /// ABD: store `(tag, value)` if newer (used by writes and read
    /// write-backs).
    Store {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// Tag to store.
        tag: Tag,
        /// Value to store.
        value: Value,
    },
    /// CAS: store a coded element with the `pre` label.
    PreWrite {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// Tag being written.
        tag: Tag,
        /// This server's coded element.
        element: Share,
    },
    /// CAS: move a tag to the `fin` label.
    Finalize {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// Tag being finalised.
        tag: Tag,
    },
    /// CAS: ask for the coded element of a specific tag.
    QueryElem {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// Requested tag.
        tag: Tag,
    },
    /// CAS: response to [`BaselineMessage::QueryElem`] (element may be
    /// missing on this server).
    ElemResp {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// Requested tag.
        tag: Tag,
        /// The element, if the server stores it.
        element: Option<Share>,
    },
    /// Generic acknowledgment.
    Ack {
        /// Target object.
        obj: ObjectId,
        /// Operation id.
        op: OpId,
        /// Acknowledged tag.
        tag: Tag,
    },
}

impl DataSize for BaselineMessage {
    fn data_size(&self) -> usize {
        match self {
            BaselineMessage::InvokeWrite { value, .. } => value.len(),
            BaselineMessage::ValueResp { value, .. } => value.len(),
            BaselineMessage::Store { value, .. } => value.len(),
            BaselineMessage::PreWrite { element, .. } => element.data.len(),
            BaselineMessage::ElemResp { element, .. } => {
                element.as_ref().map(|e| e.data.len()).unwrap_or(0)
            }
            _ => 0,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            BaselineMessage::InvokeWrite { .. } => "BL-INVOKE-WRITE",
            BaselineMessage::InvokeRead { .. } => "BL-INVOKE-READ",
            BaselineMessage::QueryTag { .. } => "BL-QUERY-TAG",
            BaselineMessage::TagResp { .. } => "BL-TAG-RESP",
            BaselineMessage::QueryValue { .. } => "BL-QUERY-VALUE",
            BaselineMessage::ValueResp { .. } => "BL-VALUE-RESP",
            BaselineMessage::Store { .. } => "BL-STORE",
            BaselineMessage::PreWrite { .. } => "BL-PRE-WRITE",
            BaselineMessage::Finalize { .. } => "BL-FINALIZE",
            BaselineMessage::QueryElem { .. } => "BL-QUERY-ELEM",
            BaselineMessage::ElemResp { .. } => "BL-ELEM-RESP",
            BaselineMessage::Ack { .. } => "BL-ACK",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ClientId;

    #[test]
    fn data_size_counts_only_payloads() {
        let obj = ObjectId(0);
        let op = OpId::new(ClientId(1), 0);
        let tag = Tag::initial();
        assert_eq!(BaselineMessage::QueryTag { obj, op }.data_size(), 0);
        assert_eq!(
            BaselineMessage::Store {
                obj,
                op,
                tag,
                value: Value::new(vec![0; 9])
            }
            .data_size(),
            9
        );
        assert_eq!(
            BaselineMessage::ElemResp {
                obj,
                op,
                tag,
                element: None
            }
            .data_size(),
            0
        );
        assert_eq!(
            BaselineMessage::ElemResp {
                obj,
                op,
                tag,
                element: Some(Share::new(0, vec![0; 5]))
            }
            .data_size(),
            5
        );
        assert_eq!(BaselineMessage::Ack { obj, op, tag }.kind(), "BL-ACK");
    }
}
