//! # lds-codes
//!
//! Erasure codes and regenerating codes used by the LDS layered storage
//! system (Konwar et al., PODC 2017):
//!
//! * [`mbr::ProductMatrixMbr`] — the exact-repair **minimum bandwidth
//!   regenerating (MBR)** code at the heart of the paper (ref. \[25\],
//!   Rashmi–Shah–Kumar product-matrix construction). This is the code `C`
//!   whose restriction to the first `n1` symbols is `C1` (used by readers)
//!   and to the last `n2` symbols is `C2` (stored in the back-end layer).
//! * [`msr::ProductMatrixMsr`] — the **minimum storage regenerating (MSR)**
//!   code at `d = 2k − 2`, used for the Remark 1 / Remark 2 ablations.
//! * [`rs::ReedSolomon`] — a classic MDS erasure code, the baseline used by
//!   single-layer coded atomic-storage algorithms (CAS).
//! * [`replication::Replication`] — full replication, the baseline whose L2
//!   storage cost the paper contrasts in Fig. 6.
//!
//! All codes operate on arbitrary byte strings via striping
//! ([`striping`]): the value is prefixed with its length, padded to a
//! multiple of the code's file size `B`, and each code symbol becomes a
//! buffer of `symbol_len` bytes.
//!
//! # Execution model: bulk kernels + memoized plans
//!
//! Every operation is expressed as *coefficient matrix × striped payload*
//! and executed by the one overwriting, strip-mined kernel in
//! [`lds_gf::bulk`] (GFNI, AVX2 or SSSE3 on x86-64 by CPUID, table lookups
//! elsewhere; [`gf_kernel`] names the level):
//!
//! * **encode** — each node's *expanded generator* (the `α × B` map from
//!   message symbols to that node's coded symbols) has `d`-odd terms per
//!   row and is listed straight from the encoding matrix; the generators of
//!   a whole span of nodes are stacked into a single kernel call
//!   ([`traits::ErasureCode::encode_share_span_into`], the one encode
//!   primitive), which reads the value once, where it lies, and writes
//!   every coded byte once.
//! * **decode** — plans are memoized per **sorted survivor set**
//!   ([`plan::PlanCache`]). For MBR the whole pipeline (Φ_K⁻¹, the Δ_K
//!   correction and the T-block transposition) is flattened into a single
//!   `B × kα` matrix at plan-build time, so a steady-state decode is one
//!   fused pass over the collected symbols with no inversion and no
//!   intermediate buffers. For RS and MSR the per-set inverses are cached
//!   and the data path runs on flat [`linear::BufMatrix`] storage.
//! * **repair** — `Ψ_rep⁻¹` is memoized per sorted helper set; helper
//!   payloads and regenerated shares are single kernel calls.
//!
//! The byte-at-a-time reference implementation is kept in [`scalar`] as the
//! property-test oracle (bulk results are asserted byte-identical). The
//! `*_into` trait methods
//! ([`traits::ErasureCode::encode_share_into`],
//! [`traits::ErasureCode::decode_into`]) expose the buffer-reuse entry
//! points the storage layers build on.
//!
//! # Example
//!
//! ```rust
//! use lds_codes::{mbr::ProductMatrixMbr, CodeParams, ErasureCode, RegeneratingCode};
//!
//! // n = 12 storage nodes, any k = 4 recover the data, repairs contact d = 6 helpers.
//! let params = CodeParams::mbr(12, 4, 6).unwrap();
//! let code = ProductMatrixMbr::new(params).unwrap();
//!
//! let value = b"the quick brown fox jumps over the lazy dog".to_vec();
//! let shares = code.encode(&value).unwrap();
//!
//! // Decode from an arbitrary subset of k shares.
//! let recovered = code.decode(&shares[3..7]).unwrap();
//! assert_eq!(recovered, value);
//!
//! // Exact repair of node 2 from d = 6 helpers.
//! let helpers: Vec<_> = (4..10)
//!     .map(|h| code.helper_data(&shares[h], 2).unwrap())
//!     .collect();
//! let repaired = code.repair(2, &helpers).unwrap();
//! assert_eq!(repaired, shares[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod linear;
pub mod mbr;
pub mod msr;
pub mod params;
pub mod plan;
pub mod replication;
pub mod rs;
pub mod scalar;
pub mod share;
pub mod striping;
pub mod traits;

pub use error::CodeError;
/// The instruction-set level the codecs' GF(2^8) kernels run at on this CPU
/// (`"gfni"`, `"avx2"`, `"ssse3"` or `"portable"`): what a coding throughput
/// figure has to be quoted with.
pub use lds_gf::bulk::kernel as gf_kernel;
pub use params::{CodeKind, CodeParams};
pub use share::{HelperData, Share};
pub use traits::{ErasureCode, RegeneratingCode};
