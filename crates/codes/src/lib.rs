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
//!
//! All codes operate on arbitrary byte strings via striping
//! ([`striping`]): the value is prefixed with its length, padded to a
//! multiple of the code's file size `B`, and each code symbol becomes a
//! buffer of `symbol_len` bytes.
//!
//! # Execution model: three constructions, one engine
//!
//! In the product-matrix framework of ref. \[25\] MBR and MSR are the *same*
//! linear code `C = Ψ · M` and differ only in `Ψ` and in how the message
//! fills `M`; Reed–Solomon is the `α = 1` case. Each module therefore holds
//! only a [`linear::Construction`] — what is mathematically the code's own:
//!
//! | | `Ψ` / generator | message layout | decode matrix | helper row | repair matrix |
//! |---|---|---|---|---|---|
//! | [`mbr::Mbr`] | `n × d` Vandermonde | `M = [[S, T], [Tᵗ, 0]]`, `d × d` symmetric | `Φ_K⁻¹`, `Δ_K` and the `T` transposition flattened to `B × kα` (`kα > B`) | `ψ_f` | `Ψ_rep⁻¹`, `d × d` |
//! | [`msr::Msr`] | `[Φ ΛΦ]`, `Φ` `n × α` Vandermonde | `M = [S1; S2]`, both `α × α` symmetric | inverse of the survivors' stacked generator (`B = kα`) | `φ_f` | `[I λ_f I] · Ψ_rep⁻¹`, `α × d` |
//! | [`rs::Rs`] | `n × k` Vandermonde `G` | the `k` message symbols | `G_K⁻¹` (the same default) | `[1]` | `g_f · G_K⁻¹`, `1 × k` |
//!
//! and [`linear::LinearCode`] implements [`ErasureCode`] and
//! [`RegeneratingCode`] over any construction, once. Every operation is a
//! *coefficient matrix × payload symbols* product executed by the one
//! overwriting, strip-mined kernel in [`lds_gf::bulk`] (GFNI, AVX2 or SSSE3
//! on x86-64 by CPUID, table lookups elsewhere; [`gf_kernel`] names the
//! level):
//!
//! * **encode** — the generator rows of a whole span of nodes (`d` terms or
//!   fewer per row, listed straight from the construction) are stacked into
//!   a single kernel call ([`traits::ErasureCode::encode_share_span_into`],
//!   the one encode primitive), which reads the value once, where it lies,
//!   and writes every coded byte once.
//! * **decode, helper, repair** — the engine checks and sorts the inputs,
//!   looks up the plan — the construction's matrix compiled to
//!   [`lds_gf::bulk::RowTerms`], memoized per **sorted index set**
//!   ([`plan::PlanCache`]; helper rows are compiled when the code is built)
//!   — and makes one kernel call over the symbols borrowed where they lie in
//!   the shares, straight into the buffer the caller keeps. A warm operation
//!   inverts nothing, builds no matrix and copies no symbol.
//!
//! The byte-at-a-time reference implementation is kept in [`scalar`] as the
//! property-test oracle (bulk results are asserted byte-identical); the
//! plan algebra itself (`decode_matrix × stacked generator = I`,
//! `repair_matrix × helper rows = generator of the failed node`) is a
//! property test over all three constructions.
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
