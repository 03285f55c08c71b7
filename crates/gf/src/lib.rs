//! # lds-gf
//!
//! Finite-field arithmetic over GF(2^8) and the dense linear algebra needed by
//! the erasure and regenerating codes in [`lds-codes`].
//!
//! The field is GF(2^8) built from the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the conventional choice for
//! Reed–Solomon implementations. Multiplication and inversion use log/exp
//! tables generated at first use.
//!
//! The [`matrix::Matrix`] type provides exactly the operations the
//! product-matrix regenerating-code constructions need: multiplication,
//! transpose, Gaussian elimination / inversion, rank, sub-matrix selection,
//! and Vandermonde / Cauchy constructors.
//!
//! The [`bulk`] module holds the slice kernels every hot path runs on: a
//! compile-time 256 × 256 multiplication table, `u128`-word XOR for the
//! `c = 1` path, and one overwriting, strip-mined matrix × payload product
//! ([`bulk::apply_rows_into`]) whose inner loop exists once per
//! instruction-set level (GFNI, AVX2, SSSE3, portable; chosen from CPUID,
//! named by [`bulk::kernel`]). The byte-at-a-time scalar path is kept
//! alongside as the test oracle.
//!
//! # Example
//!
//! ```rust
//! use lds_gf::{Gf256, matrix::Matrix};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xca);
//! assert_eq!((a * b) / b, a);
//!
//! let v = Matrix::vandermonde(4, 3);
//! assert_eq!(v.rank(), 3);
//! ```
//!
//! [`lds-codes`]: ../lds_codes/index.html

// Unsafe code is banned everywhere except the explicitly allowed kernels in
// `bulk::arch`, which need `core::arch` intrinsics, raw-pointer loads and
// stores, and `Vec::set_len` over bytes just written; they are gated behind
// runtime feature detection and length checks.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod field;
pub mod matrix;

pub use field::Gf256;
pub use matrix::Matrix;
