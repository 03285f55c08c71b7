//! Byte-at-a-time reference implementation of the product-matrix MBR code.
//!
//! [`ScalarMbr`] preserves the pre-bulk-kernel execution strategy of the
//! seed implementation: every multiply-accumulate runs element-by-element
//! through the `Gf256` operator overloads
//! ([`lds_gf::bulk::scalar_mul_add_slice`]), every decode and repair
//! re-inverts its coefficient matrix from scratch, and intermediate symbol
//! buffers are individually allocated.
//!
//! It exists as the **oracle**: property tests assert that the plan-cached
//! bulk codec ([`crate::mbr::ProductMatrixMbr`]) produces byte-identical
//! shares, values and repairs.
//!
//! The construction itself (generator matrices, share layout) is shared with
//! the bulk codec, so the two are codeword-compatible by design.

use crate::error::CodeError;
use crate::params::{CodeKind, CodeParams};
use crate::share::{HelperData, Share};
use crate::striping::{frame, symbol, unframe, Framed};
use crate::traits::{dedup_by_index, dedup_helpers};
use lds_gf::bulk::scalar_mul_add_slice;
use lds_gf::{Gf256, Matrix};

/// A matrix of individually allocated symbol buffers, as the seed used.
#[derive(Clone)]
struct SymbolMatrix {
    rows: usize,
    cols: usize,
    symbol_len: usize,
    data: Vec<Vec<u8>>,
}

impl SymbolMatrix {
    fn zero(rows: usize, cols: usize, symbol_len: usize) -> Self {
        SymbolMatrix {
            rows,
            cols,
            symbol_len,
            data: vec![vec![0u8; symbol_len]; rows * cols],
        }
    }

    fn get(&self, r: usize, c: usize) -> &[u8] {
        &self.data[r * self.cols + c]
    }

    fn set(&mut self, r: usize, c: usize, buf: Vec<u8>) {
        self.data[r * self.cols + c] = buf;
    }

    /// `coeffs (m×r) · self (r×c)` with scalar per-element arithmetic.
    fn left_mul(&self, coeffs: &Matrix) -> Result<SymbolMatrix, CodeError> {
        if coeffs.cols() != self.rows {
            return Err(CodeError::MalformedShare(
                "scalar left_mul dimension mismatch".into(),
            ));
        }
        let mut out = SymbolMatrix::zero(coeffs.rows(), self.cols, self.symbol_len);
        for r in 0..coeffs.rows() {
            for k in 0..self.rows {
                let c = coeffs[(r, k)];
                for col in 0..self.cols {
                    let src = &self.data[k * self.cols + col];
                    let dst = &mut out.data[r * self.cols + col];
                    scalar_mul_add_slice(c, src, dst);
                }
            }
        }
        Ok(out)
    }

    fn add(&self, other: &SymbolMatrix) -> SymbolMatrix {
        let mut out = self.clone();
        for (dst, src) in out.data.iter_mut().zip(&other.data) {
            scalar_mul_add_slice(Gf256::ONE, src, dst);
        }
        out
    }

    fn transpose(&self) -> SymbolMatrix {
        let mut out = SymbolMatrix::zero(self.cols, self.rows, self.symbol_len);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c).to_vec());
            }
        }
        out
    }
}

/// The pre-refactor MBR codec: same construction as
/// [`crate::mbr::ProductMatrixMbr`], scalar execution, no plan cache.
#[derive(Debug, Clone)]
pub struct ScalarMbr {
    params: CodeParams,
    psi: Matrix,
}

impl ScalarMbr {
    /// Creates a scalar-path MBR code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `params` is not an MBR
    /// parameter set.
    pub fn new(params: CodeParams) -> Result<Self, CodeError> {
        if params.kind() != CodeKind::Mbr {
            return Err(CodeError::InvalidParameters(format!(
                "expected MBR parameters, got {params}"
            )));
        }
        let psi = Matrix::vandermonde(params.n(), params.d());
        Ok(ScalarMbr { params, psi })
    }

    /// Convenience constructor from `(n, k, d)`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_dimensions(n: usize, k: usize, d: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::mbr(n, k, d)?)
    }

    /// The code parameters.
    pub fn params(&self) -> &CodeParams {
        &self.params
    }

    fn message_index(&self, r: usize, c: usize) -> Option<usize> {
        let k = self.params.k();
        let d = self.params.d();
        let (lo, hi) = if r <= c { (r, c) } else { (c, r) };
        if lo < k && hi < k {
            Some(lo * (2 * k - lo + 1) / 2 + (hi - lo))
        } else if lo < k {
            Some(k * (k + 1) / 2 + lo * (d - k) + (hi - k))
        } else {
            None
        }
    }

    fn message_matrix(&self, framed: &Framed) -> SymbolMatrix {
        let d = self.params.d();
        let mut m = SymbolMatrix::zero(d, d, framed.symbol_len);
        for r in 0..d {
            for c in 0..d {
                if let Some(idx) = self.message_index(r, c) {
                    m.set(r, c, symbol(framed, idx).to_vec());
                }
            }
        }
        m
    }

    /// Encodes all `n` shares through the scalar path.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if the value cannot be framed.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<Share>, CodeError> {
        let framed = frame(data, self.params.file_size());
        let m = self.message_matrix(&framed);
        let encoded = m.left_mul(&self.psi)?;
        Ok((0..self.params.n())
            .map(|i| {
                let mut buf = Vec::with_capacity(self.params.alpha() * framed.symbol_len);
                for a in 0..self.params.alpha() {
                    buf.extend_from_slice(encoded.get(i, a));
                }
                Share::new(i, buf)
            })
            .collect())
    }

    /// Decodes from `k` shares, re-inverting Φ_K on every call.
    ///
    /// # Errors
    ///
    /// As for [`crate::mbr::ProductMatrixMbr`]'s decode.
    pub fn decode(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError> {
        let k = self.params.k();
        let d = self.params.d();
        let alpha = self.params.alpha();
        let usable = dedup_by_index(shares);
        if usable.len() < k {
            return Err(CodeError::NotEnoughShares {
                needed: k,
                got: usable.len(),
            });
        }
        let chosen = &usable[..k];
        for s in chosen {
            if s.index >= self.params.n() {
                return Err(CodeError::IndexOutOfRange {
                    index: s.index,
                    n: self.params.n(),
                });
            }
            if s.data.is_empty() || !s.data.len().is_multiple_of(alpha) {
                return Err(CodeError::MalformedShare(
                    "share length not alpha-aligned".into(),
                ));
            }
        }
        let symbol_len = chosen[0].data.len() / alpha;
        if chosen.iter().any(|s| s.data.len() != alpha * symbol_len) {
            return Err(CodeError::MalformedShare(
                "MBR shares must have equal length".into(),
            ));
        }

        let mut y = SymbolMatrix::zero(k, d, symbol_len);
        for (r, s) in chosen.iter().enumerate() {
            for a in 0..alpha {
                y.set(r, a, s.symbol(a, alpha).to_vec());
            }
        }

        let indices: Vec<usize> = chosen.iter().map(|s| s.index).collect();
        let rows = self.psi.select_rows(&indices);
        let phi_k = rows.select_cols(&(0..k).collect::<Vec<_>>());
        let phi_inv = phi_k.inverse()?; // fresh inversion on every decode
        let mut y1 = SymbolMatrix::zero(k, k, symbol_len);
        for r in 0..k {
            for c in 0..k {
                y1.set(r, c, y.get(r, c).to_vec());
            }
        }

        let (s_block, t_block) = if d > k {
            let delta_k = rows.select_cols(&(k..d).collect::<Vec<_>>());
            let mut y2 = SymbolMatrix::zero(k, d - k, symbol_len);
            for r in 0..k {
                for c in k..d {
                    y2.set(r, c - k, y.get(r, c).to_vec());
                }
            }
            let t = y2.left_mul(&phi_inv)?;
            let delta_tt = t.transpose().left_mul(&delta_k)?;
            let s = y1.add(&delta_tt).left_mul(&phi_inv)?;
            (s, Some(t))
        } else {
            (y1.left_mul(&phi_inv)?, None)
        };

        let mut padded = Vec::with_capacity(self.params.file_size() * symbol_len);
        for r in 0..k {
            for c in r..k {
                padded.extend_from_slice(s_block.get(r, c));
            }
        }
        if let Some(t) = &t_block {
            for r in 0..k {
                for c in 0..(d - k) {
                    padded.extend_from_slice(t.get(r, c));
                }
            }
        }
        unframe(&padded)
    }

    /// Computes a repair helper payload through the scalar path.
    ///
    /// # Errors
    ///
    /// As for [`crate::mbr::ProductMatrixMbr`]'s helper computation.
    pub fn helper_data(
        &self,
        helper: &Share,
        failed_index: usize,
    ) -> Result<HelperData, CodeError> {
        let alpha = self.params.alpha();
        if helper.data.is_empty() || !helper.data.len().is_multiple_of(alpha) {
            return Err(CodeError::MalformedShare(
                "helper share length not alpha-aligned".into(),
            ));
        }
        let symbol_len = helper.data.len() / alpha;
        let coeffs = self.psi.row(failed_index);
        let mut out = vec![0u8; symbol_len];
        for (a, &c) in coeffs.iter().enumerate() {
            scalar_mul_add_slice(c, helper.symbol(a, alpha), &mut out);
        }
        Ok(HelperData::new(helper.index, failed_index, out))
    }

    /// Repairs a node from `d` helper payloads, re-inverting Ψ_rep on every
    /// call.
    ///
    /// # Errors
    ///
    /// As for [`crate::mbr::ProductMatrixMbr`]'s repair.
    pub fn repair(&self, failed_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        let d = self.params.d();
        let usable = dedup_helpers(helpers);
        if usable.len() < d {
            return Err(CodeError::NotEnoughShares {
                needed: d,
                got: usable.len(),
            });
        }
        let chosen = &usable[..d];
        let symbol_len = chosen[0].data.len();
        if symbol_len == 0 || chosen.iter().any(|h| h.data.len() != symbol_len) {
            return Err(CodeError::MalformedShare(
                "helper payloads must have equal length".into(),
            ));
        }
        let indices: Vec<usize> = chosen.iter().map(|h| h.helper_index).collect();
        let inv = self.psi.select_rows(&indices).inverse()?; // fresh inversion
        let mut buf = Vec::with_capacity(d * symbol_len);
        for a in 0..d {
            let mut sym = vec![0u8; symbol_len];
            for (j, h) in chosen.iter().enumerate() {
                scalar_mul_add_slice(inv[(a, j)], &h.data, &mut sym);
            }
            buf.extend_from_slice(&sym);
        }
        Ok(Share::new(failed_index, buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbr::ProductMatrixMbr;
    use crate::{ErasureCode, RegeneratingCode};

    #[test]
    fn scalar_and_bulk_agree_on_a_fixed_case() {
        let scalar = ScalarMbr::with_dimensions(10, 3, 5).unwrap();
        let bulk = ProductMatrixMbr::with_dimensions(10, 3, 5).unwrap();
        let value: Vec<u8> = (0..700u32).map(|i| (i * 31 % 256) as u8).collect();

        let s_shares = scalar.encode(&value).unwrap();
        let b_shares = bulk.encode(&value).unwrap();
        assert_eq!(s_shares, b_shares, "codeword compatibility");

        assert_eq!(scalar.decode(&s_shares[2..5]).unwrap(), value);
        assert_eq!(bulk.decode(&s_shares[2..5]).unwrap(), value);

        let failed = 1;
        let s_helpers: Vec<HelperData> = (3..8)
            .map(|h| scalar.helper_data(&s_shares[h], failed).unwrap())
            .collect();
        let b_helpers: Vec<HelperData> = (3..8)
            .map(|h| bulk.helper_data(&b_shares[h], failed).unwrap())
            .collect();
        assert_eq!(s_helpers, b_helpers);
        assert_eq!(
            scalar.repair(failed, &s_helpers).unwrap(),
            bulk.repair(failed, &b_helpers).unwrap()
        );
    }

    #[test]
    fn wrong_kind_rejected() {
        let p = CodeParams::reed_solomon(8, 3).unwrap();
        assert!(ScalarMbr::new(p).is_err());
    }
}
