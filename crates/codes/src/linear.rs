//! Linear combinations of symbol buffers.
//!
//! Codes in this crate express every operation (encode, decode, helper
//! computation, repair) as multiplication of a small coefficient matrix over
//! GF(2^8) with a vector or matrix of *symbol buffers* (byte strings of equal
//! length). [`BufMatrix`] is that matrix-of-buffers; since the bulk-kernel
//! refactor it stores all buffers in one contiguous row-major allocation, so
//! a whole row of buffers can be fed to the fused kernels in
//! [`lds_gf::bulk`] as a single slice, and [`BufMatrix::left_mul_into`] /
//! [`combine_into`] write into caller-provided storage without temporary
//! allocations.

use crate::error::CodeError;
use lds_gf::{bulk, Gf256, Matrix};

/// Checks that `inputs` are `coeffs_len` buffers of `symbol_len` bytes each.
fn check_inputs(coeffs_len: usize, inputs: &[&[u8]], symbol_len: usize) -> Result<(), CodeError> {
    if coeffs_len != inputs.len() {
        return Err(CodeError::MalformedShare(format!(
            "coefficient count {coeffs_len} does not match input count {}",
            inputs.len()
        )));
    }
    if let Some(buf) = inputs.iter().find(|buf| buf.len() != symbol_len) {
        return Err(CodeError::MalformedShare(format!(
            "input buffer of {} bytes, expected {symbol_len}",
            buf.len()
        )));
    }
    Ok(())
}

/// `out ^= Σ_i coeffs[i] · inputs[i]`, skipping zero coefficients and running
/// the rest through the fused multi-source kernel. The kernels only ever
/// accumulate, so every public entry point of this module zeroes its output
/// exactly once — when it allocates or sizes it — and then calls this.
/// `terms` is the reusable term list (one allocation per operation, not per
/// output symbol). Counts and lengths are the caller's to check.
fn accumulate<'a>(
    coeffs: &[Gf256],
    inputs: impl Iterator<Item = &'a [u8]>,
    out: &mut [u8],
    terms: &mut Vec<(Gf256, &'a [u8])>,
) {
    terms.clear();
    terms.extend(
        coeffs
            .iter()
            .copied()
            .zip(inputs)
            .filter(|(c, _)| !c.is_zero()),
    );
    bulk::mul_add_slices(terms, out);
}

/// Sizes `out` to `coeffs.rows()` symbols of `symbol_len` bytes (prior
/// contents discarded, capacity reused, zeroed once) and accumulates
/// `Σ_m coeffs[r][m] · inputs[m]` into output symbol `r`. The caller has
/// checked that `inputs` yields `coeffs.cols()` buffers of `symbol_len > 0`
/// bytes.
fn apply_rows<'a>(
    coeffs: &Matrix,
    inputs: impl Iterator<Item = &'a [u8]> + Clone,
    symbol_len: usize,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.resize(coeffs.rows() * symbol_len, 0);
    let mut terms = Vec::with_capacity(coeffs.cols());
    for (r, sym) in out.chunks_exact_mut(symbol_len).enumerate() {
        accumulate(coeffs.row(r), inputs.clone(), sym, &mut terms);
    }
}

/// Computes `Σ_i coeffs[i] · inputs[i]` over byte buffers of length
/// `symbol_len`.
///
/// # Errors
///
/// Returns [`CodeError::MalformedShare`] if input lengths disagree with
/// `symbol_len` or the number of coefficients differs from the number of
/// inputs.
pub fn combine(
    coeffs: &[Gf256],
    inputs: &[&[u8]],
    symbol_len: usize,
) -> Result<Vec<u8>, CodeError> {
    check_inputs(coeffs.len(), inputs, symbol_len)?;
    let mut out = vec![0u8; symbol_len];
    let mut terms = Vec::with_capacity(coeffs.len());
    accumulate(coeffs, inputs.iter().copied(), &mut out, &mut terms);
    Ok(out)
}

/// Computes `Σ_i coeffs[i] · inputs[i]` into a caller-provided buffer, which
/// is overwritten.
///
/// # Errors
///
/// Returns [`CodeError::MalformedShare`] if input lengths disagree with
/// `out.len()` or the number of coefficients differs from the number of
/// inputs.
pub fn combine_into(coeffs: &[Gf256], inputs: &[&[u8]], out: &mut [u8]) -> Result<(), CodeError> {
    check_inputs(coeffs.len(), inputs, out.len())?;
    out.fill(0);
    let mut terms = Vec::with_capacity(coeffs.len());
    accumulate(coeffs, inputs.iter().copied(), out, &mut terms);
    Ok(())
}

/// Applies a coefficient matrix to `coeffs.cols()` separate input symbols of
/// `symbol_len` bytes: `out` is resized to `coeffs.rows()` symbols (prior
/// contents discarded, capacity reused), where output symbol `r` is
/// `Σ_m coeffs[r][m] · inputs[m]`.
///
/// This is the decode / repair shape of the plan-cached codecs: the inputs
/// are the symbols of the collected shares or helper payloads, borrowed where
/// they lie, and `out` is the buffer the caller keeps.
///
/// # Errors
///
/// Returns [`CodeError::MalformedShare`] if `symbol_len` is zero, the number
/// of inputs differs from `coeffs.cols()`, or an input is not `symbol_len`
/// bytes long.
pub fn apply_symbols_into(
    coeffs: &Matrix,
    inputs: &[&[u8]],
    symbol_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodeError> {
    if symbol_len == 0 {
        return Err(CodeError::MalformedShare("zero-length symbols".into()));
    }
    check_inputs(coeffs.cols(), inputs, symbol_len)?;
    apply_rows(coeffs, inputs.iter().copied(), symbol_len, out);
    Ok(())
}

/// A dense matrix whose entries are equal-length byte buffers (symbols).
///
/// Conceptually each buffer is a column vector of `symbol_len` independent
/// GF(2^8) elements; all arithmetic is applied elementwise across buffers.
/// Storage is one flat row-major allocation: buffer `(r, c)` occupies bytes
/// `[(r·cols + c)·symbol_len, (r·cols + c + 1)·symbol_len)`, and the buffers
/// of row `r` are contiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufMatrix {
    rows: usize,
    cols: usize,
    symbol_len: usize,
    data: Vec<u8>,
}

impl BufMatrix {
    /// Creates a matrix of zero-filled buffers.
    pub fn zero(rows: usize, cols: usize, symbol_len: usize) -> Self {
        BufMatrix {
            rows,
            cols,
            symbol_len,
            data: vec![0u8; rows * cols * symbol_len],
        }
    }

    /// Creates a matrix from row-major buffers.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] if the number of buffers or any
    /// buffer length is inconsistent.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<Vec<u8>>) -> Result<Self, CodeError> {
        if data.len() != rows * cols {
            return Err(CodeError::MalformedShare(format!(
                "expected {} buffers, got {}",
                rows * cols,
                data.len()
            )));
        }
        let symbol_len = data.first().map(Vec::len).unwrap_or(0);
        if data.iter().any(|b| b.len() != symbol_len) {
            return Err(CodeError::MalformedShare(
                "buffers have differing lengths".into(),
            ));
        }
        let mut flat = Vec::with_capacity(rows * cols * symbol_len);
        for buf in &data {
            flat.extend_from_slice(buf);
        }
        Ok(BufMatrix {
            rows,
            cols,
            symbol_len,
            data: flat,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Length of each buffer.
    pub fn symbol_len(&self) -> usize {
        self.symbol_len
    }

    #[inline]
    fn offset(&self, r: usize, c: usize) -> usize {
        assert!(
            r < self.rows && c < self.cols,
            "BufMatrix index out of bounds"
        );
        (r * self.cols + c) * self.symbol_len
    }

    /// Borrows the buffer at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> &[u8] {
        let o = self.offset(r, c);
        &self.data[o..o + self.symbol_len]
    }

    /// Mutably borrows the buffer at `(r, c)`.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut [u8] {
        let o = self.offset(r, c);
        &mut self.data[o..o + self.symbol_len]
    }

    /// Overwrites the buffer at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length differs from the matrix symbol length.
    pub fn set(&mut self, r: usize, c: usize, buf: &[u8]) {
        assert_eq!(buf.len(), self.symbol_len, "buffer length mismatch");
        self.get_mut(r, c).copy_from_slice(buf);
    }

    /// Borrows all of row `r`'s buffers as one contiguous slice of
    /// `cols · symbol_len` bytes.
    pub fn row_bytes(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "BufMatrix row out of bounds");
        let w = self.cols * self.symbol_len;
        &self.data[r * w..(r + 1) * w]
    }

    /// Mutable borrow of row `r`'s contiguous bytes.
    pub fn row_bytes_mut(&mut self, r: usize) -> &mut [u8] {
        assert!(r < self.rows, "BufMatrix row out of bounds");
        let w = self.cols * self.symbol_len;
        &mut self.data[r * w..(r + 1) * w]
    }

    /// Consumes the matrix and returns its flat row-major bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> BufMatrix {
        let mut out = BufMatrix::zero(self.cols, self.rows, self.symbol_len);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise XOR (addition in GF(2^8)).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] on dimension mismatch.
    pub fn add(&self, other: &BufMatrix) -> Result<BufMatrix, CodeError> {
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// In-place elementwise XOR: `self ^= other`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] on dimension mismatch.
    pub fn add_assign(&mut self, other: &BufMatrix) -> Result<(), CodeError> {
        if self.rows != other.rows || self.cols != other.cols || self.symbol_len != other.symbol_len
        {
            return Err(CodeError::MalformedShare(
                "BufMatrix addition dimension mismatch".into(),
            ));
        }
        bulk::xor_slice(&other.data, &mut self.data);
        Ok(())
    }

    /// Left-multiplication by a coefficient matrix: `coeffs (m×r) · self (r×c)`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] if `coeffs.cols() != self.rows()`.
    pub fn left_mul(&self, coeffs: &Matrix) -> Result<BufMatrix, CodeError> {
        let mut out = BufMatrix::zero(coeffs.rows(), self.cols, self.symbol_len);
        self.left_mul_into(coeffs, &mut out)?;
        Ok(out)
    }

    /// Left-multiplication into a caller-provided matrix (overwritten).
    ///
    /// Because each input row's buffers are contiguous, row `r` of the output
    /// is computed as a single fused multi-source accumulation over whole
    /// input rows — one pass over `cols · symbol_len` bytes per group of four
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] if dimensions disagree.
    pub fn left_mul_into(&self, coeffs: &Matrix, out: &mut BufMatrix) -> Result<(), CodeError> {
        if coeffs.cols() != self.rows {
            return Err(CodeError::MalformedShare(format!(
                "coefficient matrix has {} columns but BufMatrix has {} rows",
                coeffs.cols(),
                self.rows
            )));
        }
        if out.rows != coeffs.rows() || out.cols != self.cols || out.symbol_len != self.symbol_len {
            return Err(CodeError::MalformedShare(
                "left_mul_into output dimension mismatch".into(),
            ));
        }
        out.data.fill(0);
        let mut terms: Vec<(Gf256, &[u8])> = Vec::with_capacity(self.rows);
        for r in 0..coeffs.rows() {
            terms.clear();
            for k in 0..self.rows {
                let c = coeffs[(r, k)];
                if !c.is_zero() {
                    terms.push((c, self.row_bytes(k)));
                }
            }
            let w = self.cols * self.symbol_len;
            bulk::mul_add_slices(&terms, &mut out.data[r * w..(r + 1) * w]);
        }
        Ok(())
    }

    /// Right-multiplication by a coefficient matrix: `self (r×c) · coeffs (c×m)`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] if `self.cols() != coeffs.rows()`.
    pub fn right_mul(&self, coeffs: &Matrix) -> Result<BufMatrix, CodeError> {
        if coeffs.rows() != self.cols {
            return Err(CodeError::MalformedShare(format!(
                "coefficient matrix has {} rows but BufMatrix has {} columns",
                coeffs.rows(),
                self.cols
            )));
        }
        let mut out = BufMatrix::zero(self.rows, coeffs.cols(), self.symbol_len);
        let mut terms: Vec<(Gf256, &[u8])> = Vec::with_capacity(self.cols);
        for r in 0..self.rows {
            for c in 0..coeffs.cols() {
                terms.clear();
                for k in 0..self.cols {
                    let coeff = coeffs[(k, c)];
                    if !coeff.is_zero() {
                        terms.push((coeff, self.get(r, k)));
                    }
                }
                let o = (r * coeffs.cols() + c) * self.symbol_len;
                bulk::mul_add_slices(&terms, &mut out.data[o..o + self.symbol_len]);
            }
        }
        Ok(out)
    }
}

/// Applies a coefficient matrix to a flat buffer of `coeffs.cols()` symbols:
/// `dst` is resized to `coeffs.rows()` symbols (prior contents discarded,
/// capacity reused), where output symbol `r` is
/// `Σ_m coeffs[r][m] · src_symbol(m)`.
///
/// This is the steady-state encode path of the plan-cached codecs: the source
/// is a framed value and no intermediate buffers are created.
///
/// # Errors
///
/// Returns [`CodeError::MalformedShare`] if `src` is not
/// `coeffs.cols() · symbol_len` bytes long.
pub fn apply_into(
    coeffs: &Matrix,
    src: &[u8],
    symbol_len: usize,
    dst: &mut Vec<u8>,
) -> Result<(), CodeError> {
    if src.len() != coeffs.cols() * symbol_len {
        return Err(CodeError::MalformedShare(format!(
            "apply_into dimension mismatch: {}x{} coefficients, {} source bytes, \
             symbol_len {symbol_len}",
            coeffs.rows(),
            coeffs.cols(),
            src.len()
        )));
    }
    // Tiny symbols (small values framed into B ≈ symbol-per-byte pieces):
    // one gathered kernel call for the whole product, so per-symbol dispatch
    // overhead is paid once per matrix application instead of once per
    // output symbol. This is the hot path of `encode_l2_elements_into` on
    // symbol_len ≈ 1 values.
    if symbol_len <= bulk::SMALL_SYMBOL_MAX {
        dst.clear();
        dst.resize(coeffs.rows() * symbol_len, 0);
        bulk::apply_small(coeffs, src, symbol_len, dst);
        return Ok(());
    }
    apply_rows(coeffs, src.chunks_exact(symbol_len), symbol_len, dst);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, symbol_len: usize, seed: u8) -> BufMatrix {
        let data: Vec<Vec<u8>> = (0..rows * cols)
            .map(|i| {
                (0..symbol_len)
                    .map(|j| (i as u8).wrapping_mul(7) ^ (j as u8) ^ seed)
                    .collect()
            })
            .collect();
        BufMatrix::from_rows(rows, cols, data).unwrap()
    }

    #[test]
    fn combine_matches_manual() {
        let a = vec![1u8, 2, 3];
        let b = vec![4u8, 5, 6];
        let coeffs = vec![Gf256::new(3), Gf256::new(7)];
        let out = combine(&coeffs, &[&a, &b], 3).unwrap();
        for i in 0..3 {
            let expected = Gf256::new(3) * Gf256::new(a[i]) + Gf256::new(7) * Gf256::new(b[i]);
            assert_eq!(out[i], expected.value());
        }
    }

    #[test]
    fn combine_validates_inputs() {
        let a = vec![1u8, 2, 3];
        assert!(combine(&[Gf256::ONE], &[&a, &a], 3).is_err());
        assert!(combine(&[Gf256::ONE, Gf256::ONE], &[&a, &a[..2]], 3).is_err());
    }

    #[test]
    fn combine_into_overwrites_destination() {
        let a = vec![9u8; 4];
        let mut out = vec![0xFF; 4];
        combine_into(&[Gf256::ONE], &[&a], &mut out).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn left_mul_by_identity_is_noop() {
        let m = sample(4, 3, 16, 0x55);
        let id = Matrix::identity(4);
        assert_eq!(m.left_mul(&id).unwrap(), m);
    }

    #[test]
    fn right_mul_by_identity_is_noop() {
        let m = sample(4, 3, 16, 0x21);
        let id = Matrix::identity(3);
        assert_eq!(m.right_mul(&id).unwrap(), m);
    }

    #[test]
    fn left_mul_then_inverse_roundtrips() {
        let m = sample(4, 2, 8, 0x10);
        let coeffs = Matrix::vandermonde(4, 4);
        let encoded = m.left_mul(&coeffs).unwrap();
        let decoded = encoded.left_mul(&coeffs.inverse().unwrap()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn left_mul_associates_with_coefficient_product() {
        let m = sample(3, 2, 8, 0x01); // 3 rows of buffers
        let b = Matrix::vandermonde(4, 3); // 4x3
        let a = Matrix::vandermonde(2, 4); // 2x4
        let left = m.left_mul(&b).unwrap().left_mul(&a).unwrap();
        let right = m.left_mul(&a.checked_mul(&b).unwrap()).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn transpose_involution() {
        let m = sample(3, 5, 4, 0x77);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_is_xor() {
        let a = sample(2, 2, 4, 0x0f);
        let b = sample(2, 2, 4, 0xf0);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.add(&b).unwrap(), a, "adding twice cancels in GF(2^8)");
    }

    #[test]
    fn row_bytes_is_contiguous_row() {
        let m = sample(3, 4, 5, 0x31);
        let row = m.row_bytes(1);
        for c in 0..4 {
            assert_eq!(&row[c * 5..(c + 1) * 5], m.get(1, c));
        }
    }

    #[test]
    fn apply_into_matches_left_mul() {
        let symbol_len = 9;
        let cols = 5;
        let src: Vec<u8> = (0..cols * symbol_len)
            .map(|i| (i * 37 % 251) as u8)
            .collect();
        let coeffs = Matrix::vandermonde(3, cols);
        let mut dst = vec![0u8; 3 * symbol_len];
        apply_into(&coeffs, &src, symbol_len, &mut dst).unwrap();

        // Reference: the same product through BufMatrix.
        let rows: Vec<Vec<u8>> = src.chunks_exact(symbol_len).map(|s| s.to_vec()).collect();
        let m = BufMatrix::from_rows(cols, 1, rows).unwrap();
        let product = m.left_mul(&coeffs).unwrap();
        for r in 0..3 {
            assert_eq!(
                &dst[r * symbol_len..(r + 1) * symbol_len],
                product.get(r, 0)
            );
        }

        assert!(apply_into(&coeffs, &src[1..], symbol_len, &mut dst).is_err());
    }

    /// Deterministic filler for the tests below.
    fn bytes(len: usize, seed: usize) -> Vec<u8> {
        (0..len).map(|i| ((i + seed) * 37 % 251) as u8).collect()
    }

    /// Reference product through the byte-at-a-time oracle.
    fn reference(coeffs: &Matrix, inputs: &[&[u8]], symbol_len: usize) -> Vec<u8> {
        let mut out = vec![0u8; coeffs.rows() * symbol_len];
        for (r, sym) in out.chunks_exact_mut(symbol_len).enumerate() {
            for (&c, input) in coeffs.row(r).iter().zip(inputs) {
                bulk::scalar_mul_add_slice(c, input, sym);
            }
        }
        out
    }

    /// The kernels only accumulate, so each entry point zeroes its output
    /// exactly once. This is what notices a zeroing pass removed too many:
    /// whatever a caller-provided buffer held before — and whether it was
    /// shorter, longer or the right size — the result is the same, for
    /// zero, one and many non-zero coefficients and for lengths on both
    /// sides of the 16- and 32-byte vector widths (and of the tiny-symbol
    /// path's threshold).
    #[test]
    fn results_do_not_depend_on_prior_output_contents() {
        let cols = 6;
        let dense = Matrix::vandermonde(4, cols);
        let single = Matrix::from_fn(4, cols, |r, c| {
            if c == (r + 1) % cols {
                Gf256::new(r as u8 + 2)
            } else {
                Gf256::ZERO
            }
        });
        let zero = Matrix::zero(4, cols);
        for symbol_len in [1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
            let src = bytes(cols * symbol_len, symbol_len);
            let inputs: Vec<&[u8]> = src.chunks_exact(symbol_len).collect();
            for (name, coeffs) in [("dense", &dense), ("single", &single), ("zero", &zero)] {
                let expected = reference(coeffs, &inputs, symbol_len);
                let ctx = format!("{name} coefficients, symbol_len {symbol_len}");
                for stale_len in [0, 3, expected.len(), expected.len() + 40] {
                    let mut out = vec![0xAA; stale_len];
                    apply_into(coeffs, &src, symbol_len, &mut out).unwrap();
                    assert_eq!(out, expected, "apply_into, {ctx}, stale {stale_len}");
                    let mut out = vec![0xAA; stale_len];
                    apply_symbols_into(coeffs, &inputs, symbol_len, &mut out).unwrap();
                    assert_eq!(
                        out, expected,
                        "apply_symbols_into, {ctx}, stale {stale_len}"
                    );
                }
                let row = coeffs.row(1);
                let expected_row = &expected[symbol_len..2 * symbol_len];
                let mut out = vec![0xAA; symbol_len];
                combine_into(row, &inputs, &mut out).unwrap();
                assert_eq!(out, expected_row, "combine_into, {ctx}");
                assert_eq!(
                    combine(row, &inputs, symbol_len).unwrap(),
                    expected_row,
                    "combine, {ctx}"
                );
            }
        }
    }

    #[test]
    fn apply_symbols_into_validates_inputs() {
        let coeffs = Matrix::vandermonde(2, 3);
        let a = [1u8; 4];
        let mut out = vec![7u8; 5];
        assert!(apply_symbols_into(&coeffs, &[&a, &a], 4, &mut out).is_err());
        assert!(apply_symbols_into(&coeffs, &[&a, &a, &a[..3]], 4, &mut out).is_err());
        assert!(apply_symbols_into(&coeffs, &[&[], &[], &[]], 0, &mut out).is_err());
        assert_eq!(out, [7u8; 5], "rejected before the output is touched");
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let m = sample(3, 2, 4, 0);
        let bad = Matrix::identity(2);
        assert!(m.left_mul(&bad).is_err());
        let bad_right = Matrix::identity(3);
        assert!(m.right_mul(&bad_right).is_err());
        let other = sample(3, 3, 4, 0);
        assert!(m.add(&other).is_err());
        assert!(BufMatrix::from_rows(2, 2, vec![vec![0; 2]; 3]).is_err());
        assert!(BufMatrix::from_rows(1, 2, vec![vec![0; 2], vec![0; 3]]).is_err());
    }
}
