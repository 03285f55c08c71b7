//! Linear combinations of symbol buffers.
//!
//! Codes in this crate express every operation (encode, decode, helper
//! computation, repair) as multiplication of a small coefficient matrix over
//! GF(2^8) with a vector or matrix of *symbol buffers* (byte strings of equal
//! length). All of them end in the one overwriting matrix × payload kernel
//! of [`lds_gf::bulk`] ([`bulk::apply_rows_into`] and its `Vec` form): the
//! sources are borrowed where they lie, every output byte is written once,
//! and an output buffer is sized over the bytes written — nothing here zeroes
//! a buffer or accumulates into one.
//!
//! * `encode_span` — the encode all three coded codecs share (their
//!   [`encode_share_span_into`](crate::traits::ErasureCode::encode_share_span_into)):
//!   the generator rows of a span of nodes stacked into a single kernel
//!   call, so one pass over the value yields every element of the span, with
//!   the message symbols taken from the value itself
//!   (`striping::BorrowedFrame`) whenever it is long enough for that to pay.
//! * [`combine`], [`apply_symbols_into`] — helper computation, and the decode
//!   / repair shape over symbols borrowed from shares and helper payloads.
//! * [`BufMatrix`] — a matrix of buffers in one contiguous row-major
//!   allocation, for the multi-step MSR decode.

use crate::error::CodeError;
use crate::params::CodeParams;
use crate::striping::{frame, BorrowedFrame};
use lds_gf::bulk::{self, RowTerms};
use lds_gf::{Gf256, Matrix};

/// Checks that `inputs` are `coeffs_len ≥ 1` buffers of `symbol_len` bytes
/// each.
fn check_inputs(coeffs_len: usize, inputs: &[&[u8]], symbol_len: usize) -> Result<(), CodeError> {
    if coeffs_len != inputs.len() || inputs.is_empty() {
        return Err(CodeError::MalformedShare(format!(
            "coefficient count {coeffs_len} does not match input count {}, or both are zero",
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

/// The one-row product `Σ_i coeffs[i] · inputs[i]`.
fn single_row(coeffs: &[Gf256]) -> RowTerms {
    let mut rows = RowTerms::with_capacity(coeffs.len(), 1, coeffs.len());
    rows.push_row(coeffs.iter().copied().enumerate());
    rows
}

/// Computes `Σ_i coeffs[i] · inputs[i]` over byte buffers of length
/// `symbol_len`.
///
/// # Errors
///
/// Returns [`CodeError::MalformedShare`] if input lengths disagree with
/// `symbol_len`, the number of coefficients differs from the number of
/// inputs, or there are none.
pub fn combine(
    coeffs: &[Gf256],
    inputs: &[&[u8]],
    symbol_len: usize,
) -> Result<Vec<u8>, CodeError> {
    check_inputs(coeffs.len(), inputs, symbol_len)?;
    let mut out = Vec::new();
    bulk::apply_rows_into_vecs(&single_row(coeffs), inputs, std::slice::from_mut(&mut out));
    Ok(out)
}

/// Computes `Σ_i coeffs[i] · inputs[i]` into a caller-provided buffer, which
/// is overwritten.
///
/// # Errors
///
/// As for [`combine`], with `out.len()` as the symbol length.
pub fn combine_into(coeffs: &[Gf256], inputs: &[&[u8]], out: &mut [u8]) -> Result<(), CodeError> {
    check_inputs(coeffs.len(), inputs, out.len())?;
    bulk::apply_rows_into(&single_row(coeffs), inputs, out);
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
    let rows = RowTerms::from_matrix(coeffs);
    bulk::apply_rows_into_vecs(&rows, inputs, std::slice::from_mut(out));
    Ok(())
}

/// Applies coefficient rows to a flat buffer of `rows.cols()` symbols of
/// `symbol_len` bytes each: output symbol `r` is
/// `Σ_m rows[r][m] · src_symbol(m)`, and the output symbols are spread evenly
/// over `outs` (each buffer's prior contents discarded, capacity reused).
///
/// This is the encode path over a framed value. Tiny symbols (small values
/// framed into `B` pieces of a byte or a few) go through one gathered kernel
/// call for the whole product, so per-symbol overhead is paid once per
/// application instead of once per output symbol — the hot path of
/// `encode_l2_elements_into` on `symbol_len ≈ 1` values.
///
/// # Errors
///
/// Returns [`CodeError::MalformedShare`] if `src` is not
/// `rows.cols() · symbol_len` bytes long or the rows do not spread evenly
/// over `outs`.
pub fn apply_into(
    rows: &RowTerms,
    src: &[u8],
    symbol_len: usize,
    outs: &mut [Vec<u8>],
) -> Result<(), CodeError> {
    if src.len() != rows.cols() * symbol_len || !rows.rows().is_multiple_of(outs.len()) {
        return Err(CodeError::MalformedShare(format!(
            "apply_into dimension mismatch: {}x{} coefficients, {} source bytes, \
             symbol_len {symbol_len}, {} outputs",
            rows.rows(),
            rows.cols(),
            src.len(),
            outs.len()
        )));
    }
    if symbol_len <= bulk::SMALL_SYMBOL_MAX {
        bulk::apply_small(rows, src, symbol_len, outs);
    } else {
        let symbols: Vec<&[u8]> = src.chunks_exact(symbol_len).collect();
        bulk::apply_rows_into_vecs(rows, &symbols, outs);
    }
    Ok(())
}

/// Encodes `data` for the nodes `start..start + outs.len()` of a code, one
/// output buffer per node (prior contents discarded, capacity reused): the
/// shared body of every coded codec's
/// [`encode_share_span_into`](crate::traits::ErasureCode::encode_share_span_into).
///
/// `push_generator_rows(i, rows)` appends node `i`'s `α` generator rows over
/// the `B = params.file_size()` message symbols. The rows of the whole span
/// are stacked and applied in one kernel call, so the value is read once
/// however many elements are produced — the `write-to-L2` of an L1 server
/// produces all `n2` — and it is read where it lies unless it is short
/// ([`BorrowedFrame`]). The rows are built per call, straight from the
/// code's encoding matrix: `α · d` terms per node, so nothing is memoised
/// and a whole-code encode at paper scale (`n = 200`) costs no plan memory.
///
/// # Errors
///
/// Returns [`CodeError::IndexOutOfRange`] if the span leaves `0..n`.
pub(crate) fn encode_span(
    params: &CodeParams,
    data: &[u8],
    start: usize,
    outs: &mut [Vec<u8>],
    push_generator_rows: impl Fn(usize, &mut RowTerms),
) -> Result<(), CodeError> {
    let n = params.n();
    if outs.is_empty() {
        return Ok(());
    }
    for index in [start, start.saturating_add(outs.len() - 1)] {
        if index >= n {
            return Err(CodeError::IndexOutOfRange { index, n });
        }
    }
    // A generator row has at most `d` terms (`k` for Reed–Solomon, whose
    // parameters say `d = k`).
    let file_size = params.file_size();
    let row_count = outs.len() * params.alpha();
    let mut rows = RowTerms::with_capacity(file_size, row_count, row_count * params.d());
    for index in start..start + outs.len() {
        push_generator_rows(index, &mut rows);
    }
    match BorrowedFrame::new(data, file_size) {
        Some(borrowed) => bulk::apply_rows_into_vecs(&rows, &borrowed.pieces(), outs),
        None => {
            let framed = frame(data, file_size);
            apply_into(&rows, &framed.padded, framed.symbol_len, outs)?;
        }
    }
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

    /// The rows of the matrix as kernel sources, after checking that
    /// `coeffs (m×r) · self (r×c)` is defined.
    fn left_mul_sources(&self, coeffs: &Matrix) -> Result<Vec<&[u8]>, CodeError> {
        if coeffs.cols() != self.rows {
            return Err(CodeError::MalformedShare(format!(
                "coefficient matrix has {} columns but BufMatrix has {} rows",
                coeffs.cols(),
                self.rows
            )));
        }
        Ok((0..self.rows).map(|k| self.row_bytes(k)).collect())
    }

    /// Left-multiplication by a coefficient matrix: `coeffs (m×r) · self (r×c)`.
    ///
    /// Because each input row's buffers are contiguous, a row of the output
    /// is one kernel row over whole input rows, and the product is a single
    /// kernel call into storage that is sized, not zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] if `coeffs.cols() != self.rows()`.
    pub fn left_mul(&self, coeffs: &Matrix) -> Result<BufMatrix, CodeError> {
        let sources = self.left_mul_sources(coeffs)?;
        let mut data = Vec::new();
        bulk::apply_rows_into_vecs(
            &RowTerms::from_matrix(coeffs),
            &sources,
            std::slice::from_mut(&mut data),
        );
        Ok(BufMatrix {
            rows: coeffs.rows(),
            cols: self.cols,
            symbol_len: self.symbol_len,
            data,
        })
    }

    /// Left-multiplication into a caller-provided matrix (overwritten).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::MalformedShare`] if dimensions disagree.
    pub fn left_mul_into(&self, coeffs: &Matrix, out: &mut BufMatrix) -> Result<(), CodeError> {
        let sources = self.left_mul_sources(coeffs)?;
        if out.rows != coeffs.rows() || out.cols != self.cols || out.symbol_len != self.symbol_len {
            return Err(CodeError::MalformedShare(
                "left_mul_into output dimension mismatch".into(),
            ));
        }
        bulk::apply_rows_into(&RowTerms::from_matrix(coeffs), &sources, &mut out.data);
        Ok(())
    }

    /// Right-multiplication by a coefficient matrix: `self (r×c) · coeffs (c×m)`.
    ///
    /// Output buffer `(r, j)` is `Σ_k coeffs[k][j] · self(r, k)`: one kernel
    /// row over the buffers of input row `r`, and the whole product one
    /// kernel call.
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
        if self.rows == 0 {
            return Ok(BufMatrix::zero(0, coeffs.cols(), self.symbol_len));
        }
        let row_count = self.rows * coeffs.cols();
        let mut rows =
            RowTerms::with_capacity(self.rows * self.cols, row_count, row_count * self.cols);
        for r in 0..self.rows {
            for j in 0..coeffs.cols() {
                rows.push_row((0..self.cols).map(|k| (r * self.cols + k, coeffs[(k, j)])));
            }
        }
        let sources: Vec<&[u8]> = self.data.chunks_exact(self.symbol_len.max(1)).collect();
        let mut data = Vec::new();
        bulk::apply_rows_into_vecs(&rows, &sources, std::slice::from_mut(&mut data));
        Ok(BufMatrix {
            rows: self.rows,
            cols: coeffs.cols(),
            symbol_len: self.symbol_len,
            data,
        })
    }
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
        let terms = RowTerms::from_matrix(&coeffs);
        let mut dst = vec![0u8; 3 * symbol_len];
        apply_into(&terms, &src, symbol_len, std::slice::from_mut(&mut dst)).unwrap();

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

        let mut one = [dst];
        assert!(apply_into(&terms, &src[1..], symbol_len, &mut one).is_err());
        assert!(apply_into(&terms, &src, symbol_len, &mut vec![Vec::new(); 2]).is_err());
        // One buffer per output symbol.
        let mut spread = vec![vec![0xAA; 2]; 3];
        apply_into(&terms, &src, symbol_len, &mut spread).unwrap();
        assert_eq!(spread.concat(), one[0]);
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

    /// The kernel overwrites: no entry point zeroes its output, and none may
    /// read it. Whatever a caller-provided buffer held before — and whether
    /// it was shorter, longer or the right size — the result is the same,
    /// for zero, one and many non-zero coefficients and for lengths on both
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
                    let rows = RowTerms::from_matrix(coeffs);
                    apply_into(&rows, &src, symbol_len, std::slice::from_mut(&mut out)).unwrap();
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

    /// `BufMatrix` products go through the same overwriting kernel: a stale
    /// `left_mul_into` output is replaced, and a `right_mul` by a dense
    /// matrix agrees with the oracle buffer by buffer.
    #[test]
    fn buf_matrix_products_overwrite_and_match_the_oracle() {
        for symbol_len in [1usize, 33, 100] {
            let m = sample(4, 3, symbol_len, 0x3c);
            let left = Matrix::vandermonde(5, 4);
            let mut out = BufMatrix::zero(5, 3, symbol_len);
            out.data.fill(0xAA);
            m.left_mul_into(&left, &mut out).unwrap();
            assert_eq!(out, m.left_mul(&left).unwrap());
            let row_inputs: Vec<&[u8]> = (0..4).map(|k| m.row_bytes(k)).collect();
            assert_eq!(out.data, reference(&left, &row_inputs, 3 * symbol_len));

            let right = Matrix::vandermonde(3, 2);
            let product = m.right_mul(&right).unwrap();
            assert_eq!((product.rows(), product.cols()), (4, 2));
            for r in 0..4 {
                let inputs: Vec<&[u8]> = (0..3).map(|k| m.get(r, k)).collect();
                let expected = reference(&right.transpose(), &inputs, symbol_len);
                assert_eq!(product.row_bytes(r), expected, "row {r}, sl {symbol_len}");
            }
        }
        assert!(sample(4, 3, 8, 0)
            .left_mul_into(&Matrix::identity(4), &mut BufMatrix::zero(4, 2, 8))
            .is_err());
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
