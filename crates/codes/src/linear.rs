//! The one linear-code engine under MBR, MSR and Reed–Solomon.
//!
//! All three are linear codes over GF(2^8): node `i` stores `G_i · m`, its
//! `α` generator rows applied to the `B` message symbols of the framed value,
//! and decode, helper computation and repair are again small coefficient
//! matrices applied to symbols. A [`Construction`] supplies only those
//! matrices; [`LinearCode`] implements [`ErasureCode`] and
//! [`RegeneratingCode`] over any construction, once:
//!
//! * **checks** — index range, first-`k` / first-`d` distinct selection,
//!   agreement on the failed node, equal non-zero symbol lengths;
//! * **plans** — the decode matrix of a sorted survivor set and the repair
//!   matrix of a failed node and sorted helper set are compiled to
//!   [`RowTerms`] when first needed and memoized ([`PlanCache`]), and so are
//!   the helper row of a failed node and the stacked generator rows of an
//!   encoded span. A warm operation inverts nothing and builds no matrix;
//! * **execution** — one call of the overwriting kernel
//!   ([`bulk::apply_rows_into_vecs`]) over symbols borrowed where they lie
//!   in the shares and helper payloads, the result written straight into
//!   the buffer the caller keeps (and, for decode, unframed there). Nothing
//!   here accumulates into a buffer or copies a symbol. The index sets and
//!   symbol lists of a call live inline (`Few`), so an operation allocates
//!   its output and nothing else.

use crate::error::CodeError;
use crate::params::CodeParams;
use crate::plan::PlanCache;
use crate::share::{HelperData, Share};
use crate::striping::{frame, unframe_in_place, BorrowedFrame};
use crate::traits::{ErasureCode, RegeneratingCode};
use lds_gf::bulk::{self, RowTerms};
use lds_gf::{Gf256, Matrix};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// What is mathematically a code's own: its generator and the coefficient
/// matrices that undo it. Stacked symbols are node-major — symbol `a` of the
/// `r`-th listed node sits at position `r·α + a` — and node lists are sorted
/// and in range; [`LinearCode`] sees to both.
pub trait Construction: Send + Sync {
    /// The `(n, k, d)(α, β)` parameters.
    fn params(&self) -> &CodeParams;

    /// Appends the `α` generator rows of `node` over the `B` message symbols.
    fn push_generator_rows(&self, node: usize, rows: &mut RowTerms);

    /// The `α` coefficients a helper applies to its own symbols to produce
    /// its (`β = 1` symbol) payload towards the repair of node `failed`. They
    /// depend on `failed` alone — the property `regenerate-from-L2` needs.
    fn helper_coefficients(&self, failed: usize) -> &[Gf256];

    /// The `α × d` matrix taking the payloads of `helpers` to the content of
    /// node `failed`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::LinearAlgebra`] if the helper set is singular.
    fn repair_matrix(&self, failed: usize, helpers: &[usize]) -> Result<Matrix, CodeError>;

    /// Whether [`Construction::repair_matrix`] ignores `failed`: one plan per
    /// helper set then serves every node, instead of one per node and set.
    fn repair_matrix_serves_every_node(&self) -> bool {
        false
    }

    /// The generator rows of `nodes`, stacked: `nodes.len()·α × B`.
    fn stacked_generator(&self, nodes: &[usize]) -> Matrix {
        generator_rows(self, nodes.iter().copied()).to_matrix()
    }

    /// The `B × k·α` matrix taking the stacked symbols of `k` survivors back
    /// to the message symbols. Where `B = k·α` (MSR, Reed–Solomon) the
    /// stacked generator is square and this is its inverse.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::LinearAlgebra`] if the survivor set is singular.
    fn decode_matrix(&self, survivors: &[usize]) -> Result<Matrix, CodeError> {
        Ok(self.stacked_generator(survivors).inverse()?)
    }
}

/// The generator rows of `nodes`, one after the other. A row has at most `d`
/// terms (`k` for Reed–Solomon, whose parameters say `d = k`).
fn generator_rows<C: Construction + ?Sized>(
    construction: &C,
    nodes: impl ExactSizeIterator<Item = usize>,
) -> RowTerms {
    let params = construction.params();
    let row_count = nodes.len() * params.alpha();
    let mut rows = RowTerms::with_capacity(params.file_size(), row_count, row_count * params.d());
    for node in nodes {
        construction.push_generator_rows(node, &mut rows);
    }
    rows
}

/// Compiled plans shared by all clones of one code instance.
#[derive(Debug)]
struct Plans {
    /// Failed node → its helper row over the `α` symbols of a share, compiled
    /// when first asked for.
    helper: Vec<OnceLock<RowTerms>>,
    /// Sorted survivor set → decode matrix.
    decode: PlanCache<RowTerms>,
    /// Failed node (0 where one matrix serves every node), then the sorted
    /// helper set → repair matrix.
    repair: PlanCache<RowTerms>,
    /// First node and node count of an encoded span → its stacked
    /// generator rows.
    span: PlanCache<RowTerms>,
}

/// A linear code: a [`Construction`] and the memoized plans of its decode
/// and repair index sets. Clones share the plans.
#[derive(Debug, Clone)]
pub struct LinearCode<C> {
    construction: C,
    plans: Arc<Plans>,
}

impl<C: Construction> LinearCode<C> {
    pub(crate) fn over(construction: C) -> Self {
        let plans = Plans {
            helper: (0..construction.params().n())
                .map(|_| OnceLock::new())
                .collect(),
            decode: PlanCache::new(),
            repair: PlanCache::new(),
            span: PlanCache::new(),
        };
        LinearCode {
            construction,
            plans: Arc::new(plans),
        }
    }

    /// The construction underneath (its matrices are what the plans compile).
    pub fn construction(&self) -> &C {
        &self.construction
    }

    /// Number of memoized decode plans (for tests and warm-up assertions).
    pub fn cached_decode_plans(&self) -> usize {
        self.plans.decode.len()
    }

    /// Number of memoized repair plans.
    pub fn cached_repair_plans(&self) -> usize {
        self.plans.repair.len()
    }

    fn check_index(&self, index: usize) -> Result<(), CodeError> {
        let n = self.params().n();
        if index < n {
            Ok(())
        } else {
            Err(CodeError::IndexOutOfRange { index, n })
        }
    }

    /// The positions in `items` of the first `need` with distinct node
    /// indices, sorted by index — the order the plans are keyed and built in.
    fn select<T>(
        &self,
        items: &[T],
        index_of: impl Fn(&T) -> usize,
        need: usize,
    ) -> Result<Few<usize>, CodeError> {
        let mut chosen = Few::default();
        for (pos, item) in items.iter().enumerate() {
            if chosen.len() == need {
                break;
            }
            if !chosen
                .iter()
                .any(|&c| index_of(&items[c]) == index_of(item))
            {
                chosen.push(pos);
            }
        }
        if chosen.len() < need {
            return Err(CodeError::NotEnoughShares {
                needed: need,
                got: chosen.len(),
            });
        }
        for &pos in chosen.iter() {
            self.check_index(index_of(&items[pos]))?;
        }
        chosen.sort_unstable_by_key(|&pos| index_of(&items[pos]));
        Ok(chosen)
    }

    fn helper_plan(&self, failed: usize) -> &RowTerms {
        self.plans.helper[failed].get_or_init(|| {
            let coeffs = self.construction.helper_coefficients(failed);
            debug_assert_eq!(coeffs.len(), self.params().alpha());
            let mut row = RowTerms::with_capacity(coeffs.len(), 1, coeffs.len());
            row.push_row(coeffs.iter().copied().enumerate());
            row
        })
    }

    fn decode_plan(
        &self,
        survivors: impl Iterator<Item = usize>,
    ) -> Result<Arc<RowTerms>, CodeError> {
        let key: Few<usize> = survivors.collect();
        self.plans.decode.get_or_build(&key, |ids| {
            let matrix = self.construction.decode_matrix(ids)?;
            Ok(RowTerms::from_matrix(&matrix))
        })
    }

    fn span_plan(&self, start: usize, len: usize) -> Arc<RowTerms> {
        self.plans
            .span
            .get_or_build(&[start, len], |_| {
                Ok(generator_rows(&self.construction, start..start + len))
            })
            .expect("listing generator rows cannot fail")
    }

    fn repair_plan(
        &self,
        failed: usize,
        helpers: impl Iterator<Item = usize>,
    ) -> Result<Arc<RowTerms>, CodeError> {
        let shared = self.construction.repair_matrix_serves_every_node();
        let class = if shared { 0 } else { failed };
        let key: Few<usize> = std::iter::once(class).chain(helpers).collect();
        self.plans.repair.get_or_build(&key, |key| {
            let matrix = self.construction.repair_matrix(failed, &key[1..])?;
            Ok(RowTerms::from_matrix(&matrix))
        })
    }
}

/// Inline room of a [`Few`]. The deployed codes need a handful: `k·α = 6`
/// symbols for an `(n, 2, 3)` MBR decode, 12 for a `(10, 4)` MSR one.
const FEW: usize = 16;

/// A list held inline up to [`FEW`] items and on the heap beyond: the index
/// sets, payloads and symbol lists one codec call builds.
enum Few<T> {
    Inline([T; FEW], usize),
    Heap(Vec<T>),
}

impl<T: Default> Default for Few<T> {
    fn default() -> Self {
        Few::Inline(std::array::from_fn(|_| T::default()), 0)
    }
}

impl<T: Default> Few<T> {
    fn push(&mut self, item: T) {
        match self {
            Few::Inline(items, len) if *len < FEW => {
                items[*len] = item;
                *len += 1;
            }
            Few::Inline(items, _) => {
                let mut heap: Vec<T> = items.iter_mut().map(std::mem::take).collect();
                heap.push(item);
                *self = Few::Heap(heap);
            }
            Few::Heap(items) => items.push(item),
        }
    }
}

impl<T: Default> FromIterator<T> for Few<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut few = Few::default();
        for item in iter {
            few.push(item);
        }
        few
    }
}

impl<T> Deref for Few<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            Few::Inline(items, len) => &items[..*len],
            Few::Heap(items) => items,
        }
    }
}

impl<T> DerefMut for Few<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Few::Inline(items, len) => &mut items[..*len],
            Few::Heap(items) => items,
        }
    }
}

/// The kernel sources of a call: each of `payloads` (at least one) cut into
/// `width` symbols, after checking that they share one non-zero length
/// divisible by `width`.
fn symbols<'a>(
    payloads: impl Iterator<Item = &'a [u8]>,
    width: usize,
) -> Result<Few<&'a [u8]>, CodeError> {
    let mut symbols = Few::default();
    let mut len = None;
    for payload in payloads {
        let expected = *len.get_or_insert(payload.len());
        if payload.len() != expected || expected == 0 || !expected.is_multiple_of(width) {
            return Err(CodeError::MalformedShare(format!(
                "payloads must share one non-zero length divisible by {width}: {expected} then {}",
                payload.len()
            )));
        }
        for symbol in payload.chunks_exact(expected / width) {
            symbols.push(symbol);
        }
    }
    Ok(symbols)
}

/// Applies `rows` to `symbols` into a fresh buffer: the payload of a helper
/// or a repaired share.
fn apply_to_payload(rows: &RowTerms, symbols: &[&[u8]]) -> Vec<u8> {
    let mut data = Vec::new();
    bulk::apply_rows_into_vecs(rows, symbols, std::slice::from_mut(&mut data));
    data
}

impl<C: Construction> ErasureCode for LinearCode<C> {
    fn params(&self) -> &CodeParams {
        self.construction.params()
    }

    /// The generator rows of the whole span are stacked and applied in one
    /// kernel call, so the value is read once however many elements are
    /// produced — the `write-to-L2` of an L1 server produces all `n2` — and
    /// it is read where it lies unless it is short
    /// (`striping::BorrowedFrame`). The stacked rows are memoized per span
    /// (first node, node count), so a warm encode lists no row. A plan holds
    /// at most `α · d` eight-byte terms per node. A deployment encodes one
    /// offload span (its `n2` L2 elements) and up to `n2` single-element
    /// spans (one per L2 index: initial elements and the per-element
    /// fallback); at Fig. 6's scale (MBR, `n2 = 100`, `α = d = 80`) each
    /// side is 8 000 rows × 80 terms, about 5 MB, so about 10 MB in all.
    /// A whole-code [`ErasureCode::encode`] memoizes its span too: 16 000
    /// rows, another 10 MB at `n = 200`. Like every plan cache, at most
    /// `MAX_PLANS` (256) spans are kept.
    fn encode_share_span_into(
        &self,
        data: &[u8],
        start: usize,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodeError> {
        let Some(last) = outs.len().checked_sub(1) else {
            return Ok(());
        };
        self.check_index(start)?;
        self.check_index(start.saturating_add(last))?;
        let rows = self.span_plan(start, outs.len());
        let file_size = self.params().file_size();
        match BorrowedFrame::new(data, file_size) {
            Some(borrowed) => bulk::apply_rows_into_vecs(&rows, &borrowed.pieces(), outs),
            None => {
                let framed = frame(data, file_size);
                apply_into(&rows, &framed.padded, framed.symbol_len, outs)?;
            }
        }
        Ok(())
    }

    fn prepare_decode(&self, survivors: &[usize]) -> Result<(), CodeError> {
        let chosen = self.select(survivors, |&i| i, self.params().k())?;
        self.decode_plan(chosen.iter().map(|&c| survivors[c]))
            .map(drop)
    }

    fn decode_into(&self, shares: &[Share], out: &mut Vec<u8>) -> Result<(), CodeError> {
        let params = self.params();
        let chosen = self.select(shares, |s| s.index, params.k())?;
        let chosen = || chosen.iter().map(|&c| &shares[c]);
        let symbols = symbols(chosen().map(|s| &s.data[..]), params.alpha())?;
        let plan = self.decode_plan(chosen().map(|s| s.index))?;
        bulk::apply_rows_into_vecs(&plan, &symbols, std::slice::from_mut(out));
        unframe_in_place(out)
    }
}

impl<C: Construction> RegeneratingCode for LinearCode<C> {
    fn helper_data(&self, helper: &Share, failed_index: usize) -> Result<HelperData, CodeError> {
        self.check_index(helper.index)?;
        self.check_index(failed_index)?;
        let symbols = symbols(std::iter::once(&helper.data[..]), self.params().alpha())?;
        let data = apply_to_payload(self.helper_plan(failed_index), &symbols);
        Ok(HelperData::new(helper.index, failed_index, data))
    }

    fn repair(&self, failed_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        self.check_index(failed_index)?;
        let chosen = self.select(helpers, |h| h.helper_index, self.params().d())?;
        let chosen = || chosen.iter().map(|&c| &helpers[c]);
        if chosen().any(|h| h.failed_index != failed_index) {
            return Err(CodeError::MalformedShare(
                "helper payloads disagree on the failed node index".into(),
            ));
        }
        let symbols = symbols(chosen().map(|h| &h.data[..]), 1)?;
        let plan = self.repair_plan(failed_index, chosen().map(|h| h.helper_index))?;
        Ok(Share::new(failed_index, apply_to_payload(&plan, &symbols)))
    }

    fn prepare_repair(&self, failed_index: usize, helpers: &[usize]) -> Result<(), CodeError> {
        self.check_index(failed_index)?;
        let chosen = self.select(helpers, |&i| i, self.params().d())?;
        self.repair_plan(failed_index, chosen.iter().map(|&c| helpers[c]))
            .map(drop)
    }
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
fn apply_into(
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
        let symbols: Few<&[u8]> = src.chunks_exact(symbol_len).collect();
        bulk::apply_rows_into_vecs(rows, &symbols, outs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `apply_into` is the left product `coeffs · symbols`, here against the
    /// byte-at-a-time oracle.
    #[test]
    fn apply_into_matches_left_mul() {
        let symbol_len = 9;
        let cols = 5;
        let src = bytes(cols * symbol_len, 0);
        let coeffs = Matrix::vandermonde(3, cols);
        let terms = RowTerms::from_matrix(&coeffs);
        let inputs: Vec<&[u8]> = src.chunks_exact(symbol_len).collect();
        let mut one = [vec![0u8; 3 * symbol_len]];
        apply_into(&terms, &src, symbol_len, &mut one).unwrap();
        assert_eq!(one[0], reference(&coeffs, &inputs, symbol_len));

        assert!(apply_into(&terms, &src[1..], symbol_len, &mut one).is_err());
        assert!(apply_into(&terms, &src, symbol_len, &mut vec![Vec::new(); 2]).is_err());
        // One buffer per output symbol.
        let mut spread = vec![vec![0xAA; 2]; 3];
        apply_into(&terms, &src, symbol_len, &mut spread).unwrap();
        assert_eq!(spread.concat(), one[0]);
    }

    /// The kernel overwrites: no entry point zeroes its output, and none may
    /// read it. Whatever a caller-provided buffer held before — and whether
    /// it was shorter, longer or the right size — the result is the same,
    /// for zero, one and many non-zero coefficients and for lengths on both
    /// sides of the 16- and 32-byte vector widths (and of the tiny-symbol
    /// path's threshold), through the encode entry and through the one the
    /// decode, helper and repair paths share.
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
                let rows = RowTerms::from_matrix(coeffs);
                for stale_len in [0, 3, expected.len(), expected.len() + 40] {
                    let mut out = vec![0xAA; stale_len];
                    apply_into(&rows, &src, symbol_len, std::slice::from_mut(&mut out)).unwrap();
                    assert_eq!(out, expected, "apply_into, {ctx}, stale {stale_len}");
                    let mut out = vec![0xAA; stale_len];
                    let symbols = symbols(std::iter::once(&src[..]), cols).unwrap();
                    bulk::apply_rows_into_vecs(&rows, &symbols, std::slice::from_mut(&mut out));
                    assert_eq!(out, expected, "payload symbols, {ctx}, stale {stale_len}");
                }
            }
        }
    }
}
