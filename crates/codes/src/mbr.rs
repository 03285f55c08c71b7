//! Product-matrix **minimum bandwidth regenerating (MBR)** codes.
//!
//! This is the exact-repair construction of Rashmi, Shah and Kumar
//! ("Optimal exact-regenerating codes for distributed storage at the MSR and
//! MBR points via a product-matrix construction", IEEE Trans. IT 2011 — the
//! paper's reference \[25\]), valid for all `k ≤ d < n`.
//!
//! # Construction
//!
//! * The file of `B = kd − k(k−1)/2` symbols is arranged into a `d × d`
//!   symmetric *message matrix*
//!   `M = [[S, T], [Tᵗ, 0]]` where `S` is `k × k` symmetric (holding
//!   `k(k+1)/2` symbols) and `T` is `k × (d−k)` (holding `k(d−k)` symbols).
//! * The *encoding matrix* `Ψ` is the `n × d` Vandermonde matrix; node `i`
//!   stores `ψᵢ M` (`α = d` symbols).
//! * **Repair** of node `f`: helper `i` sends the single symbol
//!   `ψᵢ M ψ_fᵗ`; any `d` helpers give `Ψ_rep (M ψ_fᵗ)` with `Ψ_rep`
//!   invertible, and `M ψ_fᵗ` transposed is exactly node `f`'s content
//!   (because `M` is symmetric). The helper needs to know only `f`, not the
//!   identity of the other helpers — the property the LDS protocol requires.
//! * **Data collection** from any `k` nodes: with `Ψ_K = [Φ_K Δ_K]`, the
//!   collected rows are `[Φ_K S + Δ_K Tᵗ, Φ_K T]`; `Φ_K` is invertible, so
//!   first recover `T`, then `S`.
//!
//! # Bulk-kernel execution
//!
//! All three operations run as single matrix × striped-payload applications
//! of the overwriting [`lds_gf::bulk`] kernel:
//!
//! * **encode**: node `i`'s *expanded generator* `G_i` (`α × B`; row `a`
//!   has the entry `ψ_i[j]` at the message symbol stored at `M[j][a]`, `d`
//!   terms or fewer) maps the value's `B` message symbols straight to the
//!   node's `α` coded symbols. The generators of a whole span of nodes —
//!   all `n2` back-end elements of a `write-to-L2` — are stacked into one
//!   kernel call (`linear::encode_span`), so the value is read once
//!   and, unless it is short, read where it lies. The rows are listed from
//!   `Ψ` per call (`α · d` terms per node); nothing is memoised for encode.
//! * **decode**: for each sorted survivor set the whole linear map from the
//!   `k·α` collected symbols back to the `B` message symbols is flattened
//!   into one `B × kα` matrix (composing `Φ_K⁻¹`, `Δ_K` and the `T`
//!   transposition at the coefficient level) and memoized, so steady-state
//!   decodes perform no inversion and allocate nothing but the output.
//! * **repair**: `Ψ_rep⁻¹` is memoized per sorted helper set.

use crate::error::CodeError;
use crate::linear::{apply_symbols_into, combine, encode_span};
use crate::params::{CodeKind, CodeParams};
use crate::plan::PlanCache;
use crate::share::{HelperData, Share};
use crate::striping::unframe_in_place;
use crate::traits::{dedup_by_index, dedup_helpers, ErasureCode, RegeneratingCode};
use lds_gf::bulk::RowTerms;
use lds_gf::Matrix;
use std::sync::Arc;

/// Memoized plans shared by all clones of one code instance.
#[derive(Debug, Default)]
struct MbrPlans {
    /// Sorted survivor set → flattened decode matrix (`B × k·α`).
    decode: PlanCache<Matrix>,
    /// Sorted helper set → `Ψ_rep⁻¹` (`d × d`).
    repair: PlanCache<Matrix>,
}

/// A product-matrix MBR code instance.
#[derive(Debug, Clone)]
pub struct ProductMatrixMbr {
    params: CodeParams,
    /// `n × d` Vandermonde encoding matrix Ψ.
    psi: Matrix,
    plans: Arc<MbrPlans>,
}

impl ProductMatrixMbr {
    /// Creates an MBR code from validated [`CodeParams::mbr`] parameters.
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
        Ok(ProductMatrixMbr {
            params,
            psi,
            plans: Arc::new(MbrPlans::default()),
        })
    }

    /// Convenience constructor from `(n, k, d)`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_dimensions(n: usize, k: usize, d: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::mbr(n, k, d)?)
    }

    /// Number of memoized decode plans (for tests and warm-up assertions).
    pub fn cached_decode_plans(&self) -> usize {
        self.plans.decode.len()
    }

    /// Number of memoized repair plans.
    pub fn cached_repair_plans(&self) -> usize {
        self.plans.repair.len()
    }

    /// Builds and memoizes the repair plan for a `d`-element helper set.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughShares`] if `helpers` does not contain
    /// exactly `d` distinct indices, or an index/inversion error.
    pub fn prepare_repair(&self, helpers: &[usize]) -> Result<(), CodeError> {
        let mut key = helpers.to_vec();
        key.sort_unstable();
        key.dedup();
        if key.len() != self.params.d() {
            return Err(CodeError::NotEnoughShares {
                needed: self.params.d(),
                got: key.len(),
            });
        }
        for &i in &key {
            self.check_index(i)?;
        }
        self.plans
            .repair
            .get_or_build(&key, |ids| Ok(self.psi.select_rows(ids).inverse()?))
            .map(|_| ())
    }

    fn check_index(&self, index: usize) -> Result<(), CodeError> {
        if index >= self.params.n() {
            Err(CodeError::IndexOutOfRange {
                index,
                n: self.params.n(),
            })
        } else {
            Ok(())
        }
    }

    /// Maps a position of the `d × d` message matrix to the index of the
    /// message symbol stored there (`None` for the zero block).
    fn message_index(&self, r: usize, c: usize) -> Option<usize> {
        let k = self.params.k();
        let d = self.params.d();
        debug_assert!(r < d && c < d);
        let (lo, hi) = if r <= c { (r, c) } else { (c, r) };
        if lo < k && hi < k {
            // Upper triangle (including diagonal) of S, row-major: rows
            // 0..lo contribute k, k-1, ... entries, i.e. lo(2k - lo + 1)/2.
            Some(lo * (2 * k - lo + 1) / 2 + (hi - lo))
        } else if lo < k {
            // T block: row `lo` of S-side, column `hi - k` of T.
            Some(k * (k + 1) / 2 + lo * (d - k) + (hi - k))
        } else {
            None
        }
    }

    /// Appends the `α` rows of node `index`'s expanded generator `G_i`: coded
    /// symbol `a` of the node is `Σ_j ψ_i[j] · M[j][a]`, and `M[j][a]` is
    /// message symbol `message_index(j, a)` (or zero). Column `a` of the
    /// symmetric `M` holds each message symbol at most once, so a row lists
    /// every source once.
    fn push_generator_rows(&self, index: usize, rows: &mut RowTerms) {
        let psi = self.psi.row(index);
        for a in 0..self.params.alpha() {
            rows.push_row(
                psi.iter()
                    .enumerate()
                    .filter_map(|(j, &coeff)| self.message_index(j, a).map(|m| (m, coeff))),
            );
        }
    }

    /// Builds the flattened decode matrix for a sorted survivor set: a
    /// `B × k·α` matrix `D` with `padded_symbol[m] = Σ_{(r,c)} D[m][r·α+c] ·
    /// collected[r][c]`, where `collected[r][c]` is symbol `c` of the `r`-th
    /// (sorted) share.
    ///
    /// Derivation (all in characteristic 2, writing `Y[r][c]` for the
    /// collected symbols, `Φ = Φ_K`, `Δ = Δ_K`, `P = Φ⁻¹`, `A = Φ⁻¹Δ`):
    /// `T = Φ⁻¹ Y₂` gives `t_{p,q} = Σ_j P[p][j] · Y[j][k+q]`, and
    /// `S = Φ⁻¹ Y₁ + A Tᵗ` gives
    /// `s_{p,q} = Σ_j P[p][j] · Y[j][q] + Σ_m A[p][m] · t_{q,m}`.
    fn decode_matrix(&self, survivors: &[usize]) -> Result<Matrix, CodeError> {
        let k = self.params.k();
        let d = self.params.d();
        let b = self.params.file_size();
        let rows = self.psi.select_rows(survivors);
        let phi = rows.select_cols(&(0..k).collect::<Vec<_>>());
        let p = phi.inverse()?;
        let a_mat = if d > k {
            let delta = rows.select_cols(&(k..d).collect::<Vec<_>>());
            Some(p.checked_mul(&delta)?)
        } else {
            None
        };

        let mut dm = Matrix::zero(b, k * d);
        let s_rows = k * (k + 1) / 2;
        // T entries: padded row s_rows + p·(d−k) + q.
        for pp in 0..k {
            for q in 0..d - k {
                let row = s_rows + pp * (d - k) + q;
                for j in 0..k {
                    dm[(row, j * d + (k + q))] += p[(pp, j)];
                }
            }
        }
        // S entries (upper triangle): padded row p·(2k−p+1)/2 + (q−p).
        for pp in 0..k {
            for q in pp..k {
                let row = pp * (2 * k - pp + 1) / 2 + (q - pp);
                for j in 0..k {
                    dm[(row, j * d + q)] += p[(pp, j)];
                }
                if let Some(a_mat) = &a_mat {
                    // Σ_m A[p][m] · t_{q,m} with t_{q,m} = Σ_l P[q][l]·Y[l][k+m].
                    for m in 0..d - k {
                        let coeff = a_mat[(pp, m)];
                        if coeff.is_zero() {
                            continue;
                        }
                        for l in 0..k {
                            dm[(row, l * d + (k + m))] += coeff * p[(q, l)];
                        }
                    }
                }
            }
        }
        Ok(dm)
    }
}

impl ErasureCode for ProductMatrixMbr {
    fn params(&self) -> &CodeParams {
        &self.params
    }

    fn encode_share_span_into(
        &self,
        data: &[u8],
        start: usize,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodeError> {
        encode_span(&self.params, data, start, outs, |index, rows| {
            self.push_generator_rows(index, rows)
        })
    }

    fn prepare_decode(&self, survivors: &[usize]) -> Result<(), CodeError> {
        let mut key = survivors.to_vec();
        key.sort_unstable();
        key.dedup();
        if key.len() != self.params.k() {
            return Err(CodeError::NotEnoughShares {
                needed: self.params.k(),
                got: key.len(),
            });
        }
        for &i in &key {
            self.check_index(i)?;
        }
        self.plans
            .decode
            .get_or_build(&key, |ids| self.decode_matrix(ids))
            .map(|_| ())
    }

    fn decode(&self, shares: &[Share]) -> Result<Vec<u8>, CodeError> {
        let mut out = Vec::new();
        self.decode_into(shares, &mut out)?;
        Ok(out)
    }

    fn decode_into(&self, shares: &[Share], out: &mut Vec<u8>) -> Result<(), CodeError> {
        let k = self.params.k();
        let alpha = self.params.alpha();
        let usable = dedup_by_index(shares);
        if usable.len() < k {
            return Err(CodeError::NotEnoughShares {
                needed: k,
                got: usable.len(),
            });
        }
        let mut chosen: Vec<&Share> = usable[..k].to_vec();
        for s in &chosen {
            self.check_index(s.index)?;
            if s.data.is_empty() || !s.data.len().is_multiple_of(alpha) {
                return Err(CodeError::MalformedShare(format!(
                    "share {} has length {} not divisible by alpha={alpha}",
                    s.index,
                    s.data.len()
                )));
            }
        }
        let symbol_len = chosen[0].data.len() / alpha;
        if chosen.iter().any(|s| s.data.len() != alpha * symbol_len) {
            return Err(CodeError::MalformedShare(
                "MBR shares must have equal length".into(),
            ));
        }

        // The plan key is the sorted survivor set; order the inputs to match.
        chosen.sort_by_key(|s| s.index);
        let indices: Vec<usize> = chosen.iter().map(|s| s.index).collect();
        let dm = self
            .plans
            .decode
            .get_or_build(&indices, |ids| self.decode_matrix(ids))?;

        // Collected symbol (r, c) sits at input position r·α + c. The message
        // symbols are decoded straight into `out`, then unframed where they
        // are.
        let inputs: Vec<&[u8]> = chosen
            .iter()
            .flat_map(|s| (0..alpha).map(|a| s.symbol(a, alpha)))
            .collect();
        apply_symbols_into(&dm, &inputs, symbol_len, out)?;
        unframe_in_place(out)
    }
}

impl RegeneratingCode for ProductMatrixMbr {
    fn helper_data(&self, helper: &Share, failed_index: usize) -> Result<HelperData, CodeError> {
        self.check_index(helper.index)?;
        self.check_index(failed_index)?;
        let alpha = self.params.alpha();
        if helper.data.is_empty() || !helper.data.len().is_multiple_of(alpha) {
            return Err(CodeError::MalformedShare(format!(
                "helper share has length {} not divisible by alpha={alpha}",
                helper.data.len()
            )));
        }
        let symbol_len = helper.data.len() / alpha;
        // h = (ψ_helper M) ψ_fᵗ = Σ_a content[a] · ψ_f[a].
        let coeffs = self.psi.row(failed_index);
        let inputs: Vec<&[u8]> = (0..alpha).map(|a| helper.symbol(a, alpha)).collect();
        let data = combine(coeffs, &inputs, symbol_len)?;
        Ok(HelperData::new(helper.index, failed_index, data))
    }

    fn repair(&self, failed_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        self.check_index(failed_index)?;
        let d = self.params.d();
        let usable = dedup_helpers(helpers);
        if usable.len() < d {
            return Err(CodeError::NotEnoughShares {
                needed: d,
                got: usable.len(),
            });
        }
        let mut chosen: Vec<&HelperData> = usable[..d].to_vec();
        for h in &chosen {
            self.check_index(h.helper_index)?;
            if h.failed_index != failed_index {
                return Err(CodeError::MalformedShare(
                    "helper payloads disagree on the failed node index".into(),
                ));
            }
        }
        let symbol_len = chosen[0].data.len();
        if symbol_len == 0 || chosen.iter().any(|h| h.data.len() != symbol_len) {
            return Err(CodeError::MalformedShare(
                "helper payloads must have equal length".into(),
            ));
        }

        // Ψ_rep (M ψ_fᵗ) = h  ⇒  M ψ_fᵗ = Ψ_rep⁻¹ h; the inverse is memoized
        // per sorted helper set.
        chosen.sort_by_key(|h| h.helper_index);
        let indices: Vec<usize> = chosen.iter().map(|h| h.helper_index).collect();
        let inv = self
            .plans
            .repair
            .get_or_build(&indices, |ids| Ok(self.psi.select_rows(ids).inverse()?))?;

        // Node content ψ_f M = (M ψ_fᵗ)ᵗ because M is symmetric.
        let inputs: Vec<&[u8]> = chosen.iter().map(|h| h.data.as_slice()).collect();
        let mut buf = Vec::new();
        apply_symbols_into(&inv, &inputs, symbol_len, &mut buf)?;
        Ok(Share::new(failed_index, buf))
    }

    fn prepare_repair(&self, helpers: &[usize]) -> Result<(), CodeError> {
        ProductMatrixMbr::prepare_repair(self, helpers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 197 % 256) as u8).collect()
    }

    #[test]
    fn message_index_covers_exactly_file_size() {
        let code = ProductMatrixMbr::with_dimensions(12, 4, 6).unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in 0..6 {
            for c in 0..6 {
                if let Some(i) = code.message_index(r, c) {
                    seen.insert(i);
                    // Symmetry of the map.
                    assert_eq!(code.message_index(r, c), code.message_index(c, r));
                } else {
                    assert!(r >= 4 && c >= 4, "zero block only in bottom-right");
                }
            }
        }
        assert_eq!(seen.len(), code.params().file_size());
        assert_eq!(*seen.iter().max().unwrap(), code.params().file_size() - 1);
    }

    #[test]
    fn encode_share_matches_bulk_encode() {
        let code = ProductMatrixMbr::with_dimensions(10, 3, 5).unwrap();
        let value = sample_value(123);
        let shares = code.encode(&value).unwrap();
        for i in 0..10 {
            assert_eq!(code.encode_share(&value, i).unwrap(), shares[i]);
        }
    }

    #[test]
    fn roundtrip_from_any_k_shares() {
        let code = ProductMatrixMbr::with_dimensions(10, 3, 5).unwrap();
        let value = sample_value(500);
        let shares = code.encode(&value).unwrap();
        for subset in [[0usize, 1, 2], [7, 8, 9], [0, 4, 9], [2, 5, 7]] {
            let chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(code.decode(&chosen).unwrap(), value, "subset {subset:?}");
        }
        assert_eq!(code.cached_decode_plans(), 4);
    }

    #[test]
    fn decode_plan_reused_across_orderings() {
        let code = ProductMatrixMbr::with_dimensions(10, 3, 5).unwrap();
        let value = sample_value(300);
        let shares = code.encode(&value).unwrap();
        for order in [[2usize, 5, 7], [7, 2, 5], [5, 7, 2]] {
            let chosen: Vec<Share> = order.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(code.decode(&chosen).unwrap(), value, "order {order:?}");
        }
        assert_eq!(code.cached_decode_plans(), 1, "one plan per survivor *set*");
        // Clones share the cache.
        assert_eq!(code.clone().cached_decode_plans(), 1);
    }

    #[test]
    fn roundtrip_when_k_equals_d() {
        // d == k exercises the "no T block" path (used by the paper's
        // symmetric-system analysis where k = d).
        let code = ProductMatrixMbr::with_dimensions(9, 4, 4).unwrap();
        let value = sample_value(257);
        let shares = code.encode(&value).unwrap();
        assert_eq!(code.decode(&shares[5..9]).unwrap(), value);
    }

    #[test]
    fn exact_repair_from_any_d_helpers() {
        let code = ProductMatrixMbr::with_dimensions(12, 4, 6).unwrap();
        let value = sample_value(777);
        let shares = code.encode(&value).unwrap();
        for failed in [0usize, 5, 11] {
            let helper_ids: Vec<usize> = (0..12).filter(|&i| i != failed).take(6).collect();
            let helpers: Vec<HelperData> = helper_ids
                .iter()
                .map(|&h| code.helper_data(&shares[h], failed).unwrap())
                .collect();
            let repaired = code.repair(failed, &helpers).unwrap();
            assert_eq!(repaired, shares[failed], "failed node {failed}");
        }
        assert!(code.cached_repair_plans() >= 1);
    }

    #[test]
    fn repair_works_with_any_helper_subset() {
        let code = ProductMatrixMbr::with_dimensions(10, 3, 5).unwrap();
        let value = sample_value(64);
        let shares = code.encode(&value).unwrap();
        let failed = 2;
        // Use the *last* 5 nodes as helpers, then a mixed subset.
        for helper_ids in [vec![5, 6, 7, 8, 9], vec![0, 3, 4, 8, 9]] {
            let helpers: Vec<HelperData> = helper_ids
                .iter()
                .map(|&h| code.helper_data(&shares[h], failed).unwrap())
                .collect();
            assert_eq!(code.repair(failed, &helpers).unwrap(), shares[failed]);
        }
    }

    #[test]
    fn helper_payload_is_beta_sized() {
        // β = 1 symbol: the helper payload is 1/α of a share — the bandwidth
        // saving that makes the paper's Θ(1) read cost possible.
        let code = ProductMatrixMbr::with_dimensions(12, 4, 6).unwrap();
        let value = sample_value(6000);
        let shares = code.encode(&value).unwrap();
        let helper = code.helper_data(&shares[0], 3).unwrap();
        assert_eq!(
            helper.data.len() * code.params().alpha(),
            shares[0].data.len()
        );
    }

    #[test]
    fn helper_does_not_depend_on_other_helpers() {
        // The same helper payload must be usable in any d-subset containing it
        // (paper §II-c: helpers cannot know who else participates).
        let code = ProductMatrixMbr::with_dimensions(9, 3, 4).unwrap();
        let value = sample_value(100);
        let shares = code.encode(&value).unwrap();
        let failed = 1;
        let payload_from_0 = code.helper_data(&shares[0], failed).unwrap();
        for others in [[2, 3, 4], [5, 6, 7], [4, 6, 8]] {
            let mut helpers = vec![payload_from_0.clone()];
            helpers.extend(
                others
                    .iter()
                    .map(|&h| code.helper_data(&shares[h], failed).unwrap()),
            );
            assert_eq!(code.repair(failed, &helpers).unwrap(), shares[failed]);
        }
    }

    #[test]
    fn decode_input_validation() {
        let code = ProductMatrixMbr::with_dimensions(8, 3, 4).unwrap();
        let value = sample_value(40);
        let shares = code.encode(&value).unwrap();
        assert!(matches!(
            code.decode(&shares[..2]),
            Err(CodeError::NotEnoughShares { needed: 3, got: 2 })
        ));
        let mut bad = shares.clone();
        bad[0].data.pop();
        assert!(matches!(
            code.decode(&bad[..3]),
            Err(CodeError::MalformedShare(_))
        ));
        // Duplicated indices do not count towards k.
        let dup = vec![shares[0].clone(), shares[0].clone(), shares[1].clone()];
        assert!(matches!(
            code.decode(&dup),
            Err(CodeError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn repair_input_validation() {
        let code = ProductMatrixMbr::with_dimensions(8, 3, 4).unwrap();
        let value = sample_value(40);
        let shares = code.encode(&value).unwrap();
        let failed = 0;
        let helpers: Vec<HelperData> = (1..5)
            .map(|h| code.helper_data(&shares[h], failed).unwrap())
            .collect();
        assert!(matches!(
            code.repair(failed, &helpers[..3]),
            Err(CodeError::NotEnoughShares { needed: 4, got: 3 })
        ));
        let mut wrong = helpers.clone();
        wrong[2].failed_index = 5;
        assert!(matches!(
            code.repair(failed, &wrong),
            Err(CodeError::MalformedShare(_))
        ));
        assert!(code.repair(9, &helpers).is_err());
    }

    #[test]
    fn wrong_kind_rejected() {
        let p = CodeParams::reed_solomon(8, 3).unwrap();
        assert!(ProductMatrixMbr::new(p).is_err());
    }

    #[test]
    fn storage_matches_alpha_over_b() {
        // Per-node storage is α/B of the value (plus framing), the quantity
        // behind Lemma V.3's 2d·n2/(k(2d−k+1)).
        let code = ProductMatrixMbr::with_dimensions(20, 8, 10).unwrap();
        let params = code.params();
        let value = sample_value(8 * 1024);
        let shares = code.encode(&value).unwrap();
        let per_node = shares[0].data.len() as f64;
        let expected = (value.len() as f64) * params.storage_overhead_per_node();
        // Within 5% (framing + padding overhead only).
        assert!(
            (per_node - expected).abs() / expected < 0.05,
            "per_node={per_node} expected={expected}"
        );
    }

    #[test]
    fn large_and_tiny_values_roundtrip() {
        let code = ProductMatrixMbr::with_dimensions(10, 4, 6).unwrap();
        for len in [0usize, 1, 5, 17, 1024, 10_000] {
            let value = sample_value(len);
            let shares = code.encode(&value).unwrap();
            assert_eq!(code.decode(&shares[..4]).unwrap(), value, "len={len}");
        }
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let code = ProductMatrixMbr::with_dimensions(10, 4, 6).unwrap();
        let value = sample_value(333);
        let mut share_buf = vec![0xAB; 3]; // stale contents must be discarded
        code.encode_share_into(&value, 7, &mut share_buf).unwrap();
        assert_eq!(share_buf, code.encode_share(&value, 7).unwrap().data);

        let shares = code.encode(&value).unwrap();
        let mut out = Vec::new();
        code.decode_into(&shares[2..6], &mut out).unwrap();
        assert_eq!(out, value);
    }

    #[test]
    fn span_encode_matches_per_share_encode() {
        let code = ProductMatrixMbr::with_dimensions(10, 3, 5).unwrap();
        // B = 12: tiny symbols up to 333 bytes, the kernel over a framed
        // copy at 700, over the value itself from 30 000 (without and with
        // whole middle strips).
        for len in [0usize, 1, 17, 333, 700, 30_000, 60_000] {
            let value = sample_value(len);
            // Span over the "L2 half" of a layered deployment, with stale
            // buffer contents that must be discarded.
            let mut outs: Vec<Vec<u8>> = (0..6).map(|_| vec![0xEE; 2]).collect();
            code.encode_share_span_into(&value, 4, &mut outs).unwrap();
            for (s, out) in outs.iter().enumerate() {
                assert_eq!(
                    out,
                    &code.encode_share(&value, 4 + s).unwrap().data,
                    "len={len} node={}",
                    4 + s
                );
            }
        }
        // Out-of-range spans are rejected.
        let mut outs = vec![Vec::new(); 3];
        assert!(code.encode_share_span_into(b"x", 8, &mut outs).is_err());
    }

    #[test]
    fn paper_scale_parameters_work() {
        // Fig. 6 uses n1 = n2 = 100, k = d = 80: the full code C spans
        // n = n1 + n2 = 200 nodes.
        let code = ProductMatrixMbr::with_dimensions(200, 80, 80).unwrap();
        let value = sample_value(2000);
        let shares = code.encode(&value).unwrap();
        // Read path: decode from the first k shares of the "L1" half.
        assert_eq!(code.decode(&shares[..80]).unwrap(), value);
        // Repair path: regenerate an L1 node's symbol from 80 helpers in the
        // "L2" half (indices 100..180).
        let failed = 7;
        let helpers: Vec<HelperData> = (100..180)
            .map(|h| code.helper_data(&shares[h], failed).unwrap())
            .collect();
        assert_eq!(code.repair(failed, &helpers).unwrap(), shares[failed]);
    }
}
