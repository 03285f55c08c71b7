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
//! # What the construction supplies
//!
//! [`Mbr`] lists, for the shared engine ([`crate::linear`]):
//!
//! * **generator**: node `i`'s `α × B` expanded generator `G_i` — row `a`
//!   has the entry `ψ_i[j]` at the message symbol stored at `M[j][a]`, `d`
//!   terms or fewer;
//! * **decode matrix**: `k·α > B` here, so the stacked generator is not
//!   square; instead the whole map from the `k·α` collected symbols back to
//!   the `B` message symbols (`Φ_K⁻¹`, the `Δ_K` correction and the `T`
//!   transposition, composed at the coefficient level) is flattened into one
//!   `B × k·α` matrix;
//! * **helper row**: `ψ_f`;
//! * **repair matrix**: `Ψ_rep⁻¹` (`d × d`), the same for every failed node.

use crate::error::CodeError;
use crate::linear::{Construction, LinearCode};
use crate::params::{CodeKind, CodeParams};
use lds_gf::bulk::RowTerms;
use lds_gf::{Gf256, Matrix};

/// The product-matrix MBR construction: the Vandermonde `Ψ` and the layout
/// of the message in the symmetric `M`.
#[derive(Debug, Clone)]
pub struct Mbr {
    params: CodeParams,
    /// `n × d` Vandermonde encoding matrix Ψ.
    psi: Matrix,
}

/// A product-matrix MBR code instance.
pub type ProductMatrixMbr = LinearCode<Mbr>;

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
        Ok(LinearCode::over(Mbr { params, psi }))
    }

    /// Convenience constructor from `(n, k, d)`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_dimensions(n: usize, k: usize, d: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::mbr(n, k, d)?)
    }
}

impl Mbr {
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
}

impl Construction for Mbr {
    fn params(&self) -> &CodeParams {
        &self.params
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

    /// `h = (ψ_helper M) ψ_fᵗ = Σ_a content[a] · ψ_f[a]`.
    fn helper_coefficients(&self, failed: usize) -> &[Gf256] {
        self.psi.row(failed)
    }

    /// `Ψ_rep (M ψ_fᵗ) = h ⇒ M ψ_fᵗ = Ψ_rep⁻¹ h`, and the node's content
    /// `ψ_f M` is `(M ψ_fᵗ)ᵗ` because `M` is symmetric.
    fn repair_matrix(&self, _failed: usize, helpers: &[usize]) -> Result<Matrix, CodeError> {
        Ok(self.psi.select_rows(helpers).inverse()?)
    }

    fn repair_matrix_serves_every_node(&self) -> bool {
        true
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErasureCode, HelperData, RegeneratingCode, Share};

    fn sample_value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 197 % 256) as u8).collect()
    }

    #[test]
    fn message_index_covers_exactly_file_size() {
        let code = ProductMatrixMbr::with_dimensions(12, 4, 6).unwrap();
        let (code, params) = (code.construction(), code.params());
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
        assert_eq!(seen.len(), params.file_size());
        assert_eq!(*seen.iter().max().unwrap(), params.file_size() - 1);
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
