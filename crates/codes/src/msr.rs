//! Product-matrix **minimum storage regenerating (MSR)** codes at `d = 2k − 2`.
//!
//! Implemented for the paper's Remark 1 / Remark 2 ablations: at the MSR
//! operating point the per-node storage is exactly `B/k` (cheaper than MBR by
//! up to 2×) but a read that has to regenerate from the back-end costs
//! `Ω(n1)` even without concurrency, which is why the paper chooses MBR.
//!
//! # Construction (Rashmi–Shah–Kumar, §V of the product-matrix paper)
//!
//! * `α = k − 1`, `d = 2k − 2 = 2α`, `B = kα = α(α + 1)`.
//! * The message matrix is `M = [S1; S2]` (`d × α`) where `S1`, `S2` are
//!   `α × α` symmetric, each holding `α(α+1)/2` message symbols.
//! * The encoding matrix is `Ψ = [Φ ΛΦ]` where `Φ` is an `n × α` Vandermonde
//!   matrix and `Λ = diag(λ_i)` with all `λ_i` distinct. Node `i` stores
//!   `ψ_i M = φ_i S1 + λ_i φ_i S2`.
//! * **Repair** of node `f`: helper `i` sends `ψ_i M φ_fᵗ` (one symbol);
//!   `d` helpers yield `M φ_fᵗ = [S1 φ_fᵗ; S2 φ_fᵗ]` and the failed content
//!   is `(S1 φ_fᵗ)ᵗ + λ_f (S2 φ_fᵗ)ᵗ`.
//! * **Data collection** from `k` nodes: compute `C = Y Φ_Kᵗ`; off-diagonal
//!   entries decouple into `P = Φ_K S1 Φ_Kᵗ` and `Q = Φ_K S2 Φ_Kᵗ` because
//!   the `λ_i` are distinct; each row of `Φ_K S1` / `Φ_K S2` is then solved
//!   from the off-diagonal entries, and finally `S1`, `S2` themselves.
//!
//! All data-path arithmetic runs on the bulk slice kernels, encode as one
//! kernel call over the stacked generator rows of a span of nodes
//! (`linear::encode_span`). The matrix inversions a decode or repair needs
//! (`k` recover-row inverses, the `Φ_sub` inverse, `Ψ_rep⁻¹`) are memoized
//! per sorted index set so they are paid once per quorum, not once per
//! operation.
//!
//! # Field-size limit
//!
//! With `Φ` Vandermonde over GF(256) and `λ_i = x_i^α`, the `λ_i` are
//! distinct only while `n ≤ 255 / gcd(α, 255)`. The constructor checks this
//! and reports [`CodeError::InvalidParameters`] otherwise; the benchmarks use
//! parameter ranges that satisfy it.

use crate::error::CodeError;
use crate::linear::{apply_symbols_into, combine, encode_span, BufMatrix};
use crate::params::{CodeKind, CodeParams};
use crate::plan::PlanCache;
use crate::share::{HelperData, Share};
use crate::striping::unframe_in_place;
use crate::traits::{dedup_by_index, dedup_helpers, ErasureCode, RegeneratingCode};
use lds_gf::bulk::{self, RowTerms};
use lds_gf::{Gf256, Matrix};
use std::sync::Arc;

/// Everything a decode needs that depends only on the survivor set.
#[derive(Debug)]
struct MsrDecodePlan {
    /// `Φ_Kᵗ` (`α × k`) for `C = Y Φ_Kᵗ`.
    phi_k_t: Matrix,
    /// For each survivor position `i`: `(Φ_{K∖i}ᵗ)⁻¹` (`α × α`).
    recover_invs: Vec<Matrix>,
    /// Inverse of the first `α` rows of `Φ_K`.
    phi_sub_inv: Matrix,
}

/// Memoized plans shared by all clones of one code instance.
#[derive(Debug, Default)]
struct MsrPlans {
    /// Sorted survivor set → decode plan.
    decode: PlanCache<MsrDecodePlan>,
    /// Sorted helper set → `Ψ_rep⁻¹` (`d × d`).
    repair: PlanCache<Matrix>,
}

/// A product-matrix MSR code instance (`d = 2k − 2`).
#[derive(Debug, Clone)]
pub struct ProductMatrixMsr {
    params: CodeParams,
    /// `n × α` Vandermonde matrix Φ.
    phi: Matrix,
    /// Distinct per-node multipliers λ_i.
    lambda: Vec<Gf256>,
    /// `n × d` composite encoding matrix Ψ = [Φ ΛΦ].
    psi: Matrix,
    plans: Arc<MsrPlans>,
}

impl ProductMatrixMsr {
    /// Creates an MSR code from validated [`CodeParams::msr`] parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `params` is not an MSR
    /// parameter set or if GF(256) cannot provide `n` distinct `λ_i` for this
    /// `α` (see the module documentation).
    pub fn new(params: CodeParams) -> Result<Self, CodeError> {
        if params.kind() != CodeKind::Msr {
            return Err(CodeError::InvalidParameters(format!(
                "expected MSR parameters, got {params}"
            )));
        }
        let n = params.n();
        let alpha = params.alpha();
        let phi = Matrix::vandermonde(n, alpha);
        let lambda: Vec<Gf256> = (0..n).map(|i| Gf256::exp(i).pow(alpha)).collect();
        let mut seen = std::collections::HashSet::new();
        if !lambda.iter().all(|l| seen.insert(l.value())) {
            return Err(CodeError::InvalidParameters(format!(
                "GF(256) cannot provide {n} distinct lambda values for alpha={alpha}; \
                 reduce n to at most {}",
                255 / gcd(alpha, 255)
            )));
        }
        // Ψ_i = [φ_i, λ_i φ_i]; with λ_i = x_i^α this is the Vandermonde row
        // [1, x_i, ..., x_i^{d-1}], so any d rows are linearly independent.
        let psi = Matrix::from_fn(n, params.d(), |r, c| {
            if c < alpha {
                phi[(r, c)]
            } else {
                lambda[r] * phi[(r, c - alpha)]
            }
        });
        Ok(ProductMatrixMsr {
            params,
            phi,
            lambda,
            psi,
            plans: Arc::new(MsrPlans::default()),
        })
    }

    /// Convenience constructor from `(n, k)`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_dimensions(n: usize, k: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::msr(n, k)?)
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

    /// Index of message symbol at position `(r, c)` of the symmetric matrix
    /// `S1` (`which = 0`) or `S2` (`which = 1`).
    fn message_index(&self, which: usize, r: usize, c: usize) -> usize {
        let alpha = self.params.alpha();
        let (lo, hi) = if r <= c { (r, c) } else { (c, r) };
        let tri = alpha * (alpha + 1) / 2;
        which * tri + lo * (2 * alpha - lo + 1) / 2 + (hi - lo)
    }

    /// Appends the `α` generator rows of node `index`: coded symbol `a` is
    /// `Σ_j φ_i[j]·S1[j][a] + λ_i·φ_i[j]·S2[j][a]` over the message symbols.
    fn push_generator_rows(&self, index: usize, rows: &mut RowTerms) {
        let alpha = self.params.alpha();
        let lambda = self.lambda[index];
        for a in 0..alpha {
            rows.push_row(self.phi.row(index).iter().enumerate().flat_map(|(j, &c)| {
                [
                    (self.message_index(0, j, a), c),
                    (self.message_index(1, j, a), lambda * c),
                ]
            }));
        }
    }

    fn decode_plan(&self, survivors: &[usize]) -> Result<MsrDecodePlan, CodeError> {
        let k = self.params.k();
        let phi_k = self.phi.select_rows(survivors);
        let mut recover_invs = Vec::with_capacity(k);
        for i in 0..k {
            let others: Vec<usize> = (0..k).filter(|&j| j != i).collect();
            recover_invs.push(phi_k.select_rows(&others).transpose().inverse()?);
        }
        let alpha = self.params.alpha();
        let first_alpha: Vec<usize> = (0..alpha).collect();
        let phi_sub_inv = phi_k.select_rows(&first_alpha).inverse()?;
        Ok(MsrDecodePlan {
            phi_k_t: phi_k.transpose(),
            recover_invs,
            phi_sub_inv,
        })
    }

    /// Writes the framed message (the upper triangles of `S1`, then `S2`)
    /// into `padded`, discarding its prior contents.
    fn reassemble_into(&self, s1: &BufMatrix, s2: &BufMatrix, padded: &mut Vec<u8>) {
        let alpha = self.params.alpha();
        padded.clear();
        padded.reserve(self.params.file_size() * s1.symbol_len());
        for block in [s1, s2] {
            for r in 0..alpha {
                for c in r..alpha {
                    padded.extend_from_slice(block.get(r, c));
                }
            }
        }
    }
}

/// Greatest common divisor (used only for a diagnostic message).
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl ErasureCode for ProductMatrixMsr {
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
            .get_or_build(&key, |ids| self.decode_plan(ids))
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
                "MSR shares must have equal length".into(),
            ));
        }
        chosen.sort_by_key(|s| s.index);
        let indices: Vec<usize> = chosen.iter().map(|s| s.index).collect();
        let plan = self
            .plans
            .decode
            .get_or_build(&indices, |ids| self.decode_plan(ids))?;
        let lambda_k: Vec<Gf256> = indices.iter().map(|&i| self.lambda[i]).collect();

        // Y (k × α): the collected node contents (flat copy, one allocation).
        let mut y = BufMatrix::zero(k, alpha, symbol_len);
        for (r, s) in chosen.iter().enumerate() {
            y.row_bytes_mut(r).copy_from_slice(&s.data);
        }

        // C = Y Φ_Kᵗ (k × k): C_ij = P_ij + λ_i Q_ij.
        let c = y.right_mul(&plan.phi_k_t)?;

        // Recover the off-diagonal entries of P and Q.
        let mut p = BufMatrix::zero(k, k, symbol_len);
        let mut q = BufMatrix::zero(k, k, symbol_len);
        for i in 0..k {
            for j in 0..k {
                if i == j {
                    continue;
                }
                let denom = lambda_k[i] + lambda_k[j];
                if denom.is_zero() {
                    return Err(CodeError::LinearAlgebra(
                        "duplicate lambda values encountered during MSR decode".into(),
                    ));
                }
                // Q_ij = (C_ij + C_ji) / (λ_i + λ_j).
                let mut q_ij = c.get(i, j).to_vec();
                bulk::xor_slice(c.get(j, i), &mut q_ij);
                bulk::scale_slice(denom.inverse(), &mut q_ij);
                // P_ij = C_ij + λ_i Q_ij.
                let mut p_ij = c.get(i, j).to_vec();
                bulk::mul_add_slice(lambda_k[i], &q_ij, &mut p_ij);
                q.set(i, j, &q_ij);
                p.set(i, j, &p_ij);
            }
        }

        // From the off-diagonal rows recover Φ_K S1 and Φ_K S2 row by row:
        // for each i, [X_ij]_{j≠i} = (φ_i S) Φ_{K∖i}ᵗ with Φ_{K∖i} invertible
        // (the inverses are part of the memoized plan).
        let recover_rows = |x: &BufMatrix| -> Result<BufMatrix, CodeError> {
            let mut out = BufMatrix::zero(k, alpha, symbol_len);
            let mut row = BufMatrix::zero(1, alpha, symbol_len);
            for i in 0..k {
                let others: Vec<usize> = (0..k).filter(|&j| j != i).collect();
                for (pos, &j) in others.iter().enumerate() {
                    row.set(0, pos, x.get(i, j));
                }
                let solved = row.right_mul(&plan.recover_invs[i])?; // 1 × α = φ_i S
                out.row_bytes_mut(i).copy_from_slice(solved.row_bytes(0));
            }
            Ok(out)
        };

        let phi_s1 = recover_rows(&p)?;
        let phi_s2 = recover_rows(&q)?;

        // Any α rows of Φ_K are invertible; the plan inverts the first α.
        let take_rows = |m: &BufMatrix| -> Result<BufMatrix, CodeError> {
            let mut out = BufMatrix::zero(alpha, alpha, symbol_len);
            for r in 0..alpha {
                out.row_bytes_mut(r).copy_from_slice(m.row_bytes(r));
            }
            Ok(out)
        };
        let s1 = take_rows(&phi_s1)?.left_mul(&plan.phi_sub_inv)?;
        let s2 = take_rows(&phi_s2)?.left_mul(&plan.phi_sub_inv)?;

        self.reassemble_into(&s1, &s2, out);
        unframe_in_place(out)
    }
}

impl RegeneratingCode for ProductMatrixMsr {
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
        // h = (ψ_helper M) φ_fᵗ = Σ_a content[a] · φ_f[a].
        let coeffs = self.phi.row(failed_index);
        let inputs: Vec<&[u8]> = (0..alpha).map(|a| helper.symbol(a, alpha)).collect();
        let data = combine(coeffs, &inputs, symbol_len)?;
        Ok(HelperData::new(helper.index, failed_index, data))
    }

    fn repair(&self, failed_index: usize, helpers: &[HelperData]) -> Result<Share, CodeError> {
        self.check_index(failed_index)?;
        let d = self.params.d();
        let alpha = self.params.alpha();
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

        // Ψ_rep (M φ_fᵗ) = h ⇒ M φ_fᵗ = Ψ_rep⁻¹ h = [S1 φ_fᵗ; S2 φ_fᵗ]; the
        // failed node's content is (S1 φ_fᵗ)ᵗ + λ_f (S2 φ_fᵗ)ᵗ. Folding the
        // λ_f recombination into the inverse's rows gives a single α × d
        // coefficient application per repair.
        chosen.sort_by_key(|h| h.helper_index);
        let indices: Vec<usize> = chosen.iter().map(|h| h.helper_index).collect();
        let inv = self
            .plans
            .repair
            .get_or_build(&indices, |ids| Ok(self.psi.select_rows(ids).inverse()?))?;
        let lambda_f = self.lambda[failed_index];
        let folded = Matrix::from_fn(alpha, d, |a, j| {
            inv[(a, j)] + lambda_f * inv[(alpha + a, j)]
        });

        let inputs: Vec<&[u8]> = chosen.iter().map(|h| h.data.as_slice()).collect();
        let mut buf = Vec::new();
        apply_symbols_into(&folded, &inputs, symbol_len, &mut buf)?;
        Ok(Share::new(failed_index, buf))
    }

    fn prepare_repair(&self, helpers: &[usize]) -> Result<(), CodeError> {
        ProductMatrixMsr::prepare_repair(self, helpers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 89 % 256) as u8).collect()
    }

    #[test]
    fn encode_share_matches_bulk_encode() {
        let code = ProductMatrixMsr::with_dimensions(10, 4).unwrap();
        let value = sample_value(150);
        let shares = code.encode(&value).unwrap();
        for i in 0..10 {
            assert_eq!(code.encode_share(&value, i).unwrap(), shares[i]);
        }
    }

    #[test]
    fn roundtrip_from_any_k_shares() {
        let code = ProductMatrixMsr::with_dimensions(10, 4).unwrap();
        let value = sample_value(321);
        let shares = code.encode(&value).unwrap();
        for subset in [[0usize, 1, 2, 3], [6, 7, 8, 9], [0, 3, 6, 9], [1, 4, 5, 8]] {
            let chosen: Vec<Share> = subset.iter().map(|&i| shares[i].clone()).collect();
            assert_eq!(code.decode(&chosen).unwrap(), value, "subset {subset:?}");
        }
        assert_eq!(code.cached_decode_plans(), 4);
    }

    #[test]
    fn exact_repair_from_any_d_helpers() {
        let code = ProductMatrixMsr::with_dimensions(12, 5).unwrap(); // d = 8
        let value = sample_value(400);
        let shares = code.encode(&value).unwrap();
        for failed in [0usize, 6, 11] {
            let helper_ids: Vec<usize> = (0..12).filter(|&i| i != failed).take(8).collect();
            let helpers: Vec<HelperData> = helper_ids
                .iter()
                .map(|&h| code.helper_data(&shares[h], failed).unwrap())
                .collect();
            assert_eq!(
                code.repair(failed, &helpers).unwrap(),
                shares[failed],
                "failed {failed}"
            );
        }
        // Three failures over two distinct helper sets: the Ψ_rep inverse is
        // shared whenever the helper set repeats.
        assert!(code.cached_repair_plans() <= 3);
    }

    #[test]
    fn storage_is_minimum_b_over_k() {
        // MSR stores exactly B/k per node — half of MBR's worst case
        // (Remark 2 of the paper).
        let code = ProductMatrixMsr::with_dimensions(20, 6).unwrap();
        let value = sample_value(12_000);
        let shares = code.encode(&value).unwrap();
        let per_node = shares[0].data.len() as f64;
        let expected = value.len() as f64 / 6.0;
        assert!((per_node - expected).abs() / expected < 0.05);
    }

    #[test]
    fn helper_payload_is_small() {
        let code = ProductMatrixMsr::with_dimensions(12, 5).unwrap();
        let value = sample_value(5000);
        let shares = code.encode(&value).unwrap();
        let helper = code.helper_data(&shares[0], 4).unwrap();
        assert_eq!(
            helper.data.len() * code.params().alpha(),
            shares[0].data.len()
        );
    }

    #[test]
    fn lambda_collision_detected() {
        // alpha = 50 ⇒ gcd(50, 255) = 5 ⇒ at most 51 distinct lambda values.
        assert!(ProductMatrixMsr::with_dimensions(120, 51).is_err());
        // alpha = 13 is coprime with 255, so larger n works.
        assert!(ProductMatrixMsr::with_dimensions(40, 14).is_ok());
    }

    #[test]
    fn smallest_instance_k2() {
        // k = 2, d = 2, alpha = 1: degenerate but valid.
        let code = ProductMatrixMsr::with_dimensions(5, 2).unwrap();
        let value = sample_value(33);
        let shares = code.encode(&value).unwrap();
        assert_eq!(code.decode(&shares[2..4]).unwrap(), value);
        let helpers: Vec<HelperData> = [0usize, 4]
            .iter()
            .map(|&h| code.helper_data(&shares[h], 1).unwrap())
            .collect();
        assert_eq!(code.repair(1, &helpers).unwrap(), shares[1]);
    }

    #[test]
    fn decode_and_repair_input_validation() {
        let code = ProductMatrixMsr::with_dimensions(10, 4).unwrap();
        let value = sample_value(64);
        let shares = code.encode(&value).unwrap();
        assert!(matches!(
            code.decode(&shares[..3]),
            Err(CodeError::NotEnoughShares { needed: 4, got: 3 })
        ));
        let failed = 0;
        let helpers: Vec<HelperData> = (1..7)
            .map(|h| code.helper_data(&shares[h], failed).unwrap())
            .collect();
        assert!(matches!(
            code.repair(failed, &helpers[..5]),
            Err(CodeError::NotEnoughShares { needed: 6, got: 5 })
        ));
        let mut wrong = helpers.clone();
        wrong[0].failed_index = 3;
        assert!(matches!(
            code.repair(failed, &wrong),
            Err(CodeError::MalformedShare(_))
        ));
    }

    #[test]
    fn wrong_kind_rejected() {
        let p = CodeParams::mbr(10, 3, 5).unwrap();
        assert!(ProductMatrixMsr::new(p).is_err());
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let code = ProductMatrixMsr::with_dimensions(9, 3).unwrap();
        let value = sample_value(222);
        let mut buf = Vec::new();
        code.encode_share_into(&value, 5, &mut buf).unwrap();
        assert_eq!(buf, code.encode_share(&value, 5).unwrap().data);

        let shares = code.encode(&value).unwrap();
        let mut out = vec![7u8; 3];
        code.decode_into(&shares[4..7], &mut out).unwrap();
        assert_eq!(out, value);
    }

    #[test]
    fn various_value_sizes_roundtrip() {
        let code = ProductMatrixMsr::with_dimensions(9, 3).unwrap();
        for len in [0usize, 1, 10, 100, 4096] {
            let value = sample_value(len);
            let shares = code.encode(&value).unwrap();
            assert_eq!(code.decode(&shares[4..7]).unwrap(), value, "len={len}");
        }
    }
}
