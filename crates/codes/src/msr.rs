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
//! * **Data collection** from `k` nodes: `B = kα`, so the `k·α` collected
//!   symbols are `B` equations in the `B` message symbols — the survivors'
//!   stacked generator is square, and invertible because any `k` nodes
//!   determine the message.
//!
//! # What the construction supplies
//!
//! [`Msr`] lists, for the shared engine ([`crate::linear`]): the **generator**
//! rows `φ_i S1 + λ_i φ_i S2` over the two symmetric blocks; the **helper
//! row** `φ_f`; the **repair matrix** `[I  λ_f I] · Ψ_rep⁻¹` (`α × d`, the
//! `λ_f` recombination folded in). The **decode matrix** is the engine's
//! default, the inverse of the stacked generator.
//!
//! # Field-size limit
//!
//! With `Φ` Vandermonde over GF(256) and `λ_i = x_i^α`, the `λ_i` are
//! distinct only while `n ≤ 255 / gcd(α, 255)`. The constructor checks this
//! and reports [`CodeError::InvalidParameters`] otherwise; the benchmarks use
//! parameter ranges that satisfy it.

use crate::error::CodeError;
use crate::linear::{Construction, LinearCode};
use crate::params::{CodeKind, CodeParams};
use lds_gf::bulk::RowTerms;
use lds_gf::{Gf256, Matrix};

/// The product-matrix MSR construction (`d = 2k − 2`): `Ψ = [Φ ΛΦ]` and the
/// layout of the message in the symmetric `S1`, `S2`.
#[derive(Debug, Clone)]
pub struct Msr {
    params: CodeParams,
    /// `n × α` Vandermonde matrix Φ.
    phi: Matrix,
    /// Distinct per-node multipliers λ_i.
    lambda: Vec<Gf256>,
    /// `n × d` composite encoding matrix Ψ = [Φ ΛΦ].
    psi: Matrix,
}

/// A product-matrix MSR code instance (`d = 2k − 2`).
pub type ProductMatrixMsr = LinearCode<Msr>;

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
        Ok(LinearCode::over(Msr {
            params,
            phi,
            lambda,
            psi,
        }))
    }

    /// Convenience constructor from `(n, k)`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_dimensions(n: usize, k: usize) -> Result<Self, CodeError> {
        Self::new(CodeParams::msr(n, k)?)
    }
}

impl Msr {
    /// Index of message symbol at position `(r, c)` of the symmetric matrix
    /// `S1` (`which = 0`) or `S2` (`which = 1`).
    fn message_index(&self, which: usize, r: usize, c: usize) -> usize {
        let alpha = self.params.alpha();
        let (lo, hi) = if r <= c { (r, c) } else { (c, r) };
        let tri = alpha * (alpha + 1) / 2;
        which * tri + lo * (2 * alpha - lo + 1) / 2 + (hi - lo)
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

impl Construction for Msr {
    fn params(&self) -> &CodeParams {
        &self.params
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

    /// `h = (ψ_helper M) φ_fᵗ = Σ_a content[a] · φ_f[a]`.
    fn helper_coefficients(&self, failed: usize) -> &[Gf256] {
        self.phi.row(failed)
    }

    /// `Ψ_rep (M φ_fᵗ) = h ⇒ M φ_fᵗ = Ψ_rep⁻¹ h = [S1 φ_fᵗ; S2 φ_fᵗ]`, and
    /// the failed node's content is `(S1 φ_fᵗ)ᵗ + λ_f (S2 φ_fᵗ)ᵗ`: row `a` of
    /// the inverse plus `λ_f` times row `α + a`.
    fn repair_matrix(&self, failed: usize, helpers: &[usize]) -> Result<Matrix, CodeError> {
        let alpha = self.params.alpha();
        let inv = self.psi.select_rows(helpers).inverse()?;
        let lambda_f = self.lambda[failed];
        Ok(Matrix::from_fn(alpha, self.params.d(), |a, j| {
            inv[(a, j)] + lambda_f * inv[(alpha + a, j)]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErasureCode, HelperData, RegeneratingCode, Share};

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
        // One compiled plan per failed node and helper set (λ_f is folded in).
        assert_eq!(code.cached_repair_plans(), 3);
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
