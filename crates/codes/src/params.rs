//! Code parameters `{(n, k, d), (α, β)}` and the derived file size `B`.
//!
//! The regenerating-code framework of Dimakis et al. (paper §II-c) stores a
//! file of `B` symbols over `n` nodes, `α` symbols per node; any `k` nodes
//! suffice to decode and a repair downloads `β` symbols from each of `d`
//! helpers. The two extreme operating points are:
//!
//! * **MBR** (minimum bandwidth regenerating): `α = dβ`,
//!   `B = Σ_{i=0}^{k-1} (d - i)β = (kd - k(k-1)/2)·β`.
//! * **MSR** (minimum storage regenerating): `B = kα`; the product-matrix
//!   construction we implement requires `d = 2k - 2` and has `α = k - 1`,
//!   `β = 1`.
//!
//! We always use `β = 1` (one field symbol per stripe), which is what the
//! product-matrix constructions of Rashmi–Shah–Kumar provide.

use crate::error::CodeError;
use std::fmt;

/// Which operating point / code family a [`CodeParams`] instance describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeKind {
    /// Product-matrix minimum bandwidth regenerating code.
    Mbr,
    /// Product-matrix minimum storage regenerating code (`d = 2k − 2`).
    Msr,
    /// Maximum-distance-separable Reed–Solomon code (no sub-packetization,
    /// `α = 1`, naive repair contacts `k` nodes).
    ReedSolomon,
}

impl fmt::Display for CodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CodeKind::Mbr => "MBR",
            CodeKind::Msr => "MSR",
            CodeKind::ReedSolomon => "RS",
        };
        f.write_str(s)
    }
}

/// Validated parameters of a code: `(n, k, d)` plus the derived per-node
/// storage `α`, repair bandwidth `β` and file size `B` (all in symbols).
///
/// Construct through [`CodeParams::mbr`], [`CodeParams::msr`] or
/// [`CodeParams::reed_solomon`]; the
/// constructors reject parameter combinations the corresponding construction
/// cannot support.
///
/// ```rust
/// use lds_codes::CodeParams;
/// let p = CodeParams::mbr(10, 4, 6).unwrap();
/// assert_eq!(p.alpha(), 6);
/// assert_eq!(p.file_size(), 4 * 6 - 4 * 3 / 2); // kd - k(k-1)/2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    kind: CodeKind,
    n: usize,
    k: usize,
    d: usize,
    alpha: usize,
    beta: usize,
    file_size: usize,
}

impl CodeParams {
    /// Parameters for the product-matrix MBR code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless `1 ≤ k ≤ d < n ≤ 255`.
    pub fn mbr(n: usize, k: usize, d: usize) -> Result<Self, CodeError> {
        if k == 0 || k > d || d >= n {
            return Err(CodeError::InvalidParameters(format!(
                "MBR requires 1 <= k <= d < n (got n={n}, k={k}, d={d})"
            )));
        }
        if n > 255 {
            return Err(CodeError::InvalidParameters(format!(
                "GF(256) product-matrix construction supports n <= 255 (got {n})"
            )));
        }
        let alpha = d;
        let beta = 1;
        let file_size = k * d - k * (k - 1) / 2;
        Ok(CodeParams {
            kind: CodeKind::Mbr,
            n,
            k,
            d,
            alpha,
            beta,
            file_size,
        })
    }

    /// Parameters for the product-matrix MSR code. The construction exists
    /// for `d = 2k − 2` (we do not implement the shortened `d > 2k − 2`
    /// variants).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless `k ≥ 2`,
    /// `d = 2k − 2 < n ≤ 255`.
    pub fn msr(n: usize, k: usize) -> Result<Self, CodeError> {
        if k < 2 {
            return Err(CodeError::InvalidParameters(format!(
                "MSR product-matrix construction requires k >= 2 (got k={k})"
            )));
        }
        let d = 2 * k - 2;
        if d >= n {
            return Err(CodeError::InvalidParameters(format!(
                "MSR requires d = 2k-2 < n (got n={n}, k={k}, d={d})"
            )));
        }
        if n > 255 {
            return Err(CodeError::InvalidParameters(format!(
                "GF(256) product-matrix construction supports n <= 255 (got {n})"
            )));
        }
        let alpha = k - 1;
        let beta = 1;
        let file_size = k * (k - 1);
        Ok(CodeParams {
            kind: CodeKind::Msr,
            n,
            k,
            d,
            alpha,
            beta,
            file_size,
        })
    }

    /// Parameters for a Reed–Solomon code. Repair is naive (`d = k`, `β = α`).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless `1 ≤ k ≤ n ≤ 255`.
    pub fn reed_solomon(n: usize, k: usize) -> Result<Self, CodeError> {
        if k == 0 || k > n {
            return Err(CodeError::InvalidParameters(format!(
                "RS requires 1 <= k <= n (got n={n}, k={k})"
            )));
        }
        if n > 255 {
            return Err(CodeError::InvalidParameters(format!(
                "GF(256) Reed-Solomon supports n <= 255 (got {n})"
            )));
        }
        Ok(CodeParams {
            kind: CodeKind::ReedSolomon,
            n,
            k,
            d: k,
            alpha: 1,
            beta: 1,
            file_size: k,
        })
    }

    /// The code family / operating point.
    pub fn kind(&self) -> CodeKind {
        self.kind
    }

    /// Code length: total number of storage nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reconstruction threshold: any `k` node contents decode the value.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of helpers contacted during a repair.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Per-node storage in symbols.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Per-helper repair bandwidth in symbols.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// File size `B` in symbols.
    pub fn file_size(&self) -> usize {
        self.file_size
    }

    /// Per-node storage overhead `α / B`, normalised to a value of size 1
    /// (the unit used by every cost expression in the paper).
    pub fn storage_overhead_per_node(&self) -> f64 {
        self.alpha as f64 / self.file_size as f64
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {{(n={}, k={}, d={}) (alpha={}, beta={}) B={}}}",
            self.kind, self.n, self.k, self.d, self.alpha, self.beta, self.file_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbr_file_size_matches_formula() {
        // B_MBR = sum_{i=0}^{k-1} (d - i) with beta = 1.
        for (n, k, d) in [(10, 3, 5), (12, 4, 6), (200, 80, 80), (255, 100, 120)] {
            let p = CodeParams::mbr(n, k, d).unwrap();
            let expected: usize = (0..k).map(|i| d - i).sum();
            assert_eq!(p.file_size(), expected, "n={n} k={k} d={d}");
            assert_eq!(p.alpha(), d * p.beta());
        }
    }

    #[test]
    fn msr_file_size_is_k_alpha() {
        for (n, k) in [(10, 3), (20, 5), (51, 10)] {
            let p = CodeParams::msr(n, k).unwrap();
            assert_eq!(p.file_size(), k * p.alpha());
            assert_eq!(p.d(), 2 * k - 2);
            assert_eq!(p.alpha(), k - 1);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(CodeParams::mbr(5, 0, 3).is_err());
        assert!(CodeParams::mbr(5, 4, 3).is_err());
        assert!(CodeParams::mbr(5, 3, 5).is_err());
        assert!(CodeParams::mbr(300, 3, 5).is_err());
        assert!(CodeParams::msr(5, 1).is_err());
        assert!(CodeParams::msr(4, 3).is_err());
        assert!(CodeParams::reed_solomon(4, 5).is_err());
        assert!(CodeParams::reed_solomon(4, 0).is_err());
    }

    #[test]
    fn storage_overheads() {
        // MBR at k = d stores alpha = d symbols out of B = k(k+1)/2, i.e.
        // overhead 2/(k+1) per node — the quantity used in Lemma V.5.
        let p = CodeParams::mbr(100, 80, 80).unwrap();
        let expected = 2.0 / 81.0;
        assert!((p.storage_overhead_per_node() - expected).abs() < 1e-12);

        // MSR stores exactly 1/k per node.
        let p = CodeParams::msr(30, 10).unwrap();
        assert!((p.storage_overhead_per_node() - 0.1).abs() < 1e-12);

        // RS stores 1/k per node.
        let p = CodeParams::reed_solomon(10, 5).unwrap();
        assert!((p.storage_overhead_per_node() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let p = CodeParams::mbr(10, 3, 5).unwrap();
        assert!(p.to_string().contains("MBR"));
        assert!(CodeKind::ReedSolomon.to_string().contains("RS"));
    }
}
