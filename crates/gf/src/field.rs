//! The field GF(2^8).
//!
//! Elements are represented by a single byte. Addition is XOR; multiplication
//! is carried out modulo the primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1`
//! (0x11d) via log/exp tables. The tables are computed once by a `const fn` at
//! compile time, so lookups are branch-free and allocation-free.

// In GF(2^8), addition/subtraction *are* XOR and division is multiplication
// by the inverse — the "suspicious arithmetic" clippy lints do not apply.
#![allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The primitive polynomial used to construct GF(2^8): `x^8+x^4+x^3+x^2+1`.
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Number of elements of the field.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group (`FIELD_SIZE - 1`).
pub const GROUP_ORDER: usize = 255;

/// Carry-less multiplication of two bytes reduced modulo [`PRIMITIVE_POLY`].
const fn clmul_reduce(a: u8, b: u8) -> u8 {
    let mut acc: u16 = 0;
    let mut a16 = a as u16;
    let mut b16 = b as u16;
    // Schoolbook carry-less multiply with interleaved reduction.
    let mut i = 0;
    while i < 8 {
        if b16 & 1 != 0 {
            acc ^= a16;
        }
        b16 >>= 1;
        a16 <<= 1;
        if a16 & 0x100 != 0 {
            a16 ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    acc as u8
}

/// exp table: `EXP[i] = g^i` where `g = 2` (a generator for 0x11d).
/// The table is doubled in length so `EXP[log_a + log_b]` never needs a
/// modular reduction.
const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        x = clmul_reduce(x, 2);
        i += 1;
    }
    // Duplicate for overflow-free indexing; positions 255.. repeat the cycle.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    exp
}

const fn build_log(exp: &[u8; 512]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// `EXP[i] = 2^i` in GF(2^8), length 512 to avoid reductions.
pub const EXP_TABLE: [u8; 512] = build_exp();
/// `LOG[x] = log_2(x)`; `LOG[0]` is unused (0 has no logarithm).
pub const LOG_TABLE: [u8; 256] = build_log(&EXP_TABLE);

/// An element of GF(2^8).
///
/// Implements the full set of arithmetic operators. Division by zero panics,
/// mirroring integer division in Rust.
///
/// ```rust
/// use lds_gf::Gf256;
/// let a = Gf256::new(7);
/// let b = Gf256::new(19);
/// assert_eq!(a + b - b, a);
/// assert_eq!((a * b) / b, a);
/// assert_eq!(a - a, Gf256::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator `g = 2` of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Creates a field element from its byte representation.
    #[inline]
    pub const fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// Returns the byte representation of the element.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns true if the element is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[inline]
    pub fn inverse(self) -> Self {
        assert!(
            !self.is_zero(),
            "zero has no multiplicative inverse in GF(256)"
        );
        let log = LOG_TABLE[self.0 as usize] as usize;
        Gf256(EXP_TABLE[GROUP_ORDER - log])
    }

    /// Raises the element to the power `e`.
    ///
    /// `0^0` is defined as `1`.
    pub fn pow(self, e: usize) -> Self {
        if e == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let log = LOG_TABLE[self.0 as usize] as usize;
        let idx = (log * e) % GROUP_ORDER;
        Gf256(EXP_TABLE[idx])
    }

    /// Returns `g^i` where `g` is the fixed generator. Useful for building
    /// evaluation points `x_i` that are guaranteed to be distinct for
    /// `i < 255`.
    #[inline]
    pub fn exp(i: usize) -> Self {
        Gf256(EXP_TABLE[i % GROUP_ORDER])
    }

    /// Multiply-accumulate over byte slices: `dst[i] ^= coeff * src[i]`.
    ///
    /// This is the inner loop of all encoding operations; exposed here so that
    /// higher layers do not re-implement it.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_acc_slice(coeff: Gf256, src: &[u8], dst: &mut [u8]) {
        crate::bulk::mul_add_slice(coeff, src, dst);
    }

    /// Multiplies every byte of `buf` by `coeff` in place.
    pub fn scale_slice(coeff: Gf256, buf: &mut [u8]) {
        crate::bulk::scale_slice(coeff, buf);
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl From<u8> for Gf256 {
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    fn from(v: Gf256) -> Self {
        v.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let log_a = LOG_TABLE[self.0 as usize] as usize;
        let log_b = LOG_TABLE[rhs.0 as usize] as usize;
        Gf256(EXP_TABLE[log_a + log_b])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inverse()
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |a, b| a + b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_elements() -> impl Iterator<Item = Gf256> {
        (0..=255u8).map(Gf256::new)
    }

    #[test]
    fn tables_are_consistent() {
        // exp/log are inverse bijections on the multiplicative group.
        for i in 0..GROUP_ORDER {
            let x = EXP_TABLE[i];
            assert_ne!(x, 0, "generator powers are never zero");
            assert_eq!(LOG_TABLE[x as usize] as usize, i);
        }
        // exp table covers every non-zero element exactly once per period.
        let mut seen = [false; 256];
        for i in 0..GROUP_ORDER {
            let x = EXP_TABLE[i] as usize;
            assert!(!seen[x], "duplicate in exp table at {i}");
            seen[x] = true;
        }
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        let a = Gf256::new(0xab);
        let b = Gf256::new(0x34);
        assert_eq!(a + b, Gf256::new(0xab ^ 0x34));
        assert_eq!(a + a, Gf256::ZERO);
        assert_eq!(a - b, a + b);
        assert_eq!(-a, a);
    }

    #[test]
    fn multiplication_identity_and_zero() {
        for x in all_elements() {
            assert_eq!(x * Gf256::ONE, x);
            assert_eq!(x * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn multiplication_matches_reference_clmul() {
        // Cross-check the table-based multiply against the bitwise reference
        // for a dense grid of pairs.
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(5) {
                let expected = clmul_reduce(a, b);
                assert_eq!((Gf256::new(a) * Gf256::new(b)).value(), expected);
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for x in all_elements().skip(1) {
            let inv = x.inverse();
            assert_eq!(x * inv, Gf256::ONE, "x = {x:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn zero_inverse_panics() {
        let _ = Gf256::ZERO.inverse();
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let g = Gf256::GENERATOR;
        let mut acc = Gf256::ONE;
        for e in 0..300 {
            assert_eq!(g.pow(e), acc, "exponent {e}");
            acc *= g;
        }
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf256::GENERATOR;
        let mut acc = g;
        let mut order = 1;
        while acc != Gf256::ONE {
            acc *= g;
            order += 1;
        }
        assert_eq!(order, GROUP_ORDER);
    }

    #[test]
    fn exp_points_distinct() {
        let points: Vec<_> = (0..255).map(Gf256::exp).collect();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                assert_ne!(points[i], points[j]);
            }
        }
    }

    #[test]
    fn mul_acc_slice_matches_scalar_loop() {
        let src: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let mut dst: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(59)).collect();
        let mut expected = dst.clone();
        let c = Gf256::new(0x9d);
        for (e, s) in expected.iter_mut().zip(&src) {
            *e = (Gf256::new(*e) + c * Gf256::new(*s)).value();
        }
        Gf256::mul_acc_slice(c, &src, &mut dst);
        assert_eq!(dst, expected);
    }

    #[test]
    fn scale_slice_matches_scalar_loop() {
        let mut buf: Vec<u8> = (0..64u8).collect();
        let mut expected = buf.clone();
        let c = Gf256::new(0x53);
        for e in expected.iter_mut() {
            *e = (c * Gf256::new(*e)).value();
        }
        Gf256::scale_slice(c, &mut buf);
        assert_eq!(buf, expected);

        let mut zeros: Vec<u8> = (1..10u8).collect();
        Gf256::scale_slice(Gf256::ZERO, &mut zeros);
        assert!(zeros.iter().all(|&b| b == 0));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let x = Gf256::new(0);
        assert!(!format!("{x}").is_empty());
        assert!(!format!("{x:?}").is_empty());
    }

    #[test]
    fn conversions_roundtrip() {
        for b in [0u8, 1, 17, 255] {
            let x: Gf256 = b.into();
            let back: u8 = x.into();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn field_axioms_hold_on_sample() {
        // Associativity, commutativity and distributivity on a pseudo-random
        // sample of triples (exhaustive would be 2^24 checks; the sample plus
        // the proptest suite below gives good confidence).
        let sample: Vec<Gf256> = (0u16..=255)
            .step_by(3)
            .map(|v| Gf256::new(v as u8))
            .collect();
        for (i, &a) in sample.iter().enumerate() {
            let b = sample[(i * 7 + 3) % sample.len()];
            let c = sample[(i * 13 + 5) % sample.len()];
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * b, b * a);
            assert_eq!(a + b, b + a);
            assert_eq!(a * (b + c), a * b + a * c);
        }
    }
}
