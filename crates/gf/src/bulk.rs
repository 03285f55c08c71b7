//! Bulk slice kernels over GF(2^8).
//!
//! Every hot-path operation of the coding stack — encode, decode, helper
//! computation, repair — is a small coefficient matrix applied to a few
//! equal-length byte strings: `dst[r] = Σ_c coeffs[r][c] · src[c]`. This
//! module holds that product and the slice primitives around it:
//!
//! * [`MUL_TABLE`] — the full 256 × 256 multiplication table, computed at
//!   compile time. Every other table here (the nibble tables of the `pshufb`
//!   kernels, the bit matrices of the GFNI kernel) is derived from it, so the
//!   field polynomial is stated once, in [`crate::field`].
//! * [`apply_rows_into`] / [`apply_rows_into_vecs`] — **the** matrix ×
//!   striped-payload kernel. The coefficient rows arrive as [`RowTerms`] (the
//!   non-zero terms of each row), the sources as borrowed slices. The product
//!   is strip-mined: a strip of every source (2 KiB each) is multiplied into
//!   that strip of *every* output row before the next strip is touched, so
//!   the value is read from memory once however many rows there are. Each
//!   output byte is written exactly once and never read: the first group of
//!   terms of a row assigns, later groups accumulate, and the `Vec` form sizes
//!   its outputs over the bytes it has just written instead of zeroing them
//!   first. A source may be given in pieces (see [`apply_rows_into`]), which
//!   is how the codecs encode a value where it lies instead of copying it
//!   into a framed buffer.
//! * [`mul_add_slices`] — `dst ^= Σ c_i · src_i`, the same row kernels with
//!   every group accumulating.
//! * [`xor_slice`], [`mul_add_slice`], [`scale_slice`] — the one-source forms.
//! * [`apply_small`] — the gathered table loop for symbols of at most
//!   [`SMALL_SYMBOL_MAX`] bytes, where per-row overhead, not arithmetic,
//!   decides the cost.
//! * [`scalar_mul_add_slice`] — the byte-at-a-time reference path written
//!   with the `Gf256` operator overloads. It is kept as the test oracle:
//!   every kernel level must be byte-identical to it.
//!
//! The inner loop exists once per instruction-set level, as a *row kernel*
//! (up to four terms into one destination, monomorphised on the term count
//! so the tables stay in registers): GFNI (`vgf2p8affineqb` on 256-bit
//! registers), AVX2 and SSSE3 (`pshufb` nibble tables) and a portable table
//! loop. The level is chosen once from CPUID — there is no option, feature
//! or environment variable — and [`kernel`] names it.

use crate::field::{Gf256, EXP_TABLE, LOG_TABLE};
use crate::matrix::Matrix;

/// Builds the full multiplication table from the log/exp tables.
const fn build_mul_table() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 1;
    while a < 256 {
        let log_a = LOG_TABLE[a] as usize;
        let mut b = 1;
        while b < 256 {
            table[a][b] = EXP_TABLE[log_a + LOG_TABLE[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// `MUL_TABLE[a][b] = a · b` in GF(2^8). Row `MUL_TABLE[c]` is the
/// per-constant lookup row of the portable kernels.
pub static MUL_TABLE: [[u8; 256]; 256] = build_mul_table();

/// The instruction-set level the kernels of this module run at on this CPU:
/// `"gfni"`, `"avx2"`, `"ssse3"` or `"portable"`. A coding throughput figure
/// is attributable only together with this name.
pub fn kernel() -> &'static str {
    arch::Level::detected().name()
}

/// `dst[i] ^= src[i]` — the `c = 1` multiply-accumulate, processed in
/// `u128` words.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor_slice length mismatch");
    const W: usize = 16;
    let words = src.len() - src.len() % W;
    for (d, s) in dst[..words]
        .chunks_exact_mut(W)
        .zip(src[..words].chunks_exact(W))
    {
        let a = u128::from_ne_bytes(s.try_into().expect("chunk is 16 bytes"));
        let b = u128::from_ne_bytes((&*d).try_into().expect("chunk is 16 bytes"));
        d.copy_from_slice(&(a ^ b).to_ne_bytes());
    }
    for (d, s) in dst[words..].iter_mut().zip(&src[words..]) {
        *d ^= *s;
    }
}

/// `buf[i] = c · buf[i]` in place.
pub fn scale_slice(c: Gf256, buf: &mut [u8]) {
    if c == Gf256::ONE {
        return;
    }
    if c.is_zero() {
        buf.fill(0);
        return;
    }
    let row = &MUL_TABLE[c.value() as usize];
    for b in buf.iter_mut() {
        *b = row[*b as usize];
    }
}

/// `dst[i] ^= c · src[i]` — the multiply-accumulate at the heart of all
/// encoding and decoding.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_add_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_add_slice length mismatch");
    if c == Gf256::ONE {
        xor_slice(src, dst);
    } else if !c.is_zero() {
        mul_add_slices(&[(c, src)], dst);
    }
}

/// Fused multi-source accumulate: `dst[i] ^= Σ_t terms[t].0 · terms[t].1[i]`,
/// four terms per pass over `dst`, through the row kernel of the level
/// [`kernel`] names.
///
/// # Panics
///
/// Panics if any source length differs from `dst`'s.
pub fn mul_add_slices(terms: &[(Gf256, &[u8])], dst: &mut [u8]) {
    arch::combine(arch::Level::detected(), terms, dst);
}

/// Bytes of every source multiplied into all output rows before the next
/// strip is touched ([`apply_rows_into`]). The strips of the sources a row
/// reads must stay in the L1 cache (32–48 KiB) from the first output row to
/// the last, next to the output strip being written: at 2 KiB that holds for
/// the up to ~12 sources of the codes the deployments here use, while a strip
/// is still long enough (64 vector iterations) that per-row set-up is noise.
/// It is a constant because nothing the code can observe would choose
/// better: larger codes lose the L1 reuse gradually (to L2, where the old,
/// unblocked kernel always was), never correctness. A caller that hands its
/// sources over in pieces loses nothing to the cuts when every piece but the
/// last is a multiple of this long.
pub const STRIP: usize = 2048;

/// One non-zero coefficient of a [`RowTerms`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Term {
    col: u32,
    coef: u8,
}

/// The coefficient rows of a matrix × payload product, stored as the
/// non-zero terms of each row.
///
/// The codes' matrices are applied far more often than they are built, and
/// many are sparse (an MBR generator row has `d` non-zero entries out of
/// `B = kd − k(k−1)/2`), so the kernels take the rows in this form: building
/// it is the one scan of the coefficients an application pays, whatever the
/// payload length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowTerms {
    cols: usize,
    /// The terms of all rows, back to back.
    terms: Vec<Term>,
    /// `ends[r]` is the end of row `r` in `terms`.
    ends: Vec<usize>,
}

impl RowTerms {
    /// No rows yet, over `cols` sources, with room for `rows` rows of
    /// `terms` non-zero terms in all. (The matrices applied to short values
    /// are built per call and hold a few dozen terms: grown push by push,
    /// their two vectors would cost more than the product.)
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or does not fit the term representation.
    pub fn with_capacity(cols: usize, rows: usize, terms: usize) -> Self {
        assert!(cols > 0, "a product needs at least one source");
        assert!(u32::try_from(cols).is_ok(), "too many sources");
        RowTerms {
            cols,
            terms: Vec::with_capacity(terms),
            ends: Vec::with_capacity(rows),
        }
    }

    /// The rows of a dense matrix.
    pub fn from_matrix(coeffs: &Matrix) -> Self {
        let dense = || (0..coeffs.rows()).map(|r| coeffs.row(r));
        let terms = dense().flatten().filter(|c| !c.is_zero()).count();
        let mut rows = RowTerms::with_capacity(coeffs.cols(), coeffs.rows(), terms);
        for row in dense() {
            rows.push_row(row.iter().copied().enumerate());
        }
        rows
    }

    /// The rows as a dense matrix (the terms of one source add up).
    pub fn to_matrix(&self) -> Matrix {
        let mut dense = Matrix::zero(self.rows(), self.cols);
        for r in 0..self.rows() {
            for term in self.row(r) {
                dense[(r, term.col as usize)] += Gf256::new(term.coef);
            }
        }
        dense
    }

    /// Appends a row given as `(source index, coefficient)` pairs. Zero
    /// coefficients are dropped; a source may appear more than once (its
    /// terms add up).
    ///
    /// # Panics
    ///
    /// Panics if a source index is not below [`RowTerms::cols`].
    pub fn push_row(&mut self, terms: impl IntoIterator<Item = (usize, Gf256)>) {
        for (col, coef) in terms {
            assert!(col < self.cols, "term source index out of range");
            if !coef.is_zero() {
                self.terms.push(Term {
                    col: col as u32,
                    coef: coef.value(),
                });
            }
        }
        self.ends.push(self.terms.len());
    }

    /// Number of rows (outputs of the product).
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Number of sources every row ranges over.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn row(&self, r: usize) -> &[Term] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        &self.terms[start..self.ends[r]]
    }
}

/// The overwriting matrix × striped-payload product: row `r` of `dst` (the
/// bytes `[r·len, (r+1)·len)`) becomes `Σ_c rows[r][c] · src[c]`, whatever
/// `dst` held before.
///
/// `srcs` holds each source in `p ≥ 1` pieces, piece-major: entry
/// `j·cols + c` is piece `j` of source `c`, every source's piece `j` has the
/// same length, and `len` is the sum of the piece lengths. One piece per
/// source (`srcs.len() == rows.cols()`) is the ordinary case.
///
/// # Panics
///
/// Panics if `srcs` is not a whole number of pieces per source, if the
/// sources of one piece differ in length, or if `dst` is not
/// `rows.rows() · len` bytes long.
pub fn apply_rows_into(rows: &RowTerms, srcs: &[&[u8]], dst: &mut [u8]) {
    arch::apply_to_slice(arch::Level::detected(), rows, srcs, dst);
}

/// [`apply_rows_into`] with the output rows spread evenly over `outs`:
/// each buffer is cleared, sized to its `rows.rows() / outs.len()` rows and
/// filled — without being zeroed first, and reusing its capacity.
///
/// # Panics
///
/// As for [`apply_rows_into`], and if `rows.rows()` is not a multiple of
/// `outs.len()`.
pub fn apply_rows_into_vecs(rows: &RowTerms, srcs: &[&[u8]], outs: &mut [Vec<u8>]) {
    arch::apply_to_vecs(arch::Level::detected(), rows, srcs, outs);
}

/// Rows each of `outs` buffers receives when `rows` is spread evenly.
fn rows_per_out(rows: &RowTerms, outs: usize) -> usize {
    assert!(
        rows.rows().is_multiple_of(outs),
        "{} rows do not spread evenly over {outs} output buffers",
        rows.rows()
    );
    rows.rows().checked_div(outs).unwrap_or(0)
}

/// Length of one output row: the summed piece lengths of a source. Checks
/// the shape [`apply_rows_into`] documents.
fn row_len(rows: &RowTerms, srcs: &[&[u8]]) -> usize {
    assert!(
        srcs.len().is_multiple_of(rows.cols()),
        "{} source pieces for {} sources",
        srcs.len(),
        rows.cols()
    );
    srcs.chunks_exact(rows.cols())
        .map(|piece| {
            let len = piece[0].len();
            // The kernels read `len` bytes of every source of the piece.
            assert!(
                piece.iter().all(|src| src.len() == len),
                "sources of one piece differ in length"
            );
            len
        })
        .sum()
}

/// The row kernels, the strip-mined driver above them and the CPU level
/// they are chosen by.
///
/// This is the only module in the crate allowed to use `unsafe`: the
/// `core::arch` intrinsics, the raw-pointer loads and stores around them,
/// and the `Vec::set_len` that sizes an output over bytes the kernel has
/// written. Every safe entry point checks the level against CPUID and the
/// lengths the kernels rely on before it enters an `unsafe` block.
#[allow(unsafe_code)]
mod arch {
    use super::{row_len, rows_per_out, RowTerms, MUL_TABLE, STRIP};
    use crate::field::Gf256;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Instruction-set levels, weakest first: a CPU at one level also runs
    /// every level below it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(crate) enum Level {
        Portable,
        Ssse3,
        Avx2,
        Gfni,
    }

    impl Level {
        #[cfg(test)]
        pub(crate) const ALL: [Level; 4] =
            [Level::Portable, Level::Ssse3, Level::Avx2, Level::Gfni];

        /// The strongest level this CPU supports.
        pub(crate) fn detected() -> Level {
            static LEVEL: OnceLock<Level> = OnceLock::new();
            *LEVEL.get_or_init(|| {
                #[cfg(target_arch = "x86_64")]
                {
                    let avx2 = std::arch::is_x86_feature_detected!("avx2");
                    if avx2 && std::arch::is_x86_feature_detected!("gfni") {
                        return Level::Gfni;
                    } else if avx2 {
                        return Level::Avx2;
                    } else if std::arch::is_x86_feature_detected!("ssse3") {
                        return Level::Ssse3;
                    }
                }
                Level::Portable
            })
        }

        pub(crate) fn name(self) -> &'static str {
            match self {
                Level::Portable => "portable",
                Level::Ssse3 => "ssse3",
                Level::Avx2 => "avx2",
                Level::Gfni => "gfni",
            }
        }

        /// The CPUID check every `unsafe` block below cites: a level above
        /// the detected one never reaches a kernel.
        fn assert_supported(self) {
            assert!(
                self <= Level::detected(),
                "kernel level {} is not supported by this CPU",
                self.name()
            );
        }
    }

    /// Terms a row kernel takes per pass over its destination. Four keeps the
    /// tables of the widest kernel (two registers per term on AVX2) plus the
    /// accumulator and the loaded sources inside the 16 vector registers.
    const MAX_TERMS: usize = 4;

    /// The low- and high-nibble product tables of every constant, derived
    /// from [`MUL_TABLE`]: bytes `[0, 16)` of entry `c` are `c · n`, bytes
    /// `[16, 32)` are `c · (n << 4)`.
    #[cfg(target_arch = "x86_64")]
    static NIBBLE_TABLES: [[u8; 32]; 256] = {
        let mut tables = [[0u8; 32]; 256];
        let mut c = 0;
        while c < 256 {
            let mut n = 0;
            while n < 16 {
                tables[c][n] = MUL_TABLE[c][n];
                tables[c][16 + n] = MUL_TABLE[c][n << 4];
                n += 1;
            }
            c += 1;
        }
        tables
    };

    /// Multiplication by every constant as the 8 × 8 bit matrix
    /// `vgf2p8affineqb` applies, derived from [`MUL_TABLE`] (the instruction
    /// itself knows no field polynomial). Output bit `i` of the instruction is
    /// the parity of `matrix.byte[7 − i] & x`, and bit `i` of `c · x` is the
    /// XOR over the set bits `j` of `x` of bit `i` of `c · 2^j`.
    #[cfg(target_arch = "x86_64")]
    static AFFINE_MATRICES: [u64; 256] = {
        let mut matrices = [0u64; 256];
        let mut c = 0;
        while c < 256 {
            let mut i = 0;
            while i < 8 {
                let mut mask = 0u64;
                let mut j = 0;
                while j < 8 {
                    if (MUL_TABLE[c][1 << j] >> i) & 1 == 1 {
                        mask |= 1 << j;
                    }
                    j += 1;
                }
                matrices[c] |= mask << (8 * (7 - i));
                i += 1;
            }
            c += 1;
        }
        matrices
    };

    /// Portable row kernel: `dst[i] (^)= Σ_t coefs[t] · srcs[t][i]` through
    /// the multiplication-table rows; also the tail of every vector kernel.
    ///
    /// # Safety
    ///
    /// Every `srcs[t]` is valid for reads of `len` bytes and `dst` for writes
    /// of `len` bytes (and reads, when `ACC`); `dst` overlaps no source.
    unsafe fn row_portable<const N: usize, const ACC: bool>(
        coefs: [u8; N],
        srcs: [*const u8; N],
        dst: *mut u8,
        len: usize,
    ) {
        let tables = coefs.map(|c| &MUL_TABLE[c as usize]);
        for i in 0..len {
            let mut acc = if ACC { *dst.add(i) } else { 0 };
            for t in 0..N {
                acc ^= tables[t][*srcs[t].add(i) as usize];
            }
            *dst.add(i) = acc;
        }
    }

    /// SSSE3 row kernel: 16 bytes per step, each constant as two 16-entry
    /// `pshufb` tables indexed by the low and high nibble of the source byte.
    ///
    /// # Safety
    ///
    /// As for [`row_portable`], and the CPU supports SSSE3.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    unsafe fn row_ssse3<const N: usize, const ACC: bool>(
        coefs: [u8; N],
        srcs: [*const u8; N],
        dst: *mut u8,
        len: usize,
    ) {
        const W: usize = 16;
        let mask = _mm_set1_epi8(0x0f);
        let mut lo = [_mm_setzero_si128(); N];
        let mut hi = [_mm_setzero_si128(); N];
        for t in 0..N {
            let table = NIBBLE_TABLES[coefs[t] as usize].as_ptr();
            lo[t] = _mm_loadu_si128(table.cast());
            hi[t] = _mm_loadu_si128(table.add(16).cast());
        }
        let mut off = 0;
        while off + W <= len {
            let mut acc = if ACC {
                _mm_loadu_si128(dst.add(off).cast())
            } else {
                _mm_setzero_si128()
            };
            for t in 0..N {
                let s = _mm_loadu_si128(srcs[t].add(off).cast());
                let l = _mm_and_si128(s, mask);
                let h = _mm_and_si128(_mm_srli_epi16(s, 4), mask);
                let product = _mm_xor_si128(_mm_shuffle_epi8(lo[t], l), _mm_shuffle_epi8(hi[t], h));
                acc = _mm_xor_si128(acc, product);
            }
            _mm_storeu_si128(dst.add(off).cast(), acc);
            off += W;
        }
        row_portable::<N, ACC>(coefs, srcs.map(|s| s.add(off)), dst.add(off), len - off);
    }

    /// AVX2 row kernel: [`row_ssse3`] on 32 bytes per step, the tables
    /// broadcast to both 128-bit lanes.
    ///
    /// # Safety
    ///
    /// As for [`row_portable`], and the CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn row_avx2<const N: usize, const ACC: bool>(
        coefs: [u8; N],
        srcs: [*const u8; N],
        dst: *mut u8,
        len: usize,
    ) {
        const W: usize = 32;
        let mask = _mm256_set1_epi8(0x0f);
        let mut lo = [_mm256_setzero_si256(); N];
        let mut hi = [_mm256_setzero_si256(); N];
        for t in 0..N {
            let table = NIBBLE_TABLES[coefs[t] as usize].as_ptr();
            lo[t] = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.cast()));
            hi[t] = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.add(16).cast()));
        }
        let mut off = 0;
        while off + W <= len {
            let mut acc = if ACC {
                _mm256_loadu_si256(dst.add(off).cast())
            } else {
                _mm256_setzero_si256()
            };
            for t in 0..N {
                let s = _mm256_loadu_si256(srcs[t].add(off).cast());
                let l = _mm256_and_si256(s, mask);
                let h = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
                let product =
                    _mm256_xor_si256(_mm256_shuffle_epi8(lo[t], l), _mm256_shuffle_epi8(hi[t], h));
                acc = _mm256_xor_si256(acc, product);
            }
            _mm256_storeu_si256(dst.add(off).cast(), acc);
            off += W;
        }
        row_portable::<N, ACC>(coefs, srcs.map(|s| s.add(off)), dst.add(off), len - off);
    }

    /// GFNI row kernel: 32 bytes per step, one `vgf2p8affineqb` per term with
    /// the constant's bit matrix broadcast to every 64-bit lane. (No 512-bit
    /// variant: `Vec` data is 16-byte aligned, so every 64-byte access would
    /// split a cache line, and it measured slower than this one.)
    ///
    /// # Safety
    ///
    /// As for [`row_portable`], and the CPU supports GFNI and AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn row_gfni<const N: usize, const ACC: bool>(
        coefs: [u8; N],
        srcs: [*const u8; N],
        dst: *mut u8,
        len: usize,
    ) {
        const W: usize = 32;
        let mut matrices = [_mm256_setzero_si256(); N];
        for t in 0..N {
            matrices[t] = _mm256_set1_epi64x(AFFINE_MATRICES[coefs[t] as usize] as i64);
        }
        let mut off = 0;
        while off + W <= len {
            let mut acc = if ACC {
                _mm256_loadu_si256(dst.add(off).cast())
            } else {
                _mm256_setzero_si256()
            };
            for t in 0..N {
                let s = _mm256_loadu_si256(srcs[t].add(off).cast());
                acc = _mm256_xor_si256(acc, _mm256_gf2p8affine_epi64_epi8::<0>(s, matrices[t]));
            }
            _mm256_storeu_si256(dst.add(off).cast(), acc);
            off += W;
        }
        row_portable::<N, ACC>(coefs, srcs.map(|s| s.add(off)), dst.add(off), len - off);
    }

    /// The row kernel of `level` for `N` terms.
    ///
    /// # Safety
    ///
    /// As for [`row_portable`], and the CPU supports `level`.
    #[inline]
    unsafe fn row<const N: usize, const ACC: bool>(
        level: Level,
        coefs: [u8; N],
        srcs: [*const u8; N],
        dst: *mut u8,
        len: usize,
    ) {
        match level {
            #[cfg(target_arch = "x86_64")]
            Level::Gfni => row_gfni::<N, ACC>(coefs, srcs, dst, len),
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => row_avx2::<N, ACC>(coefs, srcs, dst, len),
            #[cfg(target_arch = "x86_64")]
            Level::Ssse3 => row_ssse3::<N, ACC>(coefs, srcs, dst, len),
            _ => row_portable::<N, ACC>(coefs, srcs, dst, len),
        }
    }

    /// One pass over a destination: the `1 ..= MAX_TERMS` terms, each a
    /// coefficient and where its source starts, are assigned to `dst`, or
    /// added to it when `acc`.
    ///
    /// # Safety
    ///
    /// As for [`row`], for the source of every term.
    #[inline]
    unsafe fn pass(
        level: Level,
        terms: impl ExactSizeIterator<Item = (u8, *const u8)>,
        dst: *mut u8,
        len: usize,
        acc: bool,
    ) {
        let n = terms.len();
        let mut coefs = [0u8; MAX_TERMS];
        let mut srcs = [std::ptr::null(); MAX_TERMS];
        for (t, (coef, src)) in terms.enumerate() {
            coefs[t] = coef;
            srcs[t] = src;
        }
        /// The first `N` entries of a term buffer.
        fn first<const N: usize, T: Copy>(buf: [T; MAX_TERMS]) -> [T; N] {
            std::array::from_fn(|t| buf[t])
        }
        match (n, acc) {
            (1, false) => row::<1, false>(level, first(coefs), first(srcs), dst, len),
            (1, true) => row::<1, true>(level, first(coefs), first(srcs), dst, len),
            (2, false) => row::<2, false>(level, first(coefs), first(srcs), dst, len),
            (2, true) => row::<2, true>(level, first(coefs), first(srcs), dst, len),
            (3, false) => row::<3, false>(level, first(coefs), first(srcs), dst, len),
            (3, true) => row::<3, true>(level, first(coefs), first(srcs), dst, len),
            (4, false) => row::<4, false>(level, first(coefs), first(srcs), dst, len),
            (4, true) => row::<4, true>(level, first(coefs), first(srcs), dst, len),
            _ => unreachable!("a pass takes 1 to {MAX_TERMS} terms, not {n}"),
        }
    }

    /// `dst ^= Σ_t terms[t].0 · terms[t].1` at a given level.
    pub(crate) fn combine(level: Level, terms: &[(Gf256, &[u8])], dst: &mut [u8]) {
        level.assert_supported();
        let len = dst.len();
        for (_, src) in terms {
            assert_eq!(src.len(), len, "source and destination lengths differ");
        }
        for group in terms.chunks(MAX_TERMS) {
            let group = group.iter().map(|(c, src)| (c.value(), src.as_ptr()));
            // SAFETY: `assert_supported` checked the level against CPUID;
            // every source was asserted to be `len` bytes long, `dst` is
            // `len` bytes of an exclusive borrow, so it overlaps no source.
            unsafe { pass(level, group, dst.as_mut_ptr(), len, true) };
        }
    }

    /// The strip-mined product behind [`apply_to_slice`] and
    /// [`apply_to_vecs`]: output row `r` is written at `row_ptr(r)`.
    ///
    /// # Safety
    ///
    /// The CPU supports `level`; `srcs` has the shape `row_len` checks;
    /// `row_ptr(r)` is valid for writes (and reads of bytes this call has
    /// written) of `row_len(rows, srcs)` bytes for every `r < rows.rows()`,
    /// and those ranges overlap neither each other nor any source.
    unsafe fn apply(
        level: Level,
        rows: &RowTerms,
        srcs: &[&[u8]],
        mut row_ptr: impl FnMut(usize) -> *mut u8,
    ) {
        let mut piece_start = 0;
        for piece in srcs.chunks_exact(rows.cols()) {
            let piece_len = piece[0].len();
            let mut off = 0;
            while off < piece_len {
                let len = STRIP.min(piece_len - off);
                for r in 0..rows.rows() {
                    let dst = row_ptr(r).add(piece_start + off);
                    let terms = rows.row(r);
                    if terms.is_empty() {
                        dst.write_bytes(0, len);
                    }
                    for (g, group) in terms.chunks(MAX_TERMS).enumerate() {
                        let group = group
                            .iter()
                            .map(|term| (term.coef, piece[term.col as usize].as_ptr().add(off)));
                        pass(level, group, dst, len, g > 0);
                    }
                }
                off += len;
            }
            piece_start += piece_len;
        }
    }

    /// [`super::apply_rows_into`] at a given level.
    pub(crate) fn apply_to_slice(level: Level, rows: &RowTerms, srcs: &[&[u8]], dst: &mut [u8]) {
        level.assert_supported();
        let len = row_len(rows, srcs);
        assert_eq!(
            dst.len(),
            rows.rows() * len,
            "destination is not rows × source length"
        );
        let base = dst.as_mut_ptr();
        // SAFETY: `assert_supported` checked the level against CPUID and
        // `row_len` the shape of `srcs`; row `r` is bytes `[r·len, (r+1)·len)`
        // of `dst`, inside it by the length assertion above, disjoint from
        // the other rows, and — `dst` being an exclusive borrow — from every
        // source.
        unsafe { apply(level, rows, srcs, |r| base.add(r * len)) };
    }

    /// [`super::apply_rows_into_vecs`] at a given level.
    pub(crate) fn apply_to_vecs(
        level: Level,
        rows: &RowTerms,
        srcs: &[&[u8]],
        outs: &mut [Vec<u8>],
    ) {
        level.assert_supported();
        let len = row_len(rows, srcs);
        let per_out = rows_per_out(rows, outs.len());
        for out in outs.iter_mut() {
            out.clear();
            out.reserve_exact(per_out * len);
        }
        // SAFETY: `assert_supported` checked the level against CPUID and
        // `row_len` the shape of `srcs`; row `r` is bytes
        // `[(r % per_out)·len, (r % per_out + 1)·len)` of the allocation of
        // `outs[r / per_out]`, which the `reserve_exact` above made at least
        // `per_out · len` bytes long — rows are disjoint, and the buffers,
        // being exclusively borrowed, overlap no source. `Vec::as_mut_ptr`
        // creates no reference to the (uninitialised) contents.
        unsafe {
            apply(level, rows, srcs, |r| {
                outs[r / per_out].as_mut_ptr().add(r % per_out * len)
            });
        }
        for out in outs.iter_mut() {
            // SAFETY: `apply` wrote all `len` bytes (every strip of every
            // piece) of each of this buffer's `per_out` rows — a row without
            // terms is zero-filled — so its first `per_out · len` bytes are
            // initialised, and they are within the capacity reserved above.
            unsafe { out.set_len(per_out * len) };
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::scalar_mul_add_slice;
        use super::*;

        fn bytes(len: usize, seed: usize) -> Vec<u8> {
            (0..len)
                .map(|i| ((i + 1).wrapping_mul(seed * 2 + 37) >> 3) as u8)
                .collect()
        }

        /// Coefficients with zero and unit entries, an all-zero row (row 1,
        /// when there is one) and every column used.
        fn coefficient(r: usize, c: usize) -> Gf256 {
            const VALUES: [u8; 7] = [0x53, 1, 0, 0x8e, 0xff, 2, 0x1d];
            if r == 1 {
                Gf256::ZERO
            } else {
                Gf256::new(VALUES[(r * 3 + c) % VALUES.len()])
            }
        }

        /// Row-major `rows × cols` product through the byte-at-a-time oracle.
        fn oracle(rows: usize, cols: usize, srcs: &[&[u8]], len: usize) -> Vec<u8> {
            let mut out = vec![0u8; rows * len];
            for (r, row) in out.chunks_exact_mut(len.max(1)).enumerate().take(rows) {
                for c in 0..cols {
                    scalar_mul_add_slice(coefficient(r, c), srcs[c], &mut row[..len]);
                }
            }
            out
        }

        /// Every level this CPU supports, forced in turn, is byte-identical
        /// to the oracle: lengths on both sides of every vector width and of
        /// the strip, shapes with fewer and more terms than one pass takes,
        /// zero rows, zero and unit coefficients, destinations holding stale
        /// bytes of the wrong length, sources at odd offsets of one
        /// allocation, and sources given in pieces.
        #[test]
        fn every_supported_level_matches_the_scalar_oracle() {
            let (covered, skipped): (Vec<Level>, Vec<Level>) = Level::ALL
                .iter()
                .partition(|&&level| level <= Level::detected());
            let names =
                |levels: &[Level]| -> Vec<&str> { levels.iter().map(|l| l.name()).collect() };
            println!(
                "kernel levels covered: {:?}; skipped (not supported by this CPU): {:?}",
                names(&covered),
                names(&skipped)
            );
            assert!(covered.contains(&Level::Portable));

            let lens = [
                0usize,
                1,
                15,
                16,
                17,
                31,
                32,
                33,
                63,
                64,
                65,
                STRIP - 1,
                STRIP,
                STRIP + 1,
                53_000,
            ];
            let shapes = [(1usize, 1usize), (3, 5), (15, 5), (5, 6), (2, 9)];
            for &level in &covered {
                for (rows, cols) in shapes {
                    let mut terms = RowTerms::with_capacity(cols, rows, rows * cols);
                    for r in 0..rows {
                        terms.push_row((0..cols).map(|c| (c, coefficient(r, c))));
                    }
                    for len in lens {
                        // Sources are sub-slices of one allocation at odd
                        // offsets, so no vector load is aligned.
                        let backing = bytes(cols * (len + 3) + 1, rows + cols);
                        let srcs: Vec<&[u8]> = (0..cols)
                            .map(|c| &backing[1 + c * (len + 3)..][..len])
                            .collect();
                        let expected = oracle(rows, cols, &srcs, len);
                        let ctx = format!("{} {rows}x{cols} len {len}", level.name());

                        let mut dst = vec![0xAA; rows * len];
                        apply_to_slice(level, &terms, &srcs, &mut dst);
                        assert!(dst == expected, "apply_to_slice, {ctx}");

                        // Stale contents of the wrong length, odd capacity.
                        let mut out = vec![0xAA; len / 2 + 7];
                        apply_to_vecs(level, &terms, &srcs, std::slice::from_mut(&mut out));
                        assert!(out == expected, "apply_to_vecs (one buffer), {ctx}");
                        let mut outs: Vec<Vec<u8>> =
                            (0..rows).map(|r| vec![0xAA; (r * 5) % 9]).collect();
                        apply_to_vecs(level, &terms, &srcs, &mut outs);
                        assert!(outs.concat() == expected, "apply_to_vecs (per row), {ctx}");

                        // The same sources in three pieces (cut at 8 and at
                        // 3 bytes from the end, as the frameless encode cuts).
                        if len >= 11 {
                            let cuts = [0, 8, len - 3, len];
                            let pieces: Vec<&[u8]> = cuts
                                .windows(2)
                                .flat_map(|w| srcs.iter().map(move |s| &s[w[0]..w[1]]))
                                .collect();
                            let mut dst = vec![0xAA; rows * len];
                            apply_to_slice(level, &terms, &pieces, &mut dst);
                            assert!(dst == expected, "pieces, {ctx}");
                        }

                        // Accumulating form: every term of row 0 into a
                        // destination that already holds bytes.
                        let row0: Vec<(Gf256, &[u8])> =
                            (0..cols).map(|c| (coefficient(0, c), srcs[c])).collect();
                        let mut acc = bytes(len, 99);
                        let mut acc_expected = acc.clone();
                        for (c, src) in &row0 {
                            scalar_mul_add_slice(*c, src, &mut acc_expected);
                        }
                        combine(level, &row0, &mut acc);
                        assert!(acc == acc_expected, "accumulating combine, {ctx}");
                    }
                }
            }
        }

        #[test]
        fn a_level_above_the_detected_one_is_refused() {
            let Some(&above) = Level::ALL.iter().find(|&&l| l > Level::detected()) else {
                println!("this CPU supports every level: nothing to refuse");
                return;
            };
            let refused = std::panic::catch_unwind(|| combine(above, &[], &mut []));
            assert!(refused.is_err(), "{} ran unsupported", above.name());
        }
    }
}

/// Symbol lengths up to this many bytes go through [`apply_small`]'s gathered
/// table loop instead of the strip-mined kernel.
///
/// At `symbol_len ≈ 1` the cost of a matrix application is dominated not by
/// arithmetic but by per-row overhead: gathering the terms of a pass,
/// selecting the row kernel, loading its tables, each paid once *per output
/// symbol* for a handful of bytes. Below this threshold the whole matrix is
/// cheaper as one flat pass over the multiplication-table rows; above it the
/// row kernels win, even where a symbol is shorter than a vector and they
/// run as their fused table-loop tail. The value is the measured crossover
/// of the MBR `write-to-L2` span encode (k=2 d=3, 15 rows of ≤ 3 terms):
/// 343 against 428 ns at 2-byte symbols, 624 against 628 ns at 15, 725
/// against 691 ns at 20, 871 against 793 ns at 28.
pub const SMALL_SYMBOL_MAX: usize = 16;

/// Gathered tiny-symbol matrix application: output symbol `r` is
/// `Σ_m rows[r][m] · src_symbol(m)` over the `rows.cols()` source symbols of
/// `symbol_len` bytes packed in `src`, and the output symbols are spread
/// evenly over `outs` (each cleared first, capacity reused) as by
/// [`apply_rows_into_vecs`].
///
/// This is the `symbol_len ≈ 1` fast path of the coding stack (see
/// [`SMALL_SYMBOL_MAX`]): the remaining cost of the MBR `write-to-L2` path
/// on small values is per-symbol overhead, so the whole product is one flat
/// loop with no kernel selection inside.
///
/// # Panics
///
/// Panics if `src` is not `rows.cols() · symbol_len` bytes long or
/// `rows.rows()` is not a multiple of `outs.len()`.
pub fn apply_small(rows: &RowTerms, src: &[u8], symbol_len: usize, outs: &mut [Vec<u8>]) {
    assert_eq!(
        src.len(),
        rows.cols() * symbol_len,
        "apply_small source length mismatch"
    );
    let per_out = rows_per_out(rows, outs.len());
    for (e, out) in outs.iter_mut().enumerate() {
        out.clear();
        out.resize(per_out * symbol_len, 0);
        if symbol_len == 1 {
            // The dominant tiny case: every symbol is one byte, so the whole
            // product is a sparse matrix-vector multiply over table rows.
            for (a, byte) in out.iter_mut().enumerate() {
                for term in rows.row(e * per_out + a) {
                    *byte ^= MUL_TABLE[term.coef as usize][src[term.col as usize] as usize];
                }
            }
            continue;
        }
        for (a, symbol) in out.chunks_exact_mut(symbol_len.max(1)).enumerate() {
            for term in rows.row(e * per_out + a) {
                let table = &MUL_TABLE[term.coef as usize];
                let col = term.col as usize;
                let source = &src[col * symbol_len..(col + 1) * symbol_len];
                for (d, &s) in symbol.iter_mut().zip(source) {
                    *d ^= table[s as usize];
                }
            }
        }
    }
}

/// Byte-at-a-time `dst[i] ^= c · src[i]` through the `Gf256` operators — the
/// reference oracle for every kernel of this module.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn scalar_mul_add_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "scalar_mul_add_slice length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (Gf256::new(*d) + c * Gf256::new(*s)).value();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| {
                (i as u8)
                    .wrapping_mul(31)
                    .wrapping_add(seed)
                    .wrapping_mul(97)
            })
            .collect()
    }

    #[test]
    fn mul_table_matches_operator() {
        for a in (0..=255u16).step_by(3) {
            for b in (0..=255u16).step_by(5) {
                let expected = (Gf256::new(a as u8) * Gf256::new(b as u8)).value();
                assert_eq!(MUL_TABLE[a as usize][b as usize], expected, "a={a} b={b}");
            }
        }
        assert!(MUL_TABLE[0].iter().all(|&x| x == 0));
        for x in 0..=255u8 {
            assert_eq!(MUL_TABLE[1][x as usize], x, "row 1 is the identity");
        }
    }

    #[test]
    fn kernel_names_a_known_level() {
        assert!(["gfni", "avx2", "ssse3", "portable"].contains(&kernel()));
    }

    #[test]
    fn xor_slice_matches_scalar_all_lengths() {
        for len in [0usize, 1, 7, 15, 16, 17, 33, 64, 100] {
            let src = sample(len, 1);
            let mut dst = sample(len, 2);
            let mut expected = dst.clone();
            scalar_mul_add_slice(Gf256::ONE, &src, &mut expected);
            xor_slice(&src, &mut dst);
            assert_eq!(dst, expected, "len={len}");
        }
    }

    #[test]
    fn mul_add_slice_matches_scalar() {
        for c in [0u8, 1, 2, 0x1d, 0x80, 0xfe] {
            for len in [0usize, 1, 5, 8, 16, 17, 255] {
                let src = sample(len, 4);
                let mut dst = sample(len, 5);
                let mut expected = dst.clone();
                mul_add_slice(Gf256::new(c), &src, &mut dst);
                scalar_mul_add_slice(Gf256::new(c), &src, &mut expected);
                assert_eq!(dst, expected, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn fused_kernel_matches_sequential_application() {
        for n_terms in 0..=9 {
            let len = 75;
            let sources: Vec<Vec<u8>> = (0..n_terms).map(|t| sample(len, t as u8)).collect();
            let coeffs: Vec<Gf256> = (0..n_terms)
                .map(|t| Gf256::new([0, 1, 7, 0x35, 0xb2][t % 5]))
                .collect();
            let terms: Vec<(Gf256, &[u8])> = coeffs
                .iter()
                .copied()
                .zip(sources.iter().map(Vec::as_slice))
                .collect();

            let mut fused = sample(len, 0x77);
            let mut sequential = fused.clone();
            mul_add_slices(&terms, &mut fused);
            for (c, s) in &terms {
                scalar_mul_add_slice(*c, s, &mut sequential);
            }
            assert_eq!(fused, sequential, "n_terms={n_terms}");
        }
    }

    #[test]
    fn row_terms_drop_zeros_and_keep_row_boundaries() {
        let m = Matrix::from_bytes(3, 3, &[0, 2, 0, 0, 0, 0, 5, 0, 7]);
        let rows = RowTerms::from_matrix(&m);
        assert_eq!((rows.rows(), rows.cols()), (3, 3));
        let row =
            |r: usize| -> Vec<(u32, u8)> { rows.row(r).iter().map(|t| (t.col, t.coef)).collect() };
        assert_eq!(row(0), [(1, 2)]);
        assert_eq!(row(1), []);
        assert_eq!(row(2), [(0, 5), (2, 7)]);
        assert_eq!(rows.to_matrix(), m);
    }

    #[test]
    #[should_panic(expected = "source index out of range")]
    fn row_terms_reject_a_source_index_past_the_columns() {
        RowTerms::with_capacity(2, 1, 1).push_row([(2, Gf256::ONE)]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn sources_of_unequal_length_are_refused() {
        let rows = RowTerms::from_matrix(&Matrix::identity(2));
        apply_rows_into(&rows, &[&[1, 2], &[3]], &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "rows × source length")]
    fn a_destination_of_the_wrong_length_is_refused() {
        let rows = RowTerms::from_matrix(&Matrix::identity(2));
        apply_rows_into(&rows, &[&[1, 2], &[3, 4]], &mut [0; 3]);
    }

    #[test]
    fn apply_small_matches_per_symbol_kernels() {
        // Dense-ish random matrix (includes zero and one coefficients) applied
        // per symbol through the scalar oracle versus gathered in one call,
        // into one buffer and spread over one buffer per row.
        for (rows, cols) in [(1usize, 1usize), (3, 5), (5, 9), (8, 8)] {
            let mut m = Matrix::zero(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    m[(r, c)] = Gf256::new(((r * 31 + c * 7) % 256) as u8);
                }
            }
            let terms = RowTerms::from_matrix(&m);
            for symbol_len in [0usize, 1, 2, 3, 7, 8] {
                let src = sample(cols * symbol_len, 0x42);
                let mut expected = vec![0u8; rows * symbol_len];
                for r in 0..rows {
                    for c in 0..cols {
                        scalar_mul_add_slice(
                            m[(r, c)],
                            &src[c * symbol_len..(c + 1) * symbol_len],
                            &mut expected[r * symbol_len..(r + 1) * symbol_len],
                        );
                    }
                }
                let mut gathered = vec![0xCC; 5];
                apply_small(
                    &terms,
                    &src,
                    symbol_len,
                    std::slice::from_mut(&mut gathered),
                );
                assert_eq!(
                    gathered, expected,
                    "rows={rows} cols={cols} sl={symbol_len}"
                );
                let mut per_row = vec![vec![0xCC; 2]; rows];
                apply_small(&terms, &src, symbol_len, &mut per_row);
                assert_eq!(
                    per_row.concat(),
                    expected,
                    "per row, rows={rows} cols={cols} sl={symbol_len}"
                );
            }
        }
    }

    #[test]
    fn scale_slice_matches_scalar() {
        for c in [0u8, 1, 0x9c] {
            let mut buf = sample(40, 9);
            let mut expected = vec![0; 40];
            scalar_mul_add_slice(Gf256::new(c), &buf, &mut expected);
            scale_slice(Gf256::new(c), &mut buf);
            assert_eq!(buf, expected, "c={c}");
        }
    }
}
