//! Dense matrices over GF(2^8).
//!
//! The [`Matrix`] type implements the operations needed by the product-matrix
//! regenerating-code constructions and by Reed–Solomon encoding/decoding:
//! multiplication, transpose, inversion by Gauss–Jordan elimination, rank,
//! row/column selection, and structured constructors (identity,
//! Vandermonde).

use crate::field::Gf256;
use std::fmt;
use std::ops::{Index, IndexMut, Mul};

/// Errors produced by matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix is singular (not invertible / system not solvable).
    Singular,
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Dimensions of the left operand (rows, cols).
        left: (usize, usize),
        /// Dimensions of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// A non-square matrix was passed where a square one is required.
    NotSquare,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::DimensionMismatch { left, right } => write!(
                f,
                "dimension mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MatrixError::NotSquare => write!(f, "matrix is not square"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major matrix over GF(2^8).
///
/// ```rust
/// use lds_gf::Matrix;
/// let m = Matrix::vandermonde(5, 3);
/// let sub = m.select_rows(&[0, 2, 4]);
/// let inv = sub.inverse().unwrap();
/// assert_eq!(&sub * &inv, Matrix::identity(3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a zero matrix of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from a row-major vector of elements.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Gf256>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "element count must match dimensions"
        );
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row-major bytes.
    pub fn from_bytes(rows: usize, cols: usize, bytes: &[u8]) -> Self {
        Self::from_vec(rows, cols, bytes.iter().copied().map(Gf256::new).collect())
    }

    /// Creates a matrix from a function of (row, column).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { Gf256::ONE } else { Gf256::ZERO })
    }

    /// A Vandermonde matrix with `rows` rows and `cols` columns whose `i`-th
    /// row is `[1, x_i, x_i^2, ..., x_i^{cols-1}]` with `x_i = g^i` (distinct
    /// for `rows <= 255`).
    ///
    /// Any `cols` rows of this matrix are linearly independent, which is the
    /// property required by both the Reed–Solomon and product-matrix
    /// constructions.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 255` (evaluation points would repeat).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= 255,
            "at most 255 distinct evaluation points in GF(256)"
        );
        Matrix::from_fn(rows, cols, |r, c| Gf256::exp(r).pow(c))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns true if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[Gf256] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [Gf256] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    pub fn col(&self, c: usize) -> Vec<Gf256> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns a new matrix consisting of the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zero(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "row index {src} out of bounds");
            m.row_mut(dst).copy_from_slice(self.row(src));
        }
        m
    }

    /// Returns a new matrix consisting of the selected columns, in order.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zero(self.rows, indices.len());
        for r in 0..self.rows {
            for (dst, &src) in indices.iter().enumerate() {
                assert!(src < self.cols, "column index {src} out of bounds");
                m[(r, dst)] = self[(r, src)];
            }
        }
        m
    }

    /// Vertical concatenation `[self; other]`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "vconcat requires equal column counts"
        );
        let mut m = Matrix::zero(self.rows + other.rows, self.cols);
        for r in 0..self.rows {
            m.row_mut(r).copy_from_slice(self.row(r));
        }
        for r in 0..other.rows {
            m.row_mut(self.rows + r).copy_from_slice(other.row(r));
        }
        m
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if the inner dimensions do
    /// not agree.
    pub fn checked_mul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Gauss–Jordan inversion.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`] for non-square inputs and
    /// [`MatrixError::Singular`] if no inverse exists.
    pub fn inverse(&self) -> Result<Matrix, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find pivot.
            let pivot = (col..n)
                .find(|&r| !a[(r, col)].is_zero())
                .ok_or(MatrixError::Singular)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise pivot row.
            let p = a[(col, col)].inverse();
            a.scale_row(col, p);
            inv.scale_row(col, p);
            // Eliminate every other row.
            for r in 0..n {
                if r != col {
                    let factor = a[(r, col)];
                    if !factor.is_zero() {
                        a.add_scaled_row(col, r, factor);
                        inv.add_scaled_row(col, r, factor);
                    }
                }
            }
        }
        Ok(inv)
    }

    /// Solves `self * x = b` for `x` via Gaussian elimination on an augmented
    /// system, where `b` may have multiple columns.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NotSquare`], [`MatrixError::DimensionMismatch`]
    /// or [`MatrixError::Singular`] as appropriate.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare);
        }
        if b.rows != self.rows {
            return Err(MatrixError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (b.rows, b.cols),
            });
        }
        let inv = self.inverse()?;
        inv.checked_mul(b)
    }

    /// The rank of the matrix (dimension of the row space).
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..a.cols {
            if row >= a.rows {
                break;
            }
            let Some(pivot) = (row..a.rows).find(|&r| !a[(r, col)].is_zero()) else {
                continue;
            };
            a.swap_rows(pivot, row);
            let p = a[(row, col)].inverse();
            a.scale_row(row, p);
            for r in 0..a.rows {
                if r != row {
                    let factor = a[(r, col)];
                    if !factor.is_zero() {
                        a.add_scaled_row(row, r, factor);
                    }
                }
            }
            row += 1;
            rank += 1;
        }
        rank
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let tmp = self[(a, c)];
            self[(a, c)] = self[(b, c)];
            self[(b, c)] = tmp;
        }
    }

    fn scale_row(&mut self, r: usize, factor: Gf256) {
        for c in 0..self.cols {
            self[(r, c)] *= factor;
        }
    }

    /// `row[dst] += factor * row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, factor: Gf256) {
        for c in 0..self.cols {
            let v = self[(src, c)] * factor;
            self[(dst, c)] += v;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.checked_mul(rhs).expect("matrix dimension mismatch")
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self[(r, c)].value())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = Matrix::vandermonde(4, 4);
        let id = Matrix::identity(4);
        assert_eq!(&m * &id, m);
        assert_eq!(&id * &m, m);
    }

    #[test]
    fn vandermonde_square_submatrices_invertible() {
        let v = Matrix::vandermonde(8, 4);
        // Every 4-subset of rows should be invertible; spot-check several.
        let subsets: [[usize; 4]; 5] = [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [0, 2, 4, 6],
            [1, 3, 5, 7],
            [0, 3, 5, 6],
        ];
        for subset in subsets {
            let sub = v.select_rows(&subset);
            let inv = sub
                .inverse()
                .expect("Vandermonde submatrix must be invertible");
            assert_eq!(&sub * &inv, Matrix::identity(4), "subset {subset:?}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Matrix::from_bytes(3, 3, &[1, 2, 3, 4, 5, 7, 9, 11, 99]);
        let inv = m.inverse().expect("invertible");
        assert_eq!(&m * &inv, Matrix::identity(3));
        assert_eq!(&inv * &m, Matrix::identity(3));
    }

    #[test]
    fn singular_matrix_detected() {
        // Two identical rows.
        let m = Matrix::from_bytes(2, 2, &[1, 2, 1, 2]);
        assert_eq!(m.inverse().unwrap_err(), MatrixError::Singular);
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn non_square_inverse_rejected() {
        let m = Matrix::zero(2, 3);
        assert_eq!(m.inverse().unwrap_err(), MatrixError::NotSquare);
    }

    #[test]
    fn mul_dimension_mismatch_detected() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        assert!(matches!(
            a.checked_mul(&b),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_linear_system() {
        let a = Matrix::from_bytes(3, 3, &[2, 3, 5, 7, 11, 13, 17, 19, 23]);
        let x = Matrix::from_bytes(3, 2, &[1, 2, 3, 4, 5, 6]);
        let b = &a * &x;
        let solved = a.solve(&b).expect("solvable");
        assert_eq!(solved, x);
    }

    #[test]
    fn transpose_involution_and_symmetry() {
        let m = Matrix::vandermonde(4, 3);
        assert_eq!(m.transpose().transpose(), m);

        let sym = Matrix::from_bytes(3, 3, &[1, 2, 3, 2, 5, 6, 3, 6, 9]);
        assert_eq!(sym.transpose(), sym);
        let asym = Matrix::from_bytes(3, 3, &[1, 2, 3, 9, 5, 6, 3, 6, 9]);
        assert_ne!(asym.transpose(), asym);
    }

    #[test]
    fn select_and_concat() {
        let m = Matrix::vandermonde(4, 2);
        let top = m.select_rows(&[0, 1]);
        let bottom = m.select_rows(&[2, 3]);
        assert_eq!(top.vconcat(&bottom), m);
    }

    #[test]
    fn row_col_accessors() {
        let m = Matrix::from_bytes(2, 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.row(1), &[Gf256::new(4), Gf256::new(5), Gf256::new(6)]);
        assert_eq!(m.col(2), vec![Gf256::new(3), Gf256::new(6)]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn debug_output_nonempty() {
        let m = Matrix::identity(2);
        assert!(format!("{m:?}").contains("Matrix 2x2"));
    }
}
