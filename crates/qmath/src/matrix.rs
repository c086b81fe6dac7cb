//! Dense N×N (and rectangular) complex matrices for simulators and tests.
//!
//! [`CMatrix`] is a straightforward row-major dense matrix. It is used where
//! dimensions are not fixed at compile time: density matrices, Pauli
//! transfer matrices, MPS site tensors (reshaped), and test oracles. Hot
//! loops that only need 2×2 matrices use [`crate::Mat2`] instead.

use crate::complex::Complex64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// ```
/// use qmath::{CMatrix, c64};
/// let i = CMatrix::identity(3);
/// assert_eq!(i[(1, 1)], c64(1.0, 0.0));
/// assert_eq!(i[(0, 1)], c64(0.0, 0.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the n×n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        CMatrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert_eq!(self.rows, self.cols, "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: Complex64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * s).collect(),
        }
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let (r1, c1, r2, c2) = (self.rows, self.cols, other.rows, other.cols);
        CMatrix::from_fn(r1 * r2, c1 * c2, |r, c| {
            self[(r / r2, c / c2)] * other[(r % r2, c % c2)]
        })
    }

    /// Matrix-vector product `M·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        if self.cols == 0 {
            return vec![Complex64::ZERO; self.rows];
        }
        self.data
            .chunks_exact(self.cols)
            .map(|row| {
                let mut acc = Complex64::ZERO;
                for (a, b) in row.iter().zip(v.iter()) {
                    acc += *a * *b;
                }
                acc
            })
            .collect()
    }

    /// Returns `true` when `M†M ≈ I` within `tol` (Frobenius).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let p = self.adjoint() * self.clone();
        (&p - &CMatrix::identity(self.rows)).frobenius_norm() < tol
    }

    /// Entrywise approximate equality.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Embeds a [`crate::Mat2`] as a `CMatrix`.
    pub fn from_mat2(m: &crate::Mat2) -> CMatrix {
        CMatrix::from_vec(2, 2, m.e.to_vec())
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: CMatrix) -> CMatrix {
        &self * &rhs
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{}\t", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat2;

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = CMatrix::from_fn(3, 3, |r, c| Complex64::new(r as f64, c as f64));
        let i = CMatrix::identity(3);
        assert!((m.clone() * i.clone()).approx_eq(&m, 1e-12));
        assert!((i * m.clone()).approx_eq(&m, 1e-12));
    }

    #[test]
    fn kron_shape_and_values() {
        let a = CMatrix::from_mat2(&Mat2::z());
        let b = CMatrix::identity(2);
        let k = a.kron(&b);
        assert_eq!(k.rows(), 4);
        assert_eq!(k[(0, 0)], Complex64::ONE);
        assert_eq!(k[(3, 3)], -Complex64::ONE);
        assert_eq!(k[(1, 1)], Complex64::ONE);
    }

    #[test]
    fn kron_of_unitaries_is_unitary() {
        let a = CMatrix::from_mat2(&Mat2::u3(0.3, 1.1, -0.4));
        let b = CMatrix::from_mat2(&Mat2::h());
        assert!(a.kron(&b).is_unitary(1e-10));
    }

    #[test]
    fn trace_of_kron_multiplies() {
        let a = CMatrix::from_mat2(&Mat2::u3(0.3, 1.1, -0.4));
        let b = CMatrix::from_mat2(&Mat2::t());
        let t = a.kron(&b).trace();
        assert!(t.approx_eq(a.trace() * b.trace(), 1e-10));
    }

    #[test]
    fn adjoint_involutive() {
        let m = CMatrix::from_fn(2, 4, |r, c| Complex64::new(r as f64 + 0.5, c as f64));
        assert!(m.adjoint().adjoint().approx_eq(&m, 1e-12));
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let m = CMatrix::from_fn(3, 3, |r, c| Complex64::new((r * 3 + c) as f64, 1.0));
        let v = vec![Complex64::ONE, Complex64::I, Complex64::new(1.0, 1.0)];
        let got = m.mul_vec(&v);
        let vm = CMatrix::from_vec(3, 1, v);
        let want = &m * &vm;
        for i in 0..3 {
            assert!(got[i].approx_eq(want[(i, 0)], 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }
}
