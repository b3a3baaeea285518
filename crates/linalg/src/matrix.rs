//! A row-major dense matrix of `f64`.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use ppm_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows).map(|i| crate::dot(self.row(i), x)).collect()
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // Exact-zero sparsity skip, not a tolerance check: only
                // a true 0.0 contributes nothing. lint:allow(float-eq)
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Computes the Gram matrix `AᵀA` (symmetric, `cols x cols`).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let r = self.row(i);
            for (a, &ra) in r.iter().enumerate() {
                // Exact-zero sparsity skip as above. lint:allow(float-eq)
                if ra == 0.0 {
                    continue;
                }
                // Upper triangle of row a; each entry still accumulates
                // over the rows of `self` in order.
                for (gab, &rb) in g.row_mut(a)[a..].iter_mut().zip(&r[a..]) {
                    *gab += ra * rb;
                }
            }
        }
        for a in 0..self.cols {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }

    /// Computes `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn t_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "t_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &yi) in y.iter().enumerate() {
            let r = self.row(i);
            for j in 0..self.cols {
                out[j] += r[j] * yi;
            }
        }
        out
    }

    /// Maximum absolute entry (zero for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::identity(3);
        assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn t_matvec_matches_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = [1.0, -1.0, 2.0];
        assert_eq!(a.t_matvec(&y), a.transpose().matvec(&y));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_len_panics() {
        Matrix::identity(2).matvec(&[1.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Matrix::identity(2));
        assert!(s.contains("1.0000"));
    }

    fn random_matrix(rng: &mut Rng, max_dim: usize) -> Matrix {
        let r = 1 + rng.below(max_dim as u64) as usize;
        let c = 1 + rng.below(max_dim as u64) as usize;
        Matrix::from_fn(r, c, |_, _| 200.0 * rng.unit_f64() - 100.0)
    }

    #[test]
    fn random_transpose_involution() {
        let mut rng = Rng::seed_from_u64(41);
        for _ in 0..64 {
            let m = random_matrix(&mut rng, 6);
            assert_eq!(m.transpose().transpose(), m);
        }
    }

    #[test]
    fn random_gram_is_symmetric_psd_diagonal() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..64 {
            let m = random_matrix(&mut rng, 5);
            let g = m.gram();
            for i in 0..g.rows() {
                assert!(g[(i, i)] >= -1e-9);
                for j in 0..g.cols() {
                    assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn random_identity_matmul() {
        let mut rng = Rng::seed_from_u64(43);
        for _ in 0..64 {
            let m = random_matrix(&mut rng, 5);
            let id = Matrix::identity(m.rows());
            assert_eq!(id.matmul(&m), m);
        }
    }
}
