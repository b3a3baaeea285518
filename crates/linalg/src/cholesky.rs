//! Cholesky factorization of symmetric positive-definite matrices.

use crate::Matrix;

/// The lower-triangular Cholesky factor `L` of a symmetric
/// positive-definite matrix `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use ppm_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::new(&a).unwrap();
/// let x = chol.solve(&[8.0, 7.0]);
/// // A x = [8, 7]  =>  x = [1.25, 1.5]
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// The rows of `L`, packed contiguously: row `i` holds `L[i][0..=i]`
    /// and starts at offset `i(i+1)/2`.
    packed: Vec<f64>,
    /// The dimension of the factored matrix.
    n: usize,
}

/// Offset of row `i` in the packed lower triangle.
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Returns `None` if the matrix is not (numerically) positive definite.
    /// Only the lower triangle of `a` is read.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Option<Self> {
        assert_eq!(a.rows(), a.cols(), "Cholesky needs a square matrix");
        let n = a.rows();
        let mut chol = Cholesky::with_capacity(n);
        for i in 0..n {
            if !chol.push_row(&a.row(i)[..=i]) {
                return None;
            }
        }
        Some(chol)
    }

    /// The factor of the empty (0×0) matrix, with room to grow to `n` rows
    /// through [`Cholesky::push_row`] without reallocating.
    pub fn with_capacity(n: usize) -> Self {
        Cholesky {
            packed: Vec::with_capacity(row_start(n)),
            n: 0,
        }
    }

    /// Extends the factor of the n×n matrix `A` to the factor of the
    /// bordered matrix `[[A, b], [bᵀ, c]]`, where `row = [b.., c]` is the
    /// new last row of the lower triangle. Costs O(n²).
    ///
    /// Every entry is computed with the same operations in the same order
    /// as [`Cholesky::new`], so factoring a matrix row by row gives the
    /// same bits as factoring it whole. Returns `false`, leaving the
    /// factor unchanged, if the bordered matrix is not (numerically)
    /// positive definite.
    ///
    /// # Panics
    ///
    /// Panics unless `row` has one more entry than the factor has rows.
    pub fn push_row(&mut self, row: &[f64]) -> bool {
        let n = self.n;
        assert_eq!(row.len(), n + 1, "bordered row length mismatch");
        let start = self.packed.len();
        self.packed.extend_from_slice(row);
        let (done, new) = self.packed.split_at_mut(start);
        for j in 0..n {
            let lj = &done[row_start(j)..row_start(j + 1)];
            let (solved, rest) = new.split_at_mut(j);
            let mut s = rest[0];
            for (&x, &y) in solved.iter().zip(lj) {
                s -= x * y;
            }
            rest[0] = s / lj[j];
        }
        let (off, diag) = new.split_at_mut(n);
        let mut d = diag[0];
        for &x in off.iter() {
            d -= x * x;
        }
        if d <= 0.0 || !d.is_finite() {
            self.packed.truncate(start);
            return false;
        }
        diag[0] = d.sqrt();
        self.n += 1;
        true
    }

    /// Drops every row past the first `n`, leaving the factor of the
    /// leading n×n block (whose bits do not depend on the dropped rows).
    ///
    /// # Panics
    ///
    /// Panics if the factor has fewer than `n` rows.
    pub fn truncate(&mut self, n: usize) {
        assert!(
            n <= self.n,
            "cannot truncate a {}-row factor to {n}",
            self.n
        );
        self.packed.truncate(row_start(n));
        self.n = n;
    }

    /// The diagonal entry `L[i][i]`, the square root of the pivot of
    /// row `i`.
    ///
    /// # Panics
    ///
    /// Panics if the factor has no row `i`.
    pub fn diag(&self, i: usize) -> f64 {
        self.row(i)[i]
    }

    /// Row `i` of the factor up to and including the diagonal.
    fn row(&self, i: usize) -> &[f64] {
        &self.packed[row_start(i)..row_start(i + 1)]
    }

    /// The lower-triangular factor as a dense matrix.
    pub fn factor(&self) -> Matrix {
        let mut l = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            l.row_mut(i)[..=i].copy_from_slice(self.row(i));
        }
        l
    }

    /// Solves `A x = b` using the precomputed factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut z = Vec::with_capacity(self.n);
        self.extend_forward(&mut z, b);
        self.back_substitute(&z)
    }

    /// Forward substitution `L z = b`, resumed: `z` holds the solution
    /// for a leading block of the factor, and the entries for the rows
    /// added since are appended. From an empty `z` this is the whole
    /// forward pass of [`Cholesky::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension or `z` is
    /// longer than it.
    pub fn extend_forward(&self, z: &mut Vec<f64>, b: &[f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert!(z.len() <= self.n, "forward solution longer than the factor");
        for i in z.len()..self.n {
            let li = self.row(i);
            let mut s = b[i];
            for (&l, &zk) in li.iter().zip(z.iter()) {
                s -= l * zk;
            }
            z.push(s / li[i]);
        }
    }

    /// Back substitution `Lᵀ x = z`, the second half of
    /// [`Cholesky::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` does not match the matrix dimension.
    pub fn back_substitute(&self, z: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(z.len(), n, "rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = z[i];
            // Column i below the diagonal: L[k][i] for k = i+1.., one
            // packed row apart each.
            let mut at = row_start(i + 1) + i;
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.packed[at] * xk;
                at += k + 1;
            }
            x[i] = s / self.diag(i);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    #[test]
    fn factor_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let re = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((re[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn indefinite_matrix_returns_none() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_none());
    }

    /// Random SPD matrices built as BᵀB + εI should factor and solve.
    #[test]
    fn random_spd_solve_residual_small() {
        let mut rng = Rng::seed_from_u64(99);
        for n in [1usize, 2, 5, 20] {
            let b_mat = Matrix::from_fn(n + 2, n, |_, _| rng.normal());
            let mut a = b_mat.gram();
            for i in 0..n {
                a[(i, i)] += 1e-6;
            }
            let rhs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
            let x = Cholesky::new(&a).unwrap().solve(&rhs);
            let res = a.matvec(&x);
            for i in 0..n {
                assert!((res[i] - rhs[i]).abs() < 1e-6, "n={n} residual too big");
            }
        }
    }

    /// The textbook column-by-column factorization on a dense `L`, as
    /// `Cholesky::new` computed it before the factor was packed. `Err`
    /// carries the column whose pivot was not positive.
    fn reference_factor(a: &Matrix) -> Result<Matrix, usize> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(j);
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(l)
    }

    /// Forward then back substitution on a dense reference factor.
    fn reference_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                s -= l[(i, k)] * yk;
            }
            y[i] = s / l[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= l[(k, i)] * xk;
            }
            x[i] = s / l[(i, i)];
        }
        x
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn leading(a: &Matrix, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| a[(i, j)])
    }

    /// A random SPD matrix `BᵀB + εI` (well conditioned enough to factor
    /// at every prefix).
    fn random_spd(rng: &mut Rng, n: usize) -> Matrix {
        let b = Matrix::from_fn(n + 3, n, |_, _| rng.normal());
        let mut a = b.gram();
        for i in 0..n {
            a[(i, i)] += 1e-3;
        }
        a
    }

    /// Extending a factor one bordered row at a time gives, at every
    /// prefix, the bits of the textbook factorization of that block —
    /// and so does `Cholesky::new`.
    #[test]
    fn row_extension_matches_the_textbook_factor_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(5);
        for n in [1usize, 2, 3, 8, 25] {
            let a = random_spd(&mut rng, n);
            let mut chol = Cholesky::with_capacity(n);
            for i in 0..n {
                assert!(chol.push_row(&a.row(i)[..=i]));
                let want = reference_factor(&leading(&a, i + 1)).unwrap();
                assert_eq!(bits(&chol.factor()), bits(&want), "n={n} prefix {i}");
            }
            let whole = Cholesky::new(&a).unwrap();
            assert_eq!(bits(&whole.factor()), bits(&chol.factor()), "n={n}");
            let rhs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
            let want = reference_solve(&reference_factor(&a).unwrap(), &rhs);
            let got = whole.solve(&rhs);
            let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(to_bits(&got), to_bits(&want), "n={n} solve");
        }
    }

    /// A matrix that stops being positive definite at row k fails there
    /// both ways, and a refused row leaves the factor untouched.
    #[test]
    fn non_positive_definite_row_fails_where_the_textbook_factor_fails() {
        let mut rng = Rng::seed_from_u64(6);
        for (n, k) in [(4usize, 0usize), (6, 3), (10, 9)] {
            let mut a = random_spd(&mut rng, n);
            // Drive the Schur complement at row k negative.
            a[(k, k)] = -1.0;
            assert_eq!(reference_factor(&a).unwrap_err(), k);
            assert!(Cholesky::new(&a).is_none());
            let mut chol = Cholesky::with_capacity(n);
            for i in 0..k {
                assert!(chol.push_row(&a.row(i)[..=i]));
            }
            let before = bits(&chol.factor());
            assert!(!chol.push_row(&a.row(k)[..=k]), "n={n} row {k}");
            assert_eq!(chol.factor().rows(), k);
            assert_eq!(bits(&chol.factor()), before);
        }
    }

    /// Truncating to a prefix and extending with other rows gives the
    /// factor of the new bordered matrix; re-extending with the original
    /// rows reproduces the original bits.
    #[test]
    fn truncate_then_reextend_reproduces_the_bits() {
        let mut rng = Rng::seed_from_u64(7);
        let a = random_spd(&mut rng, 12);
        let full = Cholesky::new(&a).unwrap();
        let mut chol = full.clone();
        chol.truncate(5);
        assert_eq!(
            bits(&chol.factor()),
            bits(&reference_factor(&leading(&a, 5)).unwrap())
        );
        // Border the prefix with rows 9, 10, 11 instead of 5.. (a symmetric
        // permutation of `a` restricted to those indices).
        let order = [0usize, 1, 2, 3, 4, 9, 10, 11];
        for (i, &r) in order.iter().enumerate().skip(5) {
            let row: Vec<f64> = order[..=i].iter().map(|&c| a[(r, c)]).collect();
            assert!(chol.push_row(&row));
        }
        let permuted = Matrix::from_fn(8, 8, |i, j| a[(order[i], order[j])]);
        assert_eq!(
            bits(&chol.factor()),
            bits(&reference_factor(&permuted).unwrap())
        );
        chol.truncate(5);
        for i in 5..12 {
            assert!(chol.push_row(&a.row(i)[..=i]));
        }
        assert_eq!(bits(&chol.factor()), bits(&full.factor()));
        let rhs: Vec<f64> = (0..12).map(|_| rng.normal()).collect();
        let mut z = Vec::new();
        chol.truncate(7);
        chol.extend_forward(&mut z, &rhs[..7]);
        for i in 7..12 {
            assert!(chol.push_row(&a.row(i)[..=i]));
        }
        chol.extend_forward(&mut z, &rhs);
        let resumed = chol.back_substitute(&z);
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&resumed), to_bits(&full.solve(&rhs)));
    }

    /// Random diagonal matrices solve exactly: x_i = b_i / d_i.
    #[test]
    fn diagonal_matrices_solve_exactly() {
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = 1 + (rng.below(7) as usize);
            let d: Vec<f64> = (0..n).map(|_| 0.1 + 9.9 * rng.unit_f64()).collect();
            let a = Matrix::from_fn(n, n, |i, j| if i == j { d[i] } else { 0.0 });
            let b: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            let x = Cholesky::new(&a).unwrap().solve(&b);
            for i in 0..n {
                assert!((x[i] - b[i] / d[i]).abs() < 1e-10, "seed {seed}");
            }
        }
    }
}
