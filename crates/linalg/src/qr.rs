//! Householder QR factorization for least-squares problems.

use crate::Matrix;

/// A Householder QR factorization of a tall (or square) matrix `A = Q R`.
///
/// `Q` is stored implicitly as a sequence of Householder reflectors; only
/// the operations needed for least squares (`Qᵀ b` and back substitution
/// with `R`) are exposed.
///
/// # Examples
///
/// ```
/// use ppm_linalg::{Matrix, Qr};
///
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
/// let qr = Qr::new(&a);
/// let x = qr.solve(&[6.0, 9.0, 12.0]).unwrap(); // y = 3 + 3x
/// assert!((x[0] - 3.0).abs() < 1e-10);
/// assert!((x[1] - 3.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorization: R in the upper triangle, reflector vectors
    /// below the diagonal.
    packed: Matrix,
    /// Scalar coefficients of the Householder reflectors.
    tau: Vec<f64>,
}

impl Qr {
    /// Factorizes `a` (requires `rows >= cols` for a meaningful least
    /// squares solve, but any shape factorizes).
    pub fn new(a: &Matrix) -> Self {
        let m = a.rows();
        let n = a.cols();
        let mut r = a.clone();
        let k = m.min(n);
        let mut tau = vec![0.0; k];
        for j in 0..k {
            // Build the Householder reflector for column j below row j.
            let mut norm = 0.0;
            for i in j..m {
                norm += r[(i, j)] * r[(i, j)];
            }
            let norm = norm.sqrt();
            // A Householder column is skipped only when identically
            // zero; near-zero must still reflect. lint:allow(float-eq)
            if norm == 0.0 {
                tau[j] = 0.0;
                continue;
            }
            let alpha = if r[(j, j)] >= 0.0 { -norm } else { norm };
            let v0 = r[(j, j)] - alpha;
            // v = [v0, r[j+1..m, j]]; normalize so v[0] = 1.
            let mut vnorm2 = v0 * v0;
            for i in (j + 1)..m {
                vnorm2 += r[(i, j)] * r[(i, j)];
            }
            // Identically-zero tail as above. lint:allow(float-eq)
            if vnorm2 == 0.0 {
                tau[j] = 0.0;
                continue;
            }
            tau[j] = 2.0 * v0 * v0 / vnorm2;
            // Store normalized reflector below the diagonal.
            for i in (j + 1)..m {
                r[(i, j)] /= v0;
            }
            r[(j, j)] = alpha;
            // Apply the reflector to the remaining columns.
            for c in (j + 1)..n {
                let mut s = r[(j, c)];
                for i in (j + 1)..m {
                    s += r[(i, j)] * r[(i, c)];
                }
                s *= tau[j];
                r[(j, c)] -= s;
                for i in (j + 1)..m {
                    let vij = r[(i, j)];
                    r[(i, c)] -= s * vij;
                }
            }
        }
        Qr { packed: r, tau }
    }

    /// Applies `Qᵀ` to a vector.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the factored row count.
    pub fn qt_mul(&self, b: &[f64]) -> Vec<f64> {
        let m = self.packed.rows();
        assert_eq!(b.len(), m, "rhs length mismatch");
        let mut y = b.to_vec();
        for j in 0..self.tau.len() {
            // tau is set to exactly 0.0 as the "no reflector" sentinel
            // during factorization. lint:allow(float-eq)
            if self.tau[j] == 0.0 {
                continue;
            }
            let mut s = y[j];
            for (i, &yi) in y.iter().enumerate().take(m).skip(j + 1) {
                s += self.packed[(i, j)] * yi;
            }
            s *= self.tau[j];
            y[j] -= s;
            for (i, yi) in y.iter_mut().enumerate().take(m).skip(j + 1) {
                *yi -= s * self.packed[(i, j)];
            }
        }
        y
    }

    /// The `(i, j)` entry of `R` for `i <= j` (upper triangle).
    fn r(&self, i: usize, j: usize) -> f64 {
        self.packed[(i, j)]
    }

    /// Solves the least-squares problem `min ||A x - b||²`.
    ///
    /// Returns `None` if `R` is (numerically) rank deficient.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the factored row count.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let n = self.packed.cols();
        let m = self.packed.rows();
        if m < n {
            return None; // underdetermined; not needed in this workspace
        }
        let y = self.qt_mul(b);
        let scale = self.packed.max_abs().max(1.0);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let d = self.r(i, i);
            if d.abs() <= 1e-12 * scale {
                return None;
            }
            let mut s = y[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.r(i, j) * xj;
            }
            x[i] = s / d;
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    #[test]
    fn exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = Qr::new(&a).solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_least_squares_matches_normal_equations() {
        let mut rng = Rng::seed_from_u64(4);
        let a = Matrix::from_fn(30, 5, |_, _| rng.normal());
        let b: Vec<f64> = (0..30).map(|_| rng.normal()).collect();
        let x = Qr::new(&a).solve(&b).unwrap();
        // Normal equations residual: Aᵀ(Ax - b) = 0.
        let ax = a.matvec(&x);
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let grad = a.t_matvec(&resid);
        for g in grad {
            assert!(g.abs() < 1e-8, "gradient {g} not ~0");
        }
    }

    #[test]
    fn rank_deficient_returns_none() {
        // Second column is 2x the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert!(Qr::new(&a).solve(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn zero_column_returns_none() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[3.0, 0.0]]);
        assert!(Qr::new(&a).solve(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn qt_preserves_norm() {
        let mut rng = Rng::seed_from_u64(8);
        let a = Matrix::from_fn(10, 4, |_, _| rng.normal());
        let qr = Qr::new(&a);
        let b: Vec<f64> = (0..10).map(|_| rng.normal()).collect();
        let y = qr.qt_mul(&b);
        assert!(
            (crate::norm2(&b) - crate::norm2(&y)).abs() < 1e-9,
            "orthogonal transform changed the norm"
        );
    }
}
