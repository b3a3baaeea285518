//! The RBF network: a weighted sum of Gaussian basis functions.

use ppm_linalg::Matrix;

use crate::Rbf;

/// A fitted radial basis function network (paper Eq. 1, Figure 3).
///
/// # Examples
///
/// ```
/// use ppm_rbf::{Rbf, RbfNetwork};
///
/// let net = RbfNetwork::new(
///     vec![Rbf::new(vec![0.0], vec![1.0]), Rbf::new(vec![1.0], vec![1.0])],
///     vec![2.0, -1.0],
/// );
/// let y = net.predict(&[0.0]);
/// assert!((y - (2.0 - (-1.0f64).exp().powi(1))).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RbfNetwork {
    bases: Vec<Rbf>,
    weights: Vec<f64>,
}

impl RbfNetwork {
    /// Assembles a network from basis functions and their output weights.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ, the network is empty, or the basis
    /// functions have inconsistent dimensionality.
    pub fn new(bases: Vec<Rbf>, weights: Vec<f64>) -> Self {
        assert_eq!(bases.len(), weights.len(), "bases/weights length mismatch");
        assert!(
            !bases.is_empty(),
            "network needs at least one basis function"
        );
        let dim = bases[0].dim();
        assert!(
            bases.iter().all(|b| b.dim() == dim),
            "basis functions have inconsistent dimensionality"
        );
        RbfNetwork { bases, weights }
    }

    /// The basis functions (hidden layer).
    pub fn bases(&self) -> &[Rbf] {
        &self.bases
    }

    /// The output-layer weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of RBF centers (the paper's `m`).
    pub fn num_centers(&self) -> usize {
        self.bases.len()
    }

    /// The input dimensionality.
    pub fn dim(&self) -> usize {
        self.bases[0].dim()
    }

    /// Evaluates the network at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.bases
            .iter()
            .zip(&self.weights)
            .map(|(b, &w)| w * b.eval(x))
            .sum()
    }

    /// Builds the design matrix `H` with `H[i][j] = hⱼ(xᵢ)` for a set of
    /// basis functions — the hidden-layer activations at each data point.
    pub fn design_matrix(bases: &[Rbf], points: &[Vec<f64>]) -> Matrix {
        Matrix::from_fn(points.len(), bases.len(), |i, j| bases[j].eval(&points[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_center_is_scaled_gaussian() {
        let net = RbfNetwork::new(vec![Rbf::new(vec![0.5], vec![0.3])], vec![4.0]);
        assert!((net.predict(&[0.5]) - 4.0).abs() < 1e-12);
        assert!(net.predict(&[0.9]) < 4.0);
    }

    #[test]
    fn predict_is_linear_in_weights() {
        let bases = vec![
            Rbf::new(vec![0.2], vec![0.4]),
            Rbf::new(vec![0.8], vec![0.4]),
        ];
        let n1 = RbfNetwork::new(bases.clone(), vec![1.0, 0.0]);
        let n2 = RbfNetwork::new(bases.clone(), vec![0.0, 1.0]);
        let n3 = RbfNetwork::new(bases, vec![2.0, 3.0]);
        let x = [0.6];
        let combined = 2.0 * n1.predict(&x) + 3.0 * n2.predict(&x);
        assert!((n3.predict(&x) - combined).abs() < 1e-12);
    }

    #[test]
    fn design_matrix_rows_are_activations() {
        let bases = vec![
            Rbf::new(vec![0.0], vec![1.0]),
            Rbf::new(vec![1.0], vec![1.0]),
        ];
        let pts = vec![vec![0.0], vec![1.0]];
        let h = RbfNetwork::design_matrix(&bases, &pts);
        assert!((h[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((h[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((h[(0, 1)] - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_weights_panic() {
        RbfNetwork::new(vec![Rbf::new(vec![0.5], vec![0.5])], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent dimensionality")]
    fn mixed_dims_panic() {
        RbfNetwork::new(
            vec![
                Rbf::new(vec![0.5], vec![0.5]),
                Rbf::new(vec![0.5, 0.5], vec![0.5, 0.5]),
            ],
            vec![1.0, 2.0],
        );
    }
}
