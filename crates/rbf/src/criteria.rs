//! Model-selection criteria balancing fit quality against complexity.

/// A model-selection criterion to minimize during subset selection.
///
/// The paper uses the corrected Akaike Information Criterion
/// ([`Criterion::Aicc`], paper Eq. 9); BIC and GCV are provided for the
/// selection-criterion ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Criterion {
    /// Corrected Akaike Information Criterion:
    /// `p·log(σ̂²) + 2m + 2m(m+1)/(p-m-1)`.
    #[default]
    Aicc,
    /// Bayesian Information Criterion: `p·log(σ̂²) + m·log(p)`.
    Bic,
    /// Generalized Cross-Validation: `p·log(σ̂²) - 2p·log(1 - m/p)`.
    Gcv,
}

impl Criterion {
    /// Evaluates the criterion for a model with `m` parameters fitted to
    /// `p` points with residual sum of squares `sse`. Lower is better.
    ///
    /// Returns `f64::INFINITY` for models too complex to be scored
    /// (`m >= p - 1` for AICc, `m >= p` for GCV) and for a non-finite
    /// `sse` (a residual that overflowed), so that the selection search
    /// naturally rejects them.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `sse` is negative.
    pub fn score(self, p: usize, m: usize, sse: f64) -> f64 {
        assert!(p > 0, "criterion needs at least one data point");
        if !sse.is_finite() {
            return f64::INFINITY;
        }
        assert!(sse >= -1e-9, "invalid sse {sse}");
        let pf = p as f64;
        let mf = m as f64;
        // Floor the variance so a perfect fit scores very well without
        // producing -inf (which would defeat tie-breaking on complexity).
        let sigma2 = (sse.max(0.0) / pf).max(1e-12);
        let fit = pf * sigma2.ln();
        match self {
            Criterion::Aicc => {
                if m + 1 >= p {
                    return f64::INFINITY;
                }
                fit + 2.0 * mf + 2.0 * mf * (mf + 1.0) / (pf - mf - 1.0)
            }
            Criterion::Bic => fit + mf * pf.ln(),
            Criterion::Gcv => {
                if m >= p {
                    return f64::INFINITY;
                }
                fit - 2.0 * pf * (1.0 - mf / pf).ln()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aicc_matches_formula() {
        let p = 100usize;
        let m = 10usize;
        let sse = 2.5;
        let sigma2: f64 = sse / 100.0;
        let expected = 100.0 * sigma2.ln() + 20.0 + (20.0 * 11.0) / (100.0 - 10.0 - 1.0);
        assert!((Criterion::Aicc.score(p, m, sse) - expected).abs() < 1e-12);
    }

    #[test]
    fn all_criteria_penalize_complexity_at_equal_fit() {
        for c in [Criterion::Aicc, Criterion::Bic, Criterion::Gcv] {
            let simple = c.score(50, 5, 1.0);
            let complex = c.score(50, 20, 1.0);
            assert!(simple < complex, "{c:?} did not penalize complexity");
        }
    }

    #[test]
    fn all_criteria_reward_fit_at_equal_complexity() {
        for c in [Criterion::Aicc, Criterion::Bic, Criterion::Gcv] {
            let good = c.score(50, 5, 0.1);
            let bad = c.score(50, 5, 10.0);
            assert!(good < bad, "{c:?} did not reward fit");
        }
    }

    #[test]
    fn aicc_saturation_returns_infinity() {
        assert!(Criterion::Aicc.score(10, 9, 1.0).is_infinite());
        assert!(Criterion::Aicc.score(10, 20, 1.0).is_infinite());
        assert!(Criterion::Gcv.score(10, 10, 1.0).is_infinite());
    }

    #[test]
    fn perfect_fit_is_finite() {
        let s = Criterion::Aicc.score(50, 5, 0.0);
        assert!(s.is_finite());
    }

    #[test]
    fn non_finite_sse_is_rejected_not_a_panic() {
        for c in [Criterion::Aicc, Criterion::Bic, Criterion::Gcv] {
            assert_eq!(c.score(30, 1, f64::INFINITY), f64::INFINITY, "{c:?}");
            assert_eq!(c.score(30, 1, f64::NAN), f64::INFINITY, "{c:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one data point")]
    fn zero_points_panics() {
        Criterion::Aicc.score(0, 0, 1.0);
    }
}
