//! Latin hypercube sampling with discrepancy-optimized selection.

use std::error::Error;
use std::fmt;

use ppm_exec::Executor;
use ppm_rng::{derive_seed, Rng};

use crate::discrepancy::l2_star;
use crate::space::ParamSpace;
use crate::Design;

/// Errors from the candidate-selection sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SampleError {
    /// `best_of` was asked to pick from zero candidates.
    NoCandidates,
    /// The sampler was configured with zero worker threads.
    NoThreads,
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::NoCandidates => {
                write!(f, "need at least one latin-hypercube candidate")
            }
            SampleError::NoThreads => write!(f, "sampler needs at least one worker thread"),
        }
    }
}

impl Error for SampleError {}

/// A latin hypercube sampler over a [`ParamSpace`].
///
/// In a latin hypercube sample of size `S`, each parameter's range is cut
/// into strata and every stratum is hit; the strata of different
/// parameters are combined by independent random permutations. For a
/// parameter with `L` fixed levels (`L <= S`) each level appears
/// `S / L` times (±1), so "all settings of a parameter" are present, as
/// the paper requires.
///
/// [`LatinHypercube::best_of`] implements the paper's variant: generate
/// many candidate hypercubes and keep the one with the lowest L2-star
/// discrepancy. Candidates are generated and scored in parallel over
/// [`LatinHypercube::with_threads`] workers; each candidate derives its
/// own RNG stream from the caller's seed, so the chosen design is
/// byte-identical for every thread count.
///
/// # Examples
///
/// ```
/// use ppm_rng::Rng;
/// use ppm_sampling::lhs::LatinHypercube;
/// use ppm_sampling::space::{ParamDef, ParamSpace};
///
/// let space = ParamSpace::new(vec![
///     ParamDef::continuous("a", 0.0, 1.0),
///     ParamDef::continuous("b", 0.0, 1.0),
/// ]);
/// let mut rng = Rng::seed_from_u64(3);
/// let design = LatinHypercube::new(&space, 16).generate(&mut rng);
/// assert_eq!(design.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct LatinHypercube<'a> {
    space: &'a ParamSpace,
    size: usize,
    threads: usize,
    /// Per-parameter unshuffled level assignments, precomputed once so
    /// the candidate sweep does not redo the grid/transform math for
    /// every candidate: `assignments[k][i]` is the unit coordinate
    /// point `i` gets in dimension `k` before the permutation.
    assignments: Vec<Vec<f64>>,
}

impl<'a> LatinHypercube<'a> {
    /// Creates a sampler producing designs of `size` points, with the
    /// default worker-thread count (`PPM_THREADS`-aware).
    ///
    /// # Panics
    ///
    /// Panics if `size < 2`.
    pub fn new(space: &'a ParamSpace, size: usize) -> Self {
        assert!(size >= 2, "a latin hypercube needs at least 2 points");
        // Assign each of the S points a level, covering every level as
        // evenly as possible; generate() shuffles a copy per dimension.
        let assignments = space
            .params()
            .iter()
            .map(|p| {
                let levels = p.level_count(size);
                let grid = p.unit_grid(size);
                (0..size).map(|i| grid[i * levels / size]).collect()
            })
            .collect();
        LatinHypercube {
            space,
            size,
            threads: ppm_exec::default_threads(),
            assignments,
        }
    }

    /// Sets the worker-thread count for the candidate sweep (the chosen
    /// design does not depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The sample size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Generates one latin hypercube design in unit coordinates.
    ///
    /// Coordinates are snapped to each parameter's level grid, so the
    /// returned points are directly realizable configurations.
    pub fn generate(&self, rng: &mut Rng) -> Design {
        let s = self.size;
        let n = self.space.dim();
        let mut points: Vec<Vec<f64>> = (0..s).map(|_| Vec::with_capacity(n)).collect();
        let mut assignment: Vec<f64> = Vec::with_capacity(s);
        for base in &self.assignments {
            // Shuffle a copy of the precomputed level assignment.
            assignment.clear();
            assignment.extend_from_slice(base);
            rng.shuffle(&mut assignment);
            for (point, &v) in points.iter_mut().zip(&assignment) {
                point.push(v);
            }
        }
        points
    }

    /// Generates `candidates` designs and returns the one with the lowest
    /// L2-star discrepancy (the paper's §2.2 selection rule).
    ///
    /// # Errors
    ///
    /// See [`LatinHypercube::best_of_with_score`].
    pub fn best_of(&self, candidates: usize, rng: &mut Rng) -> Result<Design, SampleError> {
        self.best_of_with_score(candidates, rng).map(|(d, _)| d)
    }

    /// Like [`LatinHypercube::best_of`] but also returns the winning
    /// discrepancy, for plotting Figure 2.
    ///
    /// One master seed is drawn from `rng`, and candidate `i` generates
    /// from its own stream `derive_seed(master, i)` — which is what
    /// lets candidates run on any number of worker threads while the
    /// winner (ties broken toward the lower candidate index) stays
    /// byte-identical to the single-threaded sweep.
    ///
    /// # Errors
    ///
    /// * [`SampleError::NoCandidates`] if `candidates == 0`.
    /// * [`SampleError::NoThreads`] if configured with zero threads.
    pub fn best_of_with_score(
        &self,
        candidates: usize,
        rng: &mut Rng,
    ) -> Result<(Design, f64), SampleError> {
        if candidates == 0 {
            return Err(SampleError::NoCandidates);
        }
        let exec = Executor::new(self.threads).map_err(|_| SampleError::NoThreads)?;
        let _span = ppm_telemetry::span("stage.sampling");
        ppm_telemetry::counter("sampling.candidates").add(candidates as u64);

        let master = rng.next_u64();
        let mut scored: Vec<(Design, f64)> = exec.map("sampling.lhs", candidates, |i| {
            let mut stream = Rng::seed_from_u64(derive_seed(master, i as u64));
            let d = self.generate(&mut stream);
            let score = l2_star(&d);
            (d, score)
        });

        let Some(win) = ppm_exec::argmin(scored.iter().map(|(_, s)| *s)) else {
            unreachable!("candidates >= 1 was checked above");
        };
        // Replay the serial scan for the improvement events.
        let mut running_best = f64::INFINITY;
        for (i, (_, score)) in scored.iter().enumerate() {
            if *score < running_best {
                running_best = *score;
                ppm_telemetry::event(
                    "sampling.best_improved",
                    &[("candidate", i.into()), ("discrepancy", (*score).into())],
                );
            }
        }
        let (design, score) = scored.swap_remove(win);
        ppm_telemetry::event(
            "sampling.selected",
            &[
                ("points", design.len().into()),
                ("candidates", candidates.into()),
                ("discrepancy", score.into()),
            ],
        );
        Ok((design, score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamDef, Transform};
    use ppm_rng::Rng;

    fn space2() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::continuous("a", 0.0, 1.0),
            ParamDef::leveled("b", 8.0, 64.0, 4, Transform::Log),
        ])
    }

    #[test]
    fn every_continuous_stratum_is_hit_once() {
        let space = ParamSpace::new(vec![ParamDef::continuous("a", 0.0, 1.0)]);
        let mut rng = Rng::seed_from_u64(5);
        let s = 20;
        let design = LatinHypercube::new(&space, s).generate(&mut rng);
        let mut seen: Vec<f64> = design.iter().map(|p| p[0]).collect();
        seen.sort_by(|x, y| x.partial_cmp(y).unwrap());
        // With S levels over [0,1] every grid value appears exactly once.
        for (i, v) in seen.iter().enumerate() {
            let expected = i as f64 / (s - 1) as f64;
            assert!((v - expected).abs() < 1e-12, "stratum {i} missing");
        }
    }

    #[test]
    fn fixed_levels_are_balanced() {
        let space = space2();
        let mut rng = Rng::seed_from_u64(6);
        let design = LatinHypercube::new(&space, 40).generate(&mut rng);
        let mut counts = std::collections::HashMap::new();
        for p in &design {
            *counts.entry(format!("{:.4}", p[1])).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4, "all 4 levels should appear");
        for (level, c) in counts {
            assert_eq!(c, 10, "level {level} unbalanced");
        }
    }

    #[test]
    fn best_of_is_no_worse_than_single_draw() {
        let space = space2();
        let mut rng = Rng::seed_from_u64(7);
        let lhs = LatinHypercube::new(&space, 20);
        let (_, best_score) = lhs.best_of_with_score(32, &mut rng).unwrap();
        let mut worse = 0;
        for _ in 0..16 {
            if l2_star(&lhs.generate(&mut rng)) < best_score {
                worse += 1;
            }
        }
        // The optimized design should beat the typical random draw.
        assert!(worse <= 3, "best-of-32 design was beaten {worse}/16 times");
    }

    #[test]
    fn deterministic_given_seed() {
        let space = space2();
        let d1 = LatinHypercube::new(&space, 10).generate(&mut Rng::seed_from_u64(9));
        let d2 = LatinHypercube::new(&space, 10).generate(&mut Rng::seed_from_u64(9));
        assert_eq!(d1, d2);
    }

    #[test]
    fn best_of_zero_candidates_is_a_typed_error() {
        let space = space2();
        let mut rng = Rng::seed_from_u64(3);
        let err = LatinHypercube::new(&space, 10)
            .best_of(0, &mut rng)
            .unwrap_err();
        assert_eq!(err, SampleError::NoCandidates);
        assert!(err.to_string().contains("candidate"));
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let space = space2();
        let mut rng = Rng::seed_from_u64(3);
        let err = LatinHypercube::new(&space, 10)
            .with_threads(0)
            .best_of(4, &mut rng)
            .unwrap_err();
        assert_eq!(err, SampleError::NoThreads);
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn tiny_sample_panics() {
        LatinHypercube::new(&space2(), 1);
    }

    #[test]
    fn random_design_in_unit_cube() {
        for seed in 0..32u64 {
            let space = space2();
            let mut rng = Rng::seed_from_u64(seed);
            let s = 2 + (seed as usize % 38);
            let design = LatinHypercube::new(&space, s).generate(&mut rng);
            assert_eq!(design.len(), s);
            for p in &design {
                assert_eq!(p.len(), 2);
                for &v in p {
                    assert!((0.0..=1.0).contains(&v), "seed {seed}: {v}");
                }
            }
        }
    }

    #[test]
    fn random_points_snapped_to_levels() {
        for seed in 0..32u64 {
            let space = space2();
            let mut rng = Rng::seed_from_u64(seed);
            let design = LatinHypercube::new(&space, 12).generate(&mut rng);
            for p in &design {
                // Dimension b has 4 levels: unit coords multiples of 1/3.
                let scaled = p[1] * 3.0;
                assert!((scaled - scaled.round()).abs() < 1e-9, "seed {seed}");
            }
        }
    }
}
