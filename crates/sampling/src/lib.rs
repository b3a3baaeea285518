//! Design-of-experiments sampling for processor design spaces.
//!
//! This crate implements the sample-selection machinery of the paper's
//! `BuildRBFmodel` procedure (§2.2):
//!
//! * [`space`] — declarative description of a parameter space: ranges,
//!   discrete levels, and linear/log transforms (paper Table 1).
//! * [`lhs`] — latin hypercube sampling, including the paper's
//!   best-of-many variant that keeps the candidate hypercube with the
//!   lowest L2-star discrepancy.
//! * [`discrepancy`] — the L2-star discrepancy (Warnock's closed form),
//!   which quantifies how uniformly a sample fills the unit hypercube.
//! * [`random`] — plain uniform random designs (used for independent test
//!   sets and as an ablation baseline).
//! * [`pb`] — Plackett–Burman two-level screening designs with optional
//!   foldover (the Yi et al. related-work baseline).
//!
//! Design points are represented in *unit coordinates*: a point is a
//! `Vec<f64>` in `[0, 1]^n`, where each coordinate moves along the
//! (possibly log-) transformed range of the corresponding parameter.
//! [`space::ParamSpace`] converts between unit and engineering values.
//!
//! # Examples
//!
//! ```
//! use ppm_rng::Rng;
//! use ppm_sampling::lhs::LatinHypercube;
//! use ppm_sampling::space::{ParamDef, ParamSpace, Transform};
//! use ppm_sampling::discrepancy::l2_star;
//!
//! let space = ParamSpace::new(vec![
//!     ParamDef::continuous("rob", 24.0, 128.0),
//!     ParamDef::leveled("l2_size", 256.0, 8192.0, 6, Transform::Log),
//! ]);
//! let mut rng = Rng::seed_from_u64(1);
//! let design = LatinHypercube::new(&space, 30).best_of(64, &mut rng)?;
//! assert_eq!(design.len(), 30);
//! let d = l2_star(&design);
//! assert!(d > 0.0 && d < 1.0);
//! # Ok::<(), ppm_sampling::lhs::SampleError>(())
//! ```
//!
//! The best-of-many sweep scores candidates in parallel
//! ([`ppm_exec`]); each candidate derives its own RNG stream from the
//! caller's seed, so the chosen design is byte-identical for every
//! thread count.

pub mod discrepancy;
pub mod halton;
pub mod lhs;
pub mod pb;
pub mod random;
pub mod space;

pub use lhs::SampleError;

/// A design: a list of points in unit coordinates `[0, 1]^n`.
pub type Design = Vec<Vec<f64>>;
