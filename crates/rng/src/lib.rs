//! Deterministic, bit-stable pseudo-random number generation.
//!
//! Every stochastic component of this workspace (synthetic workload
//! generation, latin hypercube sampling, test-point generation) must be
//! exactly reproducible across runs, platforms and dependency upgrades:
//! the whole point of the surrogate-modeling methodology is that the CPI
//! response at a design point is a *deterministic* function of the design
//! parameters. We therefore implement a small, fixed PRNG
//! (xoshiro256++, public domain, Blackman & Vigna) rather than depending
//! on a generator whose stream may change between library versions.
//!
//! # Stream stability
//!
//! For a given seed, every stream this crate produces is fixed: the raw
//! [`Rng`] stream, and the draws of [`Rng::unit_f64`], [`Rng::below`],
//! [`Rng::chance`] and every distribution built on them. A change that
//! makes sampling faster must leave each draw's value and the number of
//! raw draws it consumes unchanged, because traces, sampled designs and
//! therefore every model file in the workspace are functions of these
//! streams. The distributions are fast because they compute their
//! constants once, never because a draw's value changed:
//!
//! * [`Geometric`] computes `ln(1 - p)` in `new`, not per draw;
//! * [`WeightedIndex`] validates and sums its weights once, and its
//!   draws equal those of [`Rng::weighted_index`], which delegates to
//!   it;
//! * [`CappedGeometric`] (a geometric draw capped at `max`, the register
//!   dependence distance) decides most draws by comparing `u` with
//!   precomputed thresholds `(1 - p)^d` and evaluates the inverse-CDF
//!   formula only when `u` lies within a relative `1e-9` of one. Its
//!   docs give the error argument for why that can never change a
//!   draw, and its unit tests place `u` at every threshold, at its band
//!   edges and up to 1000 ULP around it.
//!
//! # Examples
//!
//! ```
//! use ppm_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.unit_f64();          // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&x));
//! let k = rng.below(10);           // uniform in 0..10
//! assert!(k < 10);
//! ```

mod distributions;
mod xoshiro;

pub use distributions::{CappedGeometric, Geometric, WeightedIndex};
pub use xoshiro::Rng;

/// Derives a child seed from a parent seed and a stream identifier.
///
/// Used to give independent, reproducible random streams to the different
/// components of a workload (instruction mix, addresses, branches, ...)
/// without the streams aliasing each other.
///
/// # Examples
///
/// ```
/// let a = ppm_rng::derive_seed(7, 0);
/// let b = ppm_rng::derive_seed(7, 1);
/// assert_ne!(a, b);
/// // Deterministic:
/// assert_eq!(a, ppm_rng::derive_seed(7, 0));
/// ```
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the combined value; good avalanche keeps
    // adjacent (parent, stream) pairs uncorrelated.
    let mut z = parent
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_across_streams() {
        let seeds: Vec<u64> = (0..100).map(|s| derive_seed(123, s)).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "streams {i} and {j} collided");
            }
        }
    }

    #[test]
    fn derived_seeds_differ_across_parents() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
