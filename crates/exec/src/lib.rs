//! Deterministic parallel execution for the model-training hot paths.
//!
//! Simulation batches went parallel first (`ppm-core`'s supervised
//! executor); this crate gives the *training* side — the `(p_min, α)`
//! grid search and the latin-hypercube candidate sweep — the same
//! treatment with one hard guarantee:
//!
//! > **Parallel output is byte-identical to serial output, regardless
//! > of thread count.**
//!
//! The guarantee holds because the executor never lets scheduling
//! influence results:
//!
//! * work is identified by *index*: every task is a pure function of
//!   its position `i` in `0..n`, never of which worker ran it or when;
//! * results are collected into *index-ordered slots*, so the output
//!   `Vec` reads exactly as if a `for` loop had produced it;
//! * reductions ([`argmin`]) scan that ordered output with a strict
//!   `<`, so ties break toward the lowest index — the same winner a
//!   serial first-wins fold selects.
//!
//! Callers that need randomness derive one independent RNG stream per
//! index (`ppm_rng::derive_seed`) instead of sharing a sequential
//! stream, which is what makes per-index purity possible.
//!
//! [`pipeline`] is the one non-indexed primitive: it splits a serial
//! `for` loop over an iterator across two threads, draining the
//! iterator on a helper while the caller consumes the items in order,
//! so the consumer's result is the serial loop's by construction.
//!
//! That is the crate's one contract: deterministic execution. Work
//! whose scheduling may decide the outcome, such as which worker
//! answers a request, does not belong here; `ppm serve` keeps its own
//! request queue and workers.
//!
//! Telemetry: every [`Executor::map`] call adds to `exec.tasks`,
//! records the worker count in `exec.workers`, counts dynamic-queue
//! `exec.steals` (chunks claimed beyond a worker's fair share) and
//! `exec.idle` (workers that found the queue already drained), and sets
//! a per-stage wall-clock gauge `exec.<label>.ms`.
//!
//! # Examples
//!
//! ```
//! use ppm_exec::Executor;
//!
//! let exec = Executor::new(4)?;
//! let squares = exec.map("demo", 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! # Ok::<(), ppm_exec::ExecError>(())
//! ```

mod pipeline;
mod pool;

pub use pipeline::pipeline;
pub use pool::{ExecError, Executor};

use std::error::Error;
use std::fmt;

/// Hard cap on worker threads, protecting against absurd
/// `PPM_THREADS` values; scoped spawning of thousands of threads would
/// exhaust the process long before it helped.
pub const MAX_THREADS: usize = 256;

/// An invalid `PPM_THREADS` environment value.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ThreadEnvError {
    /// The value was zero — a zero-worker pool cannot make progress.
    Zero,
    /// The value did not parse as a positive integer.
    Invalid(String),
}

impl fmt::Display for ThreadEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadEnvError::Zero => write!(f, "PPM_THREADS must be at least 1"),
            ThreadEnvError::Invalid(v) => {
                write!(f, "PPM_THREADS={v:?} is not a positive integer")
            }
        }
    }
}

impl Error for ThreadEnvError {}

/// Parses a `PPM_THREADS`-style value: a positive integer, capped at
/// [`MAX_THREADS`].
///
/// # Errors
///
/// [`ThreadEnvError::Zero`] for `"0"`, [`ThreadEnvError::Invalid`] for
/// anything that is not an integer.
pub fn parse_thread_spec(value: &str) -> Result<usize, ThreadEnvError> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(ThreadEnvError::Zero),
        Ok(n) => Ok(n.min(MAX_THREADS)),
        Err(_) => Err(ThreadEnvError::Invalid(value.to_string())),
    }
}

/// Reads the `PPM_THREADS` override: `Ok(None)` when unset, the
/// validated thread count when set.
///
/// This single override is shared by the simulation batches and the
/// training executor, so one environment variable pins the whole
/// pipeline's parallelism (determinism does not depend on it either
/// way).
///
/// # Errors
///
/// [`ThreadEnvError`] when the variable is set but invalid; callers
/// with a user interface (the CLI) should reject the run as a usage
/// error instead of guessing.
pub fn threads_from_env() -> Result<Option<usize>, ThreadEnvError> {
    // PPM_THREADS is this function's documented public surface; the CLI
    // calls it explicitly rather than hiding it. lint:allow(env-read)
    match std::env::var("PPM_THREADS") {
        Ok(v) => parse_thread_spec(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// The number of worker threads to use by default: the `PPM_THREADS`
/// override when set and valid, otherwise the available parallelism
/// capped at 16 (falling back to 4 when the OS cannot report it).
///
/// An *invalid* `PPM_THREADS` value cannot be surfaced from here (this
/// is called from `Default` impls), so it is ignored with an
/// `exec.env_invalid` telemetry event; the CLI validates the variable
/// up front and rejects it as a usage error.
pub fn default_threads() -> usize {
    match threads_from_env() {
        Ok(Some(n)) => return n,
        Ok(None) => {}
        Err(e) => {
            ppm_telemetry::counter("exec.env_invalid").inc();
            ppm_telemetry::event("exec.env_invalid", &[("error", e.to_string().into())]);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(4)
}

/// The index of the smallest score, ties broken toward the lowest
/// index (the winner a serial first-wins scan selects); `None` for an
/// empty iterator.
///
/// NaN never wins a comparison, matching the serial fold: a NaN score
/// is kept only if it arrived first and nothing finite follows.
///
/// # Examples
///
/// ```
/// assert_eq!(ppm_exec::argmin([3.0, 1.0, 1.0, 2.0]), Some(1));
/// assert_eq!(ppm_exec::argmin(std::iter::empty()), None);
/// ```
pub fn argmin<I: IntoIterator<Item = f64>>(scores: I) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, s) in scores.into_iter().enumerate() {
        match best {
            None => best = Some((i, s)),
            Some((_, b)) if s < b => best = Some((i, s)),
            Some(_) => {}
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_thread_spec_accepts_positive_integers() {
        assert_eq!(parse_thread_spec("1"), Ok(1));
        assert_eq!(parse_thread_spec(" 8 "), Ok(8));
        assert_eq!(parse_thread_spec("16"), Ok(16));
    }

    #[test]
    fn parse_thread_spec_caps_at_max() {
        assert_eq!(parse_thread_spec("99999"), Ok(MAX_THREADS));
    }

    #[test]
    fn parse_thread_spec_rejects_zero() {
        assert_eq!(parse_thread_spec("0"), Err(ThreadEnvError::Zero));
    }

    #[test]
    fn parse_thread_spec_rejects_garbage() {
        for bad in ["", "four", "-2", "3.5", "8x"] {
            assert!(
                matches!(parse_thread_spec(bad), Err(ThreadEnvError::Invalid(_))),
                "{bad:?} should be invalid"
            );
        }
    }

    #[test]
    fn thread_env_errors_display_the_variable_name() {
        assert!(ThreadEnvError::Zero.to_string().contains("PPM_THREADS"));
        assert!(ThreadEnvError::Invalid("x".into())
            .to_string()
            .contains("PPM_THREADS"));
    }

    #[test]
    fn default_threads_is_positive() {
        let n = default_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }

    #[test]
    fn argmin_breaks_ties_toward_the_lowest_index() {
        assert_eq!(argmin([2.0, 1.0, 1.0]), Some(1));
        assert_eq!(argmin([1.0, 1.0, 1.0]), Some(0));
    }

    #[test]
    fn argmin_nan_never_wins_a_comparison() {
        // Exactly the serial first-wins fold: a leading NaN is kept
        // (nothing compares less than it), a later NaN never replaces.
        assert_eq!(argmin([f64::NAN, 1.0]), Some(0));
        assert_eq!(argmin([1.0, f64::NAN]), Some(0));
        assert_eq!(argmin([f64::NAN, f64::NAN]), Some(0));
    }

    #[test]
    fn argmin_of_empty_is_none() {
        assert_eq!(argmin(std::iter::empty()), None);
    }
}
