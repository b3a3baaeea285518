//! The paper's end-to-end `BuildRBFmodel` procedure.
//!
//! This crate ties the substrates together into the workflow of
//! Joseph et al. (MICRO 2006), §1:
//!
//! 1. [`space::DesignSpace`] specifies the microarchitectural design
//!    space — the nine parameters of the paper's Table 1 with their
//!    ranges, levels and transforms — and converts design points into
//!    simulator configurations.
//! 2. [`builder::RbfModelBuilder`] selects a latin hypercube sample with
//!    the best L2-star discrepancy (§2.2), ...
//! 3. ... evaluates the processor [`response::Response`] at each point
//!    (detailed simulation, run in parallel), ...
//! 4. ... and fits a radial basis function network with
//!    regression-tree-derived centers and AICc subset selection
//!    (§2.3–§2.6).
//! 5. [`metrics::ErrorStats`] scores predictions on an independently
//!    generated random test set (§3, Table 2).
//! 6. [`builder::RbfModelBuilder::build_to_accuracy`] repeats with
//!    increasing sample sizes until the desired accuracy is reached.
//!
//! The linear-regression baseline of §4.2 is available through
//! [`study::fit_linear_baseline`], and [`study::interaction_grid`]
//! reproduces the two-factor trend analysis of §4.1.
//!
//! # Examples
//!
//! Build a model of an analytic response (fast; no simulation):
//!
//! ```
//! use ppm_core::builder::{BuildConfig, RbfModelBuilder};
//! use ppm_core::response::FnResponse;
//! use ppm_core::space::DesignSpace;
//!
//! let space = DesignSpace::paper_table1();
//! let response = FnResponse::new(9, |x| 1.0 + x[0] + (3.0 * x[4]).sin() * x[5])?;
//! let config = BuildConfig::quick(40);
//! let built = RbfModelBuilder::new(space, config).build(&response)?;
//! assert!(built.model.network.num_centers() >= 1);
//! # Ok::<(), ppm_core::builder::BuildError>(())
//! ```
//!
//! # Fault tolerance
//!
//! Simulation batches run under a supervised executor
//! ([`supervise::eval_batch_supervised`]) that isolates panics,
//! retries transient failures, and quarantines bad points;
//! [`supervise::eval_journaled`] journals a batch's results to a
//! crash-safe [`checkpoint::Checkpoint`] and resumes it without
//! re-simulation. [`fault::FaultyResponse`] injects
//! deterministic faults for testing these paths.
//!
//! # Files
//!
//! The two files the procedure keeps — the simulated sample in the
//! `ppm-checkpoint v1` journal ([`checkpoint`]) and the fitted network
//! in the `ppm-rbf-model v1` model file ([`persist`]) — share one
//! checksummed envelope (header, `meta` lines, trailing FNV-1a
//! `checksum` line), one error type, [`FileError`], and one crash-safe
//! writer, `ppm_telemetry::write_atomic`. Each module adds only its own
//! body lines.

pub mod adaptive;
pub mod builder;
pub mod checkpoint;
mod envelope;
pub mod fault;
pub mod metrics;
pub mod persist;
pub mod response;
pub mod space;
pub mod study;
pub mod supervise;

pub use adaptive::{build_adaptive, AdaptiveConfig};
pub use builder::{BuildConfig, BuildError, BuiltModel, RbfModelBuilder};
pub use checkpoint::Checkpoint;
pub use envelope::FileError;
pub use fault::{FaultPlan, FaultyResponse, InjectedFault};
pub use metrics::ErrorStats;
pub use response::{FnResponse, Metric, Response, SimulatorResponse};
pub use space::DesignSpace;
pub use supervise::{eval_batch_supervised, BatchOutcome, Fault, Quarantine, SupervisorPolicy};
