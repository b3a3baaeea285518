//! Deterministic synthetic workload surrogates for the eight SPEC
//! CPU2000 benchmarks studied in the paper.
//!
//! The original study drives its simulator with traces of PowerPC SPEC
//! binaries over MinneSPEC `lgred` inputs — artifacts we do not have.
//! This crate substitutes *statistical workload models*: each benchmark
//! is described by a [`Profile`] capturing its published
//! characteristics —
//!
//! * instruction mix (loads/stores/branches/integer/floating point),
//! * register dependency-distance distribution (instruction-level
//!   parallelism),
//! * a synthetic control-flow graph whose size sets the code footprint
//!   (instruction-cache sensitivity) and whose per-branch biases set
//!   branch predictability,
//! * a hierarchy of data working sets (stack / hot heap / main data)
//!   that determines L1D and L2 sensitivity — e.g. `mcf` walks a
//!   multi-megabyte random region (memory-bound at every cache size)
//!   while `twolf`'s main set fits in mid-range L2s.
//!
//! A [`TraceGenerator`] expands a profile into a dynamic instruction
//! stream. The stream is a pure function of `(benchmark, seed)` — it
//! never depends on the processor configuration, so the simulated CPI
//! is a deterministic function of the design point, as the
//! surrogate-modeling methodology requires.
//!
//! # Examples
//!
//! ```
//! use ppm_workload::{Benchmark, TraceGenerator};
//! use ppm_sim::{BatchProcessor, SimConfig};
//!
//! let trace = TraceGenerator::new(Benchmark::Mcf, 1).take(20_000);
//! let stats = &BatchProcessor::new(vec![SimConfig::default()]).unwrap().run(trace)[0];
//! assert!(stats.cpi() > 1.0); // mcf is memory bound
//! ```

mod benchmark;
mod generator;
mod profile;

pub use benchmark::Benchmark;
pub use generator::TraceGenerator;
pub use profile::{InputSet, InstrMix, MemRegion, Profile};
