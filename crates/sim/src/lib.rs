//! A cycle-level, trace-driven, out-of-order superscalar processor
//! simulator.
//!
//! This crate is the "detailed simulation" substrate of the MICRO 2006
//! reproduction: it models the performance-critical events and
//! structures of a speculative, dynamically scheduled superscalar
//! processor —
//!
//! * a parameterizable pipeline whose front-end depth sets the branch
//!   misprediction refill penalty,
//! * the reorder buffer, issue queue and load/store queue,
//! * a gshare branch direction predictor and a branch target buffer,
//! * split L1 instruction/data caches and a unified L2, all set
//!   associative with LRU replacement,
//! * a DRAM model with banks, a memory-controller queue (MSHR-limited
//!   outstanding misses) and a shared memory bus with contention,
//! * per-class functional units and store-to-load forwarding.
//!
//! The nine microarchitectural parameters of the paper's Table 1 are all
//! honoured by [`SimConfig`], and described once, in the [`KNOBS`]
//! table: a row per parameter with its paper name, `ppm` flag, Table 1
//! range, levels, spacing and snapping, Table 2 bounds, valid range,
//! and field access. Simulation is *trace driven*: the
//! instruction stream (a [`TraceSource`]) is a pure function of the
//! workload, never of the configuration, so CPI is a deterministic
//! function of the design point — the property the surrogate-modeling
//! methodology requires.
//!
//! [`BatchProcessor`] is the one simulator every production run uses:
//! N configurations over one trace pass, N = 1 for a single point. The
//! [`reference`] module is the oracle it is checked against.
//!
//! # Examples
//!
//! ```
//! use ppm_sim::{BatchProcessor, SimConfig, Instr, Op};
//!
//! // A tiny hand-written trace: independent ALU ops in a small loop
//! // (the loop keeps the instruction cache warm).
//! let trace = (0..50_000).map(|i| Instr::alu(Op::IntAlu, 0x1000 + (i % 256) * 4, 0, 0));
//! let config = SimConfig::default();
//! let stats = &BatchProcessor::new(vec![config]).unwrap().run(trace)[0];
//! assert!(stats.cpi() < 1.0); // superscalar issue beats 1 IPC
//! ```

mod batch;
mod bpred;
mod cache;
mod config;
mod energy;
mod hierarchy;
mod memory;
pub mod reference;
mod stats;
mod trace;

pub use batch::{BatchError, BatchProcessor};
pub use bpred::{BranchPredictor, Btb, Gshare, PredictorKind};
pub use cache::{Cache, CacheStats, ReplacementPolicy};
pub use config::{ConfigError, FixedMachine, Knob, KnobError, SimConfig, Snap, KNOBS};
pub use energy::{estimate_energy, EnergyBreakdown, EnergyParams};
pub use hierarchy::{AccessOutcome, Hierarchy};
pub use memory::MemorySystem;
pub use stats::{validate_cpi, CpiError, SimStats};
pub use trace::{BranchKind, Instr, Op, TraceSource};
