//! # ppm-obs
//!
//! The flight recorder for the BuildRBFmodel pipeline: everything a
//! run leaves behind so that later sessions (and CI) can answer "what
//! ran, how fast, and did it get worse?" without re-running it.
//!
//! Three pieces, layered on `ppm-telemetry`:
//!
//! * [`ledger`] — every CLI run writes a self-describing JSON manifest
//!   (`ppm-ledger v1`) with the full configuration, environment,
//!   deterministic metric snapshot, model-quality diagnostics, and a
//!   content hash; timings live in a separate header block so that two
//!   identical fixed-seed runs produce byte-identical bodies.
//! * [`trace`] — a [`trace::FlightRecorder`] sink captures the span
//!   tree (with monotonic timestamps, thread ordinals, and CPU time)
//!   and exports Chrome-trace/Perfetto JSON for `--trace-out`.
//! * [`report`] — the regression sentry: diff two ledgers'
//!   deterministic bodies (error statistics within a fixed budget,
//!   counters exactly), for `ppm report` and the CI gate in
//!   `scripts/verify.sh`.
//!
//! Every document here is parsed and written by `ppm-telemetry`'s
//! [`Json`] codec, the workspace's only one, and put on disk by its one
//! crash-safe writer, `ppm_telemetry::write_atomic`. The FNV-1a content
//! hash is `ppm-telemetry`'s too: [`ledger::fnv1a64_hex`], which the
//! benchmark harness imports, and its crate-root alias [`fnv1a64_hex`]
//! are re-exports kept so that harness builds unchanged. Like the rest
//! of the workspace, this crate has no external dependencies.

pub mod ledger;
pub mod report;
pub mod trace;

pub use ledger::{
    deterministic_metrics, fnv1a64_hex, load_ledger, verify_content_hash, Ledger, LedgerError,
    LEDGER_SCHEMA,
};
pub use report::{compare, Finding, FindingCategory, Report, ReportError};
pub use trace::{validate_chrome_trace, FlightRecorder, StageTiming, TraceError, TraceSummary};

// Re-exported for the benchmark harness, which imports `ppm_obs::Json`
// and builds against this crate unchanged; workspace code imports
// `ppm_telemetry::Json`.
pub use ppm_telemetry::{Json, JsonError};
