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
//! * [`report`] — the regression sentry: diff two ledgers' stage
//!   times, error statistics, and counters against thresholds, for
//!   `ppm report` and the CI gate in `scripts/verify.sh`.
//!
//! Every document here is parsed and written by `ppm-telemetry`'s
//! [`Json`] codec, the workspace's only one. Like the rest of the
//! workspace, this crate has no external dependencies.

pub mod ledger;
pub mod report;
pub mod trace;

pub use ledger::{
    deterministic_metrics, fnv1a64_hex, load_ledger, verify_content_hash, Ledger, LedgerError,
    LEDGER_SCHEMA,
};
pub use report::{compare, Finding, FindingCategory, Report, ReportError, Thresholds};
pub use trace::{validate_chrome_trace, FlightRecorder, StageTiming, TraceError, TraceSummary};

// Re-exported for the benchmark harness, which imports `ppm_obs::Json`
// and builds against this crate unchanged; workspace code imports
// `ppm_telemetry::Json`.
pub use ppm_telemetry::{Json, JsonError};

use std::io::Write;
use std::path::Path;

/// Writes `bytes` to `path` atomically: the data lands in a sibling
/// temp file first and is renamed into place, so readers never observe
/// a partial document. Parent directories are created as needed.
///
/// # Errors
///
/// Any I/O failure creating directories, writing, or renaming.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_creates_parents_and_replaces() {
        let dir = std::env::temp_dir().join(format!("ppm-obs-atomic-{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
