//! The `ppm` command-line tool. See `ppm help` or [`ppm::cli::USAGE`].

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ppm::cli::{self, flight, Parsed, RunArtifacts};
use ppm_obs::FlightRecorder;
use ppm_telemetry as tel;

/// Installs telemetry sinks from `--quiet` / `--trace` / `--metrics-out`
/// and the `PPM_TRACE` environment variable.
///
/// Precedence: `--quiet` silences the stderr reporter entirely;
/// otherwise `--trace` (or a non-empty, non-`0` `PPM_TRACE`) selects
/// full tracing and the default is stage-level progress. `--metrics-out`
/// additionally writes every record as JSON lines to the given path.
fn init_telemetry(parsed: &Parsed) -> Result<(), String> {
    let env_trace = std::env::var("PPM_TRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let verbosity = if parsed.switch("--quiet") {
        tel::Verbosity::Quiet
    } else if parsed.switch("--trace") || env_trace {
        tel::Verbosity::Trace
    } else {
        tel::Verbosity::Progress
    };
    if verbosity > tel::Verbosity::Quiet {
        tel::add_sink(Box::new(tel::StderrSink::new(verbosity)));
    }
    if let Some(path) = parsed.get("--metrics-out") {
        let file =
            File::create(path).map_err(|e| format!("cannot create metrics file {path}: {e}"))?;
        tel::add_sink(Box::new(tel::JsonlSink::new(BufWriter::new(file))));
    }
    Ok(())
}

/// Writes the flight-recorder artifacts after a run: the Chrome-trace
/// file when `--trace-out` was given (failure is fatal — the user asked
/// for that file) and the run ledger (failure is a warning — a full
/// disk must not fail a successful build).
fn write_flight_artifacts(
    parsed: &Parsed,
    artifacts: &RunArtifacts,
    recorder: &FlightRecorder,
    created_unix_ms: u64,
    started: Instant,
    cpu_start: Option<u64>,
) -> Result<(), String> {
    if let Some(path) = parsed.get("--trace-out") {
        recorder
            .write_chrome_trace(Path::new(path))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    }
    if flight::wants_ledger(parsed) {
        let total_wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let total_cpu_us = match (cpu_start, tel::process_cpu_us()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let ledger = flight::assemble_ledger(
            parsed,
            artifacts,
            recorder,
            created_unix_ms,
            total_wall_us,
            total_cpu_us,
        );
        let path = flight::ledger_path(parsed, &ledger.run_id);
        if let Err(e) = ledger.write_atomic(&path) {
            let path = path.display();
            let _ = writeln!(
                io::stderr(),
                "warning: run ledger not written to {path}: {e}"
            );
        }
    }
    Ok(())
}

// Final words go through `writeln!`/`write_all`, not `eprintln!`/
// `print!`, which panic (exit 101) when the reader closed the pipe: a
// closed stderr or stdout costs the output, never the exit code.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Parsed::parse(args) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = init_telemetry(&parsed) {
        let _ = writeln!(io::stderr(), "error: {e}");
        return ExitCode::FAILURE;
    }
    // The live observability plane (`--live <addr>`): started before the
    // run so scrapers can watch it from the first point; the handle must
    // stay alive until the command finishes. Bind failures are their own
    // exit code (7) so supervisors can tell "port taken" from "run broke".
    let live_server = match cli::start_live(&parsed) {
        Ok(server) => server,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let recorder = FlightRecorder::new();
    if flight::wants_recorder(&parsed) {
        tel::add_sink(recorder.sink());
    }
    let created_unix_ms = flight::now_unix_ms();
    let started = Instant::now();
    let cpu_start = tel::process_cpu_us();
    let mut out = String::new();
    let mut artifacts = RunArtifacts::default();
    let result = cli::run_with_artifacts(&parsed, &mut out, &mut artifacts);
    let flight_result = write_flight_artifacts(
        &parsed,
        &artifacts,
        &recorder,
        created_unix_ms,
        started,
        cpu_start,
    );
    // Stop the live plane before tearing down sinks: the accept thread
    // must not serve a half-cleared registry.
    drop(live_server);
    tel::export_metrics();
    tel::clear_sinks();
    if let Err(e) = &flight_result {
        let _ = writeln!(io::stderr(), "error: {e}");
    }
    let _ = io::stdout().write_all(out.as_bytes());
    match result {
        Ok(()) if flight_result.is_err() => ExitCode::FAILURE,
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
