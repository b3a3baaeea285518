//! CLI glue for the flight recorder: run-ledger assembly, trace-file
//! export, and the `ppm report` / `ppm check-trace` subcommands.
//!
//! The run loop in `main.rs` owns the [`ppm_obs::FlightRecorder`]; this
//! module turns what it captured (plus the command's
//! [`RunArtifacts`]) into the `ppm-ledger v1` document and decides
//! where it lands. Ledger writing is best-effort by design: a full disk
//! must not turn a successful model build into a failure.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use ppm_core::builder::ModelDiagnostics;
use ppm_obs::{compare, load_ledger, validate_chrome_trace, Ledger};
use ppm_telemetry::Json;

use crate::cli::args::{self, Parsed};
use crate::cli::commands::CliError;

/// Side results a command hands to the ledger writer, beyond its
/// stdout text.
#[derive(Debug, Default)]
pub struct RunArtifacts {
    /// Model-quality diagnostics from `build`, already in ledger form.
    pub diagnostics: Option<Json>,
}

/// Whether this invocation should write a run ledger: its command is
/// one the flag table marks `[ledger]`, and `--no-ledger` is absent.
/// `predict` and `benchmarks` are sub-millisecond lookups;
/// `report`/`check-trace` are the sentry itself.
pub fn wants_ledger(parsed: &Parsed) -> bool {
    args::takes(&parsed.command, "--no-ledger") && !parsed.switch("--no-ledger")
}

/// Whether this invocation needs the recorder sink installed at all.
pub fn wants_recorder(parsed: &Parsed) -> bool {
    wants_ledger(parsed) || parsed.get("--trace-out").is_some()
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The run id: command, seed, and creation time, e.g.
/// `build-7-198c33a1f2e`. Unique per run, greppable by command.
pub fn run_id(parsed: &Parsed, created_unix_ms: u64) -> String {
    let seed = parsed.get("--seed").unwrap_or("1");
    format!("{}-{}-{:x}", parsed.command, seed, created_unix_ms)
}

/// Where the ledger lands: `--ledger-out` verbatim, else
/// `<--ledger-dir or results/runs>/<run-id>.json`.
pub fn ledger_path(parsed: &Parsed, run_id: &str) -> PathBuf {
    if let Some(path) = parsed.get("--ledger-out") {
        return PathBuf::from(path);
    }
    let dir = parsed.get("--ledger-dir").unwrap_or("results/runs");
    Path::new(dir).join(format!("{run_id}.json"))
}

/// The environment the ledger records: the variables that change run
/// behaviour, with `""` for unset.
pub fn ledger_env() -> Vec<(String, String)> {
    ["PPM_THREADS", "PPM_TRACE"]
        .iter()
        .map(|k| (k.to_string(), std::env::var(k).unwrap_or_default()))
        .collect()
}

/// Assembles the full ledger for a finished run.
pub fn assemble_ledger(
    parsed: &Parsed,
    artifacts: &RunArtifacts,
    recorder: &ppm_obs::FlightRecorder,
    created_unix_ms: u64,
    total_wall_us: u64,
    total_cpu_us: Option<u64>,
) -> Ledger {
    Ledger {
        run_id: run_id(parsed, created_unix_ms),
        created_unix_ms,
        command: parsed.command.clone(),
        args: parsed.flag_pairs(),
        env: ledger_env(),
        metrics: ppm_telemetry::snapshot(),
        diagnostics: artifacts.diagnostics.clone(),
        stages: recorder.stage_timings(),
        total_wall_us,
        total_cpu_us,
    }
}

/// Converts a build's [`ModelDiagnostics`] to the ledger's JSON form.
/// Every number here is a deterministic function of the configuration
/// and seed, so it belongs in the hashed body.
pub fn diagnostics_json(d: &ModelDiagnostics) -> Json {
    let mut entries: Vec<(String, Json)> = Vec::new();
    entries.push((
        "holdout".to_string(),
        match &d.holdout {
            Some(h) => Json::obj([
                ("mean_pct", Json::Float(h.mean_pct)),
                ("max_pct", Json::Float(h.max_pct)),
                ("std_pct", Json::Float(h.std_pct)),
            ]),
            None => Json::Null,
        },
    ));
    entries.push((
        "regions".to_string(),
        Json::Arr(
            d.regions
                .iter()
                .map(|r| {
                    Json::obj([
                        ("leaf", Json::from(r.leaf)),
                        ("count", Json::from(r.count)),
                        ("mean_abs_pct", Json::Float(r.mean_abs_pct)),
                        ("max_abs_pct", Json::Float(r.max_abs_pct)),
                    ])
                })
                .collect(),
        ),
    ));
    entries.push(("centers".to_string(), Json::from(d.centers)));
    entries.push(("p_min".to_string(), Json::from(d.p_min)));
    entries.push(("alpha".to_string(), Json::Float(d.alpha)));
    entries.push(("aicc".to_string(), Json::Float(d.aicc)));
    entries.push(("train_sse".to_string(), Json::Float(d.train_sse)));
    entries.push(("discrepancy".to_string(), Json::Float(d.discrepancy)));
    entries.push(("quarantined".to_string(), Json::from(d.quarantined)));
    Json::Obj(entries)
}

/// The `ppm report` command: compares a candidate ledger's deterministic
/// body against a baseline's and fails (exit code 5) on regression.
pub fn report(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let candidate_path = parsed.require("--candidate")?;
    let baseline_path = parsed.require("--against")?;
    let candidate = load_ledger(Path::new(candidate_path)).map_err(persistence)?;
    let baseline = load_ledger(Path::new(baseline_path)).map_err(persistence)?;
    let report = compare(&baseline, &candidate).map_err(|e| CliError::Usage(e.to_string()))?;
    out.write_str(&report.human_table())
        .map_err(|e| CliError::Message(e.to_string()))?;
    if let Some(json_path) = parsed.get("--json-out") {
        ppm_telemetry::write_atomic(Path::new(json_path), report.to_json().dump().as_bytes())
            .map_err(|e| CliError::Persistence(format!("cannot write {json_path}: {e}")))?;
    }
    if report.regressed() {
        let names: Vec<String> = report.regressions().map(|f| f.name.clone()).collect();
        return Err(CliError::Regression(format!(
            "{} regressed vs {}: {}",
            candidate_path,
            baseline_path,
            names.join(", ")
        )));
    }
    Ok(())
}

/// The `ppm check-trace` command: structurally validates a Chrome-trace
/// file written by `--trace-out`.
pub fn check_trace(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let path = parsed.require("--file")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Persistence(format!("cannot read {path}: {e}")))?;
    let summary = validate_chrome_trace(&text)
        .map_err(|e| CliError::Persistence(format!("invalid trace {path}: {e}")))?;
    writeln!(
        out,
        "trace ok: {} spans, {} instants, {} threads",
        summary.spans, summary.instants, summary.threads
    )
    .map_err(|e| CliError::Message(e.to_string()))?;
    Ok(())
}

fn persistence(e: impl fmt::Display) -> CliError {
    CliError::Persistence(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        match Parsed::parse(args.iter().map(|s| s.to_string())) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}"),
        }
    }

    #[test]
    fn ledger_targets_follow_flags() {
        let p = parse(&["build", "--benchmark", "mcf", "--out", "m.txt"]);
        assert!(wants_ledger(&p));
        assert!(wants_recorder(&p));
        let quiet = parse(&["build", "--benchmark", "mcf", "--no-ledger"]);
        assert!(!wants_ledger(&quiet));
        assert!(!wants_recorder(&quiet));
        let traced = parse(&["predict", "--model", "m.txt", "--trace-out", "t.json"]);
        assert!(!wants_ledger(&traced));
        assert!(wants_recorder(&traced));
        let report = parse(&["report", "--candidate", "a.json", "--against", "b.json"]);
        assert!(!wants_ledger(&report));
    }

    #[test]
    fn run_id_and_path_embed_command_and_seed() {
        let p = parse(&["build", "--seed", "7"]);
        let id = run_id(&p, 0x1234);
        assert_eq!(id, "build-7-1234");
        assert_eq!(
            ledger_path(&p, &id),
            PathBuf::from("results/runs/build-7-1234.json")
        );
        let o = parse(&["build", "--ledger-out", "x/y.json"]);
        assert_eq!(ledger_path(&o, "z"), PathBuf::from("x/y.json"));
        let d = parse(&["build", "--ledger-dir", "elsewhere"]);
        assert_eq!(
            ledger_path(&d, "build-1-2"),
            PathBuf::from("elsewhere/build-1-2.json")
        );
    }

    #[test]
    fn check_trace_accepts_recorder_output() {
        let recorder = ppm_obs::FlightRecorder::new();
        let dir = std::env::temp_dir().join(format!("ppm-flight-test-{}", std::process::id()));
        let path = dir.join("t.json");
        recorder
            .write_chrome_trace(&path)
            .map_err(|e| e.to_string())
            .ok();
        let p = parse(&["check-trace", "--file", path.to_string_lossy().as_ref()]);
        let mut out = String::new();
        check_trace(&p, &mut out).map_err(|e| panic!("{e}")).ok();
        assert!(out.contains("trace ok"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_requires_both_ledgers() {
        let p = parse(&["report", "--candidate", "only.json"]);
        let mut out = String::new();
        let err = match report(&p, &mut out) {
            Err(e) => e,
            Ok(()) => panic!("expected an error"),
        };
        assert_eq!(err.exit_code(), 2);
    }
}
