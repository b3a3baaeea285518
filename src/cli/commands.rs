//! Command implementations for the `ppm` CLI.

use std::error::Error;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

use ppm_core::builder::{BuildConfig, BuildError, RbfModelBuilder};
use ppm_core::persist;
use ppm_core::response::{Metric, SimulatorResponse};
use ppm_core::space::DesignSpace;
use ppm_core::store::ResultStore;
use ppm_core::study::pb_screening;
use ppm_core::supervise::{eval_journaled, SupervisorPolicy};
use ppm_core::FileError;
use ppm_firstorder::{FirstOrderModel, ProgramStats};
use ppm_sim::{estimate_energy, EnergyParams, KnobError, SimConfig, KNOBS};
use ppm_workload::{Benchmark, TraceGenerator};

use crate::cli::args::{ArgError, Parsed};
use crate::cli::flight::{self, RunArtifacts};

/// Errors surfaced to the CLI user, categorized so the process exit
/// code tells scripts *what kind* of failure occurred.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Argument problems (exit code 2).
    Args(ArgError),
    /// Other usage problems — flag or environment values that make the
    /// requested run impossible (exit code 2).
    Usage(String),
    /// Simulation or model-building faults (exit code 3).
    Simulation(BuildError),
    /// Model files or result stores that could not be read or written
    /// (exit code 4).
    Persistence(String),
    /// The regression sentry found the candidate worse than the
    /// baseline (exit code 5) — the comparison itself succeeded.
    Regression(String),
    /// The static-analysis pass found violations (exit code 6) — the
    /// scan itself succeeded; the findings were already printed.
    Lint(usize),
    /// The live observability plane could not start or be reached
    /// (exit code 7) — e.g. `--live` bind failures, `ppm top` against
    /// a dead endpoint.
    Live(String),
    /// The prediction service could not start or be driven (exit code
    /// 8) — `ppm serve` bind/registry failures, `ppm publish`
    /// validation refusals, `ppm loadtest` against a dead service.
    Serve(String),
    /// Anything else, with a user-facing message (exit code 1).
    Message(String),
}

impl CliError {
    /// The process exit code for this error category: usage errors 2,
    /// simulation faults 3, persistence failures 4, regressions 5,
    /// lint findings 6, live-plane failures 7, serve failures 8,
    /// everything else 1.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) | CliError::Usage(_) => 2,
            CliError::Simulation(_) => 3,
            CliError::Persistence(_) => 4,
            CliError::Regression(_) => 5,
            CliError::Lint(_) => 6,
            CliError::Live(_) => 7,
            CliError::Serve(_) => 8,
            CliError::Message(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Usage(m) => f.write_str(m),
            CliError::Simulation(e) => write!(f, "{e}"),
            CliError::Persistence(m) => f.write_str(m),
            CliError::Regression(m) => f.write_str(m),
            CliError::Lint(n) => write!(f, "ppm-lint: {n} finding(s)"),
            CliError::Live(m) => f.write_str(m),
            CliError::Serve(m) => f.write_str(m),
            CliError::Message(m) => f.write_str(m),
        }
    }
}

impl Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<BuildError> for CliError {
    fn from(e: BuildError) -> Self {
        match e {
            // Store problems are persistence failures, not faults in
            // the simulated pipeline.
            BuildError::Checkpoint(msg) => CliError::Persistence(msg),
            // A sample-selection failure means the caller asked for an
            // impossible sweep (zero candidates / zero threads).
            BuildError::Sample(e) => CliError::Usage(e.to_string()),
            other => CliError::Simulation(other),
        }
    }
}

impl From<FileError> for CliError {
    fn from(e: FileError) -> Self {
        CliError::Persistence(e.to_string())
    }
}

impl From<ppm_live::LiveError> for CliError {
    fn from(e: ppm_live::LiveError) -> Self {
        CliError::Live(e.to_string())
    }
}

impl From<ppm_serve::ServeError> for CliError {
    fn from(e: ppm_serve::ServeError) -> Self {
        CliError::Serve(e.to_string())
    }
}

fn msg(m: impl fmt::Display) -> CliError {
    CliError::Message(m.to_string())
}

/// Runs a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on any failure.
pub fn run(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    run_with_artifacts(parsed, out, &mut RunArtifacts::default())
}

/// Like [`run`], but also fills `artifacts` with side results (model
/// diagnostics) for the flight recorder's ledger writer.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on any failure.
pub fn run_with_artifacts(
    parsed: &Parsed,
    out: &mut dyn fmt::Write,
    artifacts: &mut RunArtifacts,
) -> Result<(), CliError> {
    match parsed.command.as_str() {
        "help" => {
            out.write_str(crate::cli::USAGE).map_err(msg)?;
            Ok(())
        }
        "benchmarks" => benchmarks(out),
        "simulate" => simulate(parsed, out),
        "build" => build(parsed, out, artifacts),
        "predict" => predict(parsed, out),
        "screen" => screen(parsed, out),
        "firstorder" => firstorder(parsed, out),
        "workload-info" => workload_info(parsed, out),
        "report" => flight::report(parsed, out),
        "check-trace" => flight::check_trace(parsed, out),
        "lint" => lint(parsed, out),
        "top" => top(parsed, out),
        "tail" => tail(parsed, out),
        "serve" => serve(parsed, out),
        "publish" => publish(parsed, out),
        "loadtest" => loadtest(parsed, out),
        other => Err(ArgError::UnknownCommand(other.to_string()).into()),
    }
}

/// Starts the live observability plane when `--live <addr>` was given
/// (the flag table admits it only on the long-running commands whose
/// progress is worth watching from outside the process): binds the
/// endpoint, installs the `/eventz` ring as a telemetry sink, and
/// announces the bound address on stderr (unless `--quiet`). Returns
/// the server handle — the caller keeps it alive for the run; dropping
/// it stops the accept loop.
///
/// # Errors
///
/// [`CliError::Live`] (exit code 7) when the address cannot be bound.
pub fn start_live(parsed: &Parsed) -> Result<Option<ppm_live::LiveServer>, CliError> {
    let Some(addr) = parsed.get("--live") else {
        return Ok(None);
    };
    let ring = ppm_telemetry::EventRing::new(256);
    let server = ppm_live::LiveServer::start(addr, ppm_live::RegistrySource::Global, ring.clone())?;
    ppm_telemetry::add_sink(Box::new(ring));
    if !parsed.switch("--quiet") {
        eprintln!("[ppm] live plane listening on http://{}", server.addr());
    }
    Ok(Some(server))
}

/// `ppm top <addr>`: render the live plane at `addr` as a terminal
/// dashboard. `--once` prints a single frame and exits; otherwise the
/// view redraws every `--interval-ms` (default 500) until the endpoint
/// goes away — a vanished endpoint after a successful first poll means
/// the watched run finished, and is a clean exit.
fn top(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let addr = parsed.addr()?;
    let interval_ms: u64 = parsed.num("--interval-ms", 500u64)?;
    let quiet = parsed.switch("--quiet");
    let timeout = std::time::Duration::from_secs(2);
    let mut state = ppm_live::TopState::new();
    // The first poll failing means there is no live plane to watch:
    // that is the exit-code-7 case scripts should see.
    let first = ppm_live::fetch_top(addr, timeout)?;
    if parsed.switch("--once") {
        out.write_str(&state.frame(addr, &first)).map_err(msg)?;
        return Ok(());
    }
    let mut frame = state.frame(addr, &first);
    loop {
        // Redraw in place: clear screen, cursor home, one frame.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        match ppm_live::fetch_top(addr, timeout) {
            Ok(snap) => frame = state.frame(addr, &snap),
            Err(e) => {
                if !quiet {
                    eprintln!("[ppm top] {addr} went away ({e}); exiting");
                }
                return Ok(());
            }
        }
    }
}

/// `ppm serve <addr>`: the fault-hardened prediction service (see
/// `crates/serve`). Blocks until `POST /quitz`. Registry/bind failures
/// exit with code 8.
fn serve(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let addr = parsed.addr()?.to_string();
    let fallback_benchmark = parsed
        .get("--benchmark")
        .map(|name| Benchmark::from_str(name).map_err(msg))
        .transpose()?;
    let chaos = parsed
        .get("--chaos")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("--chaos wants an integer seed, got {v:?}")))
        })
        .transpose()?;
    let defaults = ppm_serve::ServeConfig::default();
    let config = ppm_serve::ServeConfig {
        addr,
        workers: parsed.num("--workers", defaults.workers)?,
        queue_per_worker: parsed.num("--queue", defaults.queue_per_worker)?,
        default_deadline: std::time::Duration::from_millis(parsed.num(
            "--deadline-ms",
            u64::try_from(defaults.default_deadline.as_millis()).unwrap_or(250),
        )?),
        degrade_depth: parsed.num("--degrade-depth", defaults.degrade_depth)?,
        registry: std::path::PathBuf::from(parsed.get("--registry").unwrap_or("registry")),
        fallback_benchmark,
        chaos,
        trace: !parsed.switch("--no-trace"),
        trace_ring: parsed.num("--trace-ring", defaults.trace_ring)?,
        trace_sample: parsed.num("--trace-sample", defaults.trace_sample)?,
    };
    let server = ppm_serve::ServeServer::start(config)?;
    if !parsed.switch("--quiet") {
        eprintln!("[ppm serve] listening on http://{}", server.addr());
        if chaos.is_some() {
            eprintln!("[ppm serve] CHAOS MODE: injecting faults and misbehaving clients");
        }
    }
    server.wait();
    writeln!(out, "serve stopped").map_err(msg)?;
    Ok(())
}

/// `ppm publish --model <file> --registry <dir>`: validate a model file
/// and install it in the serving registry under its content hash,
/// pointing `CURRENT` at it.
fn publish(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let model = parsed.require("--model")?;
    let registry = parsed.require("--registry")?;
    let version = ppm_serve::publish(Path::new(registry), Path::new(model))?;
    writeln!(out, "published {model} to {registry} as version {version}").map_err(msg)?;
    Ok(())
}

/// `ppm loadtest <addr>`: drive a running service and report latency
/// quantiles; `--slo-p99-ms` turns the p99 into a regression gate
/// (exit code 5), `--out` writes the `ppm-loadtest v1` report (with
/// `--ab`, `--ab-out` writes the `ppm-loadtest-ab v1` comparison).
fn loadtest(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let addr = parsed.addr()?.to_string();
    let deadline_ms: u64 = parsed.num("--deadline-ms", 0u64)?;
    let slo = match parsed.get("--slo-p99-ms") {
        Some(_) => Some(finite_num(parsed, "--slo-p99-ms", 0.0)?),
        None => None,
    };
    let config = ppm_serve::LoadtestConfig {
        addr,
        requests: parsed.num("--requests", 200usize)?,
        concurrency: parsed.num("--concurrency", 4usize)?,
        rate: parsed.num("--rate", 0.0f64)?,
        deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        timeout: std::time::Duration::from_secs(5),
        trace_check: !parsed.switch("--no-trace-check"),
    };
    // A/B overhead mode: the positional address is the traced server,
    // --ab names the identical server started with --no-trace.
    if let Some(baseline_addr) = parsed.get("--ab") {
        let ab = ppm_serve::run_ab(&config, baseline_addr)?;
        writeln!(
            out,
            "traced   p99 {:.3} ms  (ok {}, shed {}, deadline {}, errors {})",
            ab.traced.p99_ms,
            ab.traced.ok,
            ab.traced.shed,
            ab.traced.deadline_exceeded,
            ab.traced.errors
        )
        .map_err(msg)?;
        writeln!(
            out,
            "baseline p99 {:.3} ms  (ok {}, shed {}, deadline {}, errors {})",
            ab.baseline.p99_ms,
            ab.baseline.ok,
            ab.baseline.shed,
            ab.baseline.deadline_exceeded,
            ab.baseline.errors
        )
        .map_err(msg)?;
        // A leg with no successful answer has no p99 to compare: refuse
        // the reading, as the SLO gate does, instead of a vacuous 0%.
        for (leg, run) in [("traced", &ab.traced), ("baseline", &ab.baseline)] {
            if run.ok == 0 {
                return Err(CliError::Regression(format!(
                    "A/B reading has no evidence: 0 of {} {leg} requests succeeded",
                    run.sent
                )));
            }
        }
        writeln!(out, "tracing p99 overhead {:+.2}%", ab.overhead_pct).map_err(msg)?;
        if let Some(check) = &ab.traced.trace_check {
            report_trace_check(out, check)?;
        }
        if let Some(path) = parsed.get("--ab-out") {
            write_report(path, &ab.to_json())?;
            writeln!(out, "A/B report written to {path}").map_err(msg)?;
        }
        return Ok(());
    }
    let report = ppm_serve::run_loadtest(&config)?;
    writeln!(out, "sent               {}", report.sent).map_err(msg)?;
    writeln!(
        out,
        "ok                 {} ({} degraded)",
        report.ok, report.degraded
    )
    .map_err(msg)?;
    writeln!(out, "shed               {}", report.shed).map_err(msg)?;
    writeln!(out, "deadline exceeded  {}", report.deadline_exceeded).map_err(msg)?;
    writeln!(out, "errors             {}", report.errors).map_err(msg)?;
    writeln!(
        out,
        "ok latency ms      p50 {:.2}  p95 {:.2}  p99 {:.2}  mean {:.2}",
        report.p50_ms, report.p95_ms, report.p99_ms, report.mean_ms
    )
    .map_err(msg)?;
    if report.shed + report.deadline_exceeded > 0 {
        writeln!(
            out,
            "refusal latency ms p50 {:.2}  p99 {:.2}  mean {:.2}",
            report.refusal_p50_ms, report.refusal_p99_ms, report.refusal_mean_ms
        )
        .map_err(msg)?;
    }
    writeln!(
        out,
        "wall               {:.0} ms ({:.0} req/s)",
        report.wall_ms, report.rps
    )
    .map_err(msg)?;
    if let Some(check) = &report.trace_check {
        report_trace_check(out, check)?;
    }
    if let Some(path) = parsed.get("--out") {
        write_report(path, &report.to_json())?;
        writeln!(out, "report written to {path}").map_err(msg)?;
    }
    if let Some(slo) = slo {
        // The SLO is a claim about successful answers. With zero of
        // them there is no p99 to compare — a service shedding
        // everything in microseconds must fail the gate, not pass it
        // with a vacuous 0 ms.
        if report.ok == 0 {
            return Err(CliError::Regression(format!(
                "SLO gate has no evidence: 0 of {} requests succeeded \
                 ({} shed, {} deadline-exceeded, {} errors); refusing to \
                 pass on an unmeasurable p99",
                report.sent, report.shed, report.deadline_exceeded, report.errors
            )));
        }
        if report.p99_ms > slo {
            return Err(CliError::Regression(format!(
                "p99 latency {:.2} ms exceeds the {slo} ms SLO",
                report.p99_ms
            )));
        }
    }
    Ok(())
}

/// Reads a float flag that must be finite: `nan` and the infinities
/// parse as `f64`, but NaN fails every comparison.
fn finite_num(parsed: &Parsed, flag: &str, default: f64) -> Result<f64, CliError> {
    let value: f64 = parsed.num(flag, default)?;
    if value.is_finite() {
        return Ok(value);
    }
    Err(CliError::Args(ArgError::BadValue {
        flag: flag.to_string(),
        value: parsed.get(flag).unwrap_or_default().to_string(),
        expected: "finite number",
    }))
}

/// Writes a loadtest report document to `path`.
fn write_report(path: &str, doc: &ppm_telemetry::Json) -> Result<(), CliError> {
    ppm_telemetry::write_atomic(Path::new(path), doc.dump().as_bytes())
        .map_err(|e| CliError::Persistence(format!("cannot write report {path}: {e}")))
}

/// Prints the end-to-end accounting cross-check outcome: one line when
/// the books balance, the discrepancy list when they don't.
fn report_trace_check(
    out: &mut dyn fmt::Write,
    check: &ppm_serve::TraceCheckReport,
) -> Result<(), CliError> {
    if check.passed() {
        writeln!(
            out,
            "accounting         balanced (prefix {}, {} traces retained)",
            check.prefix, check.matched_traces
        )
        .map_err(msg)?;
    } else if !check.checked {
        writeln!(
            out,
            "accounting         skipped: {}",
            check.mismatches.join("; ")
        )
        .map_err(msg)?;
    } else {
        for m in &check.mismatches {
            writeln!(out, "accounting MISMATCH {m}").map_err(msg)?;
        }
    }
    Ok(())
}

/// `ppm tail <addr>`: stream the serving plane's retained trace feed
/// as a table. `--once` prints the current ring contents and exits;
/// otherwise polls every `--interval-ms` until interrupted. A failed
/// first poll (no server, tracing disabled) exits with code 8.
fn tail(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let addr = parsed.addr()?.to_string();
    let min_ms: u64 = parsed.num("--min-ms", 0u64)?;
    let defaults = ppm_serve::TailConfig::default();
    let config = ppm_serve::TailConfig {
        addr,
        interval: std::time::Duration::from_millis(parsed.num("--interval-ms", 1000u64)?),
        once: parsed.switch("--once"),
        limit: parsed.num("--limit", defaults.limit)?,
        outcome: parsed.get("--outcome").map(str::to_string),
        min_ms: (min_ms > 0).then_some(min_ms),
    };
    if config.once {
        let mut lines = String::new();
        ppm_serve::run_tail(&config, &mut |line| {
            lines.push_str(line);
            lines.push('\n');
        })?;
        out.write_str(&lines).map_err(msg)?;
        return Ok(());
    }
    // Streaming mode writes straight to stdout as records arrive —
    // buffering through `out` would hold lines until the (never) end.
    ppm_serve::run_tail(&config, &mut |line| println!("{line}"))?;
    Ok(())
}

fn benchmark_arg(parsed: &Parsed) -> Result<Benchmark, CliError> {
    let name = parsed.require("--benchmark")?;
    Benchmark::from_str(name).map_err(msg)
}

/// Builds a simulator configuration from the `--<knob>` flags: a value
/// that does not parse is a usage error (exit code 2), an out-of-range
/// configuration a plain error.
fn config_from(parsed: &Parsed) -> Result<SimConfig, CliError> {
    let given = KNOBS.iter().filter_map(|knob| {
        let flag = knob.flag;
        parsed.get(&format!("--{flag}")).map(|value| (flag, value))
    });
    SimConfig::from_knobs(given).map_err(|e| match e {
        KnobError::Config(e) => msg(e),
        e => CliError::Usage(format!("--{e}")),
    })
}

fn benchmarks(out: &mut dyn fmt::Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<14} {:>9} {:>8} {:>8}",
        "benchmark", "code_KB", "loads%", "branch%"
    )
    .map_err(msg)?;
    for b in Benchmark::all() {
        let p = b.profile();
        writeln!(
            out,
            "{:<14} {:>9} {:>8.0} {:>8.1}",
            b.to_string(),
            p.code_footprint() / 1024,
            100.0 * p.mix.load,
            100.0 * p.branch_fraction()
        )
        .map_err(msg)?;
    }
    Ok(())
}

/// `ppm simulate`: one batched trace pass over its lanes, which are the
/// configuration the flags describe or, with `--batch <n>`, an n-point
/// Latin-hypercube sample of the Table 1 design space. A `--batch` run
/// then cross-checks every lane against a run of the reference oracle
/// ([`ppm_sim::reference::Processor`]) on the same configuration. A
/// statistics mismatch is a simulation fault (exit code 3) — the
/// batched engine's contract is byte-identical results, not
/// approximately-equal ones. Its stdout carries no timing, so it is the
/// same at any `PPM_THREADS`; both wall times land in the run ledger's
/// header (`stage.simulate_batch` / `stage.simulate_serial`).
fn simulate(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let bench = benchmark_arg(parsed)?;
    let sampled = parsed.get("--batch").is_some();
    let knob_given = KNOBS
        .iter()
        .any(|k| parsed.get(&format!("--{}", k.flag)).is_some());
    if sampled && (knob_given || parsed.switch("--energy")) {
        return Err(CliError::Usage(
            "--batch draws its own configurations: it takes no configuration flags or --energy"
                .to_string(),
        ));
    }
    let flag_config = (!sampled).then(|| config_from(parsed)).transpose()?;
    let lanes: usize = parsed.num("--batch", 1usize)?;
    if lanes == 0 {
        return Err(CliError::Usage(
            "--batch wants at least one configuration".to_string(),
        ));
    }
    let instructions = instructions_arg(parsed)?;
    let seed: u64 = parsed.num("--seed", 1u64)?;
    let response = SimulatorResponse::new(bench, instructions).with_seed(seed);
    let configs: Vec<SimConfig> = match &flag_config {
        Some(config) => vec![config.clone()],
        None => {
            let space = response.space();
            let mut rng = ppm_rng::Rng::seed_from_u64(seed);
            ppm_sampling::lhs::LatinHypercube::new(space.params(), lanes)
                .generate(&mut rng)
                .iter()
                .map(|u| space.to_config(u))
                .collect()
        }
    };
    let run = |stage: &str| {
        let _span = ppm_telemetry::span(stage);
        response
            .run(&configs)
            .map_err(|e| CliError::Simulation(BuildError::InvalidConfig(e.to_string())))
    };

    if let Some(config) = flag_config {
        let stats = run("stage.simulate")?.remove(0);
        writeln!(out, "benchmark      {bench}").map_err(msg)?;
        writeln!(out, "instructions   {}", stats.instructions).map_err(msg)?;
        writeln!(out, "cycles         {}", stats.cycles).map_err(msg)?;
        writeln!(out, "CPI            {:.4}", stats.cpi()).map_err(msg)?;
        writeln!(out, "IPC            {:.4}", stats.ipc()).map_err(msg)?;
        writeln!(out, "il1 miss rate  {:.4}", stats.il1.miss_rate()).map_err(msg)?;
        writeln!(out, "dl1 miss rate  {:.4}", stats.dl1.miss_rate()).map_err(msg)?;
        writeln!(out, "l2 miss rate   {:.4}", stats.l2.miss_rate()).map_err(msg)?;
        writeln!(out, "mispredicts    {:.4}", stats.mispredict_rate()).map_err(msg)?;
        writeln!(out, "dram accesses  {}", stats.dram_accesses).map_err(msg)?;
        if parsed.switch("--energy") {
            let e = estimate_energy(&stats, &config, &EnergyParams::default());
            writeln!(out, "energy total   {:.1}", e.total()).map_err(msg)?;
            writeln!(out, "EPI            {:.4}", e.epi()).map_err(msg)?;
            writeln!(out, "EDP            {:.4}", e.edp()).map_err(msg)?;
        }
        return Ok(());
    }

    let batched = run("stage.simulate_batch")?;
    let serial = ppm_telemetry::span("stage.simulate_serial");
    for (lane, (config, b)) in configs.iter().zip(&batched).enumerate() {
        let s = ppm_sim::reference::Processor::new(config.clone()).run(response.trace());
        if *b != s {
            return Err(CliError::Simulation(BuildError::InvalidConfig(format!(
                "batched lane {lane} diverged from its serial run \
                 (batched CPI {:.6}, serial CPI {:.6}): the shared-trace \
                 invariant is broken",
                b.cpi(),
                s.cpi()
            ))));
        }
    }
    drop(serial);

    writeln!(out, "benchmark      {bench}").map_err(msg)?;
    writeln!(out, "lanes          {lanes}").map_err(msg)?;
    writeln!(out, "instructions   {instructions}").map_err(msg)?;
    writeln!(
        out,
        "{:<5} {:>6} {:>5} {:>7} {:>8} {:>8} {:>9}",
        "lane", "depth", "rob", "dl1_kb", "CPI", "IPC", "identical"
    )
    .map_err(msg)?;
    for (lane, (config, stats)) in configs.iter().zip(&batched).enumerate() {
        writeln!(
            out,
            "{lane:<5} {:>6} {:>5} {:>7} {:>8.4} {:>8.4} {:>9}",
            config.pipe_depth,
            config.rob_size,
            config.dl1_size_kb,
            stats.cpi(),
            stats.ipc(),
            "yes"
        )
        .map_err(msg)?;
    }
    Ok(())
}

fn metric_arg(parsed: &Parsed) -> Result<(Metric, &'static str), CliError> {
    match parsed.get("--metric").unwrap_or("cpi") {
        "cpi" => Ok((Metric::Cpi, "cpi")),
        "epi" => Ok((Metric::Epi, "epi")),
        "edp" => Ok((Metric::Edp, "edp")),
        other => Err(msg(format!("unknown metric {other:?} (cpi|epi|edp)"))),
    }
}

/// The simulation worker-thread count: a valid `PPM_THREADS`, else the
/// machine default. A bad `PPM_THREADS` is a usage error (exit code 2),
/// not a guess.
fn sim_threads() -> Result<usize, CliError> {
    ppm_exec::threads_from_env().map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(ppm_exec::default_threads())
}

/// `--instructions`: an empty trace has no CPI and no profile, so 0 is
/// a usage error (exit code 2).
fn instructions_arg(parsed: &Parsed) -> Result<usize, CliError> {
    match parsed.num("--instructions", 100_000)? {
        0 => Err(CliError::Usage("--instructions must be at least 1".into())),
        n => Ok(n),
    }
}

/// The training-side worker-thread count: `--train-threads` when given,
/// else [`sim_threads`]. Bad values in either place are usage errors
/// (exit code 2), not guesses.
fn train_threads_arg(parsed: &Parsed) -> Result<usize, CliError> {
    let threads: usize = parsed.num("--train-threads", sim_threads()?)?;
    if threads == 0 {
        return Err(CliError::Usage(
            "--train-threads must be at least 1".to_string(),
        ));
    }
    Ok(threads.min(ppm_exec::MAX_THREADS))
}

fn build(
    parsed: &Parsed,
    out: &mut dyn fmt::Write,
    artifacts: &mut RunArtifacts,
) -> Result<(), CliError> {
    let bench = benchmark_arg(parsed)?;
    let out_path = parsed.require("--out")?.to_string();
    let sample: usize = parsed.num("--sample", 90)?;
    let instructions = instructions_arg(parsed)?;
    let seed: u64 = parsed.num("--seed", 1u64)?;
    let holdout: usize = parsed.num("--holdout", 12)?;
    let train_threads = train_threads_arg(parsed)?;
    let lhs_candidates: usize = parsed.num("--lhs-candidates", 200)?;
    let (metric, metric_name) = metric_arg(parsed)?;

    let response = SimulatorResponse::new(bench, instructions)
        .with_seed(seed)
        .with_metric(metric);
    ppm_telemetry::event(
        "build.start",
        &[
            ("benchmark", bench.to_string().into()),
            ("points", sample.into()),
            ("instructions", instructions.into()),
            ("metric", metric_name.into()),
        ],
    );
    let config = BuildConfig::default()
        .with_sample_size(sample)
        .with_seed(seed)
        .with_train_threads(train_threads)
        .with_lhs_candidates(lhs_candidates);
    let builder = RbfModelBuilder::new(response.space().clone(), config);
    // The run parameters the model file records.
    let run_meta = vec![
        ("benchmark".to_string(), bench.to_string()),
        ("metric".to_string(), metric_name.to_string()),
        ("sample".to_string(), sample.to_string()),
        ("instructions".to_string(), instructions.to_string()),
        ("seed".to_string(), seed.to_string()),
    ];
    // An existing store is reused, whichever run wrote it: no point of
    // the sample or the holdout whose key it holds is simulated again.
    let mut store = match parsed.get("--checkpoint") {
        Some(path) if Path::new(path).exists() => Some(ResultStore::load(path)?),
        Some(path) => Some(ResultStore::create(path)),
        None => None,
    };
    let built = builder.build_checkpointed(&response, store.as_mut())?;
    if !built.quarantined.is_empty() {
        writeln!(
            out,
            "warning: {} of {} design points quarantined; model trained on survivors",
            built.quarantined.len(),
            built.quarantined.len() + built.design.len()
        )
        .map_err(msg)?;
    }
    // Held-out accuracy on the paper's §3 test region: simulate
    // `--holdout` fresh points the training sample never saw and score
    // the model against them. Deterministic for a fixed seed, so the
    // statistics land in the ledger's hashed body. The points run as lane
    // groups under the strict policy, stored like the sample: a faulty
    // held-out point fails the build instead of skewing the reported
    // error.
    let holdout_stats = if holdout > 0 {
        let _span = ppm_telemetry::span("stage.holdout");
        let test = builder.test_points(&DesignSpace::paper_table2(), holdout);
        let threads = builder.config().threads;
        let strict = SupervisorPolicy::strict();
        let actual = eval_journaled(&response, &test, threads, &strict, store.as_mut())?
            .into_values(test.len())?;
        Some(built.evaluate(&test, &actual))
    } else {
        None
    };
    artifacts.diagnostics = built
        .diagnostics(holdout_stats)
        .ok()
        .as_ref()
        .map(flight::diagnostics_json);
    let mut meta = run_meta;
    meta.push(("p_min".to_string(), built.model.p_min.to_string()));
    meta.push(("alpha".to_string(), built.model.alpha.to_string()));
    persist::save(&built.model.network, &meta, Path::new(&out_path))?;
    writeln!(
        out,
        "model with {} centers (p_min={}, alpha={}) written to {}",
        built.model.network.num_centers(),
        built.model.p_min,
        built.model.alpha,
        out_path
    )
    .map_err(msg)?;
    if let Some(stats) = &holdout_stats {
        let metric = metric_name.to_uppercase();
        writeln!(
            out,
            "held-out {metric} error over {holdout} points: mean {:.2}% max {:.2}% std {:.2}%",
            stats.mean_pct, stats.max_pct, stats.std_pct
        )
        .map_err(msg)?;
    }
    Ok(())
}

fn predict(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let model_path = parsed.require("--model")?;
    let saved = persist::load(Path::new(model_path))?;
    let space = DesignSpace::paper_table1();
    let unit = space.to_unit(&config_from(parsed)?);
    let value = saved.network.predict(&unit);
    let metric = saved.meta_value("metric").unwrap_or("cpi");
    if let Some(bench) = saved.meta_value("benchmark") {
        writeln!(out, "benchmark  {bench}").map_err(msg)?;
    }
    writeln!(out, "predicted {metric}  {value:.4}").map_err(msg)?;
    Ok(())
}

fn screen(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let bench = benchmark_arg(parsed)?;
    let instructions = instructions_arg(parsed)?;
    let threads = sim_threads()?;
    let response = SimulatorResponse::new(bench, instructions);
    ppm_telemetry::event(
        "screen.start",
        &[
            ("benchmark", bench.to_string().into()),
            ("simulations", 24u64.into()),
        ],
    );
    let effects = pb_screening(response.space(), &response, 12, threads)?;
    writeln!(out, "{:<12} {:>12}", "parameter", "effect (CPI)").map_err(msg)?;
    for e in effects {
        writeln!(out, "{:<12} {:>12.4}", e.param, e.effect).map_err(msg)?;
    }
    Ok(())
}

/// One profile pass over the first `--instructions` of the benchmark's
/// trace at `--seed`, as `workload-info` and `firstorder` report it.
fn program_stats(parsed: &Parsed, bench: Benchmark) -> Result<ProgramStats, CliError> {
    let instructions = instructions_arg(parsed)?;
    let seed: u64 = parsed.num("--seed", 1u64)?;
    let _span = ppm_telemetry::span("stage.workload_stats");
    let trace = TraceGenerator::new(bench, seed).take(instructions);
    Ok(ProgramStats::collect(trace, &SimConfig::default()))
}

fn workload_info(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let bench = benchmark_arg(parsed)?;
    let stats = program_stats(parsed, bench)?;
    writeln!(out, "benchmark           {bench}").map_err(msg)?;
    writeln!(out, "instructions        {}", stats.instructions).map_err(msg)?;
    writeln!(out, "load fraction       {:.3}", stats.load_frac).map_err(msg)?;
    writeln!(out, "branch fraction     {:.3}", stats.branch_frac).map_err(msg)?;
    writeln!(out, "mispredict rate     {:.4}", stats.mispredict_rate).map_err(msg)?;
    writeln!(out, "chained load frac   {:.3}", stats.chained_load_frac).map_err(msg)?;
    writeln!(
        out,
        "dataflow ILP        {}",
        stats
            .ilp_curve
            .iter()
            .map(|(w, i)| format!("{w}:{i:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
    .map_err(msg)?;
    let fmt_mpi = |table: &std::collections::BTreeMap<u32, f64>| {
        table
            .iter()
            .map(|(k, v)| format!("{k}K:{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    writeln!(out, "il1 misses/instr    {}", fmt_mpi(&stats.il1_mpi)).map_err(msg)?;
    writeln!(out, "dl1 misses/instr    {}", fmt_mpi(&stats.dl1_mpi)).map_err(msg)?;
    writeln!(out, "l2 misses/instr     {}", fmt_mpi(&stats.l2_mpi)).map_err(msg)?;
    Ok(())
}

fn firstorder(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let bench = benchmark_arg(parsed)?;
    let config = config_from(parsed)?;
    let model = FirstOrderModel::new(program_stats(parsed, bench)?);
    let predicted = model.predict(&config);
    writeln!(out, "benchmark            {bench}").map_err(msg)?;
    writeln!(out, "first-order CPI      {predicted:.4}").map_err(msg)?;
    writeln!(
        out,
        "(one trace pass; compare with `ppm simulate` for the detailed number)"
    )
    .map_err(msg)?;
    Ok(())
}

/// `ppm lint`: the workspace static-analysis tool (see `crates/lint`),
/// running both rule families — token rules and semantic rules.
///
/// Flags: `--root <dir>` (default `.`), `--conf <file>` (default
/// `<root>/scripts/lint.conf` when present), `--format human|json`,
/// `--rule <name>` to report one rule only. Findings are printed to
/// stdout and exit with code 6, so scripts can tell "violations found"
/// from a broken scan.
fn lint(parsed: &Parsed, out: &mut dyn fmt::Write) -> Result<(), CliError> {
    let format = parsed.get("--format").unwrap_or("human");
    if !matches!(format, "human" | "json") {
        return Err(CliError::Usage(format!(
            "unknown lint format {format:?} (human|json)"
        )));
    }
    let rule_filter = parsed.get("--rule");
    if let Some(rule) = rule_filter.filter(|r| !ppm_lint::rules::is_rule(r)) {
        return Err(CliError::Usage(format!(
            "unknown lint rule {rule:?} (known: {})",
            ppm_lint::rules::rule_list()
        )));
    }
    let root = Path::new(parsed.get("--root").unwrap_or("."));
    let persist = |e: &dyn fmt::Display| CliError::Persistence(e.to_string());
    let conf = match parsed.get("--conf") {
        Some(path) => ppm_lint::Config::load(Path::new(path)).map_err(|e| persist(&e))?,
        None => {
            let default = root.join("scripts").join("lint.conf");
            if default.is_file() {
                ppm_lint::Config::load(&default).map_err(|e| persist(&e))?
            } else {
                ppm_lint::Config::empty()
            }
        }
    };
    let mut report = {
        let _span = ppm_telemetry::span("stage.lint");
        ppm_lint::lint_workspace(root, &conf).map_err(|e| persist(&e))?
    };
    if let Some(rule) = rule_filter {
        report.diagnostics.retain(|d| d.rule == rule);
    }
    match format {
        "json" => writeln!(out, "{}", report.render_json()).map_err(msg)?,
        _ => out.write_str(&report.render_human()).map_err(msg)?,
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::Lint(report.diagnostics.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let parsed = Parsed::parse(args.iter().map(|s| s.to_string()))?;
        let mut out = String::new();
        run(&parsed, &mut out)?;
        Ok(out)
    }

    /// The flags `command` reads beyond the global ones, probed through
    /// the parser over every flag `ppm help` documents.
    fn table_flags(command: &str) -> std::collections::BTreeSet<&'static str> {
        let parses = |args: &[&str]| Parsed::parse(args.iter().map(|a| a.to_string())).is_ok();
        // A switch parses alone, a value flag with a value.
        let takes = |cmd: &str, flag: &str| parses(&[cmd, flag]) || parses(&[cmd, flag, "1"]);
        crate::cli::USAGE
            .split(|c: char| c.is_whitespace() || "[]".contains(c))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .filter(|flag| takes(command, flag) && !takes("help", flag))
            .collect()
    }

    #[test]
    fn an_addr_commands_usage_error_names_exactly_its_flags() {
        let addr_commands: Vec<&str> = crate::cli::command_names()
            .filter(|c| Parsed::parse([*c, "127.0.0.1:1"].map(String::from)).is_ok())
            .collect();
        assert_eq!(addr_commands, ["top", "tail", "serve", "loadtest"]);
        for command in addr_commands {
            let err = run_cli(&[command]).expect_err("no address");
            assert_eq!(err.exit_code(), 2, "{command}");
            let usage = err.to_string();
            let prefix = format!("usage: ppm {command} <addr>");
            assert!(usage.starts_with(&prefix), "{usage}");
            let named: std::collections::BTreeSet<&str> = usage
                .split(|c: char| c.is_whitespace() || "[]".contains(c))
                .filter(|w| w.starts_with("--"))
                .collect();
            assert_eq!(named, table_flags(command), "{command}: {usage}");
        }
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cli(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("simulate"));
    }

    #[test]
    fn benchmarks_lists_all_eight() {
        let out = run_cli(&["benchmarks"]).unwrap();
        for b in Benchmark::all() {
            assert!(out.contains(b.name()), "missing {b}");
        }
    }

    #[test]
    fn simulate_reports_cpi() {
        let out = run_cli(&[
            "simulate",
            "--benchmark",
            "crafty",
            "--instructions",
            "20000",
            "--energy",
        ])
        .unwrap();
        assert!(out.contains("CPI"));
        assert!(out.contains("EPI"));
    }

    #[test]
    fn simulate_respects_config_flags() {
        let slow = run_cli(&[
            "simulate",
            "--benchmark",
            "mcf",
            "--instructions",
            "20000",
            "--l2-lat",
            "20",
        ])
        .unwrap();
        let fast = run_cli(&[
            "simulate",
            "--benchmark",
            "mcf",
            "--instructions",
            "20000",
            "--l2-lat",
            "5",
        ])
        .unwrap();
        let cpi = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("CPI"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .expect("CPI line")
        };
        assert!(cpi(&slow) > cpi(&fast));
    }

    #[test]
    fn build_then_predict_round_trip() {
        let dir = std::env::temp_dir().join("ppm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.txt");
        let path = model_path.to_str().unwrap();
        let out = run_cli(&[
            "build",
            "--benchmark",
            "ammp",
            "--out",
            path,
            "--sample",
            "25",
            "--instructions",
            "15000",
        ])
        .unwrap();
        assert!(out.contains("centers"));
        let out = run_cli(&["predict", "--model", path, "--rob", "100"]).unwrap();
        assert!(out.contains("predicted cpi"));
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn workload_info_reports_characteristics() {
        let out = run_cli(&[
            "workload-info",
            "--benchmark",
            "mcf",
            "--instructions",
            "20000",
        ])
        .unwrap();
        assert!(out.contains("chained load frac"));
        assert!(out.contains("dataflow ILP"));
    }

    #[test]
    fn firstorder_runs() {
        let out = run_cli(&[
            "firstorder",
            "--benchmark",
            "twolf",
            "--instructions",
            "20000",
        ])
        .unwrap();
        assert!(out.contains("first-order CPI"));
    }

    #[test]
    fn unknown_command_and_benchmark_error() {
        assert_eq!(run_cli(&["frobnicate"]).unwrap_err().exit_code(), 2);
        // The semantic rules run under `ppm lint`; there is no `analyze`.
        assert_eq!(run_cli(&["analyze"]).unwrap_err().exit_code(), 2);
        let err = run_cli(&["simulate", "--benchmark", "gcc"]).unwrap_err();
        assert!(err.to_string().contains("gcc"));
    }

    #[test]
    fn invalid_config_is_reported() {
        let err = run_cli(&["simulate", "--benchmark", "mcf", "--depth", "3"]).unwrap_err();
        assert!(err.to_string().contains("pipe_depth"));
        let err = run_cli(&["simulate", "--benchmark", "mcf", "--rob", "many"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--rob"), "{err}");
    }

    #[test]
    fn batch_simulation_refuses_flags_it_would_ignore() {
        for extra in [&["--rob", "32"][..], &["--energy"]] {
            let mut args = vec!["simulate", "--benchmark", "mcf", "--batch", "2"];
            args.extend(extra);
            let err = run_cli(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
        }
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        let dir = std::env::temp_dir().join("ppm_cli_zero_counts");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("m.txt");
        std::fs::remove_file(&model).ok();
        let model = model.to_str().unwrap();
        let build = ["build", "--benchmark", "mcf", "--out", model];
        let rows: [(&[&str], &str); 8] = [
            (&build, "--train-threads"),
            (&build, "--instructions"),
            (&["simulate", "--benchmark", "mcf"], "--instructions"),
            (
                &["simulate", "--benchmark", "mcf", "--batch", "4"],
                "--instructions",
            ),
            (&["simulate", "--benchmark", "mcf"], "--batch"),
            (&["screen", "--benchmark", "mcf"], "--instructions"),
            (&["workload-info", "--benchmark", "mcf"], "--instructions"),
            (&["firstorder", "--benchmark", "mcf"], "--instructions"),
        ];
        for (command, flag) in rows {
            let args = [command, &[flag, "0"]].concat();
            let parsed = Parsed::parse(args.iter().map(|s| s.to_string())).unwrap();
            let mut out = String::new();
            let err = run(&parsed, &mut out).expect_err("a zero count is refused");
            assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
            assert!(err.to_string().contains(flag), "{args:?}: {err}");
            assert_eq!(out, "", "{args:?} wrote to stdout");
            assert!(!Path::new(model).exists(), "{args:?} wrote a model");
        }
    }

    #[test]
    fn zero_lhs_candidates_is_a_usage_error() {
        let err = run_cli(&[
            "build",
            "--benchmark",
            "mcf",
            "--out",
            "/dev/null",
            "--sample",
            "10",
            "--instructions",
            "5000",
            "--lhs-candidates",
            "0",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("candidate"), "{err}");
    }

    #[test]
    fn build_accepts_explicit_training_flags() {
        let dir = std::env::temp_dir().join("ppm_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.txt");
        let out = run_cli(&[
            "build",
            "--benchmark",
            "mcf",
            "--out",
            model_path.to_str().unwrap(),
            "--sample",
            "20",
            "--instructions",
            "10000",
            "--train-threads",
            "2",
            "--lhs-candidates",
            "16",
        ])
        .unwrap();
        assert!(out.contains("centers"));
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn held_out_line_names_the_modelled_metric() {
        let dir = std::env::temp_dir().join("ppm_cli_metric_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.txt");
        let out = run_cli(&[
            "build",
            "--benchmark",
            "ammp",
            "--out",
            model_path.to_str().unwrap(),
            "--sample",
            "20",
            "--instructions",
            "5000",
            "--lhs-candidates",
            "16",
            "--metric",
            "epi",
            "--holdout",
            "3",
        ])
        .unwrap();
        assert!(out.contains("held-out EPI error over 3 points"), "{out}");
        assert!(!out.contains("CPI"), "{out}");
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn exit_codes_follow_error_category() {
        assert_eq!(CliError::Args(ArgError::MissingCommand).exit_code(), 2);
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        let e: CliError = BuildError::Sample(ppm_sampling::SampleError::NoCandidates).into();
        assert_eq!(e.exit_code(), 2);
        assert_eq!(
            CliError::Simulation(BuildError::InvalidConfig("x".into())).exit_code(),
            3
        );
        assert_eq!(CliError::Persistence("x".into()).exit_code(), 4);
        assert_eq!(CliError::Live("x".into()).exit_code(), 7);
        let e: CliError = ppm_live::LiveError::Bind {
            addr: "127.0.0.1:1".into(),
            detail: "in use".into(),
        }
        .into();
        assert_eq!(e.exit_code(), 7);
        assert_eq!(CliError::Serve("x".into()).exit_code(), 8);
        let e: CliError = ppm_serve::ServeError::Store("no CURRENT".into()).into();
        assert_eq!(e.exit_code(), 8);
        assert_eq!(CliError::Message("x".into()).exit_code(), 1);
        // The From impls route result-store trouble to the persistence
        // category and everything else simulation-ward.
        let e: CliError = BuildError::Checkpoint("bad".into()).into();
        assert_eq!(e.exit_code(), 4);
        let e: CliError = BuildError::ExcessiveFaults {
            quarantined: 3,
            total: 10,
            detail: "x".into(),
        }
        .into();
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn top_requires_an_address_and_dead_endpoints_exit_7() {
        let err = run_cli(&["top"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("ppm top <addr>"), "{err}");
        // A port nothing listens on: first poll fails, exit code 7.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = run_cli(&["top", &format!("127.0.0.1:{port}"), "--once"]).unwrap_err();
        assert_eq!(err.exit_code(), 7, "{err}");
    }

    #[test]
    fn top_once_renders_a_frame_against_a_live_server() {
        let server = ppm_live::LiveServer::start(
            "127.0.0.1:0",
            ppm_live::RegistrySource::Global,
            ppm_telemetry::EventRing::new(8),
        )
        .unwrap();
        let out = run_cli(&["top", &server.addr().to_string(), "--once"]).unwrap();
        assert!(out.contains("ppm top —"), "{out}");
        assert!(out.contains("points ["), "{out}");
    }

    #[test]
    fn live_flag_is_gated_to_long_running_commands() {
        let err: CliError = Parsed::parse(
            ["predict", "--live", "127.0.0.1:0"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap_err()
        .into();
        assert_eq!(err.exit_code(), 2, "{err}");
        // Without the flag nothing starts, whatever the command.
        let parsed = Parsed::parse(["predict"].iter().map(|s| s.to_string())).unwrap();
        assert!(start_live(&parsed).unwrap().is_none());
        // An unbindable address is a live-plane error (exit code 7).
        let parsed = Parsed::parse(
            ["build", "--live", "not-an-address", "--quiet"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let err = start_live(&parsed).unwrap_err();
        assert_eq!(err.exit_code(), 7, "{err}");
    }

    #[test]
    fn serve_and_loadtest_require_an_address() {
        let err = run_cli(&["serve"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("ppm serve <addr>"), "{err}");
        let err = run_cli(&["loadtest"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("ppm loadtest <addr>"), "{err}");
    }

    #[test]
    fn serve_with_bad_chaos_seed_is_a_usage_error() {
        let err = run_cli(&["serve", "127.0.0.1:0", "--chaos", "banana"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn non_finite_slo_flags_are_usage_errors() {
        // The loadtest would otherwise fail later with exit 8: nothing
        // listens on the port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        for bad in ["nan", "NaN", "inf", "-inf"] {
            let err = run_cli(&[
                "loadtest",
                &format!("127.0.0.1:{port}"),
                "--requests",
                "1",
                "--slo-p99-ms",
                bad,
            ])
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}: {err}");
            assert!(err.to_string().contains("--slo-p99-ms"), "{err}");
        }
    }

    #[test]
    fn serve_on_an_empty_registry_without_fallback_exits_8() {
        let dir = std::env::temp_dir().join("ppm_cli_serve_empty_reg");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_cli(&[
            "serve",
            "127.0.0.1:0",
            "--registry",
            dir.to_str().unwrap(),
            "--quiet",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
    }

    #[test]
    fn publish_refuses_garbage_with_exit_8() {
        let dir = std::env::temp_dir().join("ppm_cli_publish_test");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.txt");
        std::fs::write(&junk, "not a model\n").unwrap();
        let err = run_cli(&[
            "publish",
            "--model",
            junk.to_str().unwrap(),
            "--registry",
            dir.join("registry").to_str().unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
    }

    #[test]
    fn loadtest_against_a_dead_service_exits_8() {
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = run_cli(&[
            "loadtest",
            &format!("127.0.0.1:{port}"),
            "--requests",
            "2",
            "--concurrency",
            "1",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
    }

    #[test]
    fn predict_on_corrupt_model_is_a_persistence_error() {
        let dir = std::env::temp_dir().join("ppm_cli_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "not a model\n").unwrap();
        let err = run_cli(&["predict", "--model", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        std::fs::remove_file(&path).ok();
    }
}
