//! The four workloads and their untraced runs, which drive the release
//! `ppm` binary as a user would and report the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use ppm_core::persist;
use ppm_rbf::RbfNetwork;

use crate::procfs::{self, Measured};
use crate::report::Outcome;
use crate::serve::{self, Plan, Queries, Server};
use crate::stats;

/// Held-out error above which a build's model is called wrong: the
/// paper's models sit at a few percent, so this only catches breakage.
const MAX_ERR_PCT: f64 = 25.0;

/// Spawn-to-exit samples of the build set-up probe per run. Set-up
/// takes 10–30 ms and single samples vary by half, hence the median of
/// many.
const SETUP_PROBES: usize = 11;

/// Server starts per serve run; the last one takes the traffic.
const SERVER_STARTS: usize = 7;

/// `/predict` queries generated per run; requests cycle through them.
const QUERIES: usize = 1024;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three paper-scale mcf builds (200 points × 300k instructions).
    BuildPaperMcf,
    /// The Fig. 4 procedure on crafty, twice: builds at 30–200 points.
    SweepFig4Crafty,
    /// `/predict` in closed loop on 2 clients, then 4000 req/s open loop.
    ServePredict,
    /// The same reads beside a publish + reload every 100 ms.
    ServeReloadMix,
}

impl Workload {
    /// Every workload, in the order `agree` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::BuildPaperMcf,
        Workload::SweepFig4Crafty,
        Workload::ServePredict,
        Workload::ServeReloadMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildPaperMcf => "build_paper_mcf",
            Workload::SweepFig4Crafty => "sweep_fig4_crafty",
            Workload::ServePredict => "serve_predict",
            Workload::ServeReloadMix => "serve_reload_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `ppm build` invocations of one run. For the serve workloads
    /// these make the served models (input generation, untimed).
    /// Repeated builds must produce byte-identical models, and average
    /// out the host's speed drift, which moves single builds by ±10%.
    pub fn builds(self) -> Vec<BuildSpec> {
        let spec = |benchmark, sample, instructions, holdout, seed_offset| BuildSpec {
            benchmark,
            sample,
            instructions,
            holdout,
            seed_offset,
        };
        match self {
            Workload::BuildPaperMcf => vec![spec("mcf", 200, 300_000, 12, 0); 3],
            Workload::SweepFig4Crafty => [30, 60, 90, 120, 150, 200]
                .repeat(2)
                .into_iter()
                .map(|n| spec("crafty", n, 20_000, 50, 0))
                .collect(),
            Workload::ServePredict => vec![spec("crafty", 90, 20_000, 12, 0)],
            Workload::ServeReloadMix => {
                vec![
                    spec("crafty", 90, 20_000, 12, 0),
                    spec("crafty", 90, 20_000, 12, 1),
                ]
            }
        }
    }

    /// The traffic mix of a serve workload for a run of `seconds`: the
    /// closed- and open-loop phases each get half.
    pub fn plan(self, seconds: f64) -> Plan {
        let half = Duration::from_secs_f64(seconds / 2.0);
        match self {
            Workload::ServeReloadMix => Plan {
                warmup: Duration::from_secs(1),
                closed: half,
                clients: 2,
                open: half,
                rate: 4000.0,
                open_threads: 1,
                reload_every: Some(Duration::from_millis(100)),
            },
            Workload::ServePredict => Plan {
                warmup: Duration::from_secs(1),
                closed: half,
                clients: 2,
                open: half,
                rate: 4000.0,
                open_threads: 2,
                reload_every: None,
            },
            // Traced build runs serve their model briefly so every
            // traced run reports the serving layers too.
            Workload::BuildPaperMcf | Workload::SweepFig4Crafty => Plan {
                warmup: Duration::from_millis(500),
                closed: Duration::from_secs(1),
                clients: 2,
                open: Duration::from_secs(2),
                rate: 2000.0,
                open_threads: 2,
                reload_every: None,
            },
        }
    }

    /// Whether the workload's end-to-end numbers come from serving.
    pub fn serves(self) -> bool {
        matches!(self, Workload::ServePredict | Workload::ServeReloadMix)
    }
}

/// One `ppm build` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildSpec {
    /// Benchmark profile name.
    pub benchmark: &'static str,
    /// `--sample`.
    pub sample: usize,
    /// `--instructions`.
    pub instructions: usize,
    /// `--holdout`.
    pub holdout: usize,
    /// Added to the run seed to give the CLI's `--seed`.
    pub seed_offset: u64,
}

impl BuildSpec {
    /// Design points simulated: the sample and the held-out set.
    pub fn points(&self) -> usize {
        self.sample + self.holdout
    }
}

/// What every run needs: the binary, a scratch directory, the seed and
/// the measuring time.
pub struct Env {
    /// The release `ppm` binary.
    pub ppm: PathBuf,
    /// A per-run scratch directory.
    pub work: PathBuf,
    /// The run seed.
    pub seed: u64,
    /// `--seconds`: the serve workloads' measuring time.
    pub seconds: f64,
}

/// One finished `ppm build`.
pub struct BuildRun {
    /// The process as measured from outside.
    pub measured: Measured,
    /// The model file's bytes.
    pub model: Vec<u8>,
    /// Where the model file is.
    pub model_path: PathBuf,
    /// The held-out mean error the CLI printed, as printed.
    pub err_text: Option<String>,
}

impl BuildRun {
    /// The held-out mean error in percent.
    pub fn err_pct(&self) -> Option<f64> {
        self.err_text.as_deref().and_then(|t| t.parse().ok())
    }
}

/// Runs one `ppm build` with the thread count pinned to 2 and the run
/// ledger written into the scratch directory.
///
/// # Errors
///
/// A description when the binary cannot be started.
pub fn run_build(env: &Env, spec: &BuildSpec, tag: &str) -> Result<BuildRun, String> {
    let model_path = env.work.join(format!("{tag}.model"));
    let measured = procfs::run_measured(
        Command::new(&env.ppm)
            .env("PPM_THREADS", "2")
            .arg("build")
            .args(["--benchmark", spec.benchmark])
            .args(["--sample", &spec.sample.to_string()])
            .args(["--instructions", &spec.instructions.to_string()])
            .args(["--holdout", &spec.holdout.to_string()])
            .args(["--lhs-candidates", "200"])
            .args(["--seed", &(env.seed + spec.seed_offset).to_string()])
            .args(["--train-threads", "2"])
            .arg("--out")
            .arg(&model_path)
            .arg("--ledger-dir")
            .arg(env.work.join("ledger")),
    )
    .map_err(|e| format!("cannot run {}: {e}", env.ppm.display()))?;
    let err_text = measured
        .stdout
        .lines()
        .find_map(|l| l.split_once("held-out CPI error over ").map(|(_, r)| r))
        .and_then(|r| r.split_once(": mean "))
        .and_then(|(_, r)| r.split_once('%'))
        .map(|(pct, _)| pct.to_string());
    let model = std::fs::read(&model_path).unwrap_or_default();
    Ok(BuildRun {
        measured,
        model,
        model_path,
        err_text,
    })
}

/// Parses a model file and checks that it answers finitely.
pub fn load_network(bytes: &[u8]) -> Result<RbfNetwork, String> {
    let saved = persist::from_str(&String::from_utf8_lossy(bytes)).map_err(|e| e.to_string())?;
    let probe = saved.network.predict(&vec![0.5; saved.network.dim()]);
    if !probe.is_finite() {
        return Err(format!("midpoint prediction is {probe}"));
    }
    Ok(saved.network)
}

/// Checks one build's outcome, counting it in `out`.
fn check_build(out: &mut Outcome, spec: &BuildSpec, run: &BuildRun, twin: Option<&BuildRun>) {
    out.attempted += 1;
    let why = if !run.measured.status.success() {
        Some(format!(
            "exit {}: {}",
            run.measured.status,
            run.measured.stderr.trim()
        ))
    } else if let Err(e) = load_network(&run.model) {
        Some(format!("model unusable: {e}"))
    } else if !run
        .err_pct()
        .is_some_and(|e| e.is_finite() && e <= MAX_ERR_PCT)
    {
        Some(format!(
            "held-out error {:?} is not a sane figure",
            run.err_text
        ))
    } else if twin.is_some_and(|t| t.model != run.model) {
        Some("model differs from an identical earlier build".to_string())
    } else {
        None
    };
    if let Some(why) = why {
        out.failed += 1;
        eprintln!("[bench] FAILED build {spec:?}: {why}");
    }
}

/// Median spawn-to-exit of `ppm workload-info`: process start plus the
/// profile construction every build pays first.
fn build_setup(env: &Env, benchmark: &str) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        let m = procfs::run_measured(Command::new(&env.ppm).args([
            "workload-info",
            "--benchmark",
            benchmark,
            "--no-ledger",
        ]))
        .map_err(|e| format!("cannot run {}: {e}", env.ppm.display()))?;
        if !m.status.success() {
            return Err(format!("workload-info failed: {}", m.stderr));
        }
        samples.push(m.wall.as_secs_f64());
    }
    stats::median(&samples).ok_or_else(|| "no set-up samples".to_string())
}

/// An untraced build workload: every build of the run, timed from
/// outside, with the models checked.
///
/// # Errors
///
/// A description when the binary cannot be run at all.
pub fn run_build_workload(env: &Env, workload: Workload) -> Result<Outcome, String> {
    let specs = workload.builds();
    let mut out = Outcome::default();
    out.set("setup_s", build_setup(env, specs[0].benchmark)?);
    let mut runs: Vec<(BuildSpec, BuildRun)> = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let run = run_build(env, spec, &format!("build-{k}"))?;
        let twin = runs.iter().find(|(s, _)| s == spec).map(|(_, r)| r);
        check_build(&mut out, spec, &run, twin);
        eprintln!(
            "[bench] {} sample {:>3}: {:.3} s, peak {} KiB, held-out error {}%",
            spec.benchmark,
            spec.sample,
            run.measured.wall.as_secs_f64(),
            run.measured.peak_rss_kb,
            run.err_text.as_deref().unwrap_or("?")
        );
        runs.push((*spec, run));
    }
    let instructions: f64 = runs
        .iter()
        .map(|(s, _)| (s.points() * s.instructions) as f64)
        .sum();
    let wall_s: f64 = runs
        .iter()
        .map(|(_, r)| r.measured.wall.as_secs_f64())
        .sum();
    let peak_kb = runs
        .iter()
        .map(|(_, r)| r.measured.peak_rss_kb)
        .max()
        .unwrap_or(0);
    // The mean, not the median: the sweep's builds differ in size, so
    // only the mean (total over count) summarises all of them.
    out.set("latency_ms", wall_s * 1e3 / runs.len() as f64);
    out.set("throughput_per_s", instructions / wall_s);
    out.set("peak_rss_mb", peak_kb as f64 / 1024.0);
    Ok(out)
}

/// The models a serve run publishes: built by the CLI, parsed locally,
/// with their registry versions (FNV-1a content hashes).
pub struct ServedModels {
    /// Model files, version 0 first.
    pub paths: Vec<PathBuf>,
    /// Content-hash versions, aligned with `paths`.
    pub versions: Vec<String>,
    /// The parsed networks, aligned with `paths`.
    pub networks: Vec<RbfNetwork>,
}

/// Builds the serve workload's models with the CLI (input generation).
///
/// # Errors
///
/// A description when a build fails: without its model there is
/// nothing to serve.
pub fn build_served_models(env: &Env, workload: Workload) -> Result<ServedModels, String> {
    let mut models = ServedModels {
        paths: Vec::new(),
        versions: Vec::new(),
        networks: Vec::new(),
    };
    for (k, spec) in workload.builds().iter().enumerate() {
        let run = run_build(env, spec, &format!("served-{k}"))?;
        if !run.measured.status.success() {
            return Err(format!(
                "building served model {k} failed: {}",
                run.measured.stderr
            ));
        }
        models.networks.push(load_network(&run.model)?);
        models
            .versions
            .push(ppm_obs::ledger::fnv1a64_hex(&run.model));
        models.paths.push(run.model_path);
    }
    Ok(models)
}

/// `expected[v][q]`: the local prediction of model `v` at query `q`.
pub fn expected_predictions(networks: &[RbfNetwork], queries: &Queries) -> Vec<Vec<f64>> {
    networks
        .iter()
        .map(|n| queries.units.iter().map(|u| n.predict(u)).collect())
        .collect()
}

/// Publishes model 0 into a fresh registry under the scratch directory.
///
/// # Errors
///
/// The registry failure.
pub fn fresh_registry(env: &Env, first_model: &Path) -> Result<PathBuf, String> {
    let registry = env.work.join("registry");
    let _ = std::fs::remove_dir_all(&registry);
    ppm_serve::publish(&registry, first_model).map_err(|e| e.to_string())?;
    Ok(registry)
}

/// A latency sample as a timing should be reported: its size, then the
/// median and each higher reported percentile up to the highest with at
/// least ten samples beyond it.
pub fn describe(sorted_ms: &[f64]) -> String {
    let Some(tail) = stats::tail_percentile_bp(sorted_ms.len(), 10) else {
        return format!("n={} (too few for a percentile)", sorted_ms.len());
    };
    let quantiles: Vec<String> = stats::PERCENTILES_BP
        .iter()
        .filter(|&&bp| bp <= tail)
        .map(|&bp| {
            let value = stats::nearest_rank(sorted_ms, bp).unwrap_or(f64::NAN);
            format!("p{} {value:.4} ms", bp as f64 / 100.0)
        })
        .collect();
    format!("n={} {}", sorted_ms.len(), quantiles.join(", "))
}

/// Milliseconds, ascending, of a set of durations.
pub fn sorted_ms(durations: impl Iterator<Item = Duration>) -> Vec<f64> {
    stats::sorted(durations.map(|d| d.as_secs_f64() * 1e3).collect())
}

/// An untraced serve workload: the median of several server starts as
/// set-up, then the traffic plan against the last one.
///
/// # Errors
///
/// A description when a model cannot be built or the server cannot be
/// started.
pub fn run_serve_workload(env: &Env, workload: Workload) -> Result<Outcome, String> {
    let models = build_served_models(env, workload)?;
    let queries = Queries::generate(env.seed, QUERIES);
    let expected = expected_predictions(&models.networks, &queries);
    let registry = fresh_registry(env, &models.paths[0])?;
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SERVER_STARTS {
        let (s, ready) = Server::start(&env.ppm, &registry, &[])?;
        setups.push(ready.as_secs_f64());
        if i + 1 < SERVER_STARTS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server started")?;
    let plan = workload.plan(env.seconds);
    let traffic = serve::session(
        &server,
        &queries,
        &plan,
        &registry,
        &models.paths,
        &models.versions,
    );
    let peak_kb = procfs::vm_hwm_kb(server.pid()).unwrap_or(0);
    server.stop()?;

    let mut out = Outcome::default();
    let failures = serve::failures(&traffic, &queries, &models.versions, &expected);
    let failed_reloads = traffic
        .reloads
        .iter()
        .filter(|r| r.version.is_none())
        .count();
    out.attempted = (traffic.closed.len() + traffic.open.len() + traffic.reloads.len()) as u64;
    out.failed = (failures.len() + failed_reloads) as u64;
    if let Some(first) = failures.first() {
        eprintln!(
            "[bench] {} failed answers, first: {first:?}",
            failures.len()
        );
    }
    let latencies = sorted_ms(traffic.open.iter().map(|c| c.latency()));
    eprintln!(
        "[bench] closed loop {} requests in {:.3} s; open loop {}; {} reloads; peak RSS {} KiB warm, {} KiB after traffic",
        traffic.closed.len(),
        traffic.closed_wall.as_secs_f64(),
        describe(&latencies),
        traffic.reloads.len(),
        traffic.warm_rss_kb,
        peak_kb
    );
    out.set("setup_s", stats::median(&setups).unwrap_or(f64::NAN));
    out.set(
        "latency_ms",
        stats::nearest_rank(&latencies, 5000).unwrap_or(f64::NAN),
    );
    let start = traffic
        .closed
        .iter()
        .map(|c| c.sent)
        .min()
        .unwrap_or_default();
    let rates = serve::window_rates(
        traffic.closed.iter().map(|c| c.done),
        start,
        start + traffic.closed_wall,
        Duration::from_millis(500),
    );
    out.set(
        "throughput_per_s",
        stats::median(&rates).unwrap_or(f64::NAN),
    );
    // The warm server's high-water mark, not the one after traffic: on
    // serve_reload_mix the latter is two-valued from run to run (its
    // quartiles over ten runs were 10.1 and 14.7 MiB), which no bound can
    // hold, while the warm one spreads 2%.
    out.set("peak_rss_mb", traffic.warm_rss_kb as f64 / 1024.0);
    Ok(out)
}
