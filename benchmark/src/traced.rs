//! Traced runs: the per-layer numbers.
//!
//! A traced run replays the workload's builds in-process through the
//! same public calls `ppm build` makes, with the same space, config and
//! seed, wrapping a span around each call; checks that the replayed
//! model is byte-identical to the CLI's (FNV-1a digest, which is also
//! the registry version); times the layers' hot functions on the
//! replay's own data; then serves the model with request tracing at
//! one-in-one and aggregates `/tracez` by hop. Every traced run
//! exercises every layer, so it reports every per-layer metric.
//! Program code gains no flag or tracing for this: the spans live here.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ppm_core::builder::{BuildConfig, RbfModelBuilder};
use ppm_core::persist;
use ppm_core::response::{Metric, Response, SimulatorResponse};
use ppm_core::space::DesignSpace;
use ppm_core::supervise::eval_batch_supervised;
use ppm_firstorder::{FirstOrderModel, ProgramStats};
use ppm_obs::{FlightRecorder, Json};
use ppm_rbf::{select_centers, RbfNetwork, SelectionConfig};
use ppm_regtree::{Dataset, RegressionTree};
use ppm_sim::{BranchPredictor, Hierarchy, Op, SimConfig};
use ppm_telemetry::Record;
use ppm_workload::{Benchmark, TraceGenerator};

use crate::loadgen::WallClock;
use crate::procfs::CpuMeter;
use crate::report::Outcome;
use crate::serve::{self, Queries, Server};
use crate::stats;
use crate::tracez;
use crate::workloads::{self, BuildSpec, Env, Workload};

/// Publish + reload cycles of the reload probe that follows traffic in
/// traced runs whose workload makes no reloads itself.
const RELOAD_PROBES: usize = 20;

/// `/predict` queries generated per traced run.
const QUERIES: usize = 1024;

/// Minimum measuring time per timed function.
const MIN_TIMING: Duration = Duration::from_millis(100);

/// Busy time before a traced run measures anything (see [`warm_up`]).
const WARM_UP: Duration = Duration::from_secs(5);

/// In-memory spans: name, start, duration and the enclosing span.
pub struct Spans {
    epoch: Instant,
    open: Vec<(String, Duration)>,
    closed: Vec<(String, Option<String>, usize, Duration, Duration)>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn start(&mut self, name: impl Into<String>) {
        self.open.push((name.into(), self.epoch.elapsed()));
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> Duration {
        let Some((name, start)) = self.open.pop() else {
            return Duration::ZERO;
        };
        let dur = self.epoch.elapsed() - start;
        let parent = self.open.last().map(|(p, _)| p.clone());
        self.closed
            .push((name, parent, self.open.len(), start, dur));
        dur
    }

    /// Times `f` in a span of its own.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, Duration) {
        self.start(name);
        let value = f();
        (value, self.end())
    }

    /// The spans as a Chrome-trace document.
    pub fn chrome_trace(&self) -> String {
        let recorder = FlightRecorder::new();
        let mut sink = recorder.sink();
        for (name, parent, depth, start, dur) in &self.closed {
            sink.record(&Record::Span {
                name: name.clone(),
                us: dur.as_micros() as u64,
                start_us: start.as_micros() as u64,
                tid: 0,
                cpu_us: None,
                depth: *depth,
                parent: parent.clone(),
            });
        }
        recorder.chrome_trace_json()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

/// The four stages of one replayed build, with what the layers saw.
struct Replay {
    spec: BuildSpec,
    seed: u64,
    stages: [Duration; 4],
    sample_cpu: Duration,
    simulate_cpu: Duration,
    fit_cpu: Duration,
    text: String,
    err_pct: f64,
    design: Vec<Vec<f64>>,
    responses: Vec<f64>,
    p_min: usize,
    alpha: f64,
    network: RbfNetwork,
    cycles_executed: u64,
    cycles_skipped: u64,
    sim_instructions: u64,
    dl1_misses: u64,
    l2_misses: u64,
}

fn counter(name: &str) -> u64 {
    ppm_telemetry::registry().counter(name).get()
}

/// Replays `ppm build` for `spec` through the public calls the CLI
/// makes, in the same order, with a span and a CPU meter around each.
fn replay(spec: &BuildSpec, seed: u64, spans: &mut Spans) -> Result<Replay, String> {
    let bench: Benchmark = spec.benchmark.parse().map_err(|e| format!("{e}"))?;
    let response = SimulatorResponse::new(bench, spec.instructions)
        .with_seed(seed)
        .with_metric(Metric::Cpi);
    let mut config = BuildConfig::default()
        .with_sample_size(spec.sample)
        .with_seed(seed)
        .with_train_threads(2)
        .with_lhs_candidates(200);
    config.threads = 2;
    let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), config.clone());
    let e = |err: ppm_core::BuildError| err.to_string();

    let cpu = CpuMeter::start();
    let (sampled, sample) = spans.time("core.select_sample", || builder.select_sample());
    let sample_cpu = cpu.stop();
    let (design, discrepancy) = sampled.map_err(e)?;

    let before = [
        counter("sim.batch_cycles_executed"),
        counter("sim.batch_cycles_skipped"),
        counter("sim.instructions"),
        counter("sim.dl1_misses"),
        counter("sim.l2_misses"),
    ];
    let permissive = config.supervisor.clone().with_max_quarantined_frac(1.0);
    let cpu = CpuMeter::start();
    let (outcome, simulate) = spans.time("core.eval_batch_supervised", || {
        eval_batch_supervised(&response, &design, config.threads, &permissive, &[])
    });
    let simulate_cpu = cpu.stop();
    let outcome = outcome.map_err(e)?;
    outcome.check_threshold(&config.supervisor).map_err(e)?;
    let delta = |i: usize, name: &str| counter(name) - before[i];
    let cycles_executed = delta(0, "sim.batch_cycles_executed");
    let cycles_skipped = delta(1, "sim.batch_cycles_skipped");
    let sim_instructions = delta(2, "sim.instructions");
    let dl1_misses = delta(3, "sim.dl1_misses");
    let l2_misses = delta(4, "sim.l2_misses");
    let (survivors, responses) = outcome.survivors(&design);

    let cpu = CpuMeter::start();
    let (fitted, fit) = spans.time("core.fit", || {
        builder.fit(survivors.clone(), responses.clone(), discrepancy)
    });
    let fit_cpu = cpu.stop();
    let built = fitted.map_err(e)?;

    let ((test, actual), holdout) = spans.time("core.holdout", || {
        let test = builder.test_points(&DesignSpace::paper_table2(), spec.holdout);
        let actual: Vec<f64> = test.iter().map(|p| response.eval(p)).collect();
        (test, actual)
    });
    let err_pct = built.evaluate(&test, &actual).mean_pct;

    let meta: Vec<(String, String)> = [
        ("benchmark", bench.to_string()),
        ("metric", "cpi".to_string()),
        ("sample", spec.sample.to_string()),
        ("instructions", spec.instructions.to_string()),
        ("seed", seed.to_string()),
        ("p_min", built.model.p_min.to_string()),
        ("alpha", built.model.alpha.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let (text, _) = spans.time("persist.to_string", || {
        persist::to_string(&built.model.network, &meta)
    });
    Ok(Replay {
        spec: *spec,
        seed,
        stages: [sample, simulate, fit, holdout],
        sample_cpu,
        simulate_cpu,
        fit_cpu,
        text,
        err_pct,
        design: survivors,
        responses,
        p_min: built.model.p_min,
        alpha: built.model.alpha,
        network: built.model.network,
        cycles_executed,
        cycles_skipped,
        sim_instructions,
        dl1_misses,
        l2_misses,
    })
}

/// Mean time per call of `f`, over at least `MIN_TIMING` and 3 calls.
fn per_call<T>(mut f: impl FnMut() -> T) -> Duration {
    let t = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || t.elapsed() < MIN_TIMING {
        black_box(f());
        calls += 1;
    }
    t.elapsed() / calls
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Times the layers' hot functions on the primary replay's own data.
fn layer_timings(
    r: &Replay,
    queries: &Queries,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let bench: Benchmark = r.spec.benchmark.parse().map_err(|e| format!("{e}"))?;
    let n = r.spec.instructions;
    spans.start("layers");

    let (per, _) = spans.time("workload.TraceGenerator", || {
        per_call(|| {
            TraceGenerator::new(bench, r.seed)
                .take(n)
                .map(black_box)
                .count()
        })
    });
    out.set("workload.trace_ns_per_instr", ns(per) / n as f64);

    let trace: Vec<_> = TraceGenerator::new(bench, r.seed).take(n).collect();
    let midpoint: SimConfig = DesignSpace::paper_table1().to_config(&[0.5; 9]);
    let addrs: Vec<u64> = trace
        .iter()
        .filter(|i| i.op.is_mem())
        .map(|i| i.mem_addr)
        .collect();
    let (per, _) = spans.time("sim.Hierarchy::data_access", || {
        per_call(|| {
            let mut h = Hierarchy::new(&midpoint);
            for (now, &addr) in addrs.iter().enumerate() {
                black_box(h.data_access(now as u64, addr));
            }
        })
    });
    out.set(
        "sim.hier_ns_per_access",
        ns(per) / addrs.len().max(1) as f64,
    );

    let branches: Vec<_> = trace.iter().filter(|i| i.op == Op::Branch).collect();
    let fixed = &midpoint.fixed;
    let (per, _) = spans.time("sim.BranchPredictor::predict_kind", || {
        per_call(|| {
            let mut bp = BranchPredictor::with_kind(
                fixed.predictor,
                fixed.gshare_entries,
                fixed.gshare_history,
                fixed.btb_entries,
            );
            for b in &branches {
                black_box(bp.predict_kind(b.kind, b.pc, b.taken, b.target));
            }
        })
    });
    out.set(
        "sim.bpred_ns_per_branch",
        ns(per) / branches.len().max(1) as f64,
    );

    let (per, _) = spans.time("sampling.l2_star", || {
        per_call(|| ppm_sampling::discrepancy::l2_star(&r.design))
    });
    out.set("sampling.l2star_us", ns(per) / 1e3);

    let data = Dataset::new(r.design.clone(), r.responses.clone()).map_err(|e| e.to_string())?;
    let (per, _) = spans.time("regtree.RegressionTree::fit", || {
        per_call(|| RegressionTree::fit(&data, r.p_min))
    });
    out.set("regtree.fit_us", ns(per) / 1e3);

    let trainer = BuildConfig::default().trainer;
    let (per, _) = spans.time("rbf.RbfTrainer::fit_fixed", || {
        per_call(|| trainer.fit_fixed(&data, r.p_min, r.alpha))
    });
    out.set("rbf.fit_fixed_ms", ns(per) / 1e6);

    let tree = RegressionTree::fit(&data, r.p_min);
    let selection = SelectionConfig {
        criterion: trainer.criterion,
        alpha: r.alpha,
        max_centers: trainer.max_centers,
    };
    let (per, _) = spans.time("rbf.select_centers", || {
        per_call(|| select_centers(&tree, &data, &selection))
    });
    out.set("rbf.select_ms", ns(per) / 1e6);

    let (per, _) = spans.time("rbf.RbfNetwork::predict", || {
        per_call(|| {
            queries
                .units
                .iter()
                .map(|u| r.network.predict(u))
                .sum::<f64>()
        })
    });
    out.set("rbf.predict_ns", ns(per) / queries.units.len() as f64);

    let stats = ProgramStats::collect(
        TraceGenerator::new(bench, r.seed).take(n.max(1000)),
        &SimConfig::default(),
    );
    let analytical = FirstOrderModel::new(stats);
    let (per, _) = spans.time("firstorder.FirstOrderModel::predict", || {
        per_call(|| {
            queries
                .configs
                .iter()
                .map(|c| analytical.predict(c))
                .sum::<f64>()
        })
    });
    out.set(
        "firstorder.predict_ns",
        ns(per) / queries.configs.len() as f64,
    );

    let (per, _) = spans.time("persist.from_str", || {
        per_call(|| persist::from_str(&r.text).is_ok())
    });
    out.set("persist.parse_us", ns(per) / 1e3);
    spans.end();
    Ok(())
}

/// What the serving part of a traced run measured.
struct ServeLayers {
    open_requests: usize,
    closed_requests: usize,
    hops: tracez::Hops,
    ttfb_us: f64,
}

/// Serves `models` (version 0 first) with tracing at one-in-one under
/// the workload's traffic plan, then reloads, and sets the serving
/// metrics.
fn serve_layers(
    env: &Env,
    workload: Workload,
    models: &[PathBuf],
    networks: &[RbfNetwork],
    queries: &Queries,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<ServeLayers, String> {
    let versions: Vec<String> = models
        .iter()
        .map(|p| std::fs::read(p).map(|b| ppm_obs::ledger::fnv1a64_hex(&b)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let expected = workloads::expected_predictions(networks, queries);
    let registry = workloads::fresh_registry(env, &models[0])?;
    let (server, _) = Server::start(
        &env.ppm,
        &registry,
        &["--trace-sample", "1", "--trace-ring", "65536"],
    )?;
    let plan = workload.plan(env.seconds);
    let (traffic, _) = spans.time("serve.session", || {
        serve::session(&server, queries, &plan, &registry, models, &versions)
    });
    let failures = serve::failures(&traffic, queries, &versions, &expected);
    let mut reloads = traffic.reloads.clone();
    let mut publishes = traffic.publishes.clone();
    if reloads.is_empty() {
        spans.start("serve.reload_probe");
        let clock = WallClock(Instant::now());
        for k in 0..RELOAD_PROBES {
            let (r, p) =
                serve::publish_and_reload(&server, &clock, &registry, models, &versions, k + 1);
            reloads.push(r);
            publishes.push(p);
        }
        spans.end();
    }
    let fetch = |prefix: &str| -> Result<String, String> {
        match server.get(&format!("/tracez?id_prefix={prefix}"))? {
            (200, body) => Ok(body),
            (status, _) => Err(format!("/tracez answered {status}")),
        }
    };
    let hops = tracez::hops(&fetch("o-")?, "/predict")?;
    let reload_hops = tracez::hops(&fetch("reload-")?, "/reloadz")?;
    server.stop()?;

    out.attempted += (traffic.closed.len() + traffic.open.len() + reloads.len()) as u64;
    out.failed += (failures.len() + reloads.iter().filter(|r| r.version.is_none()).count()) as u64;
    if let Some(first) = failures.first() {
        eprintln!(
            "[bench] {} failed answers, first: {first:?}",
            failures.len()
        );
    }
    let open = &traffic.open;
    let mean_us = |f: &dyn Fn(&crate::loadgen::Charged<crate::loadgen::Exchange>) -> Duration| {
        open.iter().map(|c| f(c).as_secs_f64() * 1e6).sum::<f64>() / open.len().max(1) as f64
    };
    let latencies = workloads::sorted_ms(open.iter().map(|c| c.latency()));
    let lags = workloads::sorted_ms(open.iter().map(|c| c.lag()));
    let reload_ms = workloads::sorted_ms(reloads.iter().map(|r| r.end - r.start));
    let publish_ms: Vec<f64> = publishes.iter().map(|p| p.as_secs_f64() * 1e3).collect();
    let ttfb_us = mean_us(&|c| c.value.ttfb);
    eprintln!(
        "[bench] traced open loop {}; {} reloads, p50 {:.3} ms",
        workloads::describe(&latencies),
        reload_ms.len(),
        stats::nearest_rank(&reload_ms, 5000).unwrap_or(f64::NAN)
    );
    out.set("serve.hop.queue_wait_us", hops.queue_wait_us);
    out.set("serve.hop.read_us", hops.read_us);
    out.set("serve.hop.eval_us", hops.eval_us);
    out.set("serve.hop.write_us", hops.write_us);
    out.set("serve.client.connect_us", mean_us(&|c| c.value.connect));
    out.set("serve.client.ttfb_us", ttfb_us);
    out.set(
        "serve.client.p90_ms",
        stats::nearest_rank(&latencies, 9000).unwrap_or(f64::NAN),
    );
    out.set(
        "serve.client.p99_ms",
        stats::nearest_rank(&latencies, 9900).unwrap_or(f64::NAN),
    );
    out.set(
        "serve.client.p999_ms",
        stats::nearest_rank(&latencies, 9990).unwrap_or(f64::NAN),
    );
    out.set(
        "serve.gen_lag_us_p99",
        stats::nearest_rank(&lags, 9900).unwrap_or(f64::NAN) * 1e3,
    );
    out.set(
        "serve.server_cpu_us_per_req",
        traffic.open_server_cpu_ns as f64 / 1e3 / open.len().max(1) as f64,
    );
    out.set(
        "serve.reload_p50_ms",
        stats::nearest_rank(&reload_ms, 5000).unwrap_or(f64::NAN),
    );
    out.set("serve.reload_server_us", reload_hops.total_us);
    out.set(
        "store.publish_ms",
        stats::median(&publish_ms).unwrap_or(f64::NAN),
    );
    Ok(ServeLayers {
        open_requests: open.len(),
        closed_requests: traffic.closed.len(),
        hops,
        ttfb_us,
    })
}

/// The files a traced run leaves behind.
pub struct Artefacts {
    /// The per-layer JSON document.
    pub layers: Json,
    /// The Chrome trace of the run's spans.
    pub chrome: String,
}

/// Keeps both cores busy for `WARM_UP`. On the shared host this was
/// sized on, the first heavy job after idle runs slower than the next:
/// with the CLI build timed first, the replay's stages covered 76–88% of
/// it; with the replay first, 97–102%; after this warm-up, 87–102%.
fn warm_up() {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut x = 0u64;
                while start.elapsed() < WARM_UP {
                    x = black_box(x.wrapping_add(1));
                }
            });
        }
    });
}

/// Runs `workload` traced.
///
/// # Errors
///
/// A description when a build cannot be run or replayed, or the server
/// cannot be started.
pub fn run(env: &Env, workload: Workload) -> Result<(Outcome, Artefacts), String> {
    let mut specs: Vec<BuildSpec> = Vec::new();
    for spec in workload.builds() {
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    // The largest build is the one the layers are timed on and, for the
    // build workloads, the one served first.
    if !workload.serves() {
        specs.reverse();
    }
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    spans.start(format!("traced {}", workload.name()));
    spans.time("host warm-up", warm_up);
    let mut cli_total = Duration::ZERO;
    let mut replays = Vec::new();
    let mut models = Vec::new();
    let mut builds_json = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let (cli, cli_wall) = spans.time(
            format!("cli ppm build {} n={}", spec.benchmark, spec.sample),
            || workloads::run_build(env, spec, &format!("cli-{k}")),
        );
        let cli = cli?;
        out.attempted += 1;
        if !cli.measured.status.success() {
            out.failed += 1;
            out.problem(format!(
                "CLI build {k} failed: {}",
                cli.measured.stderr.trim()
            ));
            continue;
        }
        cli_total += cli.measured.wall;
        let seed = env.seed + spec.seed_offset;
        spans.start(format!("replay {} n={}", spec.benchmark, spec.sample));
        let r = replay(spec, seed, &mut spans)?;
        spans.end();
        let cli_digest = ppm_obs::ledger::fnv1a64_hex(&cli.model);
        let replay_digest = ppm_obs::ledger::fnv1a64_hex(r.text.as_bytes());
        if cli_digest != replay_digest {
            out.problem(format!(
                "replayed model {replay_digest} differs from the CLI's {cli_digest}"
            ));
        }
        let replay_err = format!("{:.2}", r.err_pct);
        if cli.err_text.as_deref() != Some(replay_err.as_str()) {
            out.problem(format!(
                "replayed error {replay_err}% differs from the CLI's {:?}",
                cli.err_text
            ));
        }
        eprintln!(
            "[bench] replay {} n={}: CLI {:.3} s, stages {:?}, digest {}",
            spec.benchmark,
            spec.sample,
            cli_wall.as_secs_f64(),
            r.stages,
            if cli_digest == replay_digest {
                "equal"
            } else {
                "DIFFERENT"
            }
        );
        builds_json.push(Json::Obj(vec![
            ("benchmark".to_string(), Json::from(spec.benchmark)),
            ("sample".to_string(), Json::from(spec.sample)),
            ("instructions".to_string(), Json::from(spec.instructions)),
            ("holdout".to_string(), Json::from(spec.holdout)),
            ("seed".to_string(), Json::from(seed)),
            (
                "cli_ms".to_string(),
                Json::Float(cli.measured.wall.as_secs_f64() * 1e3),
            ),
            (
                "sample_ms".to_string(),
                Json::Float(r.stages[0].as_secs_f64() * 1e3),
            ),
            (
                "simulate_ms".to_string(),
                Json::Float(r.stages[1].as_secs_f64() * 1e3),
            ),
            (
                "fit_ms".to_string(),
                Json::Float(r.stages[2].as_secs_f64() * 1e3),
            ),
            (
                "holdout_ms".to_string(),
                Json::Float(r.stages[3].as_secs_f64() * 1e3),
            ),
            ("cli_digest".to_string(), Json::from(cli_digest.as_str())),
            (
                "replay_digest".to_string(),
                Json::from(replay_digest.as_str()),
            ),
            ("err_pct".to_string(), Json::Float(r.err_pct)),
        ]));
        let path = env.work.join(format!("replayed-{k}.model"));
        std::fs::write(&path, &r.text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        models.push(path);
        replays.push(r);
    }
    if replays.is_empty() {
        return Err("no build could be replayed".to_string());
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let stage = |i: usize| replays.iter().map(|r| r.stages[i]).sum::<Duration>();
    let stage_sum: Duration = (0..4).map(stage).sum();
    let sum = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    out.set("core.sample_ms", ms(stage(0)));
    out.set("core.simulate_ms", ms(stage(1)));
    out.set("core.fit_ms", ms(stage(2)));
    out.set("core.holdout_ms", ms(stage(3)));
    out.set("core.other_ms", ms(cli_total) - ms(stage_sum));
    out.set(
        "core.stage_coverage",
        stage_sum.as_secs_f64() / cli_total.as_secs_f64(),
    );
    out.set("model.err_pct", sum(&|r| r.err_pct) / replays.len() as f64);
    let lane_instr = sum(&|r| (r.design.len() * r.spec.instructions) as f64);
    let holdout_instr = sum(&|r| (r.spec.holdout * r.spec.instructions) as f64);
    out.set("sim.batch_ns_per_lane_instr", ns(stage(1)) / lane_instr);
    out.set(
        "sim.batch_cpu_util",
        sum(&|r| r.simulate_cpu.as_secs_f64()) / stage(1).as_secs_f64(),
    );
    out.set("sim.serial_ns_per_instr", ns(stage(3)) / holdout_instr);
    let executed = sum(&|r| r.cycles_executed as f64);
    out.set(
        "sim.skip_frac",
        sum(&|r| r.cycles_skipped as f64) / (executed + sum(&|r| r.cycles_skipped as f64)),
    );
    let all_responses: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.responses.iter().copied())
        .collect();
    out.set(
        "sim.cpi_mean",
        all_responses.iter().sum::<f64>() / all_responses.len() as f64,
    );
    let kilo_instr = sum(&|r| r.sim_instructions as f64) / 1e3;
    out.set("sim.dl1_mpki", sum(&|r| r.dl1_misses as f64) / kilo_instr);
    out.set("sim.l2_mpki", sum(&|r| r.l2_misses as f64) / kilo_instr);
    out.set(
        "sampling.cpu_util",
        sum(&|r| r.sample_cpu.as_secs_f64()) / stage(0).as_secs_f64(),
    );
    out.set(
        "rbf.train_cpu_util",
        sum(&|r| r.fit_cpu.as_secs_f64()) / stage(2).as_secs_f64(),
    );

    let queries = Queries::generate(env.seed, QUERIES);
    layer_timings(&replays[0], &queries, &mut spans, &mut out)?;
    let networks: Vec<RbfNetwork> = replays.iter().map(|r| r.network.clone()).collect();
    spans.start("serve");
    let served = serve_layers(
        env, workload, &models, &networks, &queries, &mut spans, &mut out,
    )?;
    spans.end();
    spans.end();

    let hop_sum = served.hops.queue_wait_us
        + served.hops.read_us
        + served.hops.eval_us
        + served.hops.write_us;
    eprintln!(
        "[bench] stages cover {:.1}% of CLI build time; server hops {:.1} us of {:.1} us client time to first byte",
        100.0 * stage_sum.as_secs_f64() / cli_total.as_secs_f64(),
        hop_sum,
        served.ttfb_us
    );
    let metrics = Json::Obj(
        out.values
            .iter()
            .map(|(name, v)| (name.to_string(), Json::Float(*v)))
            .collect(),
    );
    let layers = Json::Obj(vec![
        ("schema".to_string(), Json::from("ppm-benchmark-layers v1")),
        ("workload".to_string(), Json::from(workload.name())),
        ("seed".to_string(), Json::from(env.seed)),
        ("seconds".to_string(), Json::Float(env.seconds)),
        ("metrics".to_string(), metrics),
        ("builds".to_string(), Json::Arr(builds_json)),
        (
            "serve".to_string(),
            Json::Obj(vec![
                (
                    "closed_requests".to_string(),
                    Json::from(served.closed_requests),
                ),
                (
                    "open_requests".to_string(),
                    Json::from(served.open_requests),
                ),
                (
                    "traced_requests".to_string(),
                    Json::from(served.hops.requests),
                ),
                (
                    "server_total_us_mean".to_string(),
                    Json::Float(served.hops.total_us),
                ),
                ("server_hops_sum_us".to_string(), Json::Float(hop_sum)),
                (
                    "client_ttfb_us_mean".to_string(),
                    Json::Float(served.ttfb_us),
                ),
            ]),
        ),
        (
            "problems".to_string(),
            Json::Arr(
                out.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
    ]);
    Ok((
        out,
        Artefacts {
            layers,
            chrome: spans.chrome_trace(),
        },
    ))
}
