//! Acceptance tests for batched multi-config simulation.
//!
//! `BatchProcessor` is the one production simulator, and its whole
//! contract is *byte-identical* statistics: it must produce exactly the
//! `SimStats` that N runs of the reference oracle
//! (`ppm_sim::reference::Processor`) would, for any lane count, any
//! workload profile, and any valid configuration mix — sharing the
//! trace pass is an execution strategy, never a semantic change. These
//! tests sweep that contract across every benchmark surrogate and
//! random design points, check that no production simulation runs
//! outside the batch engine, and pin the CLI surfaces that ride on it:
//! `ppm simulate --batch` cross-checks lanes against the oracle, and
//! the loadtest SLO gate and its tracing A/B reading refuse to pass
//! vacuously against a shed-everything service (a storm of fast 503s
//! is not a met latency objective).

mod common;

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use common::{scratch, spawn_serving, Reaped};
use ppm_core::response::{Metric, SimulatorResponse};
use ppm_core::space::DesignSpace;
use ppm_core::supervise::{eval_batch_supervised, SupervisorPolicy, LANES_PER_GROUP};
use ppm_rng::Rng;
use ppm_sim::reference::Processor;
use ppm_sim::{estimate_energy, BatchProcessor, EnergyParams, FixedMachine, Instr, SimConfig};
use ppm_telemetry::Json;
use ppm_workload::{Benchmark, TraceGenerator};

const TRACE_LEN: usize = 12_000;

/// A random unit point in the 9-dimensional Table 1 space.
fn random_unit(rng: &mut Rng, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| rng.unit_f64()).collect()
}

/// Serial reference: one oracle `Processor` per configuration,
/// regenerating the trace each time.
fn serial_stats(configs: &[SimConfig], bench: Benchmark, seed: u64) -> Vec<ppm_sim::SimStats> {
    configs
        .iter()
        .map(|c| Processor::new(c.clone()).run(TraceGenerator::new(bench, seed).take(TRACE_LEN)))
        .collect()
}

#[test]
fn batched_stats_are_byte_identical_across_all_profiles_and_lane_counts() {
    let space = DesignSpace::paper_table1();
    let mut rng = Rng::seed_from_u64(0xBA7C4);
    for (b, &bench) in Benchmark::all().iter().enumerate() {
        let seed = 1 + b as u64;
        let configs: Vec<SimConfig> = (0..8)
            .map(|_| space.to_config(&random_unit(&mut rng, space.dim())))
            .collect();
        let serial = serial_stats(&configs, bench, seed);
        for lanes in [1usize, 2, 8] {
            let batch = BatchProcessor::new(configs[..lanes].to_vec()).unwrap();
            let batched = batch.run(TraceGenerator::new(bench, seed).take(TRACE_LEN));
            assert_eq!(batched.len(), lanes);
            for (lane, (got, want)) in batched.iter().zip(&serial[..lanes]).enumerate() {
                assert_eq!(
                    got, want,
                    "{bench} lane {lane} of {lanes} diverged from serial \
                     (config {:?})",
                    configs[lane]
                );
            }
        }
    }
}

#[test]
fn batch_handles_duplicate_and_extreme_configs() {
    let space = DesignSpace::paper_table1();
    // Corners of the space plus a duplicated mid-point: duplicate lanes
    // must not share or interfere with each other's state.
    let mid = space.to_config(&[0.5; 9]);
    let configs = vec![
        space.to_config(&[0.0; 9]),
        space.to_config(&[1.0; 9]),
        mid.clone(),
        mid,
    ];
    let serial = serial_stats(&configs, Benchmark::Twolf, 3);
    let batched = BatchProcessor::new(configs)
        .unwrap()
        .run(TraceGenerator::new(Benchmark::Twolf, 3).take(TRACE_LEN));
    assert_eq!(batched, serial);
    assert_eq!(batched[2], batched[3], "identical lanes, identical stats");
}

/// The paper-scale differential: every benchmark at the paper's 300k
/// instructions on 12 random Table 1 design points, plus far-latency
/// fixed machines (DRAM latency 500 to 2000 cycles behind 4 MSHRs, so
/// completions land 512 or more cycles out) on mcf and crafty, batch
/// against oracle `SimStats` lane by lane. The cases above run 12k
/// instructions; this is the only check at paper scale that the batch
/// kernel's queues did not move a statistic. Release only, on two
/// threads: `cargo test --release --test sim_batch -- --ignored`.
#[test]
#[ignore = "paper scale: run in release by scripts/verify.sh"]
fn batch_matches_the_oracle_at_paper_scale() {
    let space = DesignSpace::paper_table1();
    let mut rng = Rng::seed_from_u64(0x9a9e5);
    let mut cases: Vec<(Benchmark, usize, Vec<SimConfig>)> = Vec::new();
    for bench in Benchmark::all() {
        let configs = (0..12)
            .map(|_| space.to_config(&random_unit(&mut rng, space.dim())))
            .collect();
        cases.push((bench, 300_000, configs));
    }
    for bench in [Benchmark::Mcf, Benchmark::Crafty] {
        for mem_lat in [500, 520, 700, 2_000] {
            let fixed = FixedMachine {
                mem_lat,
                mshrs: 4,
                ..FixedMachine::default()
            };
            let configs = (0..6)
                .map(|_| SimConfig {
                    fixed: fixed.clone(),
                    ..space.to_config(&random_unit(&mut rng, space.dim()))
                })
                .collect();
            cases.push((bench, 60_000, configs));
        }
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some((bench, len, configs)) =
                    cases.get(next.fetch_add(1, Ordering::SeqCst))
                {
                    let trace: Vec<Instr> = TraceGenerator::new(*bench, 1).take(*len).collect();
                    let batched = BatchProcessor::new(configs.clone())
                        .unwrap()
                        .run(trace.iter().copied());
                    for (lane, (got, config)) in batched.iter().zip(configs).enumerate() {
                        let want = Processor::new(config.clone()).run(trace.iter().copied());
                        assert_eq!(
                            *got, want,
                            "{bench} x {len}: lane {lane} diverged from the oracle ({config:?})"
                        );
                    }
                }
            });
        }
    });
}

/// The supervised executor runs lane groups of at most
/// `LANES_PER_GROUP` points, a multiple of `threads` of them, sized
/// within one point of each other. Batch size and thread count pick
/// groups of 1, 2 and 7 lanes and one group holding the whole batch. Every group, a one-point group included,
/// is one batch-engine run, and every value must be bit-identical to
/// the CPI of a reference-oracle run of its point.
#[test]
fn supervised_lane_groups_match_serial_runs_at_every_group_size() {
    let response = SimulatorResponse::new(Benchmark::Twolf, 4_000).with_seed(5);
    assert_eq!(response.metric(), Metric::Cpi);
    let mut rng = Rng::seed_from_u64(0x6209);
    let whole = LANES_PER_GROUP;
    for (n, threads, group) in [(8, 8, 1), (16, 8, 2), (14, 2, 7), (whole, 1, whole)] {
        let points: Vec<Vec<f64>> = (0..n).map(|_| random_unit(&mut rng, 9)).collect();
        let scoped = ppm_telemetry::Registry::scoped();
        let out = eval_batch_supervised(
            &response,
            &points,
            threads,
            &SupervisorPolicy::strict(),
            &[],
        )
        .expect("clean batch");
        let groups = n.div_ceil(group) as u64;
        assert_eq!(
            scoped.counter("sim.batch_groups").get(),
            groups,
            "{n} points on {threads} threads"
        );
        // One batch run per group: the (8, 8, 1) case runs eight
        // one-lane batches, not eight per-point fallbacks.
        assert_eq!(
            scoped.counter("sim.batch_runs").get(),
            groups,
            "{n} points on {threads} threads"
        );
        drop(scoped);
        for (i, (p, v)) in points.iter().zip(&out.values).enumerate() {
            let stats = Processor::new(response.space().to_config(p))
                .run(TraceGenerator::new(Benchmark::Twolf, 5).take(4_000));
            let want = stats.checked_cpi().expect("clean reference run");
            assert_eq!(
                v.map(f64::to_bits),
                Some(want.to_bits()),
                "point {i} of {n}, group size {group}"
            );
        }
    }
}

/// A response over a hand-built trace whose one coordinate picks the
/// DL1 size, each point a lane of one [`BatchProcessor`] run.
struct HandTraceResponse {
    trace: Vec<Instr>,
}

impl HandTraceResponse {
    fn config(unit: &[f64]) -> SimConfig {
        let kb = [8, 16, 32, 64][((unit[0] * 4.0) as usize).min(3)];
        SimConfig::builder().dl1_size_kb(kb).build().unwrap()
    }

    fn run(&self, points: &[Vec<f64>]) -> Vec<f64> {
        let configs = points.iter().map(|p| Self::config(p)).collect();
        BatchProcessor::new(configs)
            .unwrap()
            .run(self.trace.iter().copied())
            .iter()
            .map(|s| s.cpi())
            .collect()
    }
}

impl ppm_core::response::Response for HandTraceResponse {
    fn dim(&self) -> usize {
        1
    }

    fn eval(&self, unit: &[f64]) -> f64 {
        self.run(&[unit.to_vec()])[0]
    }

    fn eval_many(&self, points: &[Vec<f64>]) -> Option<Vec<f64>> {
        Some(self.run(points))
    }
}

/// An address at the 8 KB DL1's tag bound is still inside the bigger
/// DL1s' and the L2's. Under supervision the lane group that holds
/// the 8 KB point panics as a whole; on the per-point fallback only
/// that point panics and is quarantined, and the other points' values
/// equal the reference oracle's, so no lane aliased the address.
#[test]
fn an_address_past_a_cache_tag_bound_quarantines_its_point() {
    let limit = ppm_sim::Cache::new(8 << 10, 2, 64).addr_limit();
    assert!(limit < ppm_sim::Cache::new(16 << 10, 2, 64).addr_limit());
    let mut rng = Rng::seed_from_u64(0x7a9);
    let trace: Vec<Instr> = (0..4_000u64)
        .map(|i| {
            let pc = 0x1000 + (i % 64) * 4;
            match (i % 5, i) {
                (_, 3_000) => Instr::load(pc, limit, 1, 0),
                // The last words below the bound, and their low aliases.
                (0, _) => Instr::load(pc, limit - 8 * (1 + rng.below(64)), 1, 0),
                (1, _) => Instr::store(pc, rng.below(512) * 8, 2, 0),
                (2, _) => Instr::load(pc, (limit & ((1 << 20) - 1)) + rng.below(64) * 8, 0, 0),
                _ => Instr::alu(ppm_sim::Op::IntAlu, pc, 1, 2),
            }
        })
        .collect();
    let response = HandTraceResponse { trace };
    let points = vec![vec![0.0], vec![0.3], vec![0.9]];
    let policy = SupervisorPolicy::strict().with_max_quarantined_frac(0.5);
    let out = eval_batch_supervised(&response, &points, 1, &policy, &[]).expect("one of three");
    assert_eq!(out.values[0], None);
    assert_eq!(out.quarantined.len(), 1);
    let q = &out.quarantined[0];
    assert_eq!(q.index, 0);
    assert!(
        matches!(&q.fault, ppm_core::supervise::Fault::Panic(msg)
            if msg.contains("outside the cache's 32-bit tag range")),
        "{:?}",
        q.fault
    );
    for (p, v) in points.iter().zip(&out.values).skip(1) {
        let want = Processor::new(HandTraceResponse::config(p)).run(response.trace.iter().copied());
        assert_eq!(v.map(f64::to_bits), Some(want.cpi().to_bits()), "{p:?}");
    }
}

#[test]
fn simulate_batch_cli_reports_identical_lanes() {
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args([
            "simulate",
            "--benchmark",
            "mcf",
            "--batch",
            "3",
            "--instructions",
            "20000",
            "--no-ledger",
            "--quiet",
        ])
        .output()
        .expect("ppm simulate --batch runs");
    assert!(
        out.status.success(),
        "simulate --batch failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lanes          3"), "{stdout}");
    // One row per lane, each cross-checked against the oracle.
    assert_eq!(stdout.matches("yes").count(), 3, "{stdout}");
}

/// The final value of a counter in a `--metrics-out` JSONL file (0 when
/// the counter was never touched).
fn jsonl_counter(jsonl: &Path, name: &str) -> i64 {
    std::fs::read_to_string(jsonl)
        .expect("metrics file written")
        .lines()
        .map(|line| Json::parse(line).expect("JSONL line parses"))
        .filter(|rec| {
            rec.get("kind").and_then(Json::as_str) == Some("counter")
                && rec.get("name").and_then(Json::as_str) == Some(name)
        })
        .filter_map(|rec| rec.get("value").and_then(Json::as_i64))
        .next_back()
        .unwrap_or(0)
}

/// No production simulation runs outside the batch engine: every
/// `sim.runs` is a batch lane, for plain `ppm simulate` and for a
/// `ppm build --holdout` whose holdout ends in a one-point lane group
/// (five points on four workers: groups of 2, 1, 1 and 1). Plain
/// `ppm simulate` prints, byte for byte, what the reference oracle's
/// statistics format to.
#[test]
fn every_production_simulation_runs_on_the_batch_engine() {
    let dir = scratch("engine");

    let jsonl = dir.join("simulate.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args([
            "simulate",
            "--benchmark",
            "mcf",
            "--instructions",
            "20000",
            "--seed",
            "4",
            "--rob",
            "48",
            "--dl1-lat",
            "3",
            "--energy",
            "--no-ledger",
            "--quiet",
            "--metrics-out",
        ])
        .arg(&jsonl)
        .output()
        .expect("ppm simulate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(jsonl_counter(&jsonl, "sim.runs"), 1);
    assert_eq!(jsonl_counter(&jsonl, "sim.batch_lanes"), 1);

    let config = SimConfig::builder()
        .rob_size(48)
        .dl1_lat(3)
        .build()
        .unwrap();
    let s = Processor::new(config.clone()).run(TraceGenerator::new(Benchmark::Mcf, 4).take(20_000));
    let e = estimate_energy(&s, &config, &EnergyParams::default());
    let want = format!(
        "benchmark      {}\n\
         instructions   {}\n\
         cycles         {}\n\
         CPI            {:.4}\n\
         IPC            {:.4}\n\
         il1 miss rate  {:.4}\n\
         dl1 miss rate  {:.4}\n\
         l2 miss rate   {:.4}\n\
         mispredicts    {:.4}\n\
         dram accesses  {}\n\
         energy total   {:.1}\n\
         EPI            {:.4}\n\
         EDP            {:.4}\n",
        Benchmark::Mcf,
        s.instructions,
        s.cycles,
        s.cpi(),
        s.ipc(),
        s.il1.miss_rate(),
        s.dl1.miss_rate(),
        s.l2.miss_rate(),
        s.mispredict_rate(),
        s.dram_accesses,
        e.total(),
        e.epi(),
        e.edp()
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);

    let jsonl = dir.join("build.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .env("PPM_THREADS", "4")
        .args([
            "build",
            "--benchmark",
            "twolf",
            "--sample",
            "20",
            "--instructions",
            "10000",
            "--seed",
            "3",
            "--holdout",
            "5",
            "--lhs-candidates",
            "16",
            "--train-threads",
            "1",
            "--no-ledger",
            "--quiet",
            "--out",
        ])
        .arg(dir.join("b.model"))
        .arg("--metrics-out")
        .arg(&jsonl)
        .output()
        .expect("ppm build runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        jsonl_counter(&jsonl, "sim.runs"),
        25,
        "20 sample + 5 holdout points"
    );
    assert_eq!(jsonl_counter(&jsonl, "sim.batch_lanes"), 25);
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns a service with `queue` slots per worker (`"0"` sheds every
/// request) and returns the child plus its bound address, parsed from
/// the stderr banner.
fn spawn_serve(queue: &str) -> (Reaped, String) {
    spawn_serving(
        Command::new(env!("CARGO_BIN_EXE_ppm"))
            .args([
                "serve",
                "127.0.0.1:0",
                "--queue",
                queue,
                "--benchmark",
                "ammp",
                "--registry",
            ])
            .arg(scratch(&format!("queue{queue}")).join("registry")),
    )
}

#[test]
fn slo_gate_fails_loud_against_a_fully_shedding_service() {
    let (_serve, addr) = spawn_serve("0");
    // Give the accept loop a beat to come up.
    std::thread::sleep(Duration::from_millis(50));
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args([
            "loadtest",
            &addr,
            "--requests",
            "20",
            "--concurrency",
            "2",
            "--slo-p99-ms",
            "1000",
            "--quiet",
        ])
        .output()
        .expect("ppm loadtest runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Every request is refused fast — well under the 1000ms SLO — and
    // that must FAIL the gate (exit 5), not pass it with p99 = 0 ms.
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("no evidence") && stderr.contains("0 of 20"),
        "the refusal must say why:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // The report still separates refusal latency from (absent) OK
    // latency instead of blending them.
    assert!(stdout.contains("refusal latency"), "{stdout}");
    assert!(stdout.contains("ok                 0"), "{stdout}");

    // The tracing A/B reading against a shed-all baseline has no p99 to
    // divide by: it must fail the same way, not print a +0.00% overhead.
    let (_healthy, healthy_addr) = spawn_serve("8");
    std::thread::sleep(Duration::from_millis(50));
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args([
            "loadtest",
            &healthy_addr,
            "--ab",
            &addr,
            "--requests",
            "20",
            "--concurrency",
            "2",
            "--quiet",
        ])
        .output()
        .expect("ppm loadtest --ab runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("no evidence") && stderr.contains("0 of 20 baseline"),
        "the refusal must say why:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(!stdout.contains("overhead"), "{stdout}");
}
