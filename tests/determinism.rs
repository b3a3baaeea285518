//! The determinism contracts of every `ppm` command, in one table.
//!
//! [`TABLE`] gives each command of the CLI's flag table one class:
//! `Threads` (the exit code, stdout and every named output file are
//! byte-identical at `PPM_THREADS=1` and `3`), `Resume` (the same, and
//! also when the run is repeated on its own `--checkpoint` store at the
//! other thread count, so a hit gives what a miss does) or `Exempt`,
//! with the reason. A command with
//! no row, or a row that names no command, fails
//! `every_command_has_exactly_one_row`: a new command joins the table
//! when it joins the CLI.
//!
//! Rows pass `--no-ledger`, because a ledger body records counters that
//! follow the worker count (`sim.batch_groups`, `exec.tasks`), and leave
//! out `--train-threads`, so that `PPM_THREADS` drives simulation and
//! training together.
//!
//! The other tests check values, not invariance: the trainer's and the
//! LHS sweep's parallel results across seeds, the batched holdout
//! against a serial point-by-point one, and two pinned model digests.

mod common;

use std::path::Path;
use std::process::Command;

use common::scratch;
use ppm::model::{BuildConfig, ErrorStats, RbfModelBuilder};
use ppm_core::persist;
use ppm_core::response::{Response, SimulatorResponse, SIM_VERSION};
use ppm_core::space::DesignSpace;
use ppm_obs::fnv1a64_hex;
use ppm_rbf::RbfTrainer;
use ppm_regtree::Dataset;
use ppm_rng::Rng;
use ppm_sampling::lhs::LatinHypercube;
use ppm_sampling::space::{ParamDef, ParamSpace, Transform};
use ppm_workload::Benchmark;

/// How a command's output may depend on the way it was run.
#[derive(Clone, Copy)]
enum Class {
    /// Byte-identical at `PPM_THREADS=1` and `3`.
    Threads,
    /// As `Threads`, and also when rerun on the result store it names,
    /// which is among the compared files and must hold at least one
    /// entry.
    Resume(&'static str),
    /// Not compared, for the reason given.
    Exempt(&'static str),
}
use Class::{Exempt, Resume, Threads};

const NETWORK: &str = "timed over the network";

/// The build row: a small twolf model with a held-out error line.
const BUILD: &str = "--benchmark twolf --sample 20 --instructions 10000 --seed 3 --holdout 9 \
                     --lhs-candidates 16 --checkpoint j.txt --out m.model --no-ledger";

/// One row per command: class, the exit code every run must end with,
/// the arguments after the command word and the files the run writes.
/// Paths are relative to the run's own directory, beside which
/// `fixture/` holds the inputs [`fixture`] makes.
#[rustfmt::skip]
const TABLE: &[(&str, Class, i32, &str, &str)] = &[
    ("help",          Threads,          0, "", ""),
    ("benchmarks",    Threads,          0, "", ""),
    ("simulate",      Threads,          0, "--benchmark mcf --batch 3 --instructions 20000 --no-ledger", ""),
    ("build",         Resume("j.txt"),  0, BUILD, "m.model j.txt"),
    ("predict",       Threads,          0, "--model ../fixture/m.model --rob 96", ""),
    ("screen",        Threads,          0, "--benchmark mcf --instructions 5000 --no-ledger", ""),
    ("firstorder",    Threads,          0, "--benchmark mcf --instructions 20000 --rob 96 --no-ledger", ""),
    ("workload-info", Threads,          0, "--benchmark vortex --instructions 20000 --no-ledger", ""),
    ("report",        Threads,          0, "--candidate ../fixture/ledger.json --against ../fixture/ledger.json \
                                            --json-out r.json", "r.json"),
    ("check-trace",   Threads,          0, "--file ../fixture/trace.json", ""),
    ("lint",          Threads,          6, "--root ../fixture/lint --format json", ""),
    ("top",           Exempt(NETWORK),  0, "", ""),
    ("tail",          Exempt(NETWORK),  0, "", ""),
    ("serve",         Exempt(NETWORK),  0, "", ""),
    ("publish",       Threads,          0, "--model ../fixture/m.model --registry reg", "reg/CURRENT"),
    ("loadtest",      Exempt(NETWORK),  0, "", ""),
];

/// A run's stdout and the bytes of each file it wrote.
type Outcome = (String, Vec<(String, Vec<u8>)>);

/// Runs `ppm <command> <args>` in `dir` at `threads` workers, checks
/// that it ends with `exit` and reads back the `outputs` it wrote.
fn run(command: &str, exit: i32, args: &str, outputs: &str, dir: &Path, threads: &str) -> Outcome {
    std::fs::create_dir_all(dir).expect("run dir");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .current_dir(dir)
        .env("PPM_THREADS", threads)
        .arg(command)
        .args(args.split_whitespace())
        .output()
        .expect("ppm runs");
    assert_eq!(
        out.status.code(),
        Some(exit),
        "`ppm {command} {args}` at PPM_THREADS={threads}:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = outputs
        .split_whitespace()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("`ppm {command}` wrote no {name}: {e}"));
            (name.to_string(), bytes)
        })
        .collect();
    (String::from_utf8_lossy(&out.stdout).into_owned(), files)
}

fn assert_same(command: &str, how: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.0, b.0, "`ppm {command}` stdout differs {how}");
    for ((name, x), (_, y)) in a.1.iter().zip(&b.1) {
        assert!(x == y, "`ppm {command}` wrote a different {name} {how}");
    }
}

/// The inputs the rows read: a small model with its ledger and its
/// Chrome trace, and a source tree with one lint finding.
fn fixture(dir: &Path) {
    let args = "--benchmark ammp --sample 20 --instructions 5000 --holdout 0 \
                --lhs-candidates 16 --out m.model --ledger-out ledger.json --trace-out trace.json";
    run("build", 0, args, "", dir, "2");
    let lib = dir.join("lint/crates/demo/src");
    std::fs::create_dir_all(&lib).expect("lint fixture dir");
    std::fs::write(
        lib.join("lib.rs"),
        "pub fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n",
    )
    .expect("lint fixture");
}

#[test]
fn every_command_has_exactly_one_row() {
    let commands: Vec<&str> = ppm::cli::command_names().collect();
    for command in &commands {
        let rows = TABLE.iter().filter(|row| row.0 == *command).count();
        assert_eq!(
            rows, 1,
            "`ppm {command}` has {rows} rows in the determinism table, not one"
        );
    }
    for &(command, class, ..) in TABLE {
        assert!(
            commands.contains(&command),
            "the determinism table has a row for `ppm {command}`, which is no command"
        );
        if let Exempt(reason) = class {
            assert!(
                !reason.is_empty(),
                "`ppm {command}` is exempt with no reason"
            );
        }
    }
}

#[test]
fn every_command_keeps_its_determinism_class() {
    let dir = scratch("table");
    fixture(&dir.join("fixture"));
    for &(command, class, exit, args, outputs) in TABLE {
        if let Exempt(_) = class {
            continue;
        }
        let (one, three) = (
            dir.join(format!("{command}-1")),
            dir.join(format!("{command}-3")),
        );
        let serial = run(command, exit, args, outputs, &one, "1");
        let parallel = run(command, exit, args, outputs, &three, "3");
        assert_same(command, "at PPM_THREADS=1 and 3", &serial, &parallel);
        if let Resume(store) = class {
            let text = std::fs::read_to_string(one.join(store)).expect("store written");
            assert!(
                text.lines().any(|line| line.starts_with("entry ")),
                "`ppm {command}` stored no entry"
            );
            let resumed = run(command, exit, args, outputs, &one, "3");
            assert_same(command, "resumed at 3 on a store of 1", &serial, &resumed);
            let resumed = run(command, exit, args, outputs, &three, "1");
            assert_same(command, "resumed at 1 on a store of 3", &parallel, &resumed);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

const THREAD_COUNTS: [usize; 2] = [2, 8];

fn noisy_sample(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let pts: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..3).map(|_| rng.unit_f64()).collect())
        .collect();
    let y = pts
        .iter()
        .map(|p| 2.0 + p[0] + (3.0 * p[1]).sin() * 0.5 + 0.05 * rng.normal())
        .collect();
    (pts, y)
}

/// Property: the trainer's parallel grid search returns the same fitted
/// model as the serial one, across seeds.
#[test]
fn trainer_fit_is_thread_count_invariant_across_seeds() {
    for seed in [3u64, 17, 90] {
        let (pts, y) = noisy_sample(seed, 40);
        let data = Dataset::new(pts, y).expect("consistent sample");
        let reference = RbfTrainer::quick().with_threads(1).fit(&data).unwrap();
        for threads in THREAD_COUNTS {
            let fitted = RbfTrainer::quick()
                .with_threads(threads)
                .fit(&data)
                .unwrap();
            assert_eq!(reference, fitted, "seed {seed}, threads {threads}");
        }
    }
}

/// Property: the parallel candidate sweep picks the same design with
/// the same discrepancy as the serial one, across seeds.
#[test]
fn lhs_best_of_is_thread_count_invariant_across_seeds() {
    let space = ParamSpace::new(vec![
        ParamDef::continuous("a", 0.0, 1.0),
        ParamDef::leveled("b", 8.0, 64.0, 4, Transform::Log),
        ParamDef::continuous("c", 0.5, 2.0),
    ]);
    for seed in [1u64, 29, 4096] {
        let lhs = LatinHypercube::new(&space, 24);
        let reference = lhs
            .clone()
            .with_threads(1)
            .best_of_with_score(40, &mut Rng::seed_from_u64(seed))
            .unwrap();
        for threads in THREAD_COUNTS {
            let got = lhs
                .clone()
                .with_threads(threads)
                .best_of_with_score(40, &mut Rng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(reference, got, "seed {seed}, threads {threads}");
        }
    }
}

/// `ppm build --holdout` simulates the held-out points as supervised lane
/// groups. The printed error line must equal the one a serial,
/// point-by-point holdout of the table's build row gives.
#[test]
fn build_holdout_matches_the_serial_holdout() {
    let dir = scratch("holdout");
    let (stdout, _) = run("build", 0, BUILD, "", &dir, "3");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("held-out CPI error"))
        .unwrap_or_else(|| panic!("no held-out line in {stdout}"));

    // BUILD's benchmark, instruction count, seed and holdout size.
    let saved = persist::load(&dir.join("m.model")).expect("model loads");
    let builder = RbfModelBuilder::new(
        DesignSpace::paper_table1(),
        BuildConfig::default().with_seed(3),
    );
    let test = builder.test_points(&DesignSpace::paper_table2(), 9);
    let response = SimulatorResponse::new(Benchmark::Twolf, 10_000).with_seed(3);
    let actual: Vec<f64> = test.iter().map(|p| response.eval(p)).collect();
    let predicted: Vec<f64> = test.iter().map(|p| saved.network.predict(p)).collect();
    let stats = ErrorStats::from_predictions(&predicted, &actual);
    assert_eq!(
        line,
        format!(
            "held-out CPI error over 9 points: mean {:.2}% max {:.2}% std {:.2}%",
            stats.mean_pct, stats.max_pct, stats.std_pct
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two small fixed `ppm build`s reproduce pinned model files byte for
/// byte. The digests are those of a subset search that factors every
/// candidate selection in full, so they pin that the bordered search
/// selects the same centers and refits the same weights. A change that
/// moves a digest changes the models users build and needs a reason.
#[test]
fn small_builds_reproduce_pinned_model_digests() {
    assert_eq!(
        SIM_VERSION, 1,
        "a simulator or trace generator change that moves a digest below must bump \
         SIM_VERSION, or a result store serves the old simulations"
    );
    let dir = scratch("pinned");
    for (benchmark, digest) in [("crafty", "79f7167e44b2402f"), ("mcf", "dd37fc77cce2b265")] {
        let args = format!(
            "--benchmark {benchmark} --sample 40 --instructions 10000 --seed 5 \
             --lhs-candidates 16 --train-threads 2 --no-ledger --out m.model"
        );
        let (_, model) = run("build", 0, &args, "m.model", &dir, "2");
        assert_eq!(
            fnv1a64_hex(&model[0].1),
            digest,
            "{benchmark} model digest moved"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
