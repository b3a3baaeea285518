//! The executor's central contract, proven end to end: every
//! parallelized training hot path — the LHS candidate sweep, the
//! (p_min, α) grid search, cross-validated fold refits, and the full
//! `BuildRBFmodel` procedure — produces output byte-identical to its
//! serial run, for any thread count and any seed. So does supervised
//! simulation in lane groups, including `ppm build`'s held-out points.

use std::process::Command;

use ppm::model::{BuildConfig, ErrorStats, FnResponse, RbfModelBuilder};
use ppm_core::crossval::CrossValidator;
use ppm_core::persist;
use ppm_core::response::{Response, SimulatorResponse};
use ppm_core::space::DesignSpace;
use ppm_core::supervise::{eval_batch_supervised, SupervisorPolicy};
use ppm_rbf::RbfTrainer;
use ppm_regtree::Dataset;
use ppm_rng::Rng;
use ppm_sampling::lhs::LatinHypercube;
use ppm_sampling::space::{ParamDef, ParamSpace, Transform};
use ppm_workload::Benchmark;

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

/// Property: parallel fold refits yield the same cross-validation
/// statistics as serial ones, across seeds.
#[test]
fn crossval_is_thread_count_invariant_across_seeds() {
    for seed in [5u64, 111] {
        let (pts, y) = noisy_sample(seed, 30);
        let reference = CrossValidator::new(RbfTrainer::quick(), 5)
            .with_threads(1)
            .run(&pts, &y)
            .unwrap();
        for threads in THREAD_COUNTS {
            let got = CrossValidator::new(RbfTrainer::quick(), 5)
                .with_threads(threads)
                .run(&pts, &y)
                .unwrap();
            assert_eq!(reference, got, "seed {seed}, threads {threads}");
        }
    }
}

/// The full `BuildRBFmodel` run — sampling, simulation, training — is
/// byte-identical between a single-threaded and an 8-thread build.
#[test]
fn full_build_is_byte_identical_across_thread_counts() {
    let response = || {
        FnResponse::new(9, |x: &[f64]| {
            2.0 + 1.5 * x[0] + (2.0 * x[4]).exp() * 0.2 + x[5] * x[5] - 0.5 * x[5] * x[6]
        })
        .expect("non-zero dimension")
    };
    let build = |threads: usize| {
        let config = BuildConfig::quick(40)
            .with_seed(12)
            .with_train_threads(threads);
        RbfModelBuilder::new(DesignSpace::paper_table1(), config)
            .build(&response())
            .expect("clean build")
    };
    let serial = build(1);
    for threads in THREAD_COUNTS {
        let parallel = build(threads);
        assert_eq!(serial.model, parallel.model, "threads {threads}");
        assert_eq!(serial.design, parallel.design, "threads {threads}");
        assert_eq!(serial.responses, parallel.responses, "threads {threads}");
        assert_eq!(
            serial.discrepancy.to_bits(),
            parallel.discrepancy.to_bits(),
            "threads {threads}"
        );
    }
}

/// Supervised simulation in lane groups yields bit-identical values at
/// 1, 2 and 8 threads (the group count changes with the thread count).
#[test]
fn supervised_simulation_is_byte_identical_across_thread_counts() {
    let response = SimulatorResponse::new(Benchmark::Mcf, 4_000).with_seed(2);
    let mut rng = Rng::seed_from_u64(77);
    let points: Vec<Vec<f64>> = (0..21)
        .map(|_| (0..9).map(|_| rng.unit_f64()).collect())
        .collect();
    let run = |threads: usize| -> Vec<Option<u64>> {
        eval_batch_supervised(
            &response,
            &points,
            threads,
            &SupervisorPolicy::strict(),
            &[],
        )
        .expect("clean batch")
        .values
        .iter()
        .map(|v| v.map(f64::to_bits))
        .collect()
    };
    let serial = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), serial, "threads {threads}");
    }
}

/// `ppm build --holdout` simulates the held-out points as supervised lane
/// groups. The printed error line must equal the one a serial,
/// point-by-point holdout gives, and line and model bytes must not
/// depend on the thread count.
#[test]
fn build_holdout_matches_the_serial_holdout_at_any_thread_count() {
    let dir = std::env::temp_dir().join(format!("ppm-det-holdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |threads: &str| -> (String, Vec<u8>) {
        let model = dir.join(format!("t{threads}.model"));
        let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
            .env("PPM_THREADS", threads)
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
                "9",
                "--lhs-candidates",
                "16",
                "--train-threads",
                "1",
                "--no-ledger",
                "--quiet",
                "--out",
            ])
            .arg(&model)
            .output()
            .expect("ppm build runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("held-out CPI error"))
            .unwrap_or_else(|| panic!("no held-out line in {stdout}"))
            .to_string();
        (line, std::fs::read(&model).expect("model written"))
    };
    let serial_threads = run("1");
    for threads in ["2", "8"] {
        assert_eq!(run(threads), serial_threads, "PPM_THREADS={threads}");
    }

    let saved = persist::load(&dir.join("t1.model")).expect("model loads");
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
        serial_threads.0,
        format!(
            "held-out CPI error over 9 points: mean {:.2}% max {:.2}% std {:.2}%",
            stats.mean_pct, stats.max_pct, stats.std_pct
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// 64-bit FNV-1a, the digest the model file's own checksum line uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two small fixed `ppm build`s reproduce pinned model files byte for
/// byte. The digests are those of a subset search that factors every
/// candidate selection in full, so they pin that the bordered search
/// selects the same centers and refits the same weights. A change that
/// moves a digest changes the models users build and needs a reason.
#[test]
fn small_builds_reproduce_pinned_model_digests() {
    let dir = std::env::temp_dir().join(format!("ppm-det-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (benchmark, digest) in [
        ("crafty", 0x79f7_167e_44b2_402f_u64),
        ("mcf", 0xdd37_fc77_cce2_b265),
    ] {
        let model = dir.join(format!("{benchmark}.model"));
        let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
            .args([
                "build",
                "--benchmark",
                benchmark,
                "--sample",
                "40",
                "--instructions",
                "10000",
                "--seed",
                "5",
                "--lhs-candidates",
                "16",
                "--train-threads",
                "2",
                "--no-ledger",
                "--quiet",
                "--out",
            ])
            .arg(&model)
            .output()
            .expect("ppm build runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&model).expect("model written");
        assert_eq!(
            format!("{:016x}", fnv1a64(&bytes)),
            format!("{digest:016x}"),
            "{benchmark} model digest moved"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
