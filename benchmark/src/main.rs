//! The repository benchmark. See README.md for the workloads, metrics
//! and how to run it.
//!
//! ```text
//! ppm-benchmark --ppm <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ppm-benchmark agree --runs <n> --ppm <binary> [--workloads a,b] [--out table.md]
//! ```
//!
//! The last line on stdout is the result: one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod agree;
mod answers;
mod loadgen;
mod procfs;
mod report;
mod scan;
mod serve;
mod stats;
mod traced;
mod tracez;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Mode;
use workloads::{Env, Workload};

/// Scratch space, relative to the repository root `run.sh` runs from.
const WORK: &str = "benchmark/.work";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run(args: &[String]) -> Result<String, String> {
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must name one of build_paper_mcf, sweep_fig4_crafty, serve_predict, serve_reload_mix")?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed wants an integer")?;
    let seconds: f64 = flag(args, "--seconds")
        .unwrap_or("10")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or("--seconds wants a positive number")?;
    let mode = match flag(args, "--trace").unwrap_or("0") {
        "0" => Mode::EndToEnd,
        "1" => Mode::PerLayer,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let ppm = PathBuf::from(flag(args, "--ppm").ok_or("--ppm <binary> is required")?);
    if !ppm.is_file() {
        return Err(format!("no ppm binary at {}", ppm.display()));
    }
    let scratch =
        procfs::ScratchDir::create(&Path::new(WORK).join(format!("run-{}", std::process::id())))
            .map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    let env = Env {
        ppm,
        work: scratch.path().to_path_buf(),
        seed,
        seconds,
    };
    let outcome = match mode {
        Mode::PerLayer => {
            let (outcome, artefacts) = traced::run(&env, workload)?;
            let out_dir = match flag(args, "--out") {
                Some(dir) => PathBuf::from(dir),
                None => Path::new(WORK).join("out"),
            };
            std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
            let stem = format!("{}-seed{seed}", workload.name());
            for (suffix, text) in [
                ("layers.json", artefacts.layers.dump()),
                ("trace.json", artefacts.chrome),
            ] {
                let path = out_dir.join(format!("{stem}.{suffix}"));
                std::fs::write(&path, text + "\n")
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!("[bench] wrote {}", path.display());
            }
            outcome
        }
        Mode::EndToEnd if workload.serves() => workloads::run_serve_workload(&env, workload)?,
        Mode::EndToEnd => workloads::run_build_workload(&env, workload)?,
    };
    for p in &outcome.problems {
        eprintln!("[bench] PROBLEM: {p}");
    }
    outcome.render(mode)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        return agree::main(&args[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            ExitCode::from(2)
        });
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
