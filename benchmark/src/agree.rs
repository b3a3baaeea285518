//! `agree`: runs two sets of N untraced runs per workload, alternating
//! between the sets (and which set goes first), and checks that the two
//! sets agree within the bounds `BENCHMARK.json` fixes.
//!
//! For each workload and metric it prints each set's median and
//! quartiles, the spread (quartile distance over median), and the shift
//! between the medians in the metric's worse direction. A metric agrees
//! when both spreads and the shift are within its bound; `setup_s` is
//! held to the shift only. The sets use disjoint seeds, so agreement
//! also covers the choice of seeds. Exits 1 when anything disagrees.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use ppm_obs::Json;

use crate::stats;
use crate::workloads::Workload;

/// A metric's declared direction and bound.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(manifest: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// One untraced run as a child process; returns its metric values.
fn run_once(
    run_args: &[String],
    workload: Workload,
    seed: u64,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            "0",
        ])
        .args(run_args)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|_| {
        format!(
            "{} seed {seed}: no result ({}): {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed}: run was not correct: {last}",
            workload.name()
        ));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{} seed {seed}: no metrics", workload.name()));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// `agree --runs N [--workloads a,b] [--out table.md] [run flags…]`:
/// run flags (`--ppm`, `--seconds`, …) are passed to every run.
///
/// # Errors
///
/// Usage errors and runs that produce no result.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut runs = 5usize;
    let mut workloads = Workload::ALL.to_vec();
    let mut out_file = None;
    let mut run_args = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--runs" => runs = value()?.parse().map_err(|_| "--runs wants a count")?,
            "--workloads" => {
                workloads = value()?
                    .split(',')
                    .map(|w| Workload::parse(w).ok_or(format!("unknown workload {w:?}")))
                    .collect::<Result<_, _>>()?
            }
            "--out" => out_file = Some(value()?),
            _ => {
                run_args.push(flag.clone());
                run_args.push(value()?);
            }
        }
    }
    if runs < 2 {
        return Err("--runs must be at least 2 to have quartiles".to_string());
    }
    let bounds = bounds(Path::new("BENCHMARK.json"))?;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "| workload | metric | set A median [q1, q3] | spread A | set B median [q1, q3] | spread B | shift | bound | agree |"
    );
    let _ = writeln!(table, "|---|---|---|---|---|---|---|---|---|");
    let mut all_agree = true;
    for &workload in &workloads {
        // sets[s][metric] = values; set A takes seeds 1..=N, set B N+1..=2N.
        let mut sets: [Vec<(String, Vec<f64>)>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let seed = (set * runs + i + 1) as u64;
                let values = run_once(&run_args, workload, seed)?;
                eprintln!(
                    "[agree] {} set {} seed {seed}: {values:?}",
                    workload.name(),
                    ["A", "B"][set]
                );
                for (name, v) in values {
                    match sets[set].iter_mut().find(|(n, _)| *n == name) {
                        Some((_, vs)) => vs.push(v),
                        None => sets[set].push((name, vec![v])),
                    }
                }
            }
        }
        for b in &bounds {
            let values = |s: usize| {
                sets[s]
                    .iter()
                    .find(|(n, _)| *n == b.name)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            };
            let (a, bv) = (values(0), values(1));
            let summary = |v: &[f64]| -> Option<(f64, f64, f64, f64)> {
                let (q1, q3) = stats::quartiles(v)?;
                Some((stats::median(v)?, q1, q3, stats::spread(v)?))
            };
            let (Some(sa), Some(sb)) = (summary(&a), summary(&bv)) else {
                all_agree = false;
                let _ = writeln!(
                    table,
                    "| {} | {} | missing | | | | | | no |",
                    workload.name(),
                    b.name
                );
                continue;
            };
            let worse = if b.higher_is_better {
                sa.0 - sb.0
            } else {
                sb.0 - sa.0
            };
            let shift = worse / sa.0.abs();
            let spreads_ok = b.name == "setup_s" || (sa.3 <= b.bound && sb.3 <= b.bound);
            let ok = spreads_ok && shift.abs() <= b.bound;
            all_agree &= ok;
            let _ = writeln!(
                table,
                "| {} | {} | {:.6} [{:.6}, {:.6}] | {:.3} | {:.6} [{:.6}, {:.6}] | {:.3} | {:+.3} | {} | {} |",
                workload.name(),
                b.name,
                sa.0,
                sa.1,
                sa.2,
                sa.3,
                sb.0,
                sb.1,
                sb.2,
                sb.3,
                shift,
                b.bound,
                if ok { "yes" } else { "NO" }
            );
        }
    }
    print!("{table}");
    if let Some(path) = out_file {
        let header = format!(
            "Two sets of {runs} untraced runs per workload (set A seeds 1..={runs}, set B seeds {}..={}), \
             alternating; spread = (q3 - q1) / median, shift = median B vs A in the worse direction.\n\n",
            runs + 1,
            2 * runs
        );
        std::fs::write(&path, header + &table).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if all_agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
