//! End-to-end tests for the flight recorder: run ledgers, trace
//! export, the regression sentry, and the JSONL metrics schema.
//!
//! Everything here drives the real `ppm` binary as a subprocess
//! (`CARGO_BIN_EXE_ppm`), so global telemetry state is per-run and the
//! assertions cover the exact artifacts users and `scripts/verify.sh`
//! see.

mod common;

use std::path::Path;
use std::process::{Command, Output, Stdio};

use common::scratch;
use ppm_obs::{validate_chrome_trace, verify_content_hash};
use ppm_telemetry::Json;

fn ppm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(args)
        .output()
        .expect("ppm binary runs")
}

fn ppm_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppm"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("ppm binary runs")
}

fn assert_code(out: &Output, want: i32) {
    assert_eq!(
        out.status.code(),
        Some(want),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A cheap fixed-seed smoke build run *inside* `dir` with relative
/// paths, so two runs in different directories share a byte-identical
/// command line (the ledger body records every argument verbatim).
fn smoke_build(dir: &Path) -> Output {
    ppm_in(
        dir,
        &[
            "build",
            "--benchmark",
            "ammp",
            "--sample",
            "20",
            "--instructions",
            "10000",
            "--seed",
            "7",
            "--train-threads",
            "2",
            "--holdout",
            "6",
            "--quiet",
            "--out",
            "m.txt",
            "--ledger-out",
            "ledger.json",
        ],
    )
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap();
    Json::parse(&text).unwrap()
}

#[test]
fn identical_runs_write_byte_identical_ledger_bodies() {
    let dir = scratch("determinism");
    let (run1, run2) = (dir.join("run1"), dir.join("run2"));
    std::fs::create_dir_all(&run1).unwrap();
    std::fs::create_dir_all(&run2).unwrap();
    assert_code(&smoke_build(&run1), 0);
    assert_code(&smoke_build(&run2), 0);
    let l1 = load(&run1.join("ledger.json"));
    let l2 = load(&run2.join("ledger.json"));

    // The deterministic body must match to the byte; the headers carry
    // the run-specific identity and must not.
    assert_eq!(
        l1.get("body").unwrap().dump(),
        l2.get("body").unwrap().dump()
    );
    assert_ne!(
        l1.get("header").unwrap().get("run_id"),
        l2.get("header").unwrap().get("run_id")
    );
    verify_content_hash(&l1).unwrap();
    verify_content_hash(&l2).unwrap();

    // The body records what matters: command, args, env, deterministic
    // metrics, and the model diagnostics with held-out statistics.
    let body = l1.get("body").unwrap();
    assert_eq!(body.get("command").and_then(Json::as_str), Some("build"));
    assert_eq!(
        body.get("args")
            .and_then(|a| a.get("--seed"))
            .and_then(Json::as_str),
        Some("7")
    );
    assert!(body.get("env").and_then(|e| e.get("PPM_THREADS")).is_some());
    let diag = body.get("diagnostics").unwrap();
    assert!(
        diag.get("holdout")
            .unwrap()
            .get("mean_pct")
            .unwrap()
            .as_f64()
            .unwrap()
            >= 0.0
    );
    assert!(!diag.get("regions").unwrap().as_arr().unwrap().is_empty());
    assert!(diag.get("centers").unwrap().as_i64().unwrap() > 0);
    let metrics = body.get("metrics").and_then(Json::as_arr).unwrap();
    assert!(!metrics.is_empty());
    for m in metrics {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        assert!(
            !name.starts_with("span.") && !name.ends_with(".us") && !name.ends_with(".ms"),
            "timing-dependent metric {name} leaked into the hashed body"
        );
    }

    // The header carries per-stage timings for the pipeline stages.
    let stages = l1
        .get("header")
        .and_then(|h| h.get("timings"))
        .and_then(|t| t.get("stages"))
        .and_then(Json::as_arr)
        .unwrap();
    let names: Vec<&str> = stages
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"stage.simulation"), "{names:?}");
    assert!(names.contains(&"stage.rbf_train"), "{names:?}");
    assert!(names.contains(&"stage.holdout"), "{names:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sentry_passes_self_compare_and_fails_doctored_ledger() {
    let dir = scratch("sentry");
    assert_code(&smoke_build(&dir), 0);
    let base = dir.join("ledger.json");
    let base_str = base.to_str().unwrap();

    // A ledger compared against itself is clean (exit 0).
    let out = ppm(&["report", "--candidate", base_str, "--against", base_str]);
    assert_code(&out, 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict: OK"), "{stdout}");

    // Stage times are recorded, not compared: a candidate whose
    // training stage took 10x as long, with an identical body, is clean.
    let doc = load(&base);
    let stages = doc
        .get("header")
        .and_then(|h| h.get("timings"))
        .and_then(|t| t.get("stages"))
        .and_then(Json::as_arr)
        .unwrap();
    let rbf_wall = stages
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("stage.rbf_train"))
        .and_then(|s| s.get("wall_us"))
        .and_then(Json::as_i64)
        .unwrap();
    let text = doc.dump().replace(
        &format!("\"wall_us\":{rbf_wall}"),
        &format!("\"wall_us\":{}", rbf_wall * 10),
    );
    let slow = dir.join("slow.json");
    std::fs::write(&slow, &text).unwrap();
    let out = ppm(&[
        "report",
        "--candidate",
        slow.to_str().unwrap(),
        "--against",
        base_str,
    ]);
    assert_code(&out, 0);

    // One drifted deterministic counter must trip the sentry with exit
    // code 5, naming the counter.
    let points = doc
        .get("body")
        .and_then(|b| b.get("metrics"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("sim.batch_points"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_i64)
        .unwrap();
    let drifted = text.replace(
        &format!("\"name\":\"sim.batch_points\",\"value\":{points}"),
        &format!("\"name\":\"sim.batch_points\",\"value\":{}", points + 1),
    );
    assert_ne!(drifted, text, "counter not found in the ledger text");
    let doctored = dir.join("doctored.json");
    std::fs::write(&doctored, &drifted).unwrap();
    let out = ppm(&[
        "report",
        "--candidate",
        doctored.to_str().unwrap(),
        "--against",
        base_str,
        "--json-out",
        dir.join("report.json").to_str().unwrap(),
    ]);
    assert_code(&out, 5);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sim.batch_points"), "{stderr}");
    let report = load(&dir.join("report.json"));
    assert_eq!(report.get("regressed"), Some(&Json::Bool(true)));

    // Unreadable inputs are persistence failures (4), not regressions.
    let out = ppm(&[
        "report",
        "--candidate",
        "missing.json",
        "--against",
        base_str,
    ]);
    assert_code(&out, 4);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_writes_a_valid_chrome_trace_with_worker_lanes() {
    let dir = scratch("trace");
    let trace = dir.join("t.json");
    let out = ppm(&[
        "build",
        "--benchmark",
        "ammp",
        "--sample",
        "20",
        "--instructions",
        "10000",
        "--seed",
        "7",
        "--train-threads",
        "2",
        "--holdout",
        "0",
        "--quiet",
        "--no-ledger",
        "--out",
        dir.join("m.txt").to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_code(&out, 0);

    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = validate_chrome_trace(&text).unwrap();
    assert!(summary.spans > 0);
    assert!(
        summary.threads >= 2,
        "parallel training should populate worker lanes: {summary:?}"
    );
    // Worker shards from the deterministic executor appear as slices.
    assert!(text.contains("exec."), "no worker shard spans in trace");

    // The CLI validator agrees.
    let out = ppm(&["check-trace", "--file", trace.to_str().unwrap()]);
    assert_code(&out, 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace ok"));

    // And rejects a structurally broken file with a persistence error.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, "{\"traceEvents\":[{\"ph\":\"X\"}]}").unwrap();
    let out = ppm(&["check-trace", "--file", broken.to_str().unwrap()]);
    assert_code(&out, 4);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_jsonl_matches_the_documented_schema() {
    let dir = scratch("jsonl");
    let jsonl = dir.join("m.jsonl");
    let out = ppm(&[
        "simulate",
        "--benchmark",
        "mcf",
        "--instructions",
        "20000",
        "--quiet",
        "--no-ledger",
        "--metrics-out",
        jsonl.to_str().unwrap(),
    ]);
    assert_code(&out, 0);

    let text = std::fs::read_to_string(&jsonl).unwrap();
    let mut kinds = (0, 0, 0); // spans, events, metrics
    for line in text.lines() {
        let rec = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert_eq!(rec.dump(), line, "JSONL line is not in canonical form");
        let t = rec.get("t").and_then(Json::as_str).unwrap();
        let name = rec.get("name").and_then(Json::as_str).unwrap();
        assert!(!name.is_empty());
        match t {
            "span" => {
                kinds.0 += 1;
                for key in ["us", "start_us", "tid", "depth"] {
                    assert!(
                        rec.get(key).and_then(Json::as_i64).is_some(),
                        "span line missing {key}: {line}"
                    );
                }
                // cpu_us and parent are present but may be null.
                assert!(rec.get("cpu_us").is_some(), "{line}");
                assert!(rec.get("parent").is_some(), "{line}");
            }
            "event" => {
                kinds.1 += 1;
                assert!(rec.get("fields").and_then(Json::as_obj).is_some(), "{line}");
                assert!(rec.get("depth").and_then(Json::as_i64).is_some(), "{line}");
            }
            "metric" => {
                kinds.2 += 1;
                match rec.get("kind").and_then(Json::as_str).unwrap() {
                    "counter" => {
                        assert!(rec.get("value").and_then(Json::as_i64).is_some(), "{line}");
                    }
                    "gauge" => {
                        assert!(rec.get("value").is_some(), "{line}");
                    }
                    "histogram" => {
                        for key in ["count", "sum", "min", "max", "p50", "p95", "p99"] {
                            assert!(
                                rec.get(key).and_then(Json::as_i64).is_some(),
                                "histogram line missing {key}: {line}"
                            );
                        }
                    }
                    other => panic!("unknown metric kind {other:?}: {line}"),
                }
            }
            other => panic!("unknown record type {other:?}: {line}"),
        }
    }
    assert!(kinds.0 > 0, "no span records in {text}");
    assert!(kinds.2 > 0, "no metric records in {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ledger_defaults_land_in_the_ledger_dir_and_no_ledger_disables() {
    let dir = scratch("default-dir");
    let runs = dir.join("runs");
    let out = ppm(&[
        "simulate",
        "--benchmark",
        "mcf",
        "--instructions",
        "20000",
        "--seed",
        "3",
        "--quiet",
        "--ledger-dir",
        runs.to_str().unwrap(),
    ]);
    assert_code(&out, 0);
    let entries: Vec<_> = std::fs::read_dir(&runs)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    assert!(
        entries[0].starts_with("simulate-3-") && entries[0].ends_with(".json"),
        "{entries:?}"
    );
    ppm_obs::load_ledger(&runs.join(&entries[0])).unwrap();

    // --no-ledger writes nothing.
    std::fs::remove_dir_all(&runs).ok();
    let out = ppm(&[
        "simulate",
        "--benchmark",
        "mcf",
        "--instructions",
        "20000",
        "--quiet",
        "--no-ledger",
        "--ledger-dir",
        runs.to_str().unwrap(),
    ]);
    assert_code(&out, 0);
    assert!(!runs.exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_a_command_does_not_read_exit_2_before_any_work() {
    let dir = scratch("unknown-flags");
    let ledger = dir.join("ledger.json");
    let ledger_str = ledger.to_str().unwrap();
    // A misspelled knob used to run with the default ROB and exit 0.
    let out = ppm(&[
        "simulate",
        "--benchmark",
        "mcf",
        "--instructions",
        "2000",
        "--robb",
        "32",
        "--ledger-out",
        ledger_str,
    ]);
    assert_code(&out, 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--robb"));
    assert!(out.stdout.is_empty());
    assert!(!ledger.exists(), "a rejected command still wrote a ledger");
    // The sentry's thresholds are fixed; its old knobs are now unknown.
    for flag in [
        "--max-stage-ratio",
        "--min-stage-us",
        "--max-error-ratio",
        "--error-slack-pp",
        "--counter-tol",
    ] {
        let out = ppm(&[
            "report",
            "--candidate",
            "a.json",
            "--against",
            "b.json",
            flag,
            "2",
        ]);
        assert_code(&out, 2);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "{flag}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that went away costs `ppm` its output, never its exit code:
/// its final words are written without `eprintln!`/`print!`, which
/// panic (exit 101) on a closed pipe.
#[test]
fn a_closed_stderr_or_stdout_keeps_the_exit_code() {
    let closed = || {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        writer
    };
    let status = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["simulate", "--benchmark", "nope"])
        .stdout(Stdio::null())
        .stderr(closed())
        .status()
        .expect("ppm binary runs");
    assert_eq!(status.code(), Some(1), "closed stderr");
    let status = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .arg("benchmarks")
        .stdout(closed())
        .stderr(Stdio::null())
        .status()
        .expect("ppm binary runs");
    assert_eq!(status.code(), Some(0), "closed stdout");
}

#[test]
fn live_and_ledger_flags_outside_their_commands_exit_2_creating_nothing() {
    let dir = scratch("flag-scope");
    // `benchmarks` writes no ledger, so it does not take the flag.
    let ledger = dir.join("x.json");
    let out = ppm(&["benchmarks", "--ledger-out", ledger.to_str().unwrap()]);
    assert_code(&out, 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--ledger-out"));
    assert!(!ledger.exists());
    // `predict` serves no live plane; the refusal comes before the
    // metrics sink creates its file.
    let metrics = dir.join("x.jsonl");
    let out = ppm(&[
        "predict",
        "--model",
        "m.txt",
        "--live",
        "127.0.0.1:0",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_code(&out, 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--live"));
    assert!(!metrics.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The value of counter `name` in a ledger body, if it was recorded.
fn counter(ledger: &Json, name: &str) -> Option<i64> {
    ledger
        .get("body")
        .and_then(|b| b.get("metrics"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_i64)
}

#[test]
fn checkpoint_on_an_existing_journal_resumes_and_a_corrupt_one_exits_4() {
    let dir = scratch("checkpoint");
    // An ammp build of `sample` points and 6 held-out ones, on the store
    // `j.txt` when `store` is set.
    let build_with = |sample: &str, store: bool, tag: &str| {
        let model = format!("{tag}.model");
        let ledger = format!("{tag}.json");
        let mut args = vec![
            "build",
            "--benchmark",
            "ammp",
            "--sample",
            sample,
            "--instructions",
            "5000",
            "--holdout",
            "6",
            "--quiet",
            "--out",
            &model,
            "--ledger-out",
            &ledger,
        ];
        if store {
            args.extend(["--checkpoint", "j.txt"]);
        }
        ppm_in(&dir, &args)
    };
    let build = |tag: &str| build_with("20", true, tag);
    let first = build("first");
    assert_code(&first, 0);
    assert_eq!(
        counter(&load(&dir.join("first.json")), "sim.batch_points"),
        Some(26)
    );
    // The second run finds the store and simulates nothing: neither a
    // training point nor a held-out one.
    let second = build("second");
    assert_code(&second, 0);
    let ledger = load(&dir.join("second.json"));
    assert_eq!(counter(&ledger, "robust.resumed"), Some(26));
    assert!(matches!(
        counter(&ledger, "sim.batch_points"),
        None | Some(0)
    ));
    assert_eq!(
        std::fs::read(dir.join("first.model")).unwrap(),
        std::fs::read(dir.join("second.model")).unwrap()
    );
    assert!(String::from_utf8_lossy(&first.stdout).contains("held-out CPI error over 6 points"));
    assert_eq!(
        String::from_utf8_lossy(&first.stdout).replace("first.model", "second.model"),
        String::from_utf8_lossy(&second.stdout)
    );
    // A run with another sample reuses what it shares with the first:
    // the held-out points, which depend only on the seed and the count.
    // A hit gives what a miss does, so the model and stdout are those of
    // the same build without a store.
    let wider = build_with("30", true, "wider");
    assert_code(&wider, 0);
    let ledger = load(&dir.join("wider.json"));
    assert_eq!(counter(&ledger, "robust.resumed"), Some(6));
    assert_eq!(counter(&ledger, "sim.batch_points"), Some(30));
    let fresh = build_with("30", false, "fresh");
    assert_code(&fresh, 0);
    assert_eq!(
        std::fs::read(dir.join("wider.model")).unwrap(),
        std::fs::read(dir.join("fresh.model")).unwrap()
    );
    assert_eq!(
        String::from_utf8_lossy(&fresh.stdout).replace("fresh.model", "wider.model"),
        String::from_utf8_lossy(&wider.stdout)
    );
    // One flipped byte fails the store's checksum: exit 4, not a silent
    // fresh start over the damaged file.
    let journal = dir.join("j.txt");
    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&journal, bytes).unwrap();
    assert_code(&build("third"), 4);
    assert!(!dir.join("third.model").exists());
    std::fs::remove_dir_all(&dir).ok();
}
