//! End-to-end tests for the live observability plane: a real `ppm
//! build --live` subprocess scraped over HTTP mid-run, `ppm top`
//! against the endpoint, and the exit-7 bind-failure contract.
//!
//! Everything here drives the actual binary (`CARGO_BIN_EXE_ppm`), so
//! the assertions cover the exact surface `scripts/verify.sh` and
//! outside scrapers see.

mod common;

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use common::{scratch, spawn_serving, Reaped};
use ppm_live::http_get;
use ppm_telemetry::Json;

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Spawns `ppm build --live 127.0.0.1:0 ...` and returns the child
/// plus the bound address parsed from the stderr banner.
fn spawn_live_build(dir: &Path, sample: &str) -> (Reaped, String) {
    // One simulation worker runs the lane groups one after another, so
    // progress advances in steps a scraper can observe mid-stage.
    spawn_serving(
        Command::new(env!("CARGO_BIN_EXE_ppm"))
            .env("PPM_THREADS", "1")
            .args([
                "build",
                "--benchmark",
                "ammp",
                "--sample",
                sample,
                "--instructions",
                "40000",
                "--seed",
                "7",
                "--train-threads",
                "2",
                "--holdout",
                "0",
                "--no-ledger",
                "--live",
                "127.0.0.1:0",
                "--out",
            ])
            .arg(dir.join("m.txt")),
    )
}

fn buildz(addr: &str) -> Option<Json> {
    match http_get(addr, "/buildz", SCRAPE_TIMEOUT) {
        Ok((200, body)) => Json::parse(&body).ok(),
        _ => None,
    }
}

fn points_done(doc: &Json) -> u64 {
    doc.get("points")
        .and_then(|p| p.get("done"))
        .and_then(Json::as_i64)
        .unwrap_or(0) as u64
}

#[test]
fn live_build_shows_progress_between_two_scrapes() {
    let dir = scratch("progress");
    let (mut child, addr) = spawn_live_build(&dir, "40");

    // Simulation must be observed part-way: a scrape that reads 0 and
    // one that reads the total after the stage ended would both pass a
    // weaker "done increased" check.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = None;
    loop {
        assert!(
            Instant::now() < deadline,
            "no scrape showed 0 < done < planned during simulation; last {last:?}"
        );
        let Some(doc) = buildz(&addr) else {
            assert!(
                child.0.try_wait().expect("child status").is_none(),
                "build ended before progress was observed; last {last:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-buildz v1")
        );
        let stage = doc.get("stage").and_then(Json::as_str).map(str::to_string);
        let planned = doc
            .get("points")
            .and_then(|p| p.get("planned"))
            .and_then(Json::as_i64)
            .unwrap_or(0) as u64;
        let done = points_done(&doc);
        if stage.as_deref() == Some("simulation") && 0 < done && done < planned {
            break;
        }
        last = Some((stage, done, planned));
        std::thread::sleep(Duration::from_millis(10));
    }

    // The Prometheus exposition serves the same counters mid-run.
    let (status, metrics) = http_get(&addr, "/metrics", SCRAPE_TIMEOUT).expect("scrape metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("# TYPE ppm_build_points_done counter"),
        "{metrics}"
    );
    assert!(metrics.contains("ppm_build_points_planned 40"), "{metrics}");

    // `ppm top --once` renders a frame against the same endpoint.
    let top = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["top", &addr, "--once"])
        .output()
        .expect("ppm top runs");
    // The build may finish while top connects; only a successful
    // connection must render.
    if top.status.success() {
        let frame = String::from_utf8_lossy(&top.stdout);
        assert!(frame.contains("ppm top —"), "{frame}");
        assert!(frame.contains("/40"), "{frame}");
    } else {
        assert_eq!(top.status.code(), Some(7));
    }

    let status = child.0.wait().expect("build finishes");
    assert!(status.success(), "build failed under --live");
}

#[test]
fn live_bind_conflict_exits_7_and_quiet_suppresses_the_banner() {
    // Occupy a port, then ask ppm to bind it.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["build", "--benchmark", "ammp", "--live", &addr, "--quiet"])
        .output()
        .expect("ppm binary runs");
    assert_eq!(
        out.status.code(),
        Some(7),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --quiet keeps the banner (and everything else) off stderr on a
    // successful run.
    let dir = scratch("quiet");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args([
            "build",
            "--benchmark",
            "ammp",
            "--sample",
            "4",
            "--instructions",
            "2000",
            "--holdout",
            "0",
            "--no-ledger",
            "--quiet",
            "--live",
            "127.0.0.1:0",
            "--out",
        ])
        .arg(dir.join("m.txt"))
        .output()
        .expect("ppm binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("live plane listening"),
        "banner despite --quiet: {stderr}"
    );
}

#[test]
fn top_against_nothing_exits_7() {
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["top", &format!("127.0.0.1:{port}"), "--once"])
        .output()
        .expect("ppm binary runs");
    assert_eq!(out.status.code(), Some(7));
}
