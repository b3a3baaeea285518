//! The chaos acceptance test for the serving plane: a real `ppm serve`
//! subprocess under seeded fault injection (`--chaos`) and concurrent
//! load. The contract under fire:
//!
//! * the process never crashes;
//! * every accepted request is answered before its deadline or refused
//!   with an explicit 503 — never silently dropped, never answered late;
//! * degraded responses are flagged (`"degraded": true`) and counted
//!   (`serve.degraded`);
//! * a hot reload of a corrupt model rolls back to the last-known-good
//!   version with zero failed predictions.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use common::{build_and_publish, scratch, spawn_listening, spawn_serving, Reaped};
use ppm_live::http_get;
use ppm_telemetry::Json;

/// Generous socket budget: under chaos the service may shed or 503, but
/// it must always *answer* well inside this window (server-side I/O
/// budget is 2s, the default deadline 250ms).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Spawns `ppm serve 127.0.0.1:0 --chaos <seed>` and returns the child
/// plus the bound address parsed from the stderr banner.
fn spawn_chaos_serve(registry: &Path) -> (Reaped, String) {
    spawn_serving(
        Command::new(env!("CARGO_BIN_EXE_ppm"))
            .args([
                "serve",
                "127.0.0.1:0",
                "--chaos",
                "7",
                "--workers",
                "4",
                "--queue",
                "8",
                "--deadline-ms",
                "250",
                "--registry",
            ])
            .arg(registry),
    )
}

/// Tallies from one load wave. `transport` counts requests that never
/// got an HTTP response (connect refused/timed out) — under chaos the
/// kernel listen queue can bounce a connect, but an *accepted* request
/// must always be answered.
#[derive(Default)]
struct Wave {
    ok: AtomicU64,
    degraded: AtomicU64,
    refused_503: AtomicU64,
    transport: AtomicU64,
}

/// Fires `threads * per_thread` concurrent predictions and asserts the
/// response contract on every one: 200 with a finite prediction inside
/// the deadline, or an explicit 503.
fn load_wave(addr: &str, threads: usize, per_thread: usize, expect_version: &str) -> Wave {
    let wave = Wave::default();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let wave = &wave;
            scope.spawn(move || {
                for k in 0..per_thread {
                    let rob = [32, 48, 64, 96, 128, 160, 192, 256][(t + k) % 8];
                    let path = format!("/predict?rob={rob}");
                    match http_get(addr, &path, CLIENT_TIMEOUT) {
                        Ok((200, body)) => {
                            let doc = Json::parse(&body).expect("200 bodies are JSON");
                            let p = doc
                                .get("prediction")
                                .and_then(Json::as_f64)
                                .expect("200 bodies carry a prediction");
                            assert!(p.is_finite() && p > 0.0, "prediction {p} in {body}");
                            let deadline_ms =
                                doc.get("deadline_ms").and_then(Json::as_i64).unwrap();
                            let elapsed_ms = doc.get("elapsed_ms").and_then(Json::as_i64).unwrap();
                            // The deadline gate runs just before the body
                            // is serialized; allow a small scheduling skew
                            // between the gate and the elapsed_ms stamp.
                            assert!(
                                elapsed_ms <= deadline_ms + 50,
                                "late answer: {elapsed_ms}ms against {deadline_ms}ms"
                            );
                            let version = doc.get("model_version").and_then(Json::as_str).unwrap();
                            let degraded = doc.get("degraded").and_then(Json::as_bool).unwrap();
                            if degraded {
                                wave.degraded.fetch_add(1, Ordering::Relaxed);
                            } else {
                                assert_eq!(
                                    version, expect_version,
                                    "full-fidelity answer from the wrong model"
                                );
                            }
                            wave.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((503, _)) => {
                            wave.refused_503.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((status, body)) => panic!("unexpected {status}: {body}"),
                        Err(_) => {
                            wave.transport.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    wave
}

fn counter_from_statusz(addr: &str, key: &str) -> i64 {
    let (status, body) = http_get(addr, "/statusz", CLIENT_TIMEOUT).expect("statusz answers");
    assert_eq!(status, 200, "{body}");
    Json::parse(&body)
        .expect("statusz is JSON")
        .get(key)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("statusz has no {key}"))
}

#[test]
fn chaos_serve_survives_load_degrades_gracefully_and_rolls_back() {
    let dir = scratch("acceptance");
    let registry = dir.join("registry");
    let version = build_and_publish(&dir, &registry);
    let (mut child, addr) = spawn_chaos_serve(&registry);

    // Wave 1: concurrent load against the chaos-injected service.
    let wave = load_wave(&addr, 8, 50, &version);
    let sent = 8 * 50;
    let ok = wave.ok.load(Ordering::Relaxed);
    let refused = wave.refused_503.load(Ordering::Relaxed);
    let transport = wave.transport.load(Ordering::Relaxed);
    assert_eq!(
        ok + refused + transport,
        sent,
        "every request lands in exactly one bucket"
    );
    assert!(ok > 0, "no successful predictions under chaos");
    assert!(
        transport < sent / 4,
        "{transport}/{sent} requests never got an HTTP response"
    );
    // ~6% of evaluations fault (panic or NaN) under seed 7; each one
    // must surface as a flagged, analytically-served answer.
    assert!(
        wave.degraded.load(Ordering::Relaxed) > 0,
        "chaos faults never produced a degraded response"
    );
    assert!(
        counter_from_statusz(&addr, "degraded") > 0,
        "serve.degraded never incremented"
    );
    assert!(counter_from_statusz(&addr, "model_failures") > 0);

    // The Prometheus exposition carries the same counters.
    let (status, metrics) = http_get(&addr, "/metrics", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("ppm_serve_degraded"), "{metrics}");

    // The process is still alive after the storm.
    assert!(
        child.0.try_wait().expect("try_wait works").is_none(),
        "serve process died under chaos"
    );

    // Corrupt hot reload: point CURRENT at a garbage version. The
    // reload must be refused (409), the old model must keep serving,
    // and not one prediction may fail because of the attempt.
    std::fs::write(registry.join("deadbeef.model"), "not a model\n").unwrap();
    std::fs::write(registry.join("CURRENT"), "deadbeef\n").unwrap();
    let (status, body) =
        ppm_live::http_post(&addr, "/reloadz", CLIENT_TIMEOUT).expect("reloadz answers");
    assert_eq!(status, 409, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("version").and_then(Json::as_str),
        Some(version.as_str()),
        "rollback keeps the last-known-good version"
    );
    assert!(counter_from_statusz(&addr, "reload_failures") >= 1);

    // Wave 2: the service still answers from the original model.
    let wave = load_wave(&addr, 2, 10, &version);
    assert!(
        wave.ok.load(Ordering::Relaxed) > 0,
        "no predictions after the failed reload"
    );

    // Restore CURRENT and reload: back to a clean swap (unchanged).
    std::fs::write(registry.join("CURRENT"), format!("{version}\n")).unwrap();
    let (status, body) = ppm_live::http_post(&addr, "/reloadz", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200, "{body}");

    // Clean shutdown through the control surface: exit code 0.
    let (status, _) = ppm_live::http_post(&addr, "/quitz", CLIENT_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let exit = child.0.wait().expect("serve exits");
    assert!(exit.success(), "serve exited {exit:?}");
}

#[test]
fn serve_without_a_model_or_fallback_exits_8() {
    let dir = scratch("exit8");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["serve", "127.0.0.1:0", "--registry"])
        .arg(dir.join("empty-registry"))
        .output()
        .expect("ppm binary runs");
    assert_eq!(
        out.status.code(),
        Some(8),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A service whose stderr reader went away still answers: the warning
/// it logs for an unreadable request head must not panic the worker
/// before the 400 is written.
#[test]
fn a_closed_stderr_does_not_cost_a_request() {
    let dir = scratch("closed-stderr");
    let (_serve, addr, stderr) = spawn_listening(
        Command::new(env!("CARGO_BIN_EXE_ppm"))
            .args(["serve", "127.0.0.1:0", "--benchmark", "ammp", "--registry"])
            .arg(dir.join("registry")),
    );
    drop(stderr);
    // Half-close mid-head: the server reads EOF before the blank line.
    let mut conn = TcpStream::connect(&addr).expect("connects");
    conn.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    conn.write_all(b"GET /predict HTTP/1.1\r\nHost: x").unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    let _ = conn.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
}
