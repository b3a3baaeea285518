//! Golden tests pinning every wire format in the registry
//! (`crates/lint/src/wire.rs`, `KNOWN_FORMATS`).
//!
//! Each test drives the real emitter: reports, rings, and checkpoints
//! directly, and the server bodies (`/predict`, `/statusz`) through a
//! live analytical `ppm serve`, whose exact top-level key set is pinned
//! too. Each compares the schema field against the literal version
//! string with `==`. That comparison is deliberate: `ppm lint` requires every
//! registered format to have both a test pin and a parse/validation
//! site, and these assertions are exactly that contract. Bumping a
//! version string without updating the registry, the parser, and this
//! file fails `ppm lint` and these tests at the same time.
//!
//! Every emitted document is also checked to be in canonical form:
//! parsing it and writing it back gives the same bytes, so one codec
//! wrote it.
//!
//! The two text files `ppm build` keeps, the model file and the
//! checkpoint journal, are pinned byte for byte, checksum line included.

mod common;

use common::scratch;
use ppm_telemetry::Json;

/// Parses `text` as JSON and returns its top-level `"schema"` string.
fn schema_of(text: &str) -> Option<String> {
    let doc = Json::parse(text).ok()?;
    doc.get("schema").and_then(Json::as_str).map(str::to_string)
}

/// Asserts `text` equals `Json::parse(text)?.dump()`, ignoring one
/// trailing newline.
fn assert_canonical(text: &str) {
    let doc = Json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(doc.dump(), text.strip_suffix('\n').unwrap_or(text));
}

#[test]
fn buildz_document_schema_is_pinned() {
    let text = ppm_live::render_buildz(&[]);
    assert!(
        schema_of(&text).as_deref() == Some("ppm-buildz v1"),
        "{text}"
    );
    assert_canonical(&text);
}

#[test]
fn checkpoint_header_is_pinned() {
    let mut journal = ppm_core::Checkpoint::create(
        std::env::temp_dir().join("ppm-wire-golden.ckpt"),
        &[("seed".to_string(), "7".to_string())],
    );
    // Recorded out of key order: the journal lists points sorted.
    journal.record(&[0.5, 4.0], -1.25);
    journal.record(&[1.0, 2.0], 3.5);
    let text = journal.to_text();
    assert!(text.lines().next() == Some("ppm-checkpoint v1"), "{text}");
    assert_eq!(
        text,
        "ppm-checkpoint v1\n\
         meta seed 7\n\
         point 1.00000000000000000e0 2.00000000000000000e0 | 3.50000000000000000e0 | 78fda520200a289f\n\
         point 5.00000000000000000e-1 4.00000000000000000e0 | -1.25000000000000000e0 | e24fcdf48d74cc96\n\
         checksum 4e50af9aedc4d3b1\n"
    );
}

#[test]
fn eventz_document_schema_is_pinned() {
    let ring = ppm_telemetry::EventRing::new(4);
    ppm_telemetry::Sink::record(
        &mut ring.clone(),
        &ppm_telemetry::Record::Event {
            name: "wire.golden".to_string(),
            level: ppm_telemetry::Level::Warn,
            fields: vec![
                ("workers".to_string(), Json::from(4.0)),
                ("note".to_string(), Json::from("a \"b\"\n")),
            ],
            depth: 0,
        },
    );
    let text = ring.render_json();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-eventz v1"),
        "{text}"
    );
    assert_canonical(&text);
}

#[test]
fn ledger_schema_constant_is_pinned() {
    assert!(ppm_obs::ledger::LEDGER_SCHEMA == "ppm-ledger v1");
}

#[test]
fn lint_report_schema_is_pinned() {
    let text = ppm_lint::Report::default().render_json();
    assert!(schema_of(&text).as_deref() == Some("ppm-lint v2"), "{text}");
    assert_canonical(&text);
}

fn loadtest_report() -> ppm_serve::LoadtestReport {
    ppm_serve::LoadtestReport {
        sent: 10,
        ok: 8,
        degraded: 1,
        shed: 1,
        deadline_exceeded: 0,
        errors: 1,
        p50_ms: 1.0,
        p95_ms: 2.0,
        p99_ms: 3.0,
        mean_ms: 1.5,
        refusal_p50_ms: 0.2,
        refusal_p99_ms: 0.4,
        refusal_mean_ms: 0.3,
        wall_ms: 100.0,
        rps: 100.0,
        trace_check: None,
    }
}

#[test]
fn loadtest_report_schema_is_pinned() {
    let text = loadtest_report().to_json().dump();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-loadtest v1"),
        "{text}"
    );
    assert_canonical(&text);
}

#[test]
fn loadtest_ab_report_schema_is_pinned() {
    let report = ppm_serve::AbReport {
        traced: loadtest_report(),
        baseline: loadtest_report(),
        overhead_pct: 0.0,
    };
    let text = report.to_json().dump();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-loadtest-ab v1"),
        "{text}"
    );
    assert_canonical(&text);
}

#[test]
fn model_file_header_is_pinned() {
    let basis = ppm_rbf::Rbf::new(vec![0.5, 0.5], vec![1.0, 1.0]);
    let network = ppm_rbf::RbfNetwork::new(vec![basis], vec![2.0]);
    let meta = [("benchmark".to_string(), "mcf".to_string())];
    let text = ppm_core::persist::to_string(&network, &meta);
    assert!(text.lines().next() == Some("ppm-rbf-model v1"), "{text}");
    assert_eq!(
        text,
        "ppm-rbf-model v1\n\
         meta benchmark mcf\n\
         dim 2\n\
         centers 1\n\
         rbf 5.00000000000000000e-1 5.00000000000000000e-1 | 1.00000000000000000e0 1.00000000000000000e0 | 2.00000000000000000e0\n\
         checksum 89737fb30d312cc0\n"
    );
}

/// A minimal but structurally complete `ppm-ledger v1` run document —
/// the shape `ppm report` compares.
fn ledger_fixture() -> Json {
    let text = r#"{
      "header": {
        "schema": "ppm-ledger v1",
        "run_id": "wire-golden",
        "created_unix_ms": 0,
        "timings": {
          "total_wall_us": 100000,
          "total_cpu_us": null,
          "stages": [
            {"name": "stage.rbf_train", "wall_us": 100000, "cpu_us": null}
          ]
        }
      },
      "body": {
        "schema": "ppm-ledger v1",
        "command": "build",
        "args": {"--seed": "7"},
        "env": {},
        "metrics": [
          {"kind": "counter", "name": "sim.batch_points", "value": 40}
        ],
        "diagnostics": {
          "holdout": {"mean_pct": 2.0, "max_pct": 6.0},
          "regions": [
            {"leaf": 0, "count": 10, "mean_abs_pct": 1.5, "max_abs_pct": 4.0}
          ],
          "aicc": -12.0
        }
      }
    }"#;
    Json::parse(text).expect("ledger fixture parses")
}

#[test]
fn regression_report_schema_is_pinned() {
    let doc = ledger_fixture();
    let report = ppm_obs::compare(&doc, &doc).expect("self-compare succeeds");
    let text = report.to_json().dump();
    assert!(
        schema_of(&text).as_deref() == Some("ppm-report v1"),
        "{text}"
    );
}

/// GETs `path` from a fresh analytical `ppm serve` (empty registry,
/// fallback benchmark) and returns the body's schema and its sorted
/// top-level keys.
fn served_schema_and_keys(tag: &str, path: &str) -> (Option<String>, Vec<String>) {
    let dir = scratch(tag);
    let server = ppm_serve::ServeServer::start(ppm_serve::ServeConfig {
        registry: dir.join("registry"),
        fallback_benchmark: Some(ppm_workload::Benchmark::Ammp),
        ..ppm_serve::ServeConfig::default()
    })
    .expect("analytical server starts");
    let (status, body) = ppm_live::http_get(
        &server.addr().to_string(),
        path,
        std::time::Duration::from_secs(5),
    )
    .expect("server answers");
    assert_eq!(status, 200, "{body}");
    assert_canonical(&body);
    let doc = Json::parse(&body).expect("body is JSON");
    let mut keys: Vec<String> = doc
        .as_obj()
        .expect("body is an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    keys.sort();
    let _ = std::fs::remove_dir_all(&dir);
    (schema_of(&body), keys)
}

#[test]
fn predict_body_schema_is_pinned() {
    let (schema, keys) = served_schema_and_keys("predict", "/predict?rob=96");
    assert!(schema.as_deref() == Some("ppm-serve v1"), "{schema:?}");
    assert_eq!(
        keys,
        [
            "benchmark",
            "deadline_ms",
            "degraded",
            "degraded_reason",
            "elapsed_ms",
            "metric",
            "model_version",
            "prediction",
            "schema",
            "trace_id",
        ]
    );
}

#[test]
fn statusz_body_schema_is_pinned() {
    let (schema, keys) = served_schema_and_keys("statusz", "/statusz");
    assert!(schema.as_deref() == Some("ppm-statusz v1"), "{schema:?}");
    assert_eq!(
        keys,
        [
            "benchmark",
            "chaos",
            "deadline_exceeded",
            "degrade_depth",
            "degraded",
            "degraded_by_reason",
            "fail_streak",
            "metric",
            "model_failures",
            "model_version",
            "ok",
            "queue_capacity",
            "queued",
            "reload_failures",
            "reloads",
            "requests",
            "schema",
            "shed",
            "shed_by_reason",
            "slo",
            "sticky_degraded",
            "trace",
            "workers",
        ]
    );
}

#[test]
fn tracez_document_schema_is_pinned() {
    let ring = ppm_serve::TraceRing::new(ppm_serve::TraceConfig::default());
    for seq in 0..2 {
        ring.offer(ppm_serve::TraceRecord {
            id: format!("wire-{seq}"),
            seq,
            route: "/predict".to_string(),
            outcome: ppm_serve::TraceOutcome::Shed,
            status: 503,
            detail: "request queue full".to_string(),
            worker: None,
            total_us: 40,
            spans: vec![ppm_serve::SpanRec {
                name: "accept",
                start_us: 0,
                dur_us: 40,
            }],
            unix_ms: 0,
        });
    }
    let text = ring.render_tracez(&ppm_serve::TraceFilter::default());
    assert!(
        schema_of(&text).as_deref() == Some("ppm-tracez v1"),
        "{text}"
    );
    assert_canonical(&text);
    let records = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("records").and_then(Json::as_arr).map(<[Json]>::len));
    assert_eq!(records, Some(2), "{text}");
    assert!(ppm_serve::TRACEZ_SCHEMA == "ppm-tracez v1");
    let disabled = ppm_serve::trace::render_tracez_disabled();
    assert!(
        schema_of(&disabled).as_deref() == Some("ppm-tracez v1"),
        "{disabled}"
    );
    assert_canonical(&disabled);
}
