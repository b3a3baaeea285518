//! The run ledger: a self-describing JSON manifest of one pipeline run.
//!
//! Every ledger document has two top-level blocks:
//!
//! * `header` — identity and timing: the run id, wall-clock creation
//!   time, and per-stage wall/CPU durations. These legitimately differ
//!   between otherwise identical runs.
//! * `body` — everything reproducible: the command, its full argument
//!   set, the relevant environment, a metric snapshot filtered to
//!   deterministic instruments, model-quality diagnostics, and an
//!   FNV-1a content hash over the rest of the body. Two runs with the
//!   same config, seed, and thread count must produce byte-identical
//!   bodies — the regression sentry and the acceptance tests rely on
//!   it.
//!
//! The format is versioned through the `schema` field
//! ([`LEDGER_SCHEMA`]), following the `ppm-checkpoint v1` convention.

use std::fmt;
use std::path::Path;

use ppm_telemetry::{Json, JsonError, MetricKind, MetricRecord};

// Re-exported for the benchmark harness, which imports
// `ppm_obs::ledger::fnv1a64_hex` and builds against this crate unchanged.
pub use ppm_telemetry::fnv1a64_hex;

use crate::trace::StageTiming;

/// The ledger format version tag.
pub const LEDGER_SCHEMA: &str = "ppm-ledger v1";

/// A run ledger under assembly; see the module docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Unique id of this run (embeds command, seed, and time).
    pub run_id: String,
    /// Wall-clock creation time, Unix milliseconds.
    pub created_unix_ms: u64,
    /// The CLI subcommand (`build`, `simulate`, ...).
    pub command: String,
    /// The run's effective arguments, sorted by flag name.
    pub args: Vec<(String, String)>,
    /// Relevant environment variables (`PPM_THREADS`, `PPM_TRACE`),
    /// with `""` for unset.
    pub env: Vec<(String, String)>,
    /// Metric snapshot; [`Ledger::body_json`] filters it through
    /// [`deterministic_metrics`].
    pub metrics: Vec<MetricRecord>,
    /// Model-quality diagnostics (held-out error stats, per-region
    /// residuals, selection parameters), when the command built a model.
    pub diagnostics: Option<Json>,
    /// Per-stage wall/CPU timings (header block).
    pub stages: Vec<StageTiming>,
    /// Total run wall time in microseconds (header block).
    pub total_wall_us: u64,
    /// Total process CPU time in microseconds, when available.
    pub total_cpu_us: Option<u64>,
}

impl Ledger {
    /// The deterministic body block, including its content hash.
    pub fn body_json(&self) -> Json {
        let mut body = self.body_without_hash();
        let hash = fnv1a64_hex(body.dump().as_bytes());
        if let Json::Obj(entries) = &mut body {
            entries.push(("content_hash".to_string(), Json::from(hash)));
        }
        body
    }

    fn body_without_hash(&self) -> Json {
        let args = self
            .args
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect();
        let env = self
            .env
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect();
        let metrics = deterministic_metrics(&self.metrics)
            .iter()
            .map(metric_json)
            .collect();
        Json::obj([
            ("schema", Json::from(LEDGER_SCHEMA)),
            ("command", Json::from(self.command.as_str())),
            ("args", Json::Obj(args)),
            ("env", Json::Obj(env)),
            ("metrics", Json::Arr(metrics)),
            (
                "diagnostics",
                self.diagnostics.clone().unwrap_or(Json::Null),
            ),
        ])
    }

    /// The content hash of the body (also embedded in it).
    pub fn content_hash(&self) -> String {
        fnv1a64_hex(self.body_without_hash().dump().as_bytes())
    }

    /// The header block: run identity and timings.
    pub fn header_json(&self) -> Json {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("wall_us", Json::from(s.wall_us)),
                    ("cpu_us", s.cpu_us.map(Json::from).unwrap_or(Json::Null)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::from(LEDGER_SCHEMA)),
            ("run_id", Json::from(self.run_id.as_str())),
            ("created_unix_ms", Json::from(self.created_unix_ms)),
            (
                "timings",
                Json::obj([
                    ("total_wall_us", Json::from(self.total_wall_us)),
                    (
                        "total_cpu_us",
                        self.total_cpu_us.map(Json::from).unwrap_or(Json::Null),
                    ),
                    ("stages", Json::Arr(stages)),
                ]),
            ),
        ])
    }

    /// The full two-block document.
    pub fn to_json(&self) -> Json {
        Json::obj([("header", self.header_json()), ("body", self.body_json())])
    }

    /// Serializes the full document (compact, one line).
    pub fn render(&self) -> String {
        self.to_json().dump()
    }

    /// Writes the document to `path` atomically (temp + rename),
    /// creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating directories or writing the file.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        ppm_telemetry::write_atomic(path, self.render().as_bytes())
    }
}

/// Loads and structurally checks a ledger file: must parse as JSON and
/// carry `header`/`body` blocks with the supported schema tag.
///
/// # Errors
///
/// [`LedgerError`] naming the file and what is wrong with it.
pub fn load_ledger(path: &Path) -> Result<Json, LedgerError> {
    let text = std::fs::read_to_string(path).map_err(|e| LedgerError {
        path: path.display().to_string(),
        message: format!("unreadable: {e}"),
    })?;
    let doc = Json::parse(&text).map_err(|e| LedgerError {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    for block in ["header", "body"] {
        let schema = doc
            .get(block)
            .and_then(|b| b.get("schema"))
            .and_then(Json::as_str);
        if schema != Some(LEDGER_SCHEMA) {
            return Err(LedgerError {
                path: path.display().to_string(),
                message: format!(
                    "{block} schema {:?} is not {LEDGER_SCHEMA:?}",
                    schema.unwrap_or("<missing>")
                ),
            });
        }
    }
    Ok(doc)
}

/// Verifies a loaded ledger body's embedded `content_hash` against a
/// recomputation over the rest of the body. Returns the hash on
/// success.
///
/// # Errors
///
/// [`LedgerError`] when the hash is absent or does not match.
pub fn verify_content_hash(doc: &Json) -> Result<String, LedgerError> {
    let body = doc.get("body").ok_or_else(|| LedgerError {
        path: String::new(),
        message: "missing body block".to_string(),
    })?;
    let embedded = body
        .get("content_hash")
        .and_then(Json::as_str)
        .ok_or_else(|| LedgerError {
            path: String::new(),
            message: "missing content_hash".to_string(),
        })?;
    let Json::Obj(entries) = body else {
        return Err(LedgerError {
            path: String::new(),
            message: "body is not an object".to_string(),
        });
    };
    let stripped: Vec<(String, Json)> = entries
        .iter()
        .filter(|(k, _)| k != "content_hash")
        .cloned()
        .collect();
    let recomputed = fnv1a64_hex(Json::Obj(stripped).dump().as_bytes());
    if recomputed != embedded {
        return Err(LedgerError {
            path: String::new(),
            message: format!("content_hash mismatch: embedded {embedded}, computed {recomputed}"),
        });
    }
    Ok(recomputed)
}

/// A ledger load/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerError {
    /// The offending file (may be empty for in-memory checks).
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "invalid ledger: {}", self.message)
        } else {
            write!(f, "invalid ledger {}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<JsonError> for LedgerError {
    fn from(e: JsonError) -> Self {
        LedgerError {
            path: String::new(),
            message: e.to_string(),
        }
    }
}

/// Filters a metric snapshot down to instruments that are reproducible
/// across identical fixed-seed runs.
///
/// Excluded: span-duration histograms (`span.*`), any instrument whose
/// name ends in a time unit (`.us`, `_us`, `.ms`, `_ms`), and the
/// executor's scheduling counters (`exec.idle`, `exec.steals`) — all of
/// these depend on wall-clock or thread interleaving. Timings belong in
/// the ledger header instead.
pub fn deterministic_metrics(snapshot: &[MetricRecord]) -> Vec<MetricRecord> {
    snapshot
        .iter()
        .filter(|m| {
            !m.name.starts_with("span.")
                && !m.name.ends_with(".us")
                && !m.name.ends_with("_us")
                && !m.name.ends_with(".ms")
                && !m.name.ends_with("_ms")
                && m.name != "exec.idle"
                && m.name != "exec.steals"
        })
        .cloned()
        .collect()
}

/// One metric as a ledger JSON object (same field names as the JSONL
/// sink's `metric` lines, minus the `"t"` tag).
fn metric_json(m: &MetricRecord) -> Json {
    let mut entries = vec![(
        "kind".to_string(),
        Json::from(match m.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }),
    )];
    entries.push(("name".to_string(), Json::from(m.name.as_str())));
    match m.kind {
        MetricKind::Counter => {
            entries.push(("value".to_string(), Json::from(m.value.unwrap_or(0))));
        }
        MetricKind::Gauge => {
            let v = m.gauge.unwrap_or(0.0);
            entries.push((
                "value".to_string(),
                if v.is_finite() {
                    Json::Float(v)
                } else {
                    Json::Null
                },
            ));
        }
        MetricKind::Histogram => {
            let (count, sum, min, max, p50, p95, p99) = m.hist.unwrap_or((0, 0, 0, 0, 0, 0, 0));
            for (k, v) in [
                ("count", count),
                ("sum", sum),
                ("min", min),
                ("max", max),
                ("p50", p50),
                ("p95", p95),
                ("p99", p99),
            ] {
                entries.push((k.to_string(), Json::from(v)));
            }
        }
    }
    Json::Obj(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> Ledger {
        Ledger {
            run_id: "build-1-abc".to_string(),
            created_unix_ms: 1_722_850_000_000,
            command: "build".to_string(),
            args: vec![
                ("--sample".to_string(), "40".to_string()),
                ("--seed".to_string(), "7".to_string()),
            ],
            env: vec![("PPM_THREADS".to_string(), String::new())],
            metrics: vec![
                MetricRecord {
                    name: "sim.batch_points".to_string(),
                    kind: MetricKind::Counter,
                    value: Some(40),
                    gauge: None,
                    hist: None,
                    buckets: None,
                    exemplar: None,
                },
                MetricRecord {
                    name: "span.stage.tree.us".to_string(),
                    kind: MetricKind::Histogram,
                    value: None,
                    gauge: None,
                    hist: Some((1, 100, 100, 100, 100, 100, 100)),
                    buckets: Some(vec![(100, 1)]),
                    exemplar: None,
                },
                MetricRecord {
                    name: "exec.rbf_grid.ms".to_string(),
                    kind: MetricKind::Gauge,
                    value: None,
                    gauge: Some(139.0),
                    hist: None,
                    buckets: None,
                    exemplar: None,
                },
                MetricRecord {
                    name: "exec.idle".to_string(),
                    kind: MetricKind::Counter,
                    value: Some(3),
                    gauge: None,
                    hist: None,
                    buckets: None,
                    exemplar: None,
                },
            ],
            diagnostics: Some(Json::obj([("mean_pct", Json::Float(2.1))])),
            stages: vec![StageTiming {
                name: "stage.rbf_train".to_string(),
                wall_us: 139_000,
                cpu_us: Some(500_000),
            }],
            total_wall_us: 1_000_000,
            total_cpu_us: Some(3_000_000),
        }
    }

    #[test]
    fn body_excludes_timing_dependent_metrics() {
        let body = sample_ledger().body_json().dump();
        assert!(body.contains("sim.batch_points"));
        assert!(!body.contains("span.stage.tree.us"));
        assert!(!body.contains("exec.rbf_grid.ms"));
        assert!(!body.contains("exec.idle"));
    }

    #[test]
    fn identical_ledgers_have_identical_bodies_despite_headers() {
        let mut a = sample_ledger();
        let mut b = sample_ledger();
        // Header-only fields differ between runs.
        b.run_id = "build-1-other".to_string();
        b.created_unix_ms += 12345;
        b.total_wall_us *= 2;
        b.stages[0].wall_us *= 3;
        a.total_cpu_us = Some(1);
        assert_eq!(a.body_json().dump(), b.body_json().dump());
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.header_json().dump(), b.header_json().dump());
    }

    #[test]
    fn body_changes_move_the_content_hash() {
        let a = sample_ledger();
        let mut b = sample_ledger();
        b.args[0].1 = "41".to_string();
        assert_ne!(a.content_hash(), b.content_hash());
        let mut c = sample_ledger();
        c.metrics[0].value = Some(41);
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn round_trip_through_disk_verifies() {
        let dir = std::env::temp_dir().join(format!("ppm-obs-test-{}", std::process::id()));
        let path = dir.join("ledger.json");
        let ledger = sample_ledger();
        ledger.write_atomic(&path).unwrap();
        let doc = load_ledger(&path).unwrap();
        assert_eq!(
            doc.get("header").unwrap().get("run_id").unwrap().as_str(),
            Some("build-1-abc")
        );
        let hash = verify_content_hash(&doc).unwrap();
        assert_eq!(hash, ledger.content_hash());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctored_body_fails_hash_verification() {
        let doc_text = sample_ledger().render().replace("\"build\"", "\"built\"");
        let doc = Json::parse(&doc_text).unwrap();
        let err = verify_content_hash(&doc).unwrap_err();
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn load_rejects_wrong_schema() {
        let dir = std::env::temp_dir().join(format!("ppm-obs-schema-{}", std::process::id()));
        let path = dir.join("bad.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            r#"{"header":{"schema":"ppm-ledger v0"},"body":{"schema":"ppm-ledger v1"}}"#,
        )
        .unwrap();
        let err = load_ledger(&path).unwrap_err();
        assert!(err.to_string().contains("ppm-ledger v0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64_hex(b"a"), "af63dc4c8601ec8c");
    }
}
