//! Output sinks for telemetry records.
//!
//! A [`Sink`] receives discrete [`Record`]s — events, span closings, and
//! metric snapshots — and renders them somewhere: human-readable
//! progress on stderr ([`StderrSink`]), machine-readable JSON lines
//! ([`JsonlSink`]), or an in-memory buffer for tests ([`BufferSink`]).
//! Sinks are installed globally via [`crate::add_sink`] and invoked in
//! installation order.

use std::io::Write as IoWrite;
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::registry::MetricRecord;

/// How much a sink should say.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Nothing at all (successful runs are silent).
    Quiet,
    /// Coarse progress: stage-level spans and events.
    Progress,
    /// Everything, including nested spans.
    Trace,
}

/// Severity of an [`Record::Event`]. Ordered so sinks can filter with a
/// simple comparison: `level >= Level::Warn` admits warnings and errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic detail, hidden unless tracing.
    Debug,
    /// Normal progress reporting (the historical default).
    Info,
    /// Something recoverable went wrong (retry, client disconnect).
    Warn,
    /// Something was lost (quarantined point, dropped artifact).
    Error,
}

impl Level {
    /// The lowercase wire name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One telemetry record, as handed to sinks.
#[derive(Debug, Clone)]
pub enum Record {
    /// A discrete named occurrence with scalar fields.
    Event {
        /// Event name (dotted, e.g. `rbf.selected`).
        name: String,
        /// Severity; `Warn`+ stays visible at `Progress` regardless of
        /// nesting depth.
        level: Level,
        /// Ordered field list.
        fields: Vec<(String, Json)>,
        /// Nesting depth of the span stack at emission time.
        depth: usize,
    },
    /// A span finished.
    Span {
        /// Span name (dotted, e.g. `stage.sampling`).
        name: String,
        /// Wall-clock duration in microseconds.
        us: u64,
        /// Start offset on the process-wide monotonic clock
        /// ([`crate::monotonic_us`]), in microseconds.
        start_us: u64,
        /// Recording thread's stable ordinal ([`crate::thread_ordinal`]).
        tid: u64,
        /// Process CPU time consumed while the span was open, if the
        /// platform provides readings (10 ms granularity on Linux).
        cpu_us: Option<u64>,
        /// Nesting depth (0 = top level).
        depth: usize,
        /// Name of the enclosing span, if any.
        parent: Option<String>,
    },
    /// A metric snapshot line (emitted at export time).
    Metric(MetricRecord),
}

impl Record {
    /// Serializes the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            Record::Event {
                name,
                level,
                fields,
                depth,
            } => Json::obj([
                ("t", Json::from("event")),
                ("name", Json::from(name.as_str())),
                ("level", Json::from(level.as_str())),
                ("depth", Json::from(*depth)),
                ("fields", Json::Obj(fields.clone())),
            ])
            .dump(),
            Record::Span {
                name,
                us,
                start_us,
                tid,
                cpu_us,
                depth,
                parent,
            } => Json::obj([
                ("t", Json::from("span")),
                ("name", Json::from(name.as_str())),
                ("us", Json::from(*us)),
                ("start_us", Json::from(*start_us)),
                ("tid", Json::from(*tid)),
                ("cpu_us", cpu_us.map_or(Json::Null, Json::from)),
                ("depth", Json::from(*depth)),
                ("parent", parent.as_deref().map_or(Json::Null, Json::from)),
            ])
            .dump(),
            Record::Metric(m) => m.to_json_line(),
        }
    }

    /// Renders the record as a human-readable progress line, or `None`
    /// if this record kind has no human rendering (metric snapshots).
    pub fn to_human_line(&self) -> Option<String> {
        match self {
            Record::Event {
                name,
                level,
                fields,
                depth,
            } => {
                let tag = match level {
                    Level::Warn | Level::Error => format!("{level}: "),
                    Level::Debug | Level::Info => String::new(),
                };
                let mut s = format!("{:indent$}{tag}{name}", "", indent = depth * 2);
                for (k, v) in fields {
                    s.push_str(&format!(" {k}={}", v.dump()));
                }
                Some(s)
            }
            Record::Span {
                name, us, depth, ..
            } => {
                let ms = *us as f64 / 1000.0;
                Some(format!(
                    "{:indent$}{name} done in {ms:.1} ms",
                    "",
                    indent = depth * 2
                ))
            }
            Record::Metric(_) => None,
        }
    }

    /// Whether a sink at `v` should see this record. Warnings and
    /// errors surface at `Progress` even when emitted inside nested
    /// spans; `Quiet` suppresses everything.
    pub fn visible_at(&self, v: Verbosity) -> bool {
        match self {
            Record::Metric(_) => v > Verbosity::Quiet,
            Record::Event { depth, level, .. } => match v {
                Verbosity::Quiet => false,
                Verbosity::Progress => *depth == 0 || *level >= Level::Warn,
                Verbosity::Trace => true,
            },
            Record::Span { depth, .. } => match v {
                Verbosity::Quiet => false,
                Verbosity::Progress => *depth == 0,
                Verbosity::Trace => true,
            },
        }
    }
}

/// A destination for telemetry records.
pub trait Sink: Send {
    /// Handles one record. Filtering by verbosity happens *before*
    /// this is called.
    fn record(&mut self, rec: &Record);
    /// The verbosity this sink wants.
    fn verbosity(&self) -> Verbosity;
    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// Human-readable progress lines on stderr.
#[derive(Debug)]
pub struct StderrSink {
    verbosity: Verbosity,
}

impl StderrSink {
    /// Creates a stderr reporter at the given verbosity.
    pub fn new(verbosity: Verbosity) -> Self {
        StderrSink { verbosity }
    }
}

impl Sink for StderrSink {
    fn record(&mut self, rec: &Record) {
        // Dispatch already filters by verbosity, but re-check here so a
        // Quiet reporter stays silent even if it is ever invoked
        // directly (defense in depth for `--quiet`).
        if !rec.visible_at(self.verbosity) {
            return;
        }
        if let Some(line) = rec.to_human_line() {
            // Not `eprintln!`, which panics when stderr is closed: a
            // reader that went away must not cost the logging thread.
            let _ = writeln!(std::io::stderr().lock(), "[ppm] {line}");
        }
    }

    fn verbosity(&self) -> Verbosity {
        self.verbosity
    }
}

/// JSON-lines exporter writing to any `Write` (typically a file).
pub struct JsonlSink<W: IoWrite + Send> {
    writer: W,
}

impl<W: IoWrite + Send> JsonlSink<W> {
    /// Creates a JSONL exporter over `writer`. Callers should wrap
    /// files in a `BufWriter`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }
}

impl<W: IoWrite + Send> Sink for JsonlSink<W> {
    fn record(&mut self, rec: &Record) {
        let _ = writeln!(self.writer, "{}", rec.to_json_line());
    }

    fn verbosity(&self) -> Verbosity {
        // The JSONL file always gets the full trace; it exists to be
        // filtered after the fact.
        Verbosity::Trace
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Captures records in memory; used by tests to assert on emissions.
#[derive(Debug, Clone, Default)]
pub struct BufferSink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl BufferSink {
    /// Creates an empty buffer sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clone of every record captured so far.
    pub fn records(&self) -> Vec<Record> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl Sink for BufferSink {
    fn record(&mut self, rec: &Record) {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(rec.clone());
    }

    fn verbosity(&self) -> Verbosity {
        Verbosity::Trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricKind, MetricRecord};

    #[test]
    fn event_records_serialize_with_escaped_fields() {
        let rec = Record::Event {
            name: "bench.loaded".to_string(),
            level: Level::Info,
            fields: vec![
                ("name".to_string(), Json::from("gcc \"O2\"\n")),
                ("points".to_string(), Json::from(64u64)),
                ("aicc".to_string(), Json::from(-12.5)),
            ],
            depth: 1,
        };
        assert_eq!(
            rec.to_json_line(),
            "{\"t\":\"event\",\"name\":\"bench.loaded\",\"level\":\"info\",\"depth\":1,\
             \"fields\":{\"name\":\"gcc \\\"O2\\\"\\n\",\"points\":64,\"aicc\":-12.5}}"
        );
    }

    #[test]
    fn span_records_serialize_with_parent() {
        let rec = Record::Span {
            name: "stage.tree".to_string(),
            us: 1500,
            start_us: 250,
            tid: 3,
            cpu_us: Some(1000),
            depth: 1,
            parent: Some("build".to_string()),
        };
        assert_eq!(
            rec.to_json_line(),
            "{\"t\":\"span\",\"name\":\"stage.tree\",\"us\":1500,\"start_us\":250,\
             \"tid\":3,\"cpu_us\":1000,\"depth\":1,\"parent\":\"build\"}"
        );
        let top = Record::Span {
            name: "build".to_string(),
            us: 9000,
            start_us: 0,
            tid: 0,
            cpu_us: None,
            depth: 0,
            parent: None,
        };
        assert!(top.to_json_line().contains("\"cpu_us\":null"));
        assert!(top.to_json_line().ends_with("\"parent\":null}"));
    }

    #[test]
    fn verbosity_filters_by_depth() {
        let top = Record::Span {
            name: "a".into(),
            us: 1,
            start_us: 0,
            tid: 0,
            cpu_us: None,
            depth: 0,
            parent: None,
        };
        let nested = Record::Span {
            name: "b".into(),
            us: 1,
            start_us: 0,
            tid: 0,
            cpu_us: None,
            depth: 2,
            parent: Some("a".into()),
        };
        assert!(!top.visible_at(Verbosity::Quiet));
        assert!(top.visible_at(Verbosity::Progress));
        assert!(!nested.visible_at(Verbosity::Progress));
        assert!(nested.visible_at(Verbosity::Trace));
    }

    #[test]
    fn quiet_stderr_sink_stays_silent_even_when_invoked_directly() {
        // StderrSink re-checks verbosity inside record(): a Quiet
        // reporter must not print even if dispatch filtering were
        // bypassed. We can't capture stderr here, but we can assert the
        // contract the filter relies on.
        let sink = StderrSink::new(Verbosity::Quiet);
        let rec = Record::Event {
            name: "noisy".into(),
            level: Level::Info,
            fields: vec![],
            depth: 0,
        };
        assert!(!rec.visible_at(sink.verbosity()));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&Record::Event {
            name: "x".into(),
            level: Level::Info,
            fields: vec![],
            depth: 0,
        });
        sink.record(&Record::Metric(MetricRecord {
            name: "c".into(),
            kind: MetricKind::Counter,
            value: Some(2),
            gauge: None,
            hist: None,
            buckets: None,
            exemplar: None,
        }));
        let text = String::from_utf8(sink.writer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":\"event\""));
        assert!(lines[1].starts_with("{\"t\":\"metric\""));
    }

    #[test]
    fn human_lines_indent_by_depth() {
        let rec = Record::Span {
            name: "stage.rbf_train".into(),
            us: 2500,
            start_us: 0,
            tid: 0,
            cpu_us: None,
            depth: 1,
            parent: Some("build".into()),
        };
        assert_eq!(
            rec.to_human_line().unwrap(),
            "  stage.rbf_train done in 2.5 ms"
        );
    }
}
