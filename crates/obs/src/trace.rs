//! Span-tree capture and Chrome-trace (Perfetto) export.
//!
//! A [`FlightRecorder`] is a telemetry sink that captures every span
//! closing and event with its monotonic timestamp and thread ordinal.
//! After the run it renders the capture as Chrome-trace JSON — the
//! `traceEvents` array format that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly — with one lane
//! per thread, so a parallel grid search shows its `ppm-exec` worker
//! shards as a real timeline.
//!
//! [`validate_chrome_trace`] re-parses an emitted file and checks the
//! structural invariants the viewers rely on; `scripts/verify.sh` runs
//! it over the smoke build's trace.

use std::fmt;
use std::sync::{Arc, Mutex};

use ppm_telemetry::{monotonic_us, thread_ordinal, Json, Record, Sink, Verbosity};

/// One captured trace entry.
#[derive(Debug, Clone)]
enum Entry {
    /// A closed span: a complete slice on its thread's lane.
    Span {
        name: String,
        start_us: u64,
        dur_us: u64,
        tid: u64,
        cpu_us: Option<u64>,
        depth: usize,
        parent: Option<String>,
    },
    /// A discrete event: an instant marker, stamped at arrival.
    Instant {
        name: String,
        ts_us: u64,
        tid: u64,
        depth: usize,
    },
}

/// Captures the full span tree and event stream of a run for trace
/// export. Install with [`FlightRecorder::sink`]; the recorder handle
/// stays usable after the sink is dropped (shared buffer).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink handle for [`ppm_telemetry::add_sink`]; records at Trace
    /// verbosity so nested spans and worker shards are captured.
    pub fn sink(&self) -> Box<dyn Sink> {
        Box::new(RecorderSink {
            entries: Arc::clone(&self.entries),
        })
    }

    /// Number of captured entries (spans + events).
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wall-clock and CPU totals per top-level span name (depth 0),
    /// aggregated in first-completion order. These are the per-stage
    /// timings the run ledger's header records.
    pub fn stage_timings(&self) -> Vec<StageTiming> {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let mut order: Vec<String> = Vec::new();
        let mut totals: std::collections::BTreeMap<String, (u64, Option<u64>)> =
            std::collections::BTreeMap::new();
        for e in entries.iter() {
            if let Entry::Span {
                name,
                dur_us,
                cpu_us,
                depth: 0,
                ..
            } = e
            {
                let slot = totals.entry(name.clone()).or_insert_with(|| {
                    order.push(name.clone());
                    (0, Some(0))
                });
                slot.0 += dur_us;
                slot.1 = match (slot.1, cpu_us) {
                    (Some(acc), Some(c)) => Some(acc + c),
                    _ => None, // any missing reading poisons the total
                };
            }
        }
        order
            .into_iter()
            .filter_map(|name| {
                totals.get(&name).map(|&(wall_us, cpu_us)| StageTiming {
                    name: name.clone(),
                    wall_us,
                    cpu_us,
                })
            })
            .collect()
    }

    /// Renders the capture as a Chrome-trace JSON document.
    ///
    /// Spans become complete (`"ph":"X"`) slices with `ts`/`dur` in
    /// microseconds on their thread's lane; events become instant
    /// (`"ph":"i"`) markers; thread-name metadata labels the lanes.
    pub fn chrome_trace_json(&self) -> String {
        let entries = self
            .entries
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let mut events: Vec<Json> = Vec::with_capacity(entries.len() + 4);
        let mut tids: Vec<u64> = Vec::new();
        let note_tid = |tids: &mut Vec<u64>, tid: u64| {
            if !tids.contains(&tid) {
                tids.push(tid);
            }
        };
        for e in entries.iter() {
            match e {
                Entry::Span {
                    name,
                    start_us,
                    dur_us,
                    tid,
                    cpu_us,
                    depth,
                    parent,
                } => {
                    note_tid(&mut tids, *tid);
                    let mut args = vec![("depth".to_string(), Json::from(*depth))];
                    if let Some(c) = cpu_us {
                        args.push(("cpu_us".to_string(), Json::from(*c)));
                    }
                    if let Some(p) = parent {
                        args.push(("parent".to_string(), Json::from(p.as_str())));
                    }
                    events.push(Json::obj([
                        ("ph", Json::from("X")),
                        ("name", Json::from(name.as_str())),
                        ("cat", Json::from("span")),
                        ("pid", Json::Int(1)),
                        ("tid", Json::from(*tid)),
                        ("ts", Json::from(*start_us)),
                        ("dur", Json::from(*dur_us)),
                        ("args", Json::Obj(args)),
                    ]));
                }
                Entry::Instant {
                    name,
                    ts_us,
                    tid,
                    depth,
                } => {
                    note_tid(&mut tids, *tid);
                    events.push(Json::obj([
                        ("ph", Json::from("i")),
                        ("name", Json::from(name.as_str())),
                        ("cat", Json::from("event")),
                        ("pid", Json::Int(1)),
                        ("tid", Json::from(*tid)),
                        ("ts", Json::from(*ts_us)),
                        ("s", Json::from("t")),
                        ("args", Json::obj([("depth", Json::from(*depth))])),
                    ]));
                }
            }
        }
        // Lane labels: the first thread to record telemetry (ordinal 0)
        // is the main pipeline thread.
        for tid in tids {
            let label = if tid == 0 {
                "main".to_string()
            } else {
                format!("worker-{tid}")
            };
            events.push(Json::obj([
                ("ph", Json::from("M")),
                ("name", Json::from("thread_name")),
                ("pid", Json::Int(1)),
                ("tid", Json::from(tid)),
                ("args", Json::obj([("name", Json::from(label))])),
            ]));
        }
        Json::obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
        .dump()
    }

    /// Writes the Chrome-trace JSON to `path` atomically (temp file +
    /// rename, the same convention as the result store).
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, writing, or renaming the file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        ppm_telemetry::write_atomic(path, self.chrome_trace_json().as_bytes())
    }
}

/// Per-stage wall/CPU totals derived from top-level spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Span name (e.g. `stage.rbf_train`).
    pub name: String,
    /// Total wall-clock microseconds across closings.
    pub wall_us: u64,
    /// Total process CPU microseconds, when every closing carried a
    /// reading (10 ms granularity on Linux).
    pub cpu_us: Option<u64>,
}

/// The installable sink half of a [`FlightRecorder`].
struct RecorderSink {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl Sink for RecorderSink {
    fn record(&mut self, rec: &Record) {
        let entry = match rec {
            Record::Span {
                name,
                us,
                start_us,
                tid,
                cpu_us,
                depth,
                parent,
            } => Entry::Span {
                name: name.clone(),
                start_us: *start_us,
                dur_us: *us,
                tid: *tid,
                cpu_us: *cpu_us,
                depth: *depth,
                parent: parent.clone(),
            },
            // Events carry no timestamp of their own; dispatch is
            // synchronous on the emitting thread, so stamping at
            // arrival is exact.
            Record::Event { name, depth, .. } => Entry::Instant {
                name: name.clone(),
                ts_us: monotonic_us(),
                tid: thread_ordinal(),
                depth: *depth,
            },
            Record::Metric(_) => return,
        };
        self.entries
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push(entry);
    }

    fn verbosity(&self) -> Verbosity {
        Verbosity::Trace
    }
}

/// A structural summary of a validated trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of complete (`"X"`) span slices.
    pub spans: usize,
    /// Number of instant (`"i"`) events.
    pub instants: usize,
    /// Number of distinct thread lanes.
    pub threads: usize,
}

/// A trace-validation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Chrome trace: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// Validates that `text` parses as a Chrome-trace JSON document: a
/// top-level object with a `traceEvents` array whose entries carry the
/// fields the viewers require (`ph`, `name`, `pid`, `tid`, and `ts` +
/// `dur` for complete slices).
///
/// # Errors
///
/// [`TraceError`] describing the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, TraceError> {
    let doc = Json::parse(text).map_err(|e| TraceError(e.to_string()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| TraceError("missing traceEvents array".to_string()))?;
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut tids: Vec<i64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| TraceError(format!("event {i}: missing ph")))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(TraceError(format!("event {i}: missing name")));
        }
        for field in ["pid", "tid"] {
            if ev.get(field).and_then(Json::as_i64).is_none() {
                return Err(TraceError(format!("event {i}: missing {field}")));
            }
        }
        if let Some(tid) = ev.get("tid").and_then(Json::as_i64) {
            if !tids.contains(&tid) {
                tids.push(tid);
            }
        }
        match ph {
            "X" => {
                for field in ["ts", "dur"] {
                    if ev.get(field).and_then(Json::as_i64).is_none() {
                        return Err(TraceError(format!("slice {i}: missing {field}")));
                    }
                }
                spans += 1;
            }
            "i" | "I" => {
                if ev.get("ts").and_then(Json::as_i64).is_none() {
                    return Err(TraceError(format!("instant {i}: missing ts")));
                }
                instants += 1;
            }
            "M" => {} // metadata
            other => {
                return Err(TraceError(format!(
                    "event {i}: unsupported phase {other:?}"
                )));
            }
        }
    }
    Ok(TraceSummary {
        spans,
        instants,
        threads: tids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_span(rec: &mut Box<dyn Sink>, name: &str, start: u64, dur: u64, tid: u64) {
        rec.record(&Record::Span {
            name: name.to_string(),
            us: dur,
            start_us: start,
            tid,
            cpu_us: Some(dur / 2),
            depth: if tid == 0 { 0 } else { 1 },
            parent: (tid != 0).then(|| "stage.parent".to_string()),
        });
    }

    #[test]
    fn exported_trace_validates_and_counts_lanes() {
        let recorder = FlightRecorder::new();
        let mut sink = recorder.sink();
        record_span(&mut sink, "stage.sampling", 0, 500, 0);
        record_span(&mut sink, "exec.rbf_grid.w0", 600, 300, 1);
        record_span(&mut sink, "exec.rbf_grid.w1", 600, 280, 2);
        sink.record(&Record::Event {
            name: "rbf.selected".to_string(),
            level: ppm_telemetry::Level::Info,
            fields: vec![],
            depth: 1,
        });
        let text = recorder.chrome_trace_json();
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 1);
        assert!(summary.threads >= 3, "worker lanes missing: {summary:?}");
    }

    #[test]
    fn stage_timings_aggregate_top_level_spans() {
        let recorder = FlightRecorder::new();
        let mut sink = recorder.sink();
        record_span(&mut sink, "stage.sampling", 0, 500, 0);
        record_span(&mut sink, "stage.rbf_train", 600, 900, 0);
        record_span(&mut sink, "stage.rbf_train", 1600, 100, 0);
        record_span(&mut sink, "exec.rbf_grid.w0", 700, 300, 1); // depth 1: excluded
        let stages = recorder.stage_timings();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "stage.sampling");
        assert_eq!(stages[0].wall_us, 500);
        assert_eq!(stages[1].name, "stage.rbf_train");
        assert_eq!(stages[1].wall_us, 1000);
        assert_eq!(stages[1].cpu_us, Some(500));
    }

    #[test]
    fn live_spans_are_captured_end_to_end() {
        // Real spans through the real dispatch path.
        ppm_telemetry::clear_sinks();
        let recorder = FlightRecorder::new();
        ppm_telemetry::add_sink(recorder.sink());
        {
            let _outer = ppm_telemetry::span("obs.live_outer");
            let _inner = ppm_telemetry::span("obs.live_inner");
        }
        ppm_telemetry::clear_sinks();
        let text = recorder.chrome_trace_json();
        let summary = validate_chrome_trace(&text).unwrap();
        assert!(summary.spans >= 2);
        assert!(text.contains("obs.live_outer") && text.contains("obs.live_inner"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        let missing_dur = r#"{"traceEvents":[{"ph":"X","name":"a","pid":1,"tid":0,"ts":5}]}"#;
        let e = validate_chrome_trace(missing_dur).unwrap_err();
        assert!(e.to_string().contains("dur"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let recorder = FlightRecorder::new();
        let summary = validate_chrome_trace(&recorder.chrome_trace_json()).unwrap();
        assert_eq!(
            summary,
            TraceSummary {
                spans: 0,
                instants: 0,
                threads: 0
            }
        );
    }
}
