//! The data and rendering layer behind `ppm top`: poll a live plane,
//! compute a completion rate, and draw one terminal frame.

use std::time::Duration;

use ppm_telemetry::Json;

use crate::client::http_get;
use crate::LiveError;

/// One poll of a live endpoint: the `/buildz` progress document plus
/// the recent quarantine events from `/eventz`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopSnapshot {
    /// Innermost open `stage.*` span, if any.
    pub stage: Option<String>,
    /// Milliseconds since the process's telemetry epoch.
    pub elapsed_ms: u64,
    /// Points planned across all batches so far.
    pub planned: u64,
    /// Points finished (including resumed and quarantined ones).
    pub done: u64,
    /// Points served from a checkpoint.
    pub resumed: u64,
    /// Total supervisor retries.
    pub retries: u64,
    /// Total quarantined points.
    pub quarantined: u64,
    /// Workers currently inside executor shards.
    pub workers_live: f64,
    /// Estimated milliseconds to completion, when computable.
    pub eta_ms: Option<u64>,
    /// Human-readable recent quarantine descriptions, oldest first.
    pub quarantine_log: Vec<String>,
    /// Populated instead of the build fields when the polled endpoint
    /// is a serving plane (`/buildz` 404s but `/statusz` answers).
    pub serve: Option<ServeView>,
}

/// One SLO burn-rate window as reported by the serving plane.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindowView {
    /// Window length in seconds (5, 60, or 300).
    pub window_s: u64,
    /// Requests observed inside the window.
    pub total: u64,
    /// Availability error-budget burn rate (1.0 = burning exactly at
    /// the objective; above 1.0 the budget shrinks).
    pub availability_burn: f64,
    /// Latency error-budget burn rate.
    pub latency_burn: f64,
}

/// The serving plane's `/statusz` condensed for a `ppm top` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeView {
    /// Version string of the model currently answering `/predict`.
    pub model_version: String,
    /// Lifetime request count.
    pub requests: u64,
    /// Lifetime 200s.
    pub ok: u64,
    /// Lifetime sheds (queue-full refusals).
    pub shed: u64,
    /// Lifetime degraded (analytical-fallback) answers.
    pub degraded: u64,
    /// Lifetime deadline expiries.
    pub deadline_exceeded: u64,
    /// Requests queued right now.
    pub queued: u64,
    /// Worker threads.
    pub workers: u64,
    /// Whether the service is sticky-degraded (model failing).
    pub sticky_degraded: bool,
    /// Whether request tracing is on.
    pub trace_enabled: bool,
    /// Trace records currently retained in the ring.
    pub trace_retained: u64,
    /// Fraction of the 5-minute availability error budget left
    /// (negative when overspent).
    pub availability_budget_remaining: f64,
    /// Fraction of the 5-minute latency error budget left.
    pub latency_budget_remaining: f64,
    /// Burn-rate windows, shortest first.
    pub windows: Vec<SloWindowView>,
}

fn u64_field(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_i64)
        .map(|v| v.max(0) as u64)
        .unwrap_or(0)
}

/// Polls `addr`'s `/buildz` and `/eventz` routes and assembles a
/// [`TopSnapshot`].
///
/// # Errors
///
/// [`LiveError::Io`] / [`LiveError::Http`] when the endpoint is
/// unreachable or unhappy, [`LiveError::Malformed`] when a payload does
/// not parse as the expected schema.
pub fn fetch_top(addr: &str, timeout: Duration) -> Result<TopSnapshot, LiveError> {
    let (status, body) = http_get(addr, "/buildz", timeout)?;
    if status == 404 {
        // Not a build plane. A serving plane has no /buildz but does
        // have /statusz — fall back to the serve view.
        return fetch_serve_top(addr, timeout);
    }
    if status != 200 {
        return Err(LiveError::Http {
            status,
            detail: body,
        });
    }
    let doc = Json::parse(&body)
        .map_err(|e| LiveError::Malformed(format!("/buildz is not JSON: {e}")))?;
    if doc.get("schema").and_then(Json::as_str) != Some("ppm-buildz v1") {
        return Err(LiveError::Malformed(
            "/buildz missing `ppm-buildz v1` schema header".to_string(),
        ));
    }
    let points = doc.get("points").cloned().unwrap_or(Json::Null);
    let mut snap = TopSnapshot {
        stage: doc
            .get("stage")
            .and_then(Json::as_str)
            .map(|s| s.to_string()),
        elapsed_ms: u64_field(&doc, "elapsed_ms"),
        planned: u64_field(&points, "planned"),
        done: u64_field(&points, "done"),
        resumed: u64_field(&points, "resumed"),
        retries: u64_field(&doc, "retries"),
        quarantined: u64_field(&doc, "quarantined"),
        workers_live: doc
            .get("workers_live")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        eta_ms: doc.get("eta_ms").and_then(Json::as_i64).map(|v| v as u64),
        quarantine_log: Vec::new(),
        serve: None,
    };
    // The quarantine list is best-effort colour: a failed /eventz fetch
    // must not blank the whole view.
    if let Ok((200, body)) = http_get(addr, "/eventz", timeout) {
        if let Ok(doc) = Json::parse(&body) {
            if let Some(events) = doc.get("events").and_then(Json::as_arr) {
                for e in events {
                    if e.get("name").and_then(Json::as_str) != Some("robust.quarantine") {
                        continue;
                    }
                    let fields = e.get("fields").cloned().unwrap_or(Json::Null);
                    let index = u64_field(&fields, "index");
                    let fault = fields
                        .get("fault")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown fault")
                        .to_string();
                    snap.quarantine_log.push(format!("point {index}: {fault}"));
                }
            }
        }
    }
    Ok(snap)
}

/// Polls a serving plane's `/statusz` and assembles the serve-flavored
/// [`TopSnapshot`] (build fields zeroed, `serve` populated).
fn fetch_serve_top(addr: &str, timeout: Duration) -> Result<TopSnapshot, LiveError> {
    let (status, body) = http_get(addr, "/statusz", timeout)?;
    if status != 200 {
        return Err(LiveError::Http {
            status,
            detail: body,
        });
    }
    let doc = Json::parse(&body)
        .map_err(|e| LiveError::Malformed(format!("/statusz is not JSON: {e}")))?;
    if doc.get("schema").and_then(Json::as_str) != Some("ppm-statusz v1") {
        return Err(LiveError::Malformed(
            "/statusz missing `ppm-statusz v1` schema header".to_string(),
        ));
    }
    let trace = doc.get("trace").cloned().unwrap_or(Json::Null);
    let slo = doc.get("slo").cloned().unwrap_or(Json::Null);
    let mut windows = Vec::new();
    if let Some(arr) = slo.get("windows").and_then(Json::as_arr) {
        for w in arr {
            windows.push(SloWindowView {
                window_s: u64_field(w, "window_s"),
                total: u64_field(w, "total"),
                availability_burn: w
                    .get("availability_burn")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                latency_burn: w.get("latency_burn").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
    }
    let view = ServeView {
        model_version: doc
            .get("model_version")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        requests: u64_field(&doc, "requests"),
        ok: u64_field(&doc, "ok"),
        shed: u64_field(&doc, "shed"),
        degraded: u64_field(&doc, "degraded"),
        deadline_exceeded: u64_field(&doc, "deadline_exceeded"),
        queued: u64_field(&doc, "queued"),
        workers: u64_field(&doc, "workers"),
        sticky_degraded: doc
            .get("sticky_degraded")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        trace_enabled: trace
            .get("enabled")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        trace_retained: u64_field(&trace, "retained"),
        availability_budget_remaining: slo
            .get("availability_budget_remaining")
            .and_then(Json::as_f64)
            .unwrap_or(1.0),
        latency_budget_remaining: slo
            .get("latency_budget_remaining")
            .and_then(Json::as_f64)
            .unwrap_or(1.0),
        windows,
    };
    Ok(TopSnapshot {
        stage: Some("serving".to_string()),
        elapsed_ms: 0,
        planned: 0,
        done: 0,
        resumed: 0,
        retries: 0,
        quarantined: 0,
        workers_live: view.workers as f64,
        eta_ms: None,
        quarantine_log: Vec::new(),
        serve: Some(view),
    })
}

/// Carries the previous poll across frames so the completion rate is a
/// true delta, not a lifetime average.
#[derive(Debug, Default)]
pub struct TopState {
    prev: Option<(u64, u64)>,
}

impl TopState {
    /// A fresh state (first frame shows no rate).
    pub fn new() -> Self {
        TopState::default()
    }

    /// Renders one frame and advances the rate window.
    pub fn frame(&mut self, addr: &str, snap: &TopSnapshot) -> String {
        let qps = match self.prev {
            Some((done, at_ms)) if snap.elapsed_ms > at_ms && snap.done >= done => {
                Some((snap.done - done) as f64 * 1000.0 / (snap.elapsed_ms - at_ms) as f64)
            }
            _ => None,
        };
        self.prev = Some((snap.done, snap.elapsed_ms));
        render_frame(addr, snap, qps)
    }
}

fn fmt_secs(ms: u64) -> String {
    format!("{:.1}s", ms as f64 / 1000.0)
}

/// Draws one `ppm top` frame as plain text: header, stage bar, rate
/// line, and recent quarantines. Pure string assembly — the CLI decides
/// whether to print it once (`--once`) or redraw in a loop.
pub fn render_frame(addr: &str, snap: &TopSnapshot, qps: Option<f64>) -> String {
    if let Some(serve) = &snap.serve {
        return render_serve_frame(addr, serve);
    }
    let mut out = String::with_capacity(512);
    out.push_str(&format!("ppm top — {addr}\n"));
    let stage = snap.stage.as_deref().unwrap_or("idle");
    let eta = match snap.eta_ms {
        Some(ms) => fmt_secs(ms),
        None => "--".to_string(),
    };
    out.push_str(&format!(
        "stage {stage}   elapsed {}   eta {eta}\n",
        fmt_secs(snap.elapsed_ms)
    ));
    const WIDTH: usize = 30;
    let (filled, pct) = if snap.planned > 0 {
        let frac = (snap.done as f64 / snap.planned as f64).clamp(0.0, 1.0);
        ((frac * WIDTH as f64).round() as usize, frac * 100.0)
    } else {
        (0, 0.0)
    };
    out.push_str(&format!(
        "points [{}{}] {}/{} ({pct:.1}%)  resumed {}\n",
        "#".repeat(filled.min(WIDTH)),
        "-".repeat(WIDTH - filled.min(WIDTH)),
        snap.done,
        snap.planned,
        snap.resumed
    ));
    let rate = match qps {
        Some(q) => format!("{q:.1} pts/s"),
        None => "--".to_string(),
    };
    out.push_str(&format!(
        "rate {rate}   workers {:.0}   retries {}   quarantined {}\n",
        snap.workers_live, snap.retries, snap.quarantined
    ));
    if !snap.quarantine_log.is_empty() {
        out.push_str("recent quarantines:\n");
        for q in snap.quarantine_log.iter().rev().take(5) {
            out.push_str(&format!("  {q}\n"));
        }
    }
    out
}

/// Draws one `ppm top` frame for a serving plane: traffic counters,
/// trace-ring occupancy, and the multi-window SLO burn rates.
fn render_serve_frame(addr: &str, serve: &ServeView) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(&format!("ppm top — {addr} (serving)\n"));
    out.push_str(&format!(
        "model {}   workers {}   queued {}{}\n",
        serve.model_version,
        serve.workers,
        serve.queued,
        if serve.sticky_degraded {
            "   STICKY-DEGRADED"
        } else {
            ""
        }
    ));
    out.push_str(&format!(
        "requests {}   ok {}   shed {}   degraded {}   deadline {}\n",
        serve.requests, serve.ok, serve.shed, serve.degraded, serve.deadline_exceeded
    ));
    out.push_str(&format!(
        "trace {}   retained {}\n",
        if serve.trace_enabled { "on" } else { "off" },
        serve.trace_retained
    ));
    for w in &serve.windows {
        out.push_str(&format!(
            "slo {:>4}s  n {:<7} avail burn {:.2}   latency burn {:.2}\n",
            w.window_s, w.total, w.availability_burn, w.latency_burn
        ));
    }
    out.push_str(&format!(
        "budget remaining  availability {:.1}%   latency {:.1}%\n",
        serve.availability_budget_remaining * 100.0,
        serve.latency_budget_remaining * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> TopSnapshot {
        TopSnapshot {
            stage: Some("simulation".to_string()),
            elapsed_ms: 4000,
            planned: 40,
            done: 10,
            resumed: 2,
            retries: 3,
            quarantined: 1,
            workers_live: 2.0,
            eta_ms: Some(12_000),
            quarantine_log: vec!["point 7: panicked: injected".to_string()],
            serve: None,
        }
    }

    #[test]
    fn frame_renders_progress_and_rate() {
        let mut state = TopState::new();
        let first = state.frame("127.0.0.1:1", &snap());
        assert!(first.contains("ppm top — 127.0.0.1:1"));
        assert!(first.contains("stage simulation"));
        assert!(first.contains("10/40 (25.0%)"));
        assert!(first.contains("eta 12.0s"));
        assert!(first.contains("rate --"), "no rate on the first frame");
        assert!(first.contains("point 7: panicked: injected"));

        let mut later = snap();
        later.done = 30;
        later.elapsed_ms = 8000;
        let second = state.frame("127.0.0.1:1", &later);
        // 20 points in 4 seconds.
        assert!(second.contains("rate 5.0 pts/s"), "{second}");
    }

    #[test]
    fn empty_plan_renders_without_division() {
        let empty = TopSnapshot {
            stage: None,
            elapsed_ms: 0,
            planned: 0,
            done: 0,
            resumed: 0,
            retries: 0,
            quarantined: 0,
            workers_live: 0.0,
            eta_ms: None,
            quarantine_log: Vec::new(),
            serve: None,
        };
        let frame = render_frame("x", &empty, None);
        assert!(frame.contains("stage idle"));
        assert!(frame.contains("0/0 (0.0%)"));
        assert!(frame.contains("eta --"));
    }

    #[test]
    fn serve_frames_show_slo_and_trace_state() {
        let mut s = snap();
        s.serve = Some(ServeView {
            model_version: "v3".to_string(),
            requests: 100,
            ok: 90,
            shed: 4,
            degraded: 5,
            deadline_exceeded: 1,
            queued: 2,
            workers: 4,
            sticky_degraded: true,
            trace_enabled: true,
            trace_retained: 37,
            availability_budget_remaining: 0.5,
            latency_budget_remaining: -0.25,
            windows: vec![SloWindowView {
                window_s: 5,
                total: 12,
                availability_burn: 1.5,
                latency_burn: 0.0,
            }],
        });
        let frame = render_frame("127.0.0.1:1", &s, None);
        assert!(frame.contains("(serving)"), "{frame}");
        assert!(frame.contains("model v3"), "{frame}");
        assert!(frame.contains("STICKY-DEGRADED"), "{frame}");
        assert!(frame.contains("shed 4"), "{frame}");
        assert!(frame.contains("retained 37"), "{frame}");
        assert!(frame.contains("avail burn 1.50"), "{frame}");
        assert!(frame.contains("availability 50.0%"), "{frame}");
        assert!(frame.contains("latency -25.0%"), "{frame}");
    }

    #[test]
    fn fetch_top_round_trips_against_a_live_server() {
        let registry = std::sync::Arc::new(ppm_telemetry::Registry::new());
        registry.counter("build.points_planned").add(8);
        registry.counter("build.points_done").add(2);
        let ring = ppm_telemetry::EventRing::new(8);
        {
            use ppm_telemetry::{Level, Record, Sink};
            let mut writer = ring.clone();
            writer.record(&Record::Event {
                name: "robust.quarantine".into(),
                level: Level::Error,
                fields: vec![
                    ("index".into(), Json::from(3u64)),
                    ("attempts".into(), Json::from(3u64)),
                    ("fault".into(), Json::from("panicked: injected")),
                ],
                depth: 1,
            });
        }
        let server = crate::LiveServer::start(
            "127.0.0.1:0",
            crate::RegistrySource::Shared(std::sync::Arc::clone(&registry)),
            ring,
        )
        .expect("bind");
        let snap =
            fetch_top(&server.addr().to_string(), Duration::from_secs(2)).expect("fetch top");
        assert_eq!(snap.planned, 8);
        assert_eq!(snap.done, 2);
        assert_eq!(snap.quarantine_log, vec!["point 3: panicked: injected"]);
    }

    #[test]
    fn fetch_top_reports_unreachable_endpoints_as_io() {
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").port()
        };
        let err = fetch_top(&format!("127.0.0.1:{port}"), Duration::from_millis(300))
            .expect_err("dead port");
        assert!(matches!(err, LiveError::Io(_)));
    }
}
