//! `ppm tail`: a live terminal view of the serving plane's trace feed.
//!
//! Polls `GET /tracez?since_seq=<cursor>` and tabulates whatever the
//! tail sampler retained — errors, sheds, degraded answers, the
//! slowest requests, and a sampled slice of normal traffic. The cursor
//! advances past the highest sequence number seen, so each poll only
//! surfaces new records and a quiet service costs one small request
//! per interval. All output flows through the caller's `emit` closure
//! (this crate never prints); the CLI decides where lines go.

use std::time::Duration;

use ppm_live::http_get;
use ppm_telemetry::Json;

use crate::ServeError;

/// How `ppm tail` watches a serving plane.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// `host:port` of the `ppm serve` instance.
    pub addr: String,
    /// Delay between polls.
    pub interval: Duration,
    /// Render one poll (the current ring contents) and return.
    pub once: bool,
    /// Most-recent records to request per poll.
    pub limit: usize,
    /// Only show records with this outcome (wire name, e.g. `shed`).
    pub outcome: Option<String>,
    /// Only show records at least this slow (milliseconds).
    pub min_ms: Option<u64>,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            addr: String::new(),
            interval: Duration::from_millis(1000),
            once: false,
            limit: 64,
            outcome: None,
            min_ms: None,
        }
    }
}

const POLL_TIMEOUT: Duration = Duration::from_secs(5);

/// The column header `ppm tail` prints before its first record line.
pub fn tail_header() -> String {
    format!(
        "{:>8}  {:<20} {:<18} {:>4} {:>9} {:>6}  detail",
        "seq", "trace_id", "outcome", "code", "total_ms", "worker"
    )
}

/// Formats one retained trace record as a table row, or `None` when
/// the JSON value is not a record object.
fn format_record(rec: &Json) -> Option<(u64, String)> {
    let seq = rec
        .get("seq")
        .and_then(Json::as_i64)
        .map(|v| v.max(0) as u64)?;
    let id = rec.get("id").and_then(Json::as_str).unwrap_or("?");
    let outcome = rec.get("outcome").and_then(Json::as_str).unwrap_or("?");
    let status = rec.get("status").and_then(Json::as_i64).unwrap_or(0);
    let total_us = rec
        .get("total_us")
        .and_then(Json::as_i64)
        .map(|v| v.max(0) as u64)
        .unwrap_or(0);
    let worker = match rec.get("worker").and_then(Json::as_i64) {
        Some(w) => format!("{w}"),
        None => "-".to_string(),
    };
    let detail = rec.get("detail").and_then(Json::as_str).unwrap_or("");
    let mut id_col = id.to_string();
    if id_col.len() > 20 {
        id_col.truncate(19);
        id_col.push('…');
    }
    Some((
        seq,
        format!(
            "{seq:>8}  {id_col:<20} {outcome:<18} {status:>4} {:>9.3} {worker:>6}  {detail}",
            total_us as f64 / 1000.0
        ),
    ))
}

fn tracez_path(config: &TailConfig, since_seq: Option<u64>) -> String {
    let mut path = format!("/tracez?limit={}", config.limit);
    if let Some(seq) = since_seq {
        path.push_str(&format!("&since_seq={seq}"));
    }
    if let Some(outcome) = &config.outcome {
        path.push_str(&format!("&outcome={outcome}"));
    }
    if let Some(ms) = config.min_ms {
        path.push_str(&format!("&min_ms={ms}"));
    }
    path
}

/// One poll of `/tracez`: fetch, validate the schema, and format every
/// record newer than `since_seq`. Returns the formatted lines plus the
/// advanced cursor.
fn poll_once(
    config: &TailConfig,
    since_seq: Option<u64>,
) -> Result<(Vec<String>, Option<u64>), ServeError> {
    let path = tracez_path(config, since_seq);
    let (status, body) = http_get(&config.addr, &path, POLL_TIMEOUT)
        .map_err(|e| ServeError::Client(format!("cannot reach {}: {e}", config.addr)))?;
    if status != 200 {
        return Err(ServeError::Client(format!(
            "GET {path} answered {status}: {}",
            body.trim()
        )));
    }
    let doc =
        Json::parse(&body).map_err(|e| ServeError::Client(format!("/tracez is not JSON: {e}")))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(crate::trace::TRACEZ_SCHEMA) => {}
        other => {
            return Err(ServeError::Client(format!(
                "/tracez schema is {other:?}, wanted {:?}",
                crate::trace::TRACEZ_SCHEMA
            )))
        }
    }
    if doc.get("enabled").and_then(Json::as_bool) == Some(false) {
        return Err(ServeError::Client(format!(
            "tracing is disabled on {} (started with --no-trace)",
            config.addr
        )));
    }
    let mut lines = Vec::new();
    let mut cursor = since_seq;
    if let Some(records) = doc.get("records").and_then(Json::as_arr) {
        for rec in records {
            if let Some((seq, line)) = format_record(rec) {
                lines.push(line);
                cursor = Some(cursor.map_or(seq, |c: u64| c.max(seq)));
            }
        }
    }
    Ok((lines, cursor))
}

/// Streams the trace feed to `emit`, one formatted line per call,
/// starting with the column header. Polls every `config.interval`
/// until the process is interrupted — or returns after the first poll
/// with `config.once`.
///
/// # Errors
///
/// [`ServeError::Client`] when the very first poll fails (unreachable
/// address, non-200, bad schema, or tracing disabled). Later transient
/// failures are reported inline as `--` lines and retried, so a
/// restarting server does not kill an attached tail.
pub fn run_tail(config: &TailConfig, emit: &mut dyn FnMut(&str)) -> Result<(), ServeError> {
    emit(&tail_header());
    let mut since_seq: Option<u64> = None;
    let mut first = true;
    loop {
        match poll_once(config, since_seq) {
            Ok((lines, cursor)) => {
                for line in &lines {
                    emit(line);
                }
                since_seq = cursor;
            }
            Err(e) if first => return Err(e),
            Err(e) => emit(&format!("-- poll failed ({e}); retrying")),
        }
        first = false;
        if config.once {
            return Ok(());
        }
        std::thread::sleep(config.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_carries_cursor_and_filters() {
        let config = TailConfig {
            addr: "x".to_string(),
            outcome: Some("shed".to_string()),
            min_ms: Some(5),
            ..TailConfig::default()
        };
        let path = tracez_path(&config, Some(41));
        assert!(path.contains("since_seq=41"), "{path}");
        assert!(path.contains("outcome=shed"), "{path}");
        assert!(path.contains("min_ms=5"), "{path}");
        assert!(tracez_path(&config, None).starts_with("/tracez?limit=64"));
    }

    #[test]
    fn records_format_as_rows() {
        let doc = Json::parse(
            "{\"seq\":7,\"id\":\"ppm-000000000007\",\"outcome\":\"shed\",\"status\":503,\
             \"total_us\":2500,\"worker\":null,\"detail\":\"queue full\"}",
        )
        .expect("record json");
        let (seq, line) = format_record(&doc).expect("formats");
        assert_eq!(seq, 7);
        assert!(line.contains("ppm-000000000007"), "{line}");
        assert!(line.contains("shed"), "{line}");
        assert!(line.contains("503"), "{line}");
        assert!(line.contains("2.500"), "{line}");
        assert!(line.contains("queue full"), "{line}");
    }

    #[test]
    fn first_poll_failure_is_a_typed_error() {
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").port()
        };
        let config = TailConfig {
            addr: format!("127.0.0.1:{port}"),
            once: true,
            ..TailConfig::default()
        };
        let err = run_tail(&config, &mut |_| {}).expect_err("dead port");
        assert!(matches!(err, ServeError::Client(_)));
    }
}
