//! Per-hop aggregation of the serving plane's `ppm-tracez v1` feed.
//!
//! Each retained record carries its span timeline as offsets from
//! accept: `queue_wait` (accept to worker pickup), `eval` (route
//! handling) and `write` (response). The request head is read between
//! pickup and `eval`, which no span covers; that gap is reported as the
//! `read` hop so the four hops add up to the record's total.

use crate::scan::{field, objects};

/// Mean microseconds per hop over the matching records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Hops {
    /// Records aggregated.
    pub requests: usize,
    /// Accept to worker pickup.
    pub queue_wait_us: f64,
    /// Reading the request head.
    pub read_us: f64,
    /// Handling the route (for `/predict`: parse, evaluate, format).
    pub eval_us: f64,
    /// Writing the response.
    pub write_us: f64,
    /// Accept to done.
    pub total_us: f64,
}

fn num(obj: &str, key: &str) -> Option<f64> {
    field(obj, key)?.parse().ok()
}

/// Aggregates the 200-status records of `route` in a `/tracez`
/// document.
///
/// # Errors
///
/// A description when the document is not `ppm-tracez v1`, tracing is
/// off, no record matches, or a matching record lacks a span.
pub fn hops(doc: &str, route: &str) -> Result<Hops, String> {
    if field(doc, "schema") != Some("ppm-tracez v1") {
        return Err("not a ppm-tracez v1 document".to_string());
    }
    if field(doc, "enabled") != Some("true") {
        return Err("server tracing is disabled".to_string());
    }
    let records = doc
        .split_once("\"records\":")
        .map(|(_, rest)| rest)
        .ok_or("no records array")?;
    let mut sum = Hops::default();
    for rec in objects(records) {
        // Record-level fields all precede the span list.
        let (head, spans) = rec.split_once("\"spans\":").ok_or("record without spans")?;
        if field(head, "route") != Some(route) || field(head, "status") != Some("200") {
            continue;
        }
        let spans = objects(spans);
        let span = |name: &str, key: &str| {
            spans
                .iter()
                .find(|s| field(s, "name") == Some(name))
                .and_then(|s| num(s, key))
                .ok_or_else(|| format!("record {:?} lacks a {name} span", field(head, "id")))
        };
        let queue = span("queue_wait", "dur_us")?;
        let eval_start = span("eval", "start_us")?;
        sum.requests += 1;
        sum.queue_wait_us += queue;
        sum.read_us += (eval_start - queue).max(0.0);
        sum.eval_us += span("eval", "dur_us")?;
        sum.write_us += span("write", "dur_us")?;
        sum.total_us += num(head, "total_us").ok_or("record without total_us")?;
    }
    if sum.requests == 0 {
        return Err(format!("no retained 200 records for {route}"));
    }
    let n = sum.requests as f64;
    Ok(Hops {
        requests: sum.requests,
        queue_wait_us: sum.queue_wait_us / n,
        read_us: sum.read_us / n,
        eval_us: sum.eval_us / n,
        write_us: sum.write_us / n,
        total_us: sum.total_us / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two `/predict` records, a shed request and a reload, in the exact
    /// shape `TraceRecord::to_json` renders.
    const GOLDEN: &str = r#"{"schema":"ppm-tracez v1","enabled":true,"capacity":64,"retained":4,"records":[
{"id":"o-1","seq":7,"route":"/predict","outcome":"ok","status":200,"detail":"","worker":0,"total_us":150,"unix_ms":1,"spans":[{"name":"accept","start_us":0,"dur_us":0},{"name":"queue_wait","start_us":0,"dur_us":20},{"name":"eval","start_us":50,"dur_us":60},{"name":"write","start_us":110,"dur_us":40}]},
{"id":"o-2","seq":8,"route":"/predict","outcome":"ok","status":200,"detail":"","worker":1,"total_us":250,"unix_ms":2,"spans":[{"name":"accept","start_us":0,"dur_us":0},{"name":"queue_wait","start_us":0,"dur_us":40},{"name":"eval","start_us":90,"dur_us":100},{"name":"write","start_us":190,"dur_us":60}]},
{"id":"ppm-000000000009","seq":9,"route":"(shed)","outcome":"shed","status":503,"detail":"request queue full","worker":null,"total_us":5,"unix_ms":3,"spans":[{"name":"accept","start_us":0,"dur_us":0},{"name":"write","start_us":0,"dur_us":5}]},
{"id":"reload-0","seq":10,"route":"/reloadz","outcome":"ok","status":200,"detail":"","worker":0,"total_us":900,"unix_ms":4,"spans":[{"name":"accept","start_us":0,"dur_us":0},{"name":"queue_wait","start_us":0,"dur_us":10},{"name":"eval","start_us":30,"dur_us":850},{"name":"write","start_us":880,"dur_us":20}]}]}"#;

    #[test]
    fn aggregates_a_golden_document_by_hop() {
        let h = hops(GOLDEN, "/predict").unwrap();
        assert_eq!(h.requests, 2);
        assert_eq!(h.queue_wait_us, 30.0);
        assert_eq!(h.read_us, 40.0);
        assert_eq!(h.eval_us, 80.0);
        assert_eq!(h.write_us, 50.0);
        assert_eq!(h.total_us, 200.0);
        // The hops account for the whole server-side time.
        assert_eq!(
            h.queue_wait_us + h.read_us + h.eval_us + h.write_us,
            h.total_us
        );
        let r = hops(GOLDEN, "/reloadz").unwrap();
        assert_eq!((r.requests, r.total_us), (1, 900.0));
    }

    #[test]
    fn refuses_other_documents() {
        let off =
            r#"{"schema":"ppm-tracez v1","enabled":false,"capacity":0,"retained":0,"records":[]}"#;
        assert!(hops(off, "/predict").is_err());
        assert!(hops(r#"{"schema":"x"}"#, "/predict").is_err());
        assert!(hops(GOLDEN, "/statusz").is_err(), "no matching records");
    }
}
