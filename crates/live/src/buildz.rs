//! The `/buildz` route: build progress as a `ppm-buildz v1` document.

use ppm_telemetry::{monotonic_us, Json, MetricKind, MetricRecord};

/// Reads a counter value out of a snapshot (0 when absent).
fn counter(snapshot: &[MetricRecord], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|m| m.kind == MetricKind::Counter && m.name == name)
        .and_then(|m| m.value)
        .unwrap_or(0)
}

/// Reads a gauge value out of a snapshot (0.0 when absent).
fn gauge(snapshot: &[MetricRecord], name: &str) -> f64 {
    snapshot
        .iter()
        .find(|m| m.kind == MetricKind::Gauge && m.name == name)
        .and_then(|m| m.gauge)
        .unwrap_or(0.0)
}

/// Renders build progress as the `ppm-buildz v1` JSON document:
/// current stage (from the process-wide stage stack), points
/// planned/done/resumed (the supervisor's counters), retry and
/// quarantine totals, per-stage wall time so far, live worker count,
/// elapsed time, and an ETA extrapolated from the completion rate
/// (`null` until at least one fresh point has finished).
pub fn render_buildz(snapshot: &[MetricRecord]) -> String {
    let elapsed_ms = monotonic_us() / 1000;
    let planned = counter(snapshot, "build.points_planned");
    let done = counter(snapshot, "build.points_done");
    let resumed = counter(snapshot, "build.points_resumed");

    // ETA: elapsed × remaining/done. Resumed points complete in ~zero
    // time, so exclude them from the rate when possible to avoid wild
    // underestimates right after a checkpoint load.
    let fresh_done = done.saturating_sub(resumed);
    let remaining = planned.saturating_sub(done);
    let eta_ms = if fresh_done > 0 && remaining > 0 {
        Json::from((elapsed_ms as f64 * remaining as f64 / fresh_done as f64) as u64)
    } else {
        Json::Null
    };

    let stages: Vec<Json> = snapshot
        .iter()
        .filter(|m| m.kind == MetricKind::Histogram)
        .filter_map(|m| {
            let stage = m.name.strip_prefix("span.stage.")?.strip_suffix(".us")?;
            let (count, sum, ..) = m.hist?;
            Some(Json::obj([
                ("name", Json::Str(stage.to_string())),
                ("count", Json::from(count)),
                ("wall_us", Json::from(sum)),
            ]))
        })
        .collect();

    Json::obj([
        ("schema", Json::Str("ppm-buildz v1".to_string())),
        (
            "stage",
            match ppm_telemetry::current_stage() {
                Some(s) => Json::Str(s),
                None => Json::Null,
            },
        ),
        ("elapsed_ms", Json::from(elapsed_ms)),
        (
            "points",
            Json::obj([
                ("planned", Json::from(planned)),
                ("done", Json::from(done)),
                ("resumed", Json::from(resumed)),
            ]),
        ),
        ("retries", Json::from(counter(snapshot, "robust.retries"))),
        (
            "quarantined",
            Json::from(counter(snapshot, "robust.quarantined")),
        ),
        (
            "workers_live",
            Json::Float(gauge(snapshot, "exec.workers_live")),
        ),
        ("eta_ms", eta_ms),
        ("stages", Json::Arr(stages)),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buildz_reports_progress_counters_and_stages() {
        let r = ppm_telemetry::Registry::new();
        r.counter("build.points_planned").add(40);
        r.counter("build.points_done").add(14);
        r.counter("build.points_resumed").add(4);
        r.counter("robust.retries").add(2);
        r.counter("robust.quarantined").inc();
        r.gauge("exec.workers_live").set(3.0);
        r.histogram("span.stage.simulation.us").record(5000);
        r.histogram("span.other.us").record(10);
        let doc = Json::parse(&render_buildz(&r.snapshot())).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-buildz v1")
        );
        let points = doc.get("points").expect("points object");
        assert_eq!(points.get("planned").and_then(Json::as_i64), Some(40));
        assert_eq!(points.get("done").and_then(Json::as_i64), Some(14));
        assert_eq!(points.get("resumed").and_then(Json::as_i64), Some(4));
        assert_eq!(doc.get("retries").and_then(Json::as_i64), Some(2));
        assert_eq!(doc.get("quarantined").and_then(Json::as_i64), Some(1));
        // 10 fresh points finished out of 26 remaining: ETA is a number.
        assert!(doc.get("eta_ms").and_then(Json::as_i64).is_some());
        let stages = match doc.get("stages") {
            Some(Json::Arr(items)) => items,
            other => panic!("stages not an array: {other:?}"),
        };
        // Only span.stage.* histograms appear.
        assert_eq!(stages.len(), 1);
        assert_eq!(
            stages[0].get("name").and_then(Json::as_str),
            Some("simulation")
        );
        assert_eq!(stages[0].get("wall_us").and_then(Json::as_i64), Some(5000));
    }

    #[test]
    fn eta_is_null_before_any_fresh_point_completes() {
        let r = ppm_telemetry::Registry::new();
        r.counter("build.points_planned").add(40);
        let doc = Json::parse(&render_buildz(&r.snapshot())).expect("valid JSON");
        assert_eq!(doc.get("eta_ms"), Some(&Json::Null));
        // Resumed-only progress also yields no rate.
        r.counter("build.points_done").add(5);
        r.counter("build.points_resumed").add(5);
        let doc = Json::parse(&render_buildz(&r.snapshot())).expect("valid JSON");
        assert_eq!(doc.get("eta_ms"), Some(&Json::Null));
    }
}
