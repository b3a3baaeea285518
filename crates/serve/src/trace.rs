//! `ppm-trace`: per-request observability for the serving plane.
//!
//! Aggregate counters say *how much* went wrong; this module remembers
//! *which requests* went wrong, and what their time went into. Three
//! pieces:
//!
//! * [`TraceContext`] — a deterministic per-request identity: the
//!   accept-sequence number plus a trace ID, either derived from the
//!   sequence (`ppm-{seq:012x}`) or supplied by the client in the
//!   `X-Ppm-Trace` header and echoed back.
//! * [`TraceRing`] — a ring of completed [`TraceRecord`]s behind one
//!   lock, fed through a **tail sampler**: every
//!   non-2xx-shaped outcome (shed, deadline-expired, degraded,
//!   panic-contained) is kept unconditionally, the slowest-N requests
//!   by total latency are kept, and plain OK traffic is kept 1-in-K.
//!   Retention decisions are counted (`serve.trace.retained`,
//!   `serve.trace.sampled_out`, `serve.trace.evicted`) so the ring
//!   never silently lies about coverage.
//! * [`SloTracker`] — multi-window error-budget accounting over the
//!   same per-request outcomes: availability (non-shed, non-failed)
//!   and a latency objective, burn rates over 5s/1m/5m windows, and
//!   budget-remaining over the long window.
//!
//! This module is deliberately **clock-free**: every timestamp
//! (`start_us` offsets, unix seconds) is produced by `clock.rs` — the
//! one wall-clock-exempt module — and passed in, so the `wall-clock`
//! lint keeps holding for the trace layer itself.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ppm_telemetry::Json;

/// How many one-second accounting slots the SLO tracker keeps — the
/// longest burn-rate window (5 minutes).
const SLO_SLOTS: usize = 300;

/// The schema line served at `GET /tracez`.
pub const TRACEZ_SCHEMA: &str = "ppm-tracez v1";

/// A request's identity, fixed at accept time.
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// Accept-sequence number (monotone per server instance).
    pub seq: u64,
    /// The trace ID: the client's `X-Ppm-Trace` value when one was
    /// sent (truncated to 64 bytes), else `ppm-{seq:012x}`.
    pub id: String,
}

impl TraceContext {
    /// Builds the context for accept-sequence `seq`, honoring a
    /// client-supplied ID when present and non-empty.
    pub fn new(seq: u64, client_id: Option<&str>) -> Self {
        let id = match client_id.map(str::trim) {
            Some(c) if !c.is_empty() => c.chars().take(64).collect(),
            _ => format!("ppm-{seq:012x}"),
        };
        TraceContext { seq, id }
    }
}

/// Where a request's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered 200 with a full-fidelity prediction.
    Ok,
    /// Answered 200 from the analytical fallback (`"degraded":true`).
    Degraded,
    /// Refused at the door: queue full or shed-all drill.
    Shed,
    /// The deadline expired while queued or during evaluation.
    DeadlineExpired,
    /// The model evaluation panicked and was contained; the request
    /// was still answered (degraded) but the panic is the story.
    PanicContained,
}

impl TraceOutcome {
    /// The wire name used in `ppm-tracez v1` and `?outcome=` filters.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Degraded => "degraded",
            TraceOutcome::Shed => "shed",
            TraceOutcome::DeadlineExpired => "deadline_expired",
            TraceOutcome::PanicContained => "panic_contained",
        }
    }

    /// Parses a wire name back; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(TraceOutcome::Ok),
            "degraded" => Some(TraceOutcome::Degraded),
            "shed" => Some(TraceOutcome::Shed),
            "deadline_expired" => Some(TraceOutcome::DeadlineExpired),
            "panic_contained" => Some(TraceOutcome::PanicContained),
            _ => None,
        }
    }

    /// True for the outcomes the tail sampler must never drop.
    pub fn always_keep(self) -> bool {
        !matches!(self, TraceOutcome::Ok)
    }
}

/// One step of a request's timeline, as offsets from accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Step name: `accept`, `queue_wait`, `eval`, `write`.
    pub name: &'static str,
    /// Microseconds after accept at which the step began.
    pub start_us: u64,
    /// The step's duration in microseconds.
    pub dur_us: u64,
}

/// The complete after-the-fact record of one request.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace ID (seq-derived or client-supplied).
    pub id: String,
    /// Accept-sequence number.
    pub seq: u64,
    /// The route that was hit (`/predict`, `/metrics`, ...).
    pub route: String,
    /// Terminal outcome.
    pub outcome: TraceOutcome,
    /// HTTP status that was written (0 when the write itself failed).
    pub status: u16,
    /// Detail string: degrade reason, shed reason, failure text.
    pub detail: String,
    /// Worker shard that served the request; `None` for requests shed
    /// before reaching the pool.
    pub worker: Option<usize>,
    /// Total accept-to-done latency in microseconds.
    pub total_us: u64,
    /// The span timeline (offsets from accept).
    pub spans: Vec<SpanRec>,
    /// Unix milliseconds at completion (provenance only; produced by
    /// `clock.rs`).
    pub unix_ms: u64,
}

impl TraceRecord {
    /// The record as one `ppm-tracez v1` JSON object.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|span| {
            Json::obj([
                ("name", Json::from(span.name)),
                ("start_us", Json::from(span.start_us)),
                ("dur_us", Json::from(span.dur_us)),
            ])
        });
        Json::obj([
            ("id", Json::from(self.id.as_str())),
            ("seq", Json::from(self.seq)),
            ("route", Json::from(self.route.as_str())),
            ("outcome", Json::from(self.outcome.as_str())),
            ("status", Json::from(u64::from(self.status))),
            ("detail", Json::from(self.detail.as_str())),
            ("worker", self.worker.map_or(Json::Null, Json::from)),
            ("total_us", Json::from(self.total_us)),
            ("unix_ms", Json::from(self.unix_ms)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// Tail-sampling policy knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// How many records the ring holds; past it the oldest is evicted
    /// first. Zero retains nothing.
    pub capacity: usize,
    /// Keep 1 in this many plain-OK requests (after the slowest-N
    /// check). 1 keeps everything; 0 keeps none beyond the slowest-N.
    pub sample_one_in: u64,
    /// Always keep the slowest N requests seen so far by total
    /// latency, whatever their outcome.
    pub slow_keep: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 4096,
            sample_one_in: 64,
            slow_keep: 32,
        }
    }
}

/// The ring of retained trace records, behind one lock.
///
/// `offer` is the only write path and takes that lock once: the
/// records, the slowest-N list and the 1-in-K tick change together.
/// Eviction is FIFO at exactly `capacity`.
pub struct TraceRing {
    config: TraceConfig,
    state: Mutex<RingState>,
    retained: Arc<ppm_telemetry::Counter>,
    sampled_out: Arc<ppm_telemetry::Counter>,
    evicted: Arc<ppm_telemetry::Counter>,
}

/// What [`TraceRing`]'s lock guards.
#[derive(Default)]
struct RingState {
    records: VecDeque<TraceRecord>,
    /// The slowest-N latencies seen so far, ascending.
    slow: Vec<u64>,
    /// Plain-OK requests that have reached the 1-in-K lottery.
    tick: u64,
}

/// Filters accepted by [`TraceRing::snapshot`] — the `/tracez` query
/// surface.
#[derive(Debug, Clone, Default)]
pub struct TraceFilter {
    /// Only records with this outcome.
    pub outcome: Option<TraceOutcome>,
    /// Only records at least this slow (microseconds).
    pub min_us: Option<u64>,
    /// Only records whose ID starts with this prefix.
    pub id_prefix: Option<String>,
    /// Only records with `seq > since_seq` (live tailing cursor).
    pub since_seq: Option<u64>,
    /// Keep only the most recent N matches.
    pub limit: Option<usize>,
}

impl TraceFilter {
    fn matches(&self, rec: &TraceRecord) -> bool {
        self.outcome.is_none_or(|o| rec.outcome == o)
            && self.min_us.is_none_or(|min| rec.total_us >= min)
            && self
                .id_prefix
                .as_ref()
                .is_none_or(|prefix| rec.id.starts_with(prefix.as_str()))
            && self.since_seq.is_none_or(|since| rec.seq > since)
    }
}

impl TraceRing {
    /// Creates a ring with the given policy, resolving its counters
    /// from the global telemetry registry.
    pub fn new(config: TraceConfig) -> Self {
        TraceRing {
            config,
            state: Mutex::new(RingState::default()),
            retained: ppm_telemetry::counter("serve.trace.retained"),
            sampled_out: ppm_telemetry::counter("serve.trace.sampled_out"),
            evicted: ppm_telemetry::counter("serve.trace.evicted"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total ring capacity.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Offers a completed record to the tail sampler. Non-OK outcomes
    /// are always retained; OK records survive if they are among the
    /// slowest-N seen so far or win the 1-in-K lottery.
    pub fn offer(&self, rec: TraceRecord) {
        let mut state = self.lock();
        if !state.should_keep(&self.config, &rec) {
            self.sampled_out.inc();
            return;
        }
        state.records.push_back(rec);
        self.retained.inc();
        if state.records.len() > self.config.capacity {
            state.records.pop_front();
            self.evicted.inc();
        }
    }

    /// All retained records matching `filter`, sorted by sequence
    /// number ascending. With a `limit`, the *most recent* matches win.
    pub fn snapshot(&self, filter: &TraceFilter) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .lock()
            .records
            .iter()
            .filter(|rec| filter.matches(rec))
            .cloned()
            .collect();
        out.sort_by_key(|r| r.seq);
        if let Some(limit) = filter.limit {
            if out.len() > limit {
                out.drain(..out.len() - limit);
            }
        }
        out
    }

    /// How many records the ring currently holds.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders a full `ppm-tracez v1` document for `filter`. Records
    /// are written one at a time into the output buffer, so a full
    /// ring never becomes a single document tree.
    pub fn render_tracez(&self, filter: &TraceFilter) -> String {
        let records = self.snapshot(filter);
        let mut s = tracez_head(true, self.capacity(), self.len());
        s.reserve(records.len() * 256);
        // Reopen the empty `records` array the head ends with.
        s.truncate(s.len() - "]}".len());
        for (i, rec) in records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            rec.to_json().write(&mut s);
        }
        s.push_str("]}");
        s
    }
}

impl RingState {
    fn should_keep(&mut self, config: &TraceConfig, rec: &TraceRecord) -> bool {
        // Errors are never sampled out: non-Ok outcomes and every
        // non-2xx status (a 400 is an Ok-outcome span timeline, but the
        // client saw a failure and deserves a retrievable trace).
        if rec.outcome.always_keep() || rec.status >= 400 {
            return true;
        }
        if config.slow_keep > 0 {
            if self.slow.len() < config.slow_keep {
                self.slow.push(rec.total_us);
                self.slow.sort_unstable();
                return true;
            }
            // slow[0] is the fastest of the current slowest-N.
            if rec.total_us > self.slow[0] {
                self.slow[0] = rec.total_us;
                self.slow.sort_unstable();
                return true;
            }
        }
        match config.sample_one_in {
            0 => false,
            k => {
                let tick = self.tick;
                self.tick += 1;
                tick.is_multiple_of(k)
            }
        }
    }
}

/// The document `/tracez` serves when tracing is disabled
/// (`--no-trace`): consumers can distinguish "nothing retained" from
/// "not recording".
pub fn render_tracez_disabled() -> String {
    tracez_head(false, 0, 0)
}

/// A `ppm-tracez v1` document with an empty `records` array.
fn tracez_head(enabled: bool, capacity: usize, retained: usize) -> String {
    Json::obj([
        ("schema", Json::from(TRACEZ_SCHEMA)),
        ("enabled", Json::from(enabled)),
        ("capacity", Json::from(capacity)),
        ("retained", Json::from(retained)),
        ("records", Json::Arr(Vec::new())),
    ])
    .dump()
}

/// One second's request counts.
#[derive(Debug, Clone, Copy, Default)]
struct SloSlot {
    sec: u64,
    total: u64,
    unavailable: u64,
    slow: u64,
}

/// Multi-window SLO accounting over per-request outcomes.
///
/// A wheel of 300 one-second slots behind one lock; each `/predict`
/// request lands in the slot for its completion second. Slots are
/// recycled lazily: the first request of a new second finds the slot
/// holding a stale second and resets it before counting.
///
/// **Burn rate** is the classic SRE normalization: the window's
/// bad-request ratio divided by the objective's error allowance
/// (`1 - objective`). Burn 1.0 = exactly spending budget at the
/// sustainable rate; 10 = ten times too fast.
pub struct SloTracker {
    slots: Mutex<Vec<SloSlot>>,
    /// Availability objective, e.g. 0.999.
    pub availability_objective: f64,
    /// Latency objective in microseconds (requests slower than this
    /// spend latency budget).
    pub latency_objective_us: u64,
}

/// One window's worth of SLO accounting, as reported at `/statusz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloWindow {
    /// Window length in seconds (5, 60, 300).
    pub window_s: u64,
    /// Requests observed in the window.
    pub total: u64,
    /// Requests that spent availability budget (shed, failed, late).
    pub unavailable: u64,
    /// Requests that spent latency budget (answered, but slow).
    pub slow: u64,
    /// Availability burn rate.
    pub availability_burn: f64,
    /// Latency burn rate.
    pub latency_burn: f64,
}

impl SloTracker {
    /// Creates a tracker for the given objectives.
    pub fn new(availability_objective: f64, latency_objective_us: u64) -> Self {
        SloTracker {
            slots: Mutex::new(vec![SloSlot::default(); SLO_SLOTS]),
            availability_objective,
            latency_objective_us,
        }
    }

    /// Records one finished request. `now_sec` is unix seconds (from
    /// `clock.rs`); `available` is false for shed / deadline-expired /
    /// failed requests; `total_us` is accept-to-done latency.
    pub fn observe(&self, now_sec: u64, available: bool, total_us: u64) {
        let mut slots = self.lock();
        let slot = &mut slots[(now_sec as usize) % SLO_SLOTS];
        if slot.sec != now_sec {
            *slot = SloSlot {
                sec: now_sec,
                ..SloSlot::default()
            };
        }
        slot.total += 1;
        if !available {
            slot.unavailable += 1;
        } else if total_us > self.latency_objective_us {
            slot.slow += 1;
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<SloSlot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn window_counts(&self, now_sec: u64, span: u64) -> (u64, u64, u64) {
        let (mut total, mut unavailable, mut slow) = (0u64, 0u64, 0u64);
        let oldest = now_sec.saturating_sub(span.saturating_sub(1));
        for slot in self.lock().iter() {
            if slot.sec >= oldest && slot.sec <= now_sec {
                total += slot.total;
                unavailable += slot.unavailable;
                slow += slot.slow;
            }
        }
        (total, unavailable, slow)
    }

    fn burn(&self, bad: u64, total: u64, objective: f64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let allowance = (1.0 - objective).max(f64::EPSILON);
        (bad as f64 / total as f64) / allowance
    }

    /// The standard multi-window report: 5s / 1m / 5m.
    pub fn windows(&self, now_sec: u64) -> [SloWindow; 3] {
        [5u64, 60, 300].map(|span| {
            let (total, unavailable, slow) = self.window_counts(now_sec, span);
            SloWindow {
                window_s: span,
                total,
                unavailable,
                slow,
                // Both SLOs share one compliance fraction (the
                // availability objective): "99.9% available" and
                // "99.9% within the latency objective".
                availability_burn: self.burn(unavailable, total, self.availability_objective),
                latency_burn: self.burn(slow, total, self.availability_objective),
            }
        })
    }

    /// Error-budget fraction remaining over the 5-minute window:
    /// `1 - burn_rate_5m` (negative when the budget is overspent).
    pub fn budget_remaining(&self, now_sec: u64) -> (f64, f64) {
        let (total, unavailable, slow) = self.window_counts(now_sec, 300);
        let avail = 1.0 - self.burn(unavailable, total, self.availability_objective);
        let lat = 1.0 - self.burn(slow, total, self.availability_objective);
        (avail, lat)
    }

    /// The `"slo"` object embedded in `ppm-statusz v1`.
    pub fn to_json(&self, now_sec: u64) -> Json {
        let (avail_budget, lat_budget) = self.budget_remaining(now_sec);
        let windows = self.windows(now_sec).map(|w| {
            Json::obj([
                ("window_s", Json::from(w.window_s)),
                ("total", Json::from(w.total)),
                ("unavailable", Json::from(w.unavailable)),
                ("slow", Json::from(w.slow)),
                ("availability_burn", Json::Float(w.availability_burn)),
                ("latency_burn", Json::Float(w.latency_burn)),
            ])
        });
        Json::obj([
            (
                "availability_objective",
                Json::Float(self.availability_objective),
            ),
            (
                "latency_objective_ms",
                Json::from(self.latency_objective_us / 1000),
            ),
            ("windows", Json::Arr(windows.to_vec())),
            ("availability_budget_remaining", Json::Float(avail_budget)),
            ("latency_budget_remaining", Json::Float(lat_budget)),
        ])
    }

    /// Publishes the burn rates and budget gauges into the global
    /// registry (`serve.slo.*`) for `/metrics`.
    pub fn publish_gauges(&self, now_sec: u64) {
        for w in self.windows(now_sec) {
            ppm_telemetry::gauge(&format!("serve.slo.availability_burn_{}s", w.window_s))
                .set(w.availability_burn);
            ppm_telemetry::gauge(&format!("serve.slo.latency_burn_{}s", w.window_s))
                .set(w.latency_burn);
        }
        let (avail, lat) = self.budget_remaining(now_sec);
        ppm_telemetry::gauge("serve.slo.availability_budget_remaining").set(avail);
        ppm_telemetry::gauge("serve.slo.latency_budget_remaining").set(lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, outcome: TraceOutcome, total_us: u64) -> TraceRecord {
        TraceRecord {
            id: format!("ppm-{seq:012x}"),
            seq,
            route: "/predict".to_string(),
            outcome,
            status: match outcome {
                TraceOutcome::Ok | TraceOutcome::Degraded => 200,
                _ => 503,
            },
            detail: String::new(),
            worker: Some(0),
            total_us,
            spans: vec![
                SpanRec {
                    name: "accept",
                    start_us: 0,
                    dur_us: 1,
                },
                SpanRec {
                    name: "eval",
                    start_us: 1,
                    dur_us: total_us.saturating_sub(1),
                },
            ],
            unix_ms: 1_700_000_000_000,
        }
    }

    #[test]
    fn context_derives_or_honors_ids() {
        assert_eq!(TraceContext::new(42, None).id, "ppm-00000000002a");
        assert_eq!(TraceContext::new(42, Some("client-7")).id, "client-7");
        assert_eq!(TraceContext::new(42, Some("  ")).id, "ppm-00000000002a");
        // Oversized client IDs are truncated, not rejected.
        let long = "x".repeat(200);
        assert_eq!(TraceContext::new(0, Some(&long)).id.len(), 64);
    }

    #[test]
    fn tail_sampler_keeps_every_non_ok_outcome() {
        let ring = TraceRing::new(TraceConfig {
            capacity: 1024,
            sample_one_in: 0, // no lottery winners
            slow_keep: 0,     // no slowest-N
        });
        for (i, outcome) in [
            TraceOutcome::Shed,
            TraceOutcome::DeadlineExpired,
            TraceOutcome::Degraded,
            TraceOutcome::PanicContained,
            TraceOutcome::Ok,
        ]
        .iter()
        .enumerate()
        {
            ring.offer(rec(i as u64, *outcome, 100));
        }
        // The lone OK record was sampled out; the four bad ones stay.
        assert_eq!(ring.len(), 4);
        let all = ring.snapshot(&TraceFilter::default());
        assert!(all.iter().all(|r| r.outcome != TraceOutcome::Ok));
    }

    #[test]
    fn slowest_n_and_one_in_k_retain_ok_traffic() {
        let ring = TraceRing::new(TraceConfig {
            capacity: 1024,
            sample_one_in: 10,
            slow_keep: 2,
        });
        // 100 OK records with *descending* latency: after the first two
        // seed the slowest-2 pool, nothing else qualifies as slow, so
        // the rest survive only via the 1-in-10 lottery. (Ascending
        // latencies would retain everything — each arrival is the
        // slowest seen so far, which is exactly what a streaming
        // slowest-N sampler should do.)
        for i in 0..100u64 {
            ring.offer(rec(i, TraceOutcome::Ok, (100 - i) * 10));
        }
        let all = ring.snapshot(&TraceFilter::default());
        assert!(!all.is_empty());
        // The two slowest must be present.
        assert!(all.iter().any(|r| r.seq == 0));
        assert!(all.iter().any(|r| r.seq == 1));
        // Roughly 1-in-10 of the rest: between 10 and 40 total.
        assert!(all.len() >= 10 && all.len() <= 40, "{}", all.len());
    }

    #[test]
    fn ring_evicts_fifo_at_exact_capacity_and_counts() {
        let before = ppm_telemetry::registry()
            .counter("serve.trace.evicted")
            .get();
        let ring = TraceRing::new(TraceConfig {
            capacity: 10,
            sample_one_in: 1,
            slow_keep: 0,
        });
        for i in 0..64u64 {
            ring.offer(rec(i, TraceOutcome::Shed, 10));
        }
        assert_eq!(ring.capacity(), 10);
        assert_eq!(ring.len(), 10);
        let after = ppm_telemetry::registry()
            .counter("serve.trace.evicted")
            .get();
        assert_eq!(after - before, 54);
        // Survivors are the 10 most recent.
        let all = ring.snapshot(&TraceFilter::default());
        assert_eq!(
            all.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (54..64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_filters_compose() {
        let ring = TraceRing::new(TraceConfig {
            capacity: 1024,
            sample_one_in: 1,
            slow_keep: 0,
        });
        for i in 0..20u64 {
            let outcome = if i % 2 == 0 {
                TraceOutcome::Ok
            } else {
                TraceOutcome::Shed
            };
            ring.offer(rec(i, outcome, i * 100));
        }
        let shed = ring.snapshot(&TraceFilter {
            outcome: Some(TraceOutcome::Shed),
            ..TraceFilter::default()
        });
        assert_eq!(shed.len(), 10);
        let slow = ring.snapshot(&TraceFilter {
            min_us: Some(1500),
            ..TraceFilter::default()
        });
        assert!(slow.iter().all(|r| r.total_us >= 1500));
        let tail = ring.snapshot(&TraceFilter {
            since_seq: Some(15),
            ..TraceFilter::default()
        });
        assert_eq!(tail.len(), 4);
        assert!(tail.iter().all(|r| r.seq > 15));
        let limited = ring.snapshot(&TraceFilter {
            limit: Some(3),
            ..TraceFilter::default()
        });
        assert_eq!(limited.len(), 3);
        // Most recent win, ascending order.
        assert_eq!(
            limited.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![17, 18, 19]
        );
        let prefixed = ring.snapshot(&TraceFilter {
            id_prefix: Some("ppm-0000000000".to_string()),
            ..TraceFilter::default()
        });
        assert_eq!(prefixed.len(), 20);
    }

    #[test]
    fn tracez_document_is_schema_tagged_json() {
        let ring = TraceRing::new(TraceConfig {
            capacity: 64,
            sample_one_in: 1,
            slow_keep: 0,
        });
        ring.offer(rec(7, TraceOutcome::DeadlineExpired, 5000));
        let doc = ring.render_tracez(&TraceFilter::default());
        assert!(doc.starts_with("{\"schema\":\"ppm-tracez v1\""));
        assert!(doc.contains("\"enabled\":true"));
        assert!(doc.contains("\"outcome\":\"deadline_expired\""));
        assert!(doc.contains("\"spans\":[{\"name\":\"accept\""));
        let disabled = render_tracez_disabled();
        assert!(disabled.contains("\"enabled\":false"));
        assert!(disabled.contains("\"records\":[]"));
    }

    #[test]
    fn record_json_escapes_details() {
        let mut r = rec(1, TraceOutcome::PanicContained, 10);
        r.detail = "panic: \"quoted\"\nline".to_string();
        let json = r.to_json().dump();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\n"));
    }

    #[test]
    fn slo_tracker_burns_and_recovers() {
        let slo = SloTracker::new(0.9, 1_000_000);
        let t0 = 10_000u64;
        // 10 requests at t0: 5 unavailable → error rate 0.5, allowance
        // 0.1 → availability burn 5.0 in every window containing t0.
        for i in 0..10 {
            slo.observe(t0, i % 2 == 0, 100);
        }
        let w = slo.windows(t0);
        assert_eq!(w[0].window_s, 5);
        assert_eq!(w[0].total, 10);
        assert_eq!(w[0].unavailable, 5);
        assert!((w[0].availability_burn - 5.0).abs() < 1e-9);
        assert!((w[2].availability_burn - 5.0).abs() < 1e-9);
        let (avail_budget, _) = slo.budget_remaining(t0);
        assert!((avail_budget - (1.0 - 5.0)).abs() < 1e-9);
        // 400 seconds later the 5m window has rolled past t0 — only
        // the new, healthy traffic counts.
        let t1 = t0 + 400;
        for _ in 0..10 {
            slo.observe(t1, true, 100);
        }
        let w1 = slo.windows(t1);
        assert_eq!(w1[2].total, 10);
        assert_eq!(w1[2].unavailable, 0);
        assert_eq!(w1[2].availability_burn, 0.0);
        let (avail_budget, lat_budget) = slo.budget_remaining(t1);
        assert_eq!(avail_budget, 1.0);
        assert_eq!(lat_budget, 1.0);
    }

    #[test]
    fn slo_latency_objective_spends_latency_budget_only() {
        let slo = SloTracker::new(0.999, 1000); // 1ms objective
        let t = 77u64;
        for i in 0..100 {
            // All available; every 10th slower than the objective.
            slo.observe(t, true, if i % 10 == 0 { 5000 } else { 100 });
        }
        let w = slo.windows(t);
        assert_eq!(w[0].unavailable, 0);
        assert_eq!(w[0].slow, 10);
        assert_eq!(w[0].availability_burn, 0.0);
        assert!(w[0].latency_burn > 0.0);
        let (_, lat_budget) = slo.budget_remaining(t);
        // 10% slow against a 0.1% allowance: budget deeply overspent.
        assert!(lat_budget < 0.0, "{lat_budget}");
    }

    #[test]
    fn slo_empty_windows_report_zero_burn() {
        let slo = SloTracker::new(0.999, 1000);
        let w = slo.windows(123);
        assert!(w
            .iter()
            .all(|w| w.total == 0 && w.availability_burn == 0.0 && w.latency_burn == 0.0));
        assert_eq!(slo.budget_remaining(123), (1.0, 1.0));
        let json = slo.to_json(123).dump();
        assert!(json.contains("\"availability_objective\":0.999"));
        assert!(json.contains("\"window_s\":300"));
    }
}
