//! The prediction service: a deadline-enforced HTTP endpoint over one
//! bounded request queue and its workers, with load shedding, graceful
//! degradation, and validated hot reload.
//!
//! # Request life cycle
//!
//! Every accepted connection is stamped with a [`Stopwatch`] *at
//! accept*, so time spent waiting in the queue counts against the
//! request's deadline. The accept thread pushes the connection onto the
//! one [`Fifo`] every worker pops from; when all its slots are taken
//! the request is **shed** — an immediate best-effort 503 instead of
//! unbounded queueing (`serve.shed`). A worker that picks the request up
//! first checks the deadline (expired-in-queue is a 503, not a stale
//! answer), evaluates, and checks again before replying.
//!
//! # The shed / degrade state machine
//!
//! Shedding and degradation are different defenses and trip
//! independently:
//!
//! * **Shed** protects *latency*: the queue is full, so the request is
//!   refused outright. No prediction is attempted.
//! * **Degrade** protects *availability of answers*: the request is
//!   served, but by the first-order analytical estimator instead of the
//!   RBF surrogate, and the response says so (`"degraded": true`).
//!
//! Degradation triggers on any of: no model loaded (analytical-only
//! startup), queue depth at or past `degrade_depth` (pressure), or a
//! *sticky* failure state entered after three consecutive model
//! evaluation failures (panic or non-finite prediction). Sticky
//! degradation probes the real model every 16th prediction and clears
//! itself on the first success — recovery is automatic, no
//! operator action required.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ppm_core::fault::{FaultPlan, InjectedFault};
use ppm_core::space::DesignSpace;
use ppm_exec::{ExecError, MAX_THREADS};
use ppm_live::http::{
    dispatch, index_line, read_head_or_400, write_response_with_headers, ClientErrors, RouteEntry,
    Server, StopHandle, JSON, PROMETHEUS, TEXT,
};
use ppm_sim::SimConfig;
use ppm_telemetry::{Counter, Histogram, Json, Level, Record};
use ppm_workload::Benchmark;

use crate::chaos::ChaosClients;
use crate::clock::{unix_now_ms, unix_now_sec, Stopwatch};
use crate::queue::Fifo;
use crate::store::{ModelStore, ServingModel};
use crate::trace::{
    render_tracez_disabled, SloTracker, SpanRec, TraceConfig, TraceContext, TraceFilter,
    TraceOutcome, TraceRecord, TraceRing,
};
use crate::ServeError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Predict,
    Healthz,
    Readyz,
    Metrics,
    Statusz,
    Tracez,
    Index,
    Reloadz,
    Quitz,
}

const ROUTES: [RouteEntry<Route>; 9] = [
    ("GET", "/predict", Route::Predict),
    ("GET", "/healthz", Route::Healthz),
    ("GET", "/readyz", Route::Readyz),
    ("GET", "/metrics", Route::Metrics),
    ("GET", "/statusz", Route::Statusz),
    ("GET", "/tracez", Route::Tracez),
    ("GET", "/", Route::Index),
    ("POST", "/reloadz", Route::Reloadz),
    ("POST", "/quitz", Route::Quitz),
];

/// A route handler's answer: status, content type, body, and the
/// outcome and detail the trace layer records.
type Reply = (u16, &'static str, String, TraceOutcome, String);

/// Upper cap on client-requested deadlines (`?deadline_ms=`).
const MAX_DEADLINE: Duration = Duration::from_secs(5);
/// Consecutive model failures before degradation turns sticky.
const FAIL_STREAK: u32 = 3;
/// While sticky, every n-th prediction probes the real model.
const PROBE_EVERY: u64 = 16;
/// Availability objective of the SLO tracker, also the compliance
/// fraction of its latency objective.
const SLO_AVAILABILITY: f64 = 0.999;
/// Latency objective: answered requests slower than this spend latency
/// error budget.
const SLO_LATENCY_US: u64 = 100_000;

/// Everything `ppm serve` needs to start. Field defaults are tuned for
/// an interactive service on a developer machine; the CLI maps flags
/// onto them one-to-one.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads evaluating predictions.
    pub workers: usize,
    /// Bounded queue slots per worker; total queue capacity is
    /// `workers * queue_per_worker`, beyond which requests are shed.
    /// Zero is the explicit shed-all drill mode: the service accepts
    /// and refuses *every* request with a 503, which is how the
    /// loadtest's SLO gate is proven to fail (not pass vacuously)
    /// against a service that answers nothing.
    pub queue_per_worker: usize,
    /// Deadline applied when the request does not name one.
    pub default_deadline: Duration,
    /// Queue depth at which predictions degrade to the analytical
    /// estimator. Zero means *every* prediction is degraded — useful
    /// for drills and smoke tests.
    pub degrade_depth: usize,
    /// The model registry directory (see [`crate::ModelStore`]).
    pub registry: PathBuf,
    /// Serve analytically when the registry has no loadable model.
    pub fallback_benchmark: Option<Benchmark>,
    /// Chaos-mode seed: injects worker faults and misbehaving clients.
    pub chaos: Option<u64>,
    /// Per-request tracing (`--no-trace` turns it off): span timelines
    /// in a tail-sampled ring, served at `GET /tracez`.
    pub trace: bool,
    /// How many trace records the ring holds (`--trace-ring`).
    pub trace_ring: usize,
    /// Tail-sampling lottery for plain-OK traffic: keep 1 in this many.
    pub trace_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_per_worker: 8,
            default_deadline: Duration::from_millis(250),
            degrade_depth: 16,
            registry: PathBuf::from("registry"),
            fallback_benchmark: None,
            chaos: None,
            trace: true,
            trace_ring: 4096,
            trace_sample: 64,
        }
    }
}

/// One accepted connection, stamped at accept so queueing time counts
/// against its deadline, and numbered at accept so shed requests have
/// a trace identity too.
struct Conn {
    stream: TcpStream,
    accepted: Stopwatch,
    seq: u64,
}

/// Pre-resolved counter handles: the hot path must not take the
/// registry lock per request.
struct Counters {
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    shed: Arc<Counter>,
    degraded: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    reloads: Arc<Counter>,
    reload_failures: Arc<Counter>,
    model_failures: Arc<Counter>,
    latency_us: Arc<Histogram>,
    // Labeled refusal/degradation series (the `base|key=value` registry
    // convention renders as `ppm_serve_shed{reason="..."}` on /metrics).
    // Aggregates above keep their historical meaning; these split them
    // by cause so saturation is distinguishable from deadline expiry
    // without reading logs.
    shed_queue_full: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    degraded_no_model: Arc<Counter>,
    degraded_depth: Arc<Counter>,
    degraded_fail_streak: Arc<Counter>,
    degraded_eval_failure: Arc<Counter>,
    /// `exec.serve.*`: the worker-pool series, named as they always were.
    worker_panics: Arc<Counter>,
    saturated: Arc<Counter>,
}

impl Counters {
    fn resolve() -> Self {
        Counters {
            requests: ppm_telemetry::counter("serve.requests"),
            ok: ppm_telemetry::counter("serve.ok"),
            shed: ppm_telemetry::counter("serve.shed"),
            degraded: ppm_telemetry::counter("serve.degraded"),
            deadline_exceeded: ppm_telemetry::counter("serve.deadline_exceeded"),
            reloads: ppm_telemetry::counter("serve.reloads"),
            reload_failures: ppm_telemetry::counter("serve.reload_failures"),
            model_failures: ppm_telemetry::counter("serve.model_failures"),
            latency_us: ppm_telemetry::histogram("serve.latency.us"),
            shed_queue_full: ppm_telemetry::counter("serve.shed|reason=queue_full"),
            shed_deadline: ppm_telemetry::counter("serve.shed|reason=deadline"),
            degraded_no_model: ppm_telemetry::counter("serve.degraded|reason=no_model"),
            degraded_depth: ppm_telemetry::counter("serve.degraded|reason=degrade_depth"),
            degraded_fail_streak: ppm_telemetry::counter("serve.degraded|reason=fail_streak"),
            degraded_eval_failure: ppm_telemetry::counter("serve.degraded|reason=eval_failure"),
            worker_panics: ppm_telemetry::counter("exec.serve.worker_panics"),
            saturated: ppm_telemetry::counter("exec.serve.saturated"),
        }
    }
}

/// The model-failure half of the degrade state machine, behind one
/// mutex: its invariant, `streak >= FAIL_STREAK` implies `sticky`,
/// spans two fields.
#[derive(Default)]
struct Degrade {
    /// Consecutive model-evaluation failures.
    streak: u32,
    /// Sticky degradation: set after `FAIL_STREAK` failures, cleared by
    /// a successful probe or a reload to a new model.
    sticky: bool,
    /// Counts predictions taken while sticky, to pace probes.
    probe_tick: u64,
}

/// Shared service state: the store, the request queue, the degrade
/// state machine, and the knobs the request path consults.
struct ServeState {
    store: ModelStore,
    /// Stops the accept loop (`POST /quitz`).
    stop: StopHandle,
    /// `serve.client_errors`: unreadable heads, abandoned responses.
    errors: ClientErrors,
    space: DesignSpace,
    default_deadline: Duration,
    degrade_depth: usize,
    workers: usize,
    fault: Option<FaultPlan>,
    /// Requests accepted but not yet picked up by a worker. Its length
    /// is the pressure signal behind both `/readyz` and depth
    /// degradation.
    queue: Fifo<Conn>,
    degrade: Mutex<Degrade>,
    counters: Counters,
    /// The tail-sampled request-trace ring; `None` under `--no-trace`.
    trace: Option<TraceRing>,
    /// Multi-window SLO accounting (always on).
    slo: SloTracker,
}

impl ServeState {
    fn new(config: &ServeConfig, store: ModelStore, server: &Server) -> Self {
        ServeState {
            store,
            stop: server.stop_handle(),
            errors: ClientErrors::new("serve.client_errors", "serve.client_error"),
            space: DesignSpace::paper_table1(),
            default_deadline: config.default_deadline,
            degrade_depth: config.degrade_depth,
            workers: config.workers,
            fault: config.chaos.map(crate::chaos::fault_plan),
            // `queue_per_worker == 0` is the shed-all drill: a queue
            // with no slots refuses every push.
            queue: Fifo::new(config.workers * config.queue_per_worker),
            degrade: Mutex::default(),
            counters: Counters::resolve(),
            trace: (config.trace && config.trace_ring > 0).then(|| {
                TraceRing::new(TraceConfig {
                    capacity: config.trace_ring,
                    sample_one_in: config.trace_sample,
                    ..TraceConfig::default()
                })
            }),
            slo: SloTracker::new(SLO_AVAILABILITY, SLO_LATENCY_US),
        }
    }

    fn degrade(&self) -> MutexGuard<'_, Degrade> {
        self.degrade.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running prediction service. [`ServeServer::wait`] blocks until the
/// service stops (`POST /quitz` or [`ServeServer::shutdown`]); dropping
/// the handle shuts it down.
pub struct ServeServer {
    // Field order is drop order: the server joins its accept thread
    // (which drains queued requests) and leaves the stop flag raised
    // before the chaos thread watching that flag is joined.
    server: Server,
    chaos: Option<ChaosClients>,
}

impl ServeServer {
    /// Opens the registry, binds the address, and starts the accept
    /// thread and the workers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when no model loads and no fallback
    /// benchmark is configured; [`ServeError::Bind`] when the address
    /// cannot be bound; [`ServeError::Pool`] when there are zero workers
    /// for a non-zero queue (a zero queue is the shed-all drill mode,
    /// not an error) or a worker thread cannot be spawned.
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        let store = ModelStore::open(&config.registry, config.fallback_benchmark)?;
        let server = Server::bind(&config.addr)?;
        if config.workers == 0 && config.queue_per_worker > 0 {
            return Err(ServeError::Pool(ExecError::ZeroThreads.to_string()));
        }
        let state = Arc::new(ServeState::new(&config, store, &server));
        let errors = state.errors.clone();
        let mut intake = Intake::spawn(state, config.workers.min(MAX_THREADS))?;
        // The callback owns the intake: when the accept loop ends it is
        // dropped on the accept thread, which closes the queue and joins
        // the workers once they have answered every queued request —
        // before `join` returns.
        let server = server.spawn("ppm-serve", errors, move |stream| intake.accept(stream))?;
        let chaos = config
            .chaos
            .map(|seed| ChaosClients::start(server.addr(), seed, server.stop_handle()));
        Ok(ServeServer { server, chaos })
    }

    /// The actually bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Blocks until the service stops — via `POST /quitz` or a signal
    /// from another thread holding [`ServeServer::shutdown`].
    pub fn wait(mut self) {
        self.server.join();
    }

    /// Stops accepting, drains queued requests, and joins every thread
    /// (workers, accept loop, chaos clients).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        drop(self.chaos.take());
    }
}

/// The accept thread's half of the service: it numbers connections,
/// queues them or sheds them, and owns the workers that pop them.
/// Dropping it closes the queue, so each worker exits once the queue is
/// drained, and joins them.
struct Intake {
    state: Arc<ServeState>,
    workers: Vec<JoinHandle<()>>,
    /// The next request's sequence number: arrival order.
    next_seq: u64,
}

impl Intake {
    /// Starts `count` workers popping from the state's queue. Each
    /// attaches the calling thread's telemetry context, so a scoped
    /// registry sees their counters.
    fn spawn(state: Arc<ServeState>, count: usize) -> Result<Self, ServeError> {
        let mut intake = Intake {
            state,
            workers: Vec::with_capacity(count),
            next_seq: 0,
        };
        let context = ppm_telemetry::current_context();
        for worker in 0..count {
            let state = Arc::clone(&intake.state);
            let context = context.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ppm-svc-serve-{worker}"))
                .spawn(move || {
                    let _context = context.attach();
                    while let Some(conn) = state.queue.pop() {
                        serve_one(&state, conn, worker, handle_connection);
                    }
                })
                .map_err(|e| ServeError::Pool(format!("cannot spawn worker {worker}: {e}")))?;
            intake.workers.push(handle);
        }
        ppm_telemetry::gauge("exec.serve.workers").set(count as f64);
        Ok(intake)
    }

    /// Stamps, numbers, and queues one connection — or sheds it. Never
    /// reads the head while the queue has slots (see [`shed`]).
    fn accept(&mut self, stream: TcpStream) {
        let state = &*self.state;
        state.counters.requests.inc();
        let conn = Conn {
            stream,
            accepted: Stopwatch::start(),
            // Numbered at accept so every request — shed ones included —
            // has a deterministic trace identity, and so the chaos plan
            // keys faults off the true arrival order.
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let Err(mut conn) = state.queue.push(conn) else {
            return;
        };
        if state.queue.capacity() == 0 {
            // Shed-all drill mode: unlike saturation shedding, drain the
            // request head first. Closing with unread bytes in the
            // socket makes the kernel send RST, which clients see as a
            // transport error instead of a 503. The slowloris argument
            // for head-blind shedding does not apply here — there is no
            // queue to protect.
            let _ = conn.stream.read(&mut [0u8; 1024]);
        } else {
            state.counters.saturated.inc();
        }
        shed(state, conn);
    }
}

impl Drop for Intake {
    fn drop(&mut self) {
        self.state.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One request on a worker, inside the service's one panic boundary: a
/// `handle` panic costs its request, never the worker. The request's
/// identity is copied first, so the trace ring and the SLO still see it.
fn serve_one(
    state: &ServeState,
    conn: Conn,
    worker: usize,
    handle: impl FnOnce(&ServeState, Conn, usize),
) {
    let (seq, accepted) = (conn.seq, conn.accepted);
    if catch_unwind(AssertUnwindSafe(|| handle(state, conn, worker))).is_ok() {
        return;
    }
    let total_us = accepted.elapsed_us();
    finish_request(
        state,
        TraceContext::new(seq, None),
        "(worker panic)",
        TraceOutcome::PanicContained,
        0,
        "request handler panicked".to_string(),
        Some(worker),
        vec![span("accept", 0, total_us)],
        total_us,
    );
    state.slo.observe(unix_now_sec(), false, total_us);
    state.counters.worker_panics.inc();
}

/// Sheds an accepted connection: an immediate 503 without reading the
/// request head. Control routes shed too under saturation — a deliberate
/// tradeoff: reading heads on the accept thread would let one slowloris
/// stall every queue decision. Because the head stays unread, a shed
/// request's trace record carries the seq-derived ID, never a
/// client-supplied one — clients correlate sheds by count, not by ID.
fn shed(state: &ServeState, mut conn: Conn) {
    state.counters.shed.inc();
    state.counters.shed_queue_full.inc();
    let ctx = TraceContext::new(conn.seq, None);
    let body = json_body(&Json::obj([
        ("error", Json::from("shed: request queue full")),
        ("queued", Json::from(state.queue.len())),
        ("trace_id", Json::from(ctx.id.as_str())),
    ]));
    let write_start = conn.accepted.elapsed_us();
    let write_ok = write_response_with_headers(
        &mut conn.stream,
        503,
        JSON,
        &[("X-Ppm-Trace", ctx.id.as_str())],
        &body,
    )
    .is_ok();
    let total_us = conn.accepted.elapsed_us();
    let spans = vec![span("accept", 0, 0), span("write", write_start, total_us)];
    let status = if write_ok { 503 } else { 0 };
    let detail = "request queue full".to_string();
    finish_request(
        state,
        ctx,
        "(shed)",
        TraceOutcome::Shed,
        status,
        detail,
        None,
        spans,
        total_us,
    );
    state.slo.observe(unix_now_sec(), false, total_us);
}

/// A trace span from `start_us` to `end_us` (offsets from accept).
fn span(name: &'static str, start_us: u64, end_us: u64) -> SpanRec {
    SpanRec {
        name,
        start_us,
        dur_us: end_us.saturating_sub(start_us),
    }
}

/// Records a finished request into the trace ring.
#[allow(clippy::too_many_arguments)]
fn finish_request(
    state: &ServeState,
    ctx: TraceContext,
    route: &str,
    outcome: TraceOutcome,
    status: u16,
    detail: String,
    worker: Option<usize>,
    spans: Vec<SpanRec>,
    total_us: u64,
) {
    if let Some(ring) = &state.trace {
        ring.offer(TraceRecord {
            id: ctx.id,
            seq: ctx.seq,
            route: route.to_string(),
            outcome,
            status,
            detail,
            worker,
            total_us,
            spans,
            unix_ms: unix_now_ms(),
        });
    }
}

fn handle_connection(state: &ServeState, mut conn: Conn, worker: usize) {
    let (accepted, seq) = (conn.accepted, conn.seq);
    let picked_up_us = accepted.elapsed_us();
    let head = match read_head_or_400(&mut conn.stream, &state.errors) {
        Ok(head) => head,
        Err(detail) => {
            finish_request(
                state,
                TraceContext::new(seq, None),
                "(unreadable)",
                TraceOutcome::Ok,
                400,
                detail,
                Some(worker),
                vec![span("queue_wait", 0, picked_up_us)],
                accepted.elapsed_us(),
            );
            return;
        }
    };
    let ctx = TraceContext::new(seq, head.header("x-ppm-trace"));
    let (route, routed) = dispatch(&ROUTES, &head.line);
    let matched = routed.as_ref().map(|&(route, _)| route).ok();
    let eval_start_us = accepted.elapsed_us();
    let (status, content_type, body, outcome, detail) = match routed {
        Err((status, body)) => plain(status, TEXT, body),
        Ok((Route::Predict, pairs)) => predict(state, &accepted, &pairs, seq, &ctx.id),
        Ok((Route::Healthz, _)) => plain(200, TEXT, "ok\n".to_string()),
        Ok((Route::Readyz, _)) => readyz(state),
        Ok((Route::Metrics, _)) => {
            state.slo.publish_gauges(unix_now_sec());
            let text = ppm_live::render_prometheus(&ppm_telemetry::snapshot());
            // The scrape closes this exemplar window: the next one
            // tracks the worst request *since this scrape*.
            let _ = state.counters.latency_us.take_exemplar();
            plain(200, PROMETHEUS, text)
        }
        Ok((Route::Statusz, _)) => plain(200, JSON, statusz(state)),
        Ok((Route::Tracez, pairs)) => tracez(state, &pairs),
        Ok((Route::Index, _)) => plain(200, TEXT, index_line("ppm serve", &ROUTES)),
        Ok((Route::Reloadz, _)) => reloadz(state),
        Ok((Route::Quitz, _)) => plain(200, TEXT, "stopping\n".to_string()),
    };
    let write_start_us = accepted.elapsed_us();
    if let Err(detail) = write_response_with_headers(
        &mut conn.stream,
        status,
        content_type,
        &[("X-Ppm-Trace", ctx.id.as_str())],
        &body,
    ) {
        state.errors.record("write", &detail);
    }
    let total_us = accepted.elapsed_us();
    let spans = vec![
        span("accept", 0, 0),
        span("queue_wait", 0, picked_up_us),
        span("eval", eval_start_us, write_start_us),
        span("write", write_start_us, total_us),
    ];
    if matched == Some(Route::Predict) {
        // Availability budget: a 200 (full-fidelity or degraded) is an
        // answer; sheds, deadline misses, and 5xx spend budget. Client
        // errors (4xx) spend nothing — the request was never servable.
        if status == 200 || status >= 500 {
            state.slo.observe(unix_now_sec(), status == 200, total_us);
        }
        if status == 200 {
            // Exemplar hook: the latency histogram remembers the trace
            // ID of the worst request this scrape window.
            state.counters.latency_us.record_tagged(total_us, &ctx.id);
        }
    }
    finish_request(
        state,
        ctx,
        route,
        outcome,
        status,
        detail,
        Some(worker),
        spans,
        total_us,
    );
    if matched == Some(Route::Quitz) {
        // Write, then stop: the client has its answer before the
        // accept loop winds down.
        drop(conn);
        state.stop.stop();
    }
}

/// Wraps a non-prediction response in the uniform (status, content
/// type, body, outcome, detail) shape the trace layer consumes.
fn plain(status: u16, content_type: &'static str, body: String) -> Reply {
    (status, content_type, body, TraceOutcome::Ok, String::new())
}

/// `GET /tracez`: the tail-sampled request feed. Query surface:
/// `?outcome=shed|deadline_expired|degraded|panic_contained|ok`,
/// `min_ms=`/`min_us=`, `id_prefix=`, `since_seq=`, `limit=`, and
/// `format=chrome` for a Perfetto-loadable export of the (filtered)
/// records.
fn tracez(state: &ServeState, pairs: &[(&str, &str)]) -> Reply {
    let Some(ring) = &state.trace else {
        return plain(200, JSON, render_tracez_disabled());
    };
    match tracez_query(pairs) {
        Ok((filter, false)) => plain(200, JSON, ring.render_tracez(&filter)),
        Ok((filter, true)) => plain(200, JSON, chrome_export(&ring.snapshot(&filter))),
        Err(detail) => bad_request(&detail),
    }
}

/// Parses the `/tracez` query into a filter and the `format=chrome`
/// choice; the error is the 400 detail.
fn tracez_query(pairs: &[(&str, &str)]) -> Result<(TraceFilter, bool), String> {
    fn int<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{key} wants an integer, got {value:?}"))
    }
    let mut filter = TraceFilter::default();
    let mut chrome = false;
    for &(key, value) in pairs {
        match key {
            "outcome" => {
                let outcome = TraceOutcome::parse(value)
                    .ok_or_else(|| format!("unknown outcome {value:?}"))?;
                filter.outcome = Some(outcome);
            }
            "min_ms" => filter.min_us = Some(int::<u64>(key, value)?.saturating_mul(1000)),
            "min_us" => filter.min_us = Some(int(key, value)?),
            "id_prefix" => filter.id_prefix = Some(value.to_string()),
            "since_seq" => filter.since_seq = Some(int(key, value)?),
            "limit" => filter.limit = Some(int(key, value)?),
            "format" => {
                chrome = match value {
                    "chrome" => true,
                    "json" => false,
                    other => return Err(format!("format wants json or chrome, got {other:?}")),
                }
            }
            other => return Err(format!("unknown parameter {other:?}")),
        }
    }
    Ok((filter, chrome))
}

/// Renders trace records through the `ppm-obs` Chrome-trace writer:
/// one lane (tid) per request, the request's trace ID as the top-level
/// slice, span steps nested under it — drop the JSON into Perfetto and
/// a single bad request becomes a picture.
fn chrome_export(records: &[TraceRecord]) -> String {
    let recorder = ppm_obs::FlightRecorder::new();
    let mut sink = recorder.sink();
    for (lane, rec) in records.iter().enumerate() {
        let tid = lane as u64;
        let label = format!("{} [{}]", rec.id, rec.outcome.as_str());
        sink.record(&Record::Span {
            name: label.clone(),
            us: rec.total_us.max(1),
            start_us: 0,
            tid,
            cpu_us: None,
            depth: 0,
            parent: None,
        });
        for span in &rec.spans {
            sink.record(&Record::Span {
                name: span.name.to_string(),
                us: span.dur_us.max(1),
                start_us: span.start_us,
                tid,
                cpu_us: None,
                depth: 1,
                parent: Some(label.clone()),
            });
        }
    }
    recorder.chrome_trace_json()
}

/// Why a model evaluation did not produce a usable prediction.
enum EvalFailure {
    Panicked,
    NonFinite(f64),
    WrongDim { model: usize, space: usize },
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalFailure::Panicked => write!(f, "evaluation panicked"),
            EvalFailure::NonFinite(v) => write!(f, "prediction was {v}"),
            EvalFailure::WrongDim { model, space } => {
                write!(
                    f,
                    "model dimension {model} does not match the space ({space})"
                )
            }
        }
    }
}

/// Runs the real RBF prediction, routing any chaos fault scheduled for
/// this sequence number through the same failure paths a genuinely
/// broken model would take.
fn evaluate_real(
    state: &ServeState,
    model: &ServingModel,
    config: &SimConfig,
    seq: u64,
) -> Result<f64, EvalFailure> {
    let network = match model.network.as_ref() {
        Some(network) => network,
        None => return Err(EvalFailure::WrongDim { model: 0, space: 0 }),
    };
    let unit = state.space.to_unit(config);
    if network.dim() != unit.len() {
        return Err(EvalFailure::WrongDim {
            model: network.dim(),
            space: unit.len(),
        });
    }
    let fault = state
        .fault
        .as_ref()
        .and_then(|plan| plan.fault_at_index(seq));
    if fault == Some(InjectedFault::Slow) {
        // A slow evaluation, not a broken one: the post-evaluation
        // deadline check decides whether the answer is still useful.
        if let Some(plan) = &state.fault {
            std::thread::sleep(plan.slow_delay);
        }
    }
    let value = catch_unwind(AssertUnwindSafe(|| {
        if fault == Some(InjectedFault::Panic) {
            // Chaos mode deliberately exercises the worker's panic
            // containment. lint:allow(panic-path): injected fault
            panic!("chaos: injected evaluation panic");
        }
        match fault {
            Some(InjectedFault::Nan) => f64::NAN,
            Some(InjectedFault::Inf) => f64::INFINITY,
            _ => network.predict(&unit),
        }
    }))
    .map_err(|_| EvalFailure::Panicked)?;
    if !value.is_finite() {
        return Err(EvalFailure::NonFinite(value));
    }
    Ok(value)
}

/// A JSON body: the compact document and a trailing newline.
fn json_body(doc: &Json) -> String {
    let mut body = doc.dump();
    body.push('\n');
    body
}

/// A JSON `{"error": ...}` reply whose trace record keeps the detail.
fn error_reply(status: u16, detail: String) -> Reply {
    let body = json_body(&Json::obj([("error", Json::from(detail.as_str()))]));
    (status, JSON, body, TraceOutcome::Ok, detail)
}

/// A 400 for a malformed query; its trace record carries no detail.
fn bad_request(detail: &str) -> Reply {
    let mut reply = error_reply(400, detail.to_string());
    reply.4.clear();
    reply
}

/// Why this prediction fell back to the analytical estimator — each
/// variant maps onto a labeled `serve.degraded|reason=...` series.
enum DegradeCause {
    NoModel,
    QueueDepth(usize),
    /// Sticky degradation, with the failure streak that made it so.
    FailStreak(u32),
    Eval(EvalFailure),
}

impl DegradeCause {
    fn describe(&self, state: &ServeState) -> String {
        match self {
            DegradeCause::NoModel => "no model loaded (analytical-only)".to_string(),
            DegradeCause::QueueDepth(queued) => format!(
                "queue depth {queued} at degrade threshold {}",
                state.degrade_depth
            ),
            DegradeCause::FailStreak(streak) => {
                format!("model failing (streak {streak}); probing every {PROBE_EVERY} requests")
            }
            DegradeCause::Eval(failure) => failure.to_string(),
        }
    }

    fn count(&self, state: &ServeState) {
        match self {
            DegradeCause::NoModel => state.counters.degraded_no_model.inc(),
            DegradeCause::QueueDepth(_) => state.counters.degraded_depth.inc(),
            DegradeCause::FailStreak(_) => state.counters.degraded_fail_streak.inc(),
            DegradeCause::Eval(_) => state.counters.degraded_eval_failure.inc(),
        }
    }

    fn outcome(&self) -> TraceOutcome {
        match self {
            DegradeCause::Eval(EvalFailure::Panicked) => TraceOutcome::PanicContained,
            _ => TraceOutcome::Degraded,
        }
    }
}

fn deadline_exceeded(
    state: &ServeState,
    accepted: &Stopwatch,
    phase: &str,
    budget_ms: u64,
    trace_id: &str,
) -> Reply {
    state.counters.deadline_exceeded.inc();
    state.counters.shed_deadline.inc();
    let detail = format!("deadline exceeded {phase}");
    let body = json_body(&Json::obj([
        ("error", Json::from(detail.as_str())),
        ("deadline_ms", Json::from(budget_ms)),
        ("elapsed_ms", Json::from(accepted.elapsed_ms())),
        ("trace_id", Json::from(trace_id)),
    ]));
    (503, JSON, body, TraceOutcome::DeadlineExpired, detail)
}

fn predict(
    state: &ServeState,
    accepted: &Stopwatch,
    pairs: &[(&str, &str)],
    seq: u64,
    trace_id: &str,
) -> Reply {
    let mut budget = state.default_deadline;
    for (key, value) in pairs {
        if *key == "deadline_ms" {
            match value.parse::<u64>() {
                Ok(ms) if ms > 0 => {
                    budget = Duration::from_millis(ms).min(MAX_DEADLINE);
                }
                _ => {
                    return bad_request(&format!(
                        "deadline_ms wants a positive integer, got {value:?}"
                    ));
                }
            }
        }
    }
    let deadline = accepted.deadline_after(budget);
    let budget_ms = u64::try_from(budget.as_millis()).unwrap_or(u64::MAX);
    if deadline.expired() {
        return deadline_exceeded(state, accepted, "while queued", budget_ms, trace_id);
    }
    // Every other query key names a knob; unnamed knobs keep their
    // defaults.
    let knobs = pairs
        .iter()
        .copied()
        .filter(|(key, _)| *key != "deadline_ms");
    let config = match SimConfig::from_knobs(knobs) {
        Ok(config) => config,
        Err(e) => return error_reply(400, e.to_string()),
    };
    let model = state.store.active();
    // The analytical answer is a closed-form formula — cheap enough to
    // compute unconditionally, so the degraded path has zero extra
    // latency exactly when the service is under the most pressure.
    let analytical = match model.fallback.try_predict(&config) {
        Ok(value) if value.is_finite() => value,
        Ok(value) => return error_reply(500, format!("analytical estimate was {value}")),
        Err(e) => return error_reply(400, e.to_string()),
    };
    let queued = state.queue.len();
    let mut cause: Option<DegradeCause> = None;
    if model.network.is_none() {
        cause = Some(DegradeCause::NoModel);
    } else if queued >= state.degrade_depth {
        cause = Some(DegradeCause::QueueDepth(queued));
    } else {
        let mut degrade = state.degrade();
        if degrade.sticky {
            let tick = degrade.probe_tick;
            degrade.probe_tick += 1;
            if !tick.is_multiple_of(PROBE_EVERY) {
                cause = Some(DegradeCause::FailStreak(degrade.streak));
            }
        }
    }
    let prediction = if cause.is_some() {
        analytical
    } else {
        // The evaluation runs with no lock held; the telemetry events
        // are emitted after the guard drops.
        match evaluate_real(state, &model, &config, seq) {
            Ok(value) => {
                let recovered = {
                    let mut degrade = state.degrade();
                    degrade.streak = 0;
                    std::mem::take(&mut degrade.sticky)
                };
                if recovered {
                    ppm_telemetry::event!(
                        Level::Info,
                        "serve.recovered",
                        "model_version" => model.version.clone(),
                    );
                }
                value
            }
            Err(failure) => {
                state.counters.model_failures.inc();
                let (streak, turned_sticky) = {
                    let mut degrade = state.degrade();
                    degrade.streak += 1;
                    let turned = degrade.streak >= FAIL_STREAK && !degrade.sticky;
                    degrade.sticky |= turned;
                    (degrade.streak, turned)
                };
                if turned_sticky {
                    ppm_telemetry::event!(
                        Level::Warn,
                        "serve.degraded_sticky",
                        "streak" => u64::from(streak),
                        "detail" => failure.to_string(),
                    );
                }
                cause = Some(DegradeCause::Eval(failure));
                analytical
            }
        }
    };
    if deadline.expired() {
        return deadline_exceeded(state, accepted, "during evaluation", budget_ms, trace_id);
    }
    let degraded = cause.is_some();
    let (outcome, degraded_reason) = match &cause {
        Some(cause) => {
            state.counters.degraded.inc();
            cause.count(state);
            (cause.outcome(), Some(cause.describe(state)))
        }
        None => (TraceOutcome::Ok, None),
    };
    state.counters.ok.inc();
    let body = json_body(&Json::obj([
        ("schema", Json::from("ppm-serve v1")),
        ("benchmark", Json::from(model.benchmark.to_string())),
        ("metric", Json::from(model.metric.as_str())),
        ("prediction", Json::Float(prediction)),
        ("degraded", Json::from(degraded)),
        (
            "degraded_reason",
            degraded_reason.as_deref().map_or(Json::Null, Json::from),
        ),
        ("model_version", Json::from(model.version.as_str())),
        ("deadline_ms", Json::from(budget_ms)),
        ("elapsed_ms", Json::from(accepted.elapsed_ms())),
        ("trace_id", Json::from(trace_id)),
    ]));
    (
        200,
        JSON,
        body,
        outcome,
        degraded_reason.unwrap_or_default(),
    )
}

/// Readiness is stricter than liveness: the process can be alive
/// (`/healthz`) while unable to give full-fidelity answers.
fn readyz(state: &ServeState) -> Reply {
    let model = state.store.active();
    let queued = state.queue.len();
    let sticky = state.degrade().sticky;
    let ready = model.network.is_some() && !sticky && queued < state.degrade_depth;
    let body = json_body(&Json::obj([
        ("ready", Json::from(ready)),
        ("model_version", Json::from(model.version.as_str())),
        ("sticky_degraded", Json::from(sticky)),
        ("queued", Json::from(queued)),
        ("degrade_depth", Json::from(state.degrade_depth)),
    ]));
    plain(if ready { 200 } else { 503 }, JSON, body)
}

fn statusz(state: &ServeState) -> String {
    let model = state.store.active();
    let c = &state.counters;
    let (sticky, streak) = {
        let degrade = state.degrade();
        (degrade.sticky, degrade.streak)
    };
    let (tracing, retained, capacity) = match &state.trace {
        Some(ring) => (true, ring.len(), ring.capacity()),
        None => (false, 0, 0),
    };
    json_body(&Json::obj([
        ("schema", Json::from("ppm-statusz v1")),
        ("model_version", Json::from(model.version.as_str())),
        ("benchmark", Json::from(model.benchmark.to_string())),
        ("metric", Json::from(model.metric.as_str())),
        ("workers", Json::from(state.workers)),
        ("queue_capacity", Json::from(state.queue.capacity())),
        ("queued", Json::from(state.queue.len())),
        ("degrade_depth", Json::from(state.degrade_depth)),
        ("sticky_degraded", Json::from(sticky)),
        ("fail_streak", Json::from(u64::from(streak))),
        ("chaos", Json::from(state.fault.is_some())),
        ("requests", Json::from(c.requests.get())),
        ("ok", Json::from(c.ok.get())),
        ("shed", Json::from(c.shed.get())),
        ("degraded", Json::from(c.degraded.get())),
        ("deadline_exceeded", Json::from(c.deadline_exceeded.get())),
        ("model_failures", Json::from(c.model_failures.get())),
        ("reloads", Json::from(c.reloads.get())),
        ("reload_failures", Json::from(c.reload_failures.get())),
        (
            "shed_by_reason",
            Json::obj([
                ("queue_full", Json::from(c.shed_queue_full.get())),
                ("deadline", Json::from(c.shed_deadline.get())),
            ]),
        ),
        (
            "degraded_by_reason",
            Json::obj([
                ("no_model", Json::from(c.degraded_no_model.get())),
                ("degrade_depth", Json::from(c.degraded_depth.get())),
                ("fail_streak", Json::from(c.degraded_fail_streak.get())),
                ("eval_failure", Json::from(c.degraded_eval_failure.get())),
            ]),
        ),
        (
            "trace",
            Json::obj([
                ("enabled", Json::from(tracing)),
                ("retained", Json::from(retained)),
                ("capacity", Json::from(capacity)),
            ]),
        ),
        ("slo", state.slo.to_json(unix_now_sec())),
    ]))
}

fn reloadz(state: &ServeState) -> Reply {
    match state.store.reload() {
        Ok(outcome) => {
            state.counters.reloads.inc();
            if outcome.changed {
                // A new model starts with a clean failure record.
                let mut degrade = state.degrade();
                degrade.streak = 0;
                degrade.sticky = false;
            }
            let body = json_body(&Json::obj([
                ("version", Json::from(outcome.version.as_str())),
                ("changed", Json::from(outcome.changed)),
            ]));
            plain(200, JSON, body)
        }
        Err(e) => {
            state.counters.reload_failures.inc();
            ppm_telemetry::event!(
                Level::Error,
                "serve.reload_failed",
                "detail" => e.to_string(),
            );
            // 409: the request conflicted with the validation gate; the
            // previous model keeps serving (rollback by not swapping).
            let body = json_body(&Json::obj([
                ("error", Json::from(e.to_string())),
                ("version", Json::from(state.store.active().version.as_str())),
            ]));
            plain(409, JSON, body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_live::http::IO_TIMEOUT;
    use ppm_live::{http_get, http_post};
    use std::io::Write;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppm-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn analytical_config(tag: &str) -> ServeConfig {
        ServeConfig {
            registry: scratch(tag).join("registry"),
            fallback_benchmark: Some(Benchmark::Ammp),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_predictions_health_and_status_analytically() {
        let _serial = crate::tests::serial();
        let server = ServeServer::start(analytical_config("basic")).unwrap();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/predict?rob=96", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-serve v1")
        );
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("model_version").and_then(Json::as_str),
            Some("analytical")
        );
        let p = doc.get("prediction").and_then(Json::as_f64).unwrap();
        assert!(p.is_finite() && p > 0.0);

        let (status, _) = http_get(&addr, "/healthz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        // Not ready: no real model is loaded.
        let (status, body) = http_get(&addr, "/readyz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 503, "{body}");
        let (status, body) = http_get(&addr, "/statusz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-statusz v1")
        );
        let (status, body) = http_get(&addr, "/metrics", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ppm_serve_requests"), "{body}");
    }

    #[test]
    fn rejects_bad_parameters_and_unknown_routes() {
        let _serial = crate::tests::serial();
        let server = ServeServer::start(analytical_config("params")).unwrap();
        let addr = server.addr().to_string();
        let predict = |query: &str| {
            let (status, body) = http_get(&addr, &format!("/predict?{query}"), IO_TIMEOUT).unwrap();
            (status, Json::parse(&body).unwrap())
        };
        let detail = |query: &str| {
            let (status, doc) = predict(query);
            assert_eq!(status, 400, "{query}");
            doc.get("error").and_then(Json::as_str).unwrap().to_string()
        };
        assert_eq!(detail("warp=9"), r#"unknown parameter "warp""#);
        assert_eq!(
            detail("rob=banana"),
            r#"rob wants an integer, got "banana""#
        );
        let (status, _) = http_get(&addr, "/predict?deadline_ms=0", IO_TIMEOUT).unwrap();
        assert_eq!(status, 400);
        // Out-of-range configs are 400s from `SimConfig::validate`.
        assert_eq!(
            detail("rob=7"),
            "parameter rob_size violates: 8 <= rob_size <= 512"
        );
        // A query naming all nine knobs is answered at exactly that
        // configuration.
        let pairs = [
            ("depth", "20"),
            ("rob", "100"),
            ("iq", "0.3"),
            ("lsq", "0.7"),
            ("l2-kb", "4096"),
            ("l2-lat", "7"),
            ("il1-kb", "16"),
            ("dl1-kb", "64"),
            ("dl1-lat", "3"),
        ];
        let query: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let (status, doc) = predict(&query.join("&"));
        assert_eq!(status, 200, "{doc:?}");
        let config = SimConfig::from_knobs(pairs).unwrap();
        let store = ModelStore::open(&scratch("params-store"), Some(Benchmark::Ammp)).unwrap();
        assert_eq!(
            doc.get("prediction").and_then(Json::as_f64),
            Some(store.active().fallback.predict(&config))
        );
        let (status, _) = http_get(&addr, "/nope", IO_TIMEOUT).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(&addr, "/reloadz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 405, "reloadz is POST-only");
    }

    #[test]
    fn quitz_stops_the_server_and_wait_returns() {
        let _serial = crate::tests::serial();
        let server = ServeServer::start(analytical_config("quitz")).unwrap();
        let addr = server.addr().to_string();
        let (status, _) = http_post(&addr, "/quitz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
        server.wait();
    }

    #[test]
    fn reload_of_an_empty_registry_is_a_conflict_not_a_crash() {
        let _serial = crate::tests::serial();
        let server = ServeServer::start(analytical_config("reload")).unwrap();
        let addr = server.addr().to_string();
        let before = ppm_telemetry::registry()
            .counter("serve.reload_failures")
            .get();
        let (status, body) = http_post(&addr, "/reloadz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 409, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("version").and_then(Json::as_str),
            Some("analytical"),
            "rollback keeps the active version"
        );
        let after = ppm_telemetry::registry()
            .counter("serve.reload_failures")
            .get();
        assert!(after > before);
        // Predictions still work after the failed reload.
        let (status, _) = http_get(&addr, "/predict", IO_TIMEOUT).unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn degrade_depth_zero_degrades_every_prediction() {
        let _serial = crate::tests::serial();
        let config = ServeConfig {
            degrade_depth: 0,
            ..analytical_config("always-degraded")
        };
        let server = ServeServer::start(config).unwrap();
        let addr = server.addr().to_string();
        for _ in 0..3 {
            let (status, body) = http_get(&addr, "/predict", IO_TIMEOUT).unwrap();
            assert_eq!(status, 200);
            let doc = Json::parse(&body).unwrap();
            assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        }
    }

    /// A connected socket pair: the client end and the service's end,
    /// with the service's read budget.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        (client, stream)
    }

    /// Service state for `config`, and the bound (not accepting) server
    /// whose stop handle it holds.
    fn state_for(config: &ServeConfig) -> (ServeState, Server) {
        let store = ModelStore::open(&config.registry, config.fallback_benchmark).unwrap();
        let server = Server::bind(&config.addr).unwrap();
        (ServeState::new(config, store, &server), server)
    }

    fn read_response(mut client: TcpStream) -> String {
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        response
    }

    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";

    #[test]
    fn a_handler_panic_is_contained_counted_and_traced() {
        let scoped = ppm_telemetry::Registry::scoped();
        let (state, _server) = state_for(&analytical_config("panic"));
        let conn = |stream| Conn {
            stream,
            accepted: Stopwatch::start(),
            seq: 41,
        };
        let (_client, stream) = socket_pair();
        serve_one(&state, conn(stream), 1, |_, _, _| {
            // The panic path is this test's subject. lint:allow(panic-path)
            panic!("injected handler panic");
        });
        assert_eq!(scoped.counter("exec.serve.worker_panics").get(), 1);
        let ring = state.trace.as_ref().unwrap();
        let records = ring.snapshot(&TraceFilter::default());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, TraceOutcome::PanicContained);
        assert_eq!(records[0].worker, Some(1));
        // The same worker answers its next request.
        let (mut client, stream) = socket_pair();
        client.write_all(HEALTHZ).unwrap();
        serve_one(&state, conn(stream), 1, handle_connection);
        let response = read_response(client);
        assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
        assert_eq!(scoped.counter("exec.serve.worker_panics").get(), 1);
    }

    #[test]
    fn dropping_the_intake_answers_every_queued_request_first() {
        let _scoped = ppm_telemetry::Registry::scoped();
        let config = ServeConfig {
            workers: 1,
            ..analytical_config("drain")
        };
        let (state, _server) = state_for(&config);
        let state = Arc::new(state);
        let mut intake = Intake::spawn(Arc::clone(&state), 1).unwrap();
        // A silent client holds the one worker, so the next three stay
        // queued until it speaks.
        let (mut silent, stream) = socket_pair();
        intake.accept(stream);
        let queued: Vec<TcpStream> = (0..3)
            .map(|_| {
                let (mut client, stream) = socket_pair();
                client.write_all(HEALTHZ).unwrap();
                intake.accept(stream);
                client
            })
            .collect();
        assert!(state.queue.len() >= 3);
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            silent.write_all(HEALTHZ).unwrap();
            read_response(silent)
        });
        drop(intake);
        assert_eq!(state.queue.len(), 0);
        for client in queued {
            let response = read_response(client);
            assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
        }
        assert!(release.join().unwrap().starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn a_full_queue_sheds_and_counts_saturation() {
        let scoped = ppm_telemetry::Registry::scoped();
        let config = ServeConfig {
            workers: 1,
            queue_per_worker: 1,
            ..analytical_config("saturated")
        };
        let (state, _server) = state_for(&config);
        let state = Arc::new(state);
        let mut intake = Intake::spawn(Arc::clone(&state), 1).unwrap();
        let (mut silent, stream) = socket_pair();
        intake.accept(stream);
        while state.queue.len() > 0 {
            std::thread::yield_now();
        }
        // The worker holds the silent client; the next request takes
        // the one slot; the one after is shed.
        let (mut queued, stream) = socket_pair();
        queued.write_all(HEALTHZ).unwrap();
        intake.accept(stream);
        // A shed never reads the head, so this client sends none: unread
        // request bytes would turn the 503 into a reset.
        let (shed, stream) = socket_pair();
        intake.accept(stream);
        let response = read_response(shed);
        assert!(response.starts_with("HTTP/1.1 503"), "{response:?}");
        assert!(
            response.contains("shed: request queue full"),
            "{response:?}"
        );
        assert_eq!(scoped.counter("exec.serve.saturated").get(), 1);
        silent.write_all(HEALTHZ).unwrap();
        drop(intake);
        assert!(read_response(queued).starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn traces_name_workers_in_range() {
        let _serial = crate::tests::serial();
        let config = ServeConfig {
            workers: 3,
            ..analytical_config("worker-ids")
        };
        let server = ServeServer::start(config).unwrap();
        let addr = server.addr().to_string();
        // Analytical answers are degraded, so the ring keeps them all.
        for _ in 0..12 {
            let (status, _) = http_get(&addr, "/predict", IO_TIMEOUT).unwrap();
            assert_eq!(status, 200);
        }
        let (_, body) = http_get(&addr, "/tracez?outcome=degraded", IO_TIMEOUT).unwrap();
        let doc = Json::parse(&body).unwrap();
        let workers: Vec<i64> = doc
            .get("records")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|r| r.get("worker").and_then(Json::as_i64))
            .collect();
        assert_eq!(workers.len(), 12, "{body}");
        assert!(workers.iter().all(|w| (0..3).contains(w)), "{workers:?}");
    }

    #[test]
    fn zero_workers_need_a_zero_queue() {
        let _serial = crate::tests::serial();
        let config = ServeConfig {
            workers: 0,
            ..analytical_config("zero-workers")
        };
        match ServeServer::start(config) {
            Err(ServeError::Pool(detail)) => {
                assert_eq!(detail, "need at least one worker thread");
            }
            Err(e) => panic!("wrong refusal: {e}"),
            Ok(_) => panic!("zero workers started with a non-zero queue"),
        }
        // Zero workers and zero slots is the shed-all drill.
        let config = ServeConfig {
            workers: 0,
            queue_per_worker: 0,
            ..analytical_config("zero-drill")
        };
        let server = ServeServer::start(config).unwrap();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/healthz", IO_TIMEOUT).unwrap();
        assert_eq!(status, 503, "{body}");
    }
}
