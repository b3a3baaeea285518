//! # ppm-telemetry
//!
//! Zero-dependency tracing, metrics, and profiling for the
//! BuildRBFmodel pipeline.
//!
//! The crate provides three instrument kinds held in a global
//! [`Registry`] — [`Counter`]s, [`Gauge`]s, and log-bucketed
//! [`Histogram`]s with quantile queries — plus RAII [`Span`] timers
//! that nest per thread, and discrete [`event`](fn@event)s with typed
//! fields. Output goes through pluggable [`Sink`]s: a human-readable
//! stderr progress reporter and a JSON-lines exporter ship in-crate.
//!
//! This lowest layer also owns the workspace's one JSON codec, [`Json`]:
//! event fields are `Json` values, and every crate above parses and
//! writes its documents through it. Likewise its one FNV-1a
//! ([`fnv1a64`]) and its one crash-safe file writer ([`write_atomic`]),
//! behind model files, result stores, the model registry and run
//! ledgers alike. [`nearest_rank`] is the exact quantile of a raw
//! sample, where a [`Histogram`]'s is bucketed.
//!
//! Everything is hand-rolled on `std`; there are no dependencies.
//!
//! ## Usage
//!
//! ```
//! use ppm_telemetry as tel;
//!
//! tel::counter("sampling.discrepancy_evals").add(10);
//! tel::gauge("rbf.selected_aicc").set(-41.2);
//! {
//!     let _span = tel::span("stage.sampling");
//!     tel::event("lhs.selected", &[("score", 0.012.into())]);
//! } // span duration recorded on drop
//! ```
//!
//! ## Cost when idle
//!
//! Instruments are single atomics; with no sinks installed, events
//! return, and span closings skip dispatch, after one atomic load. Call
//! sites never need to be conditionally compiled out.

mod cputime;
mod file;
mod json;
mod order;
mod registry;
mod ring;
mod sink;
mod span;

pub use cputime::process_cpu_us;
pub use file::{fnv1a64, fnv1a64_hex, write_atomic};
pub use json::{Json, JsonError};
pub use order::nearest_rank;
pub use registry::{Counter, Gauge, Histogram, MetricKind, MetricRecord, Registry};
pub use ring::{EventRing, RingEvent};
pub use sink::{BufferSink, JsonlSink, Level, Record, Sink, StderrSink, Verbosity};
pub use span::{
    current_depth, current_span, current_stage, monotonic_us, thread_ordinal, ContextGuard, Span,
    TelemetryContext,
};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static REGISTRY: Registry = Registry::new();
static SINKS: Mutex<Vec<Box<dyn Sink>>> = Mutex::new(Vec::new());
/// Mirrors `SINKS.len()` so the no-sink fast path skips the lock.
// atomic-policy(SINK_COUNT): Release, Acquire — the count is published
// after the sink vector is mutated under the lock; dispatch()'s
// fast-path load must observe the store that made the vector non-empty
// before it skips the lock.
static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread registry override installed by [`Registry::scoped`] or
    /// an attached [`TelemetryContext`]. `None` means the global
    /// registry is active.
    static REGISTRY_OVERRIDE: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Swaps this thread's registry override, returning the previous one.
pub(crate) fn set_registry_override(r: Option<Arc<Registry>>) -> Option<Arc<Registry>> {
    REGISTRY_OVERRIDE.with(|o| std::mem::replace(&mut *o.borrow_mut(), r))
}

/// This thread's registry override, if any.
pub(crate) fn registry_override() -> Option<Arc<Registry>> {
    REGISTRY_OVERRIDE.with(|o| o.borrow().clone())
}

/// Runs `f` against the registry active on this thread: the scoped
/// override when one is installed, else the global registry.
pub(crate) fn with_active_registry<T>(f: impl FnOnce(&Registry) -> T) -> T {
    match registry_override() {
        Some(r) => f(&r),
        None => f(&REGISTRY),
    }
}

/// The global instrument registry (ignores scoped overrides).
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// The counter named `name` in the active registry. Hot paths should
/// cache the handle.
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    with_active_registry(|r| r.counter(name))
}

/// The gauge named `name` in the active registry.
pub fn gauge(name: &str) -> std::sync::Arc<Gauge> {
    with_active_registry(|r| r.gauge(name))
}

/// The histogram named `name` in the active registry.
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    with_active_registry(|r| r.histogram(name))
}

/// Snapshots every instrument in the active registry, sorted by kind
/// then name (same order [`export_metrics`] emits).
pub fn snapshot() -> Vec<MetricRecord> {
    with_active_registry(|r| r.snapshot())
}

/// Captures this thread's telemetry context (open span stack plus any
/// scoped-registry override) for propagation into worker threads; see
/// [`TelemetryContext::attach`].
pub fn current_context() -> TelemetryContext {
    span::snapshot_context()
}

/// An RAII guard that redirects this thread's instrument lookups to a
/// private [`Registry`]. Created by [`Registry::scoped`].
///
/// While the guard lives, `counter`/`gauge`/`histogram`/`snapshot` (and
/// span-duration histograms) on this thread hit the private registry
/// instead of the global one, so concurrent tests can't bleed counters
/// into each other. Worker threads spawned while the guard is active
/// inherit it through [`current_context`] / [`TelemetryContext::attach`].
///
/// The guard is deliberately `!Send`: it manages thread-local state and
/// must drop on the thread that created it.
#[derive(Debug)]
pub struct ScopedRegistry {
    registry: Arc<Registry>,
    prev: Option<Arc<Registry>>,
    /// Keeps the guard on its creating thread.
    _not_send: PhantomData<*const ()>,
}

impl ScopedRegistry {
    /// A shared handle to the scoped registry (e.g. to move into a
    /// worker context manually).
    pub fn handle(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Snapshots the scoped registry's instruments.
    pub fn snapshot(&self) -> Vec<MetricRecord> {
        self.registry.snapshot()
    }
}

impl std::ops::Deref for ScopedRegistry {
    type Target = Registry;

    fn deref(&self) -> &Registry {
        &self.registry
    }
}

impl Drop for ScopedRegistry {
    fn drop(&mut self) {
        set_registry_override(self.prev.take());
    }
}

impl Registry {
    /// Installs a fresh, private registry as this thread's instrument
    /// target and returns the guard controlling its lifetime.
    ///
    /// ```
    /// let scoped = ppm_telemetry::Registry::scoped();
    /// ppm_telemetry::counter("isolated.count").inc();
    /// assert_eq!(scoped.counter("isolated.count").get(), 1);
    /// drop(scoped); // global registry active again
    /// ```
    pub fn scoped() -> ScopedRegistry {
        let registry = Arc::new(Registry::new());
        let prev = set_registry_override(Some(Arc::clone(&registry)));
        ScopedRegistry {
            registry,
            prev,
            _not_send: PhantomData,
        }
    }
}

/// Opens a global span named `name` (see [`Span::enter`]).
pub fn span(name: &str) -> Span {
    Span::enter(name)
}

/// Installs a sink at the end of the dispatch order.
pub fn add_sink(sink: Box<dyn Sink>) {
    let mut sinks = SINKS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    sinks.push(sink);
    SINK_COUNT.store(sinks.len(), Ordering::Release);
}

/// Removes every installed sink, flushing each first. The sinks are
/// taken out under the lock but flushed after it is released, so a
/// slow flush (a sink writing to a file or socket) cannot stall
/// concurrent `dispatch` callers.
pub fn clear_sinks() {
    let mut taken = {
        let mut sinks = SINKS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        SINK_COUNT.store(0, Ordering::Release);
        std::mem::take(&mut *sinks)
    };
    for s in taken.iter_mut() {
        s.flush();
    }
}

/// Flushes every installed sink (before process exit).
fn flush_sinks() {
    for s in SINKS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter_mut()
    {
        // Flushing under the lock is deliberate: it serializes with
        // in-flight dispatch() so the final flush cannot race a record
        // mid-write, and this runs once, at process exit.
        // lint:allow(lock-order)
        s.flush();
    }
}

/// Sends a record to every sink whose verbosity admits it.
pub(crate) fn dispatch(rec: &Record) {
    if SINK_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    for s in SINKS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter_mut()
    {
        if rec.visible_at(s.verbosity()) {
            s.record(rec);
        }
    }
}

/// Emits a discrete [`Level::Info`] event with the given fields at the
/// current span depth. No-op when no sink is installed.
pub fn event(name: &str, fields: &[(&str, Json)]) {
    event_at(Level::Info, name, fields);
}

/// Emits a discrete event at an explicit severity. `Warn` and `Error`
/// events stay visible to `Progress` sinks even when nested; prefer the
/// [`event!`] macro at call sites for the key/value sugar.
pub fn event_at(level: Level, name: &str, fields: &[(&str, Json)]) {
    if SINK_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    dispatch(&Record::Event {
        name: name.to_string(),
        level,
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        depth: current_depth(),
    });
}

/// Emits a leveled event with `key => value` field sugar:
///
/// ```
/// use ppm_telemetry::Level;
/// ppm_telemetry::event!(Level::Warn, "live.client_error", "cause" => "reset", "port" => 8080u64);
/// ```
///
/// Values go through [`Json::from`], so integers, floats, booleans,
/// `&str`, and `String` all work directly.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr $(, $k:expr => $v:expr)* $(,)?) => {
        $crate::event_at($level, $target, &[$(($k, $crate::Json::from($v))),*])
    };
}

/// Snapshots every instrument in the active registry and sends the
/// resulting metric records to all sinks, then flushes.
pub fn export_metrics() {
    for m in snapshot() {
        dispatch(&Record::Metric(m));
    }
    flush_sinks();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that install global sinks.
    static GLOBAL_SINK_TEST: Mutex<()> = Mutex::new(());

    fn with_buffer<F: FnOnce()>(f: F) -> Vec<Record> {
        let _guard = GLOBAL_SINK_TEST
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        clear_sinks();
        let buf = BufferSink::new();
        add_sink(Box::new(buf.clone()));
        f();
        clear_sinks();
        buf.records()
    }

    #[test]
    fn spans_close_in_nesting_order_with_parents() {
        let records = with_buffer(|| {
            let _outer = span("t.outer");
            let _mid = span("t.mid");
            let inner = span("t.inner");
            drop(inner);
        });
        // Other tests may run concurrently on other threads; keep only
        // this test's spans (span stacks are thread-local, so depth and
        // parent are still ours alone).
        let spans: Vec<(String, usize, Option<String>)> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span {
                    name,
                    depth,
                    parent,
                    ..
                } if name.starts_with("t.") => Some((name.clone(), *depth, parent.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            vec![
                ("t.inner".to_string(), 2, Some("t.mid".to_string())),
                ("t.mid".to_string(), 1, Some("t.outer".to_string())),
                ("t.outer".to_string(), 0, None),
            ]
        );
    }

    #[test]
    fn span_durations_land_in_the_registry() {
        {
            let _s = span("reg_check");
        }
        let h = histogram("span.reg_check.us");
        assert!(h.count() >= 1);
    }

    #[test]
    fn events_carry_fields_and_depth() {
        let records = with_buffer(|| {
            let _s = span("t.evt_parent");
            event("t.evt", &[("n", 3u64.into()), ("label", "a\"b".into())]);
        });
        let evt = records
            .iter()
            .find_map(|r| match r {
                Record::Event {
                    name,
                    fields,
                    depth,
                    ..
                } if name == "t.evt" => Some((fields.clone(), *depth)),
                _ => None,
            })
            .expect("event captured");
        assert_eq!(evt.1, 1);
        assert_eq!(evt.0[0].0, "n");
        assert_eq!(evt.0[0].1, Json::Int(3));
        assert_eq!(evt.0[1].1, Json::Str("a\"b".to_string()));
    }

    #[test]
    fn export_metrics_reaches_sinks() {
        counter("t.export_counter").add(7);
        let records = with_buffer(export_metrics);
        assert!(records.iter().any(|r| matches!(
            r,
            Record::Metric(m) if m.name == "t.export_counter" && m.value == Some(7)
        )));
    }

    #[test]
    fn scoped_registry_isolates_instruments() {
        let global_before = registry().counter("t.scoped_iso").get();
        {
            let scoped = Registry::scoped();
            counter("t.scoped_iso").add(5);
            gauge("t.scoped_gauge").set(1.5);
            histogram("t.scoped_hist").record(10);
            assert_eq!(scoped.counter("t.scoped_iso").get(), 5);
            let snap = snapshot();
            assert!(snap.iter().any(|m| m.name == "t.scoped_iso"));
            // The global registry never saw the increments.
            assert_eq!(registry().counter("t.scoped_iso").get(), global_before);
        }
        // Guard dropped: lookups hit the global registry again.
        counter("t.scoped_iso").inc();
        assert_eq!(registry().counter("t.scoped_iso").get(), global_before + 1);
    }

    #[test]
    fn scoped_registries_nest_and_restore() {
        let outer = Registry::scoped();
        counter("t.nest").add(1);
        {
            let inner = Registry::scoped();
            counter("t.nest").add(10);
            assert_eq!(inner.counter("t.nest").get(), 10);
        }
        counter("t.nest").add(1);
        assert_eq!(outer.counter("t.nest").get(), 2);
    }

    #[test]
    fn scoped_registry_propagates_to_workers_via_context() {
        let scoped = Registry::scoped();
        let ctx = current_context();
        std::thread::spawn(move || {
            let _g = ctx.attach();
            counter("t.scoped_worker").add(3);
        })
        .join()
        .unwrap();
        assert_eq!(scoped.counter("t.scoped_worker").get(), 3);
    }

    #[test]
    fn span_durations_respect_scoped_registry() {
        let scoped = Registry::scoped();
        {
            let _s = span("scoped_span_check");
        }
        assert_eq!(scoped.histogram("span.scoped_span_check.us").count(), 1);
        assert_eq!(registry().histogram("span.scoped_span_check.us").count(), 0);
    }
}
