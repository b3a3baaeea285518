//! RAII wall-clock span timers with parent/child nesting.
//!
//! A [`Span`] measures the time between its creation and drop. Spans
//! created while another span is alive on the same thread become its
//! children: the closing record carries the nesting depth and parent
//! name, and the human reporter indents accordingly.
//!
//! Every closing record also carries the span's start offset on the
//! process-wide monotonic clock ([`monotonic_us`]), the recording
//! thread's stable ordinal ([`thread_ordinal`]), and — where the
//! platform provides it — the process CPU time consumed while the span
//! was open. Together these are enough to reconstruct the full span
//! tree as a timeline (the Chrome-trace/Perfetto export in `ppm-obs`
//! builds directly on them).
//!
//! Worker threads spawned mid-pipeline start with an empty span stack,
//! which would orphan their spans at depth 0. [`TelemetryContext`]
//! fixes that: capture the spawning thread's context with
//! [`crate::current_context`], then [`TelemetryContext::attach`] it in
//! the worker so nested spans and events inherit the correct depth,
//! parent, and scoped registry.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::cputime::process_cpu_us;
use crate::registry::Registry;
use crate::sink::Record;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// This thread's cached ordinal (assigned on first telemetry use).
    static THREAD_ORDINAL: u64 = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// Source of thread ordinals; the first thread to record gets 0.
static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide stack of open `stage.*` spans, innermost last. Unlike
/// `SPAN_STACK` this is global, so the live plane can answer "what
/// stage is the build in right now?" from any thread.
static STAGE_STACK: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());

/// The innermost open `stage.*` span anywhere in the process, without
/// the `stage.` prefix (e.g. `"simulation"`), or `None` between stages.
pub fn current_stage() -> Option<String> {
    STAGE_STACK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .last()
        .map(|s| s.trim_start_matches("stage.").to_string())
}

fn stage_push(name: &str) {
    if name.starts_with("stage.") {
        STAGE_STACK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(name.to_string());
    }
}

fn stage_pop(name: &str) {
    if name.starts_with("stage.") {
        let mut stack = STAGE_STACK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(pos) = stack.iter().rposition(|n| n == name) {
            stack.remove(pos);
        }
    }
}

/// The process-wide monotonic epoch, fixed on first telemetry use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds elapsed on the process-wide monotonic clock. All span
/// `start_us` values share this origin, so records from different
/// threads are mutually comparable.
pub fn monotonic_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// A small, stable identifier for the current thread, assigned on first
/// telemetry use. Used as the `tid` lane in trace exports (the standard
/// library's `ThreadId` has no stable public integer form).
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

/// The current nesting depth on this thread (number of open spans,
/// including any inherited via [`TelemetryContext::attach`]).
pub fn current_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// The name of the innermost open span on this thread, if any.
pub fn current_span() -> Option<String> {
    SPAN_STACK.with(|s| s.borrow().last().cloned())
}

/// A snapshot of one thread's telemetry surroundings: its open span
/// stack and its scoped-registry override. Capture it with
/// [`crate::current_context`] before spawning workers, then
/// [`TelemetryContext::attach`] it inside each worker so their spans,
/// events, and metrics nest under the spawning stage instead of
/// floating at depth 0 against the global registry.
#[derive(Debug, Clone, Default)]
pub struct TelemetryContext {
    pub(crate) spans: Vec<String>,
    pub(crate) registry: Option<Arc<Registry>>,
}

impl TelemetryContext {
    /// Installs this context on the current thread, returning a guard
    /// that restores the previous state when dropped. The inherited
    /// span names act as a read-only base: they contribute depth and
    /// parent attribution but are closed only by their owning thread.
    pub fn attach(&self) -> ContextGuard {
        let restore_len = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let len = stack.len();
            stack.extend(self.spans.iter().cloned());
            len
        });
        let prev_registry = crate::set_registry_override(self.registry.clone());
        ContextGuard {
            restore_len,
            prev_registry,
        }
    }
}

/// Restores the thread's span stack and registry override on drop.
/// Returned by [`TelemetryContext::attach`].
#[derive(Debug)]
pub struct ContextGuard {
    restore_len: usize,
    prev_registry: Option<Arc<Registry>>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| s.borrow_mut().truncate(self.restore_len));
        crate::set_registry_override(self.prev_registry.take());
    }
}

/// Captures the current thread's context for propagation to workers.
pub(crate) fn snapshot_context() -> TelemetryContext {
    TelemetryContext {
        spans: SPAN_STACK.with(|s| s.borrow().clone()),
        registry: crate::registry_override(),
    }
}

/// A running wall-clock timer, closed on drop.
#[derive(Debug)]
pub struct Span {
    name: String,
    start: Instant,
    start_us: u64,
    cpu_start: Option<u64>,
}

impl Span {
    /// Opens a span named `name` and pushes it onto this thread's
    /// span stack.
    pub fn enter(name: &str) -> Self {
        SPAN_STACK.with(|s| s.borrow_mut().push(name.to_string()));
        stage_push(name);
        Span {
            name: name.to_string(),
            start: Instant::now(),
            start_us: monotonic_us(),
            cpu_start: process_cpu_us(),
        }
    }

    /// Elapsed time so far in microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let name = std::mem::take(&mut self.name);
        let us = self.elapsed_us();
        let cpu_us = match (self.cpu_start, process_cpu_us()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let (depth, parent) = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own entry; tolerate out-of-order drops by
            // removing the deepest matching name.
            if let Some(pos) = stack.iter().rposition(|n| n == &name) {
                stack.remove(pos);
            }
            (stack.len(), stack.last().cloned())
        });
        stage_pop(&name);
        crate::with_active_registry(|r| r.histogram(&format!("span.{name}.us")).record(us));
        crate::dispatch(&Record::Span {
            name,
            us,
            start_us: self.start_us,
            tid: thread_ordinal(),
            cpu_us,
            depth,
            parent,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_tracks_nesting() {
        assert_eq!(current_depth(), 0);
        let _a = Span::enter("outer");
        assert_eq!(current_depth(), 1);
        assert_eq!(current_span().as_deref(), Some("outer"));
        {
            let _b = Span::enter("inner");
            assert_eq!(current_depth(), 2);
            assert_eq!(current_span().as_deref(), Some("inner"));
        }
        assert_eq!(current_depth(), 1);
        assert_eq!(current_span().as_deref(), Some("outer"));
    }

    #[test]
    fn current_stage_tracks_stage_spans_globally() {
        {
            let _s = Span::enter("stage.testing_live");
            assert_eq!(current_stage().as_deref(), Some("testing_live"));
            // Visible from another thread: the stack is process-wide.
            let seen = std::thread::spawn(current_stage).join().unwrap();
            assert_eq!(seen.as_deref(), Some("testing_live"));
            // Non-stage spans don't disturb it.
            let _inner = Span::enter("t.not_a_stage");
            assert_eq!(current_stage().as_deref(), Some("testing_live"));
        }
        assert_eq!(current_stage(), None);
    }

    #[test]
    fn elapsed_is_monotone() {
        let s = Span::enter("t");
        let a = s.elapsed_us();
        let b = s.elapsed_us();
        assert!(b >= a);
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let a = monotonic_us();
        let b = monotonic_us();
        assert!(b >= a);
    }

    #[test]
    fn thread_ordinals_are_distinct_and_stable() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal(), "ordinal must be cached");
        let theirs = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn attached_context_inherits_depth_and_parent() {
        let _outer = Span::enter("ctx.outer");
        let ctx = crate::current_context();
        let handle = std::thread::spawn(move || {
            let _g = ctx.attach();
            // The worker sees the spawning thread's stack as its base.
            (current_depth(), current_span())
        });
        let (depth, parent) = handle.join().unwrap();
        assert_eq!(depth, 1);
        assert_eq!(parent.as_deref(), Some("ctx.outer"));
        // Our own stack is untouched by the worker's guard.
        assert_eq!(current_depth(), 1);
    }

    #[test]
    fn context_guard_restores_on_drop() {
        let ctx = TelemetryContext {
            spans: vec!["base.a".into(), "base.b".into()],
            registry: None,
        };
        assert_eq!(current_depth(), 0);
        {
            let _g = ctx.attach();
            assert_eq!(current_depth(), 2);
            assert_eq!(current_span().as_deref(), Some("base.b"));
        }
        assert_eq!(current_depth(), 0);
    }
}
