//! ppm-serve: the fault-hardened CPI-prediction service.
//!
//! The surrogate model exists to be queried, and this crate is the
//! always-on query surface: `ppm serve <addr>` answers
//! `GET /predict?rob=128&deadline_ms=50` with a CPI prediction from the
//! RBF surrogate — or, when the service is overloaded or the model is
//! failing, from the first-order analytical estimator, flagged
//! `"degraded": true`. The design is robustness-first:
//!
//! * **Deadlines** — every request carries one (default or
//!   `?deadline_ms=`, capped), armed at *accept* so queueing counts
//!   against it; late answers become explicit 503s, never stale data.
//! * **Load shedding** — one bounded FIFO between the accept thread and
//!   the workers, which all pop from it; when it fills, requests are
//!   refused immediately (`serve.shed`) instead of queueing unboundedly.
//! * **Graceful degradation** — queue pressure or a streak of model
//!   failures switches prediction to the analytical estimator
//!   ([`ppm_firstorder`]), which sheds *precision* instead of
//!   availability; recovery is automatic via periodic probes.
//! * **Validated hot reload** — models live in a content-addressed
//!   registry ([`store`]); `POST /reloadz` swaps in the `CURRENT`
//!   version only after it passes checksum, hash, and probe validation,
//!   so a corrupt candidate rolls back by never being swapped in.
//! * **Chaos mode** — `--chaos <seed>` injects worker panics, NaN
//!   predictions, slow evaluations, and misbehaving clients
//!   (deterministically, via `ppm_core::fault`), and `ppm loadtest`
//!   ([`run_loadtest`]) measures what the service does under fire.

mod chaos;
mod clock;
mod loadtest;
mod queue;
mod server;
mod store;
mod tail;
pub mod trace;

pub use clock::{unix_now_ms, unix_now_sec, Deadline, Stopwatch};
pub use loadtest::{
    run_ab, run_loadtest, AbReport, LoadtestConfig, LoadtestReport, TraceCheckReport,
};
pub use server::{ServeConfig, ServeServer};
pub use store::{publish, ModelStore, ReloadOutcome, ServingModel, CURRENT_FILE};
pub use tail::{run_tail, TailConfig};
pub use trace::{
    SloTracker, SloWindow, SpanRec, TraceConfig, TraceContext, TraceFilter, TraceOutcome,
    TraceRecord, TraceRing, TRACEZ_SCHEMA,
};

use std::error::Error;
use std::fmt;

/// Why the serving plane could not do what was asked of it.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound (or the accept thread
    /// could not be spawned).
    Bind {
        /// The address that was requested.
        addr: String,
        /// The operating-system failure.
        detail: String,
    },
    /// The model registry refused an open, publish, or reload — the
    /// message names the failed validation step.
    Store(String),
    /// The workers could not start: zero workers for a non-zero queue,
    /// or a worker thread that could not be spawned.
    Pool(String),
    /// A client-side operation (loadtest, control request) failed.
    Client(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, detail } => {
                write!(f, "cannot serve on {addr}: {detail}")
            }
            ServeError::Store(detail) => write!(f, "model registry: {detail}"),
            ServeError::Pool(detail) => write!(f, "worker pool: {detail}"),
            ServeError::Client(detail) => write!(f, "{detail}"),
        }
    }
}

impl Error for ServeError {}

impl From<ppm_live::http::BindError> for ServeError {
    fn from(ppm_live::http::BindError { addr, detail }: ppm_live::http::BindError) -> Self {
        ServeError::Bind { addr, detail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test in this crate that sends traffic to a server.
    /// The `serve.*` counters and the latency exemplar are process-global,
    /// so a concurrent test's requests would otherwise land in another
    /// test's `/statusz` cross-check.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERVER_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERVER_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn errors_render_their_context() {
        let e = ServeError::Bind {
            addr: "127.0.0.1:80".to_string(),
            detail: "permission denied".to_string(),
        };
        assert!(e.to_string().contains("127.0.0.1:80"));
        assert!(ServeError::Store("no CURRENT".to_string())
            .to_string()
            .contains("registry"));
    }

    #[test]
    fn bind_failure_is_typed() {
        // Occupy a port, then ask the server for the same one.
        let holder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = holder.local_addr().unwrap().to_string();
        let result = ServeServer::start(ServeConfig {
            addr: addr.clone(),
            registry: std::env::temp_dir().join("ppm-serve-bind-none"),
            fallback_benchmark: Some(ppm_workload::Benchmark::Ammp),
            ..ServeConfig::default()
        });
        match result {
            Err(ServeError::Bind { addr: a, .. }) => assert_eq!(a, addr),
            Err(other) => panic!("expected Bind, got {other}"),
            Ok(_) => panic!("bound an occupied port"),
        }
    }
}
