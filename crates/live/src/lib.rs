//! # ppm-live
//!
//! An in-process observability plane: a zero-dependency background HTTP
//! endpoint that exposes the telemetry registry and build progress of a
//! *running* pipeline, plus the terminal client behind `ppm top`.
//!
//! The rest of the workspace's observability is post-hoc — ledgers and
//! traces are readable only after a run finishes. This crate is the
//! live half: three routes mounted on the workspace's one HTTP server
//! core ([`http`]), served inline on a dedicated `ppm-live` thread:
//!
//! | route | payload |
//! |-------|---------|
//! | `GET /metrics` | Prometheus text exposition of every counter, gauge, and histogram (with cumulative buckets) |
//! | `GET /buildz`  | `ppm-buildz v1` JSON: current stage, points planned/done, retries, quarantines, ETA |
//! | `GET /eventz`  | `ppm-eventz v1` JSON: the bounded ring of recent leveled events |
//!
//! Metric names follow the `ppm_<crate>_<name>{unit}` convention: the
//! registry's dotted names are prefixed with `ppm_` and every
//! non-alphanumeric character becomes `_`, so `sim.batch_points`
//! exports as `ppm_sim_batch_points` and the unit suffix already
//! embedded in histogram names (`span.stage.simulation.us`) survives as
//! `ppm_span_stage_simulation_us`.
//!
//! The server is deliberately single-threaded (scrapes are rare and
//! cheap), never panics on client misbehaviour — malformed requests and
//! mid-response disconnects become the `live.client_errors` counter and
//! a `Level::Warn` event — and shuts down cleanly when the
//! [`LiveServer`] handle drops. `ppm serve` (`crates/serve`) runs on
//! the same [`http`] core with its own route table and a worker-pool
//! callback, and reuses [`render_prometheus`] for its `/metrics`.

mod buildz;
mod client;
mod expo;
pub mod http;
mod server;
mod top;

pub use buildz::render_buildz;
pub use client::{http_get, http_post, http_request_full, HttpResponse};
pub use expo::{render_prometheus, split_labels};
pub use server::LiveServer;
pub use top::{fetch_top, render_frame, ServeView, SloWindowView, TopSnapshot, TopState};

use std::fmt;
use std::sync::Arc;

use ppm_telemetry::{MetricRecord, Registry};

/// Errors from the live plane: binding, serving, and polling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LiveError {
    /// The listen address could not be bound (in use, no permission,
    /// unparseable).
    Bind {
        /// The address that was requested.
        addr: String,
        /// The OS-level detail.
        detail: String,
    },
    /// A client-side socket operation failed (connect, read, write).
    Io(String),
    /// The endpoint answered with a non-200 status.
    Http {
        /// The status code received.
        status: u16,
        /// The response body (or reason) for diagnosis.
        detail: String,
    },
    /// The response was not the expected shape (bad JSON, missing
    /// header, truncated exposition).
    Malformed(String),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Bind { addr, detail } => {
                write!(f, "cannot bind live plane on {addr}: {detail}")
            }
            LiveError::Io(detail) => write!(f, "live plane I/O failed: {detail}"),
            LiveError::Http { status, detail } => {
                write!(f, "live plane answered {status}: {detail}")
            }
            LiveError::Malformed(detail) => write!(f, "malformed live response: {detail}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<http::BindError> for LiveError {
    fn from(http::BindError { addr, detail }: http::BindError) -> Self {
        LiveError::Bind { addr, detail }
    }
}

/// Where the server reads instruments from: the process-global registry
/// (the CLI's case) or a shared handle (tests with scoped registries).
#[derive(Debug, Clone, Default)]
pub enum RegistrySource {
    /// The global [`ppm_telemetry::registry`].
    #[default]
    Global,
    /// An explicit registry handle.
    Shared(Arc<Registry>),
}

impl RegistrySource {
    /// Snapshots every instrument from the selected registry.
    pub fn snapshot(&self) -> Vec<MetricRecord> {
        match self {
            RegistrySource::Global => ppm_telemetry::registry().snapshot(),
            RegistrySource::Shared(r) => r.snapshot(),
        }
    }
}
