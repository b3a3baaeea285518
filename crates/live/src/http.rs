//! The one HTTP/1.1 server core behind the live observability plane
//! (`crates/live`) and the prediction service (`crates/serve`): bind,
//! the named accept thread and loop, socket timeouts, client-error
//! accounting, stop/shutdown/join, bounded head reading, response
//! writing, and routing through a plane's `(method, path, route)`
//! table. A plane brings one per-connection callback and its route
//! handlers.
//!
//! This is deliberately a minimal subset — one request per connection,
//! `Connection: close`, bounded heads — because both servers only need
//! to survive scrapers, load generators, and misbehaving clients, not
//! implement the RFC. I/O functions return `String` errors so callers
//! can fold them into their own counters without caring about the
//! distinction between "peer vanished" and "peer sent garbage".

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ppm_telemetry::{Counter, Level};

/// Default upper bound on the request head either server will buffer.
pub const MAX_HEAD: usize = 8 * 1024;

/// Plain-text responses: health, indexes, refusals.
pub const TEXT: &str = "text/plain";
/// JSON documents (`ppm-* vN` schemas).
pub const JSON: &str = "application/json";
/// Prometheus text exposition, version 0.0.4.
pub const PROMETHEUS: &str = "text/plain; version=0.0.4";

/// Per-connection socket budget: a client that cannot send a request
/// head or drain a response in this window is dropped.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Why a server could not start: the address did not bind (in use, no
/// permission, unparseable) or the accept thread did not spawn. Each
/// plane converts it into its own typed bind error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError {
    /// The address that was requested.
    pub addr: String,
    /// The operating-system failure.
    pub detail: String,
}

/// A plane's client-error sink: accept failures, unreadable heads, and
/// abandoned responses each bump a counter and emit a `Warn` event —
/// they cost their own request, never the serving thread.
#[derive(Debug, Clone)]
pub struct ClientErrors {
    counter: Arc<Counter>,
    event: &'static str,
}

impl ClientErrors {
    /// Resolves the `counter` once (hot paths must not take the
    /// registry lock) and remembers the `event` name.
    pub fn new(counter: &str, event: &'static str) -> Self {
        ClientErrors {
            counter: ppm_telemetry::counter(counter),
            event,
        }
    }

    /// Records one failure of `op` (`accept`, `read`, `write`).
    pub fn record(&self, op: &str, detail: &str) {
        self.counter.inc();
        ppm_telemetry::event!(Level::Warn, self.event, "op" => op, "detail" => detail);
    }
}

/// A cloneable handle on a server's stop flag: shutdown, drop, and
/// control routes (`POST /quitz`) all stop the server through it.
#[derive(Debug, Clone)]
pub struct StopHandle {
    // atomic-policy(stop): Release, Acquire — the stop request is
    // published with Release so the accept loop's (and every watcher's)
    // Acquire load also observes the state written before it.
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Raises the flag and wakes the blocking accept with a throwaway
    /// connection so the loop observes it; if even that connect fails
    /// the listener is already gone.
    pub fn stop(&self) {
        self.raise();
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
    }

    /// Whether a stop has been requested (or the server has ended).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn raise(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// The server core: a bound listener, then — after [`Server::spawn`] —
/// the accept thread serving it. Dropping it (or calling
/// [`Server::shutdown`]) stops the loop and joins the thread; in-flight
/// responses finish first.
#[derive(Debug)]
pub struct Server {
    listener: Option<TcpListener>,
    stop: StopHandle,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (`127.0.0.1:0` for an ephemeral port). Nothing is
    /// accepted until [`Server::spawn`], so a plane can first hand the
    /// [`StopHandle`] to the state its connection callback needs.
    ///
    /// # Errors
    ///
    /// [`BindError`] when the address cannot be bound or parsed.
    pub fn bind(addr: &str) -> Result<Self, BindError> {
        let fail = |e: std::io::Error| BindError {
            addr: addr.to_string(),
            detail: e.to_string(),
        };
        let listener = TcpListener::bind(addr).map_err(fail)?;
        let local = listener.local_addr().map_err(fail)?;
        let stop = Arc::new(AtomicBool::new(false));
        Ok(Server {
            listener: Some(listener),
            stop: StopHandle { stop, addr: local },
            handle: None,
        })
    }

    /// The actually bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// A handle that stops this server.
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Starts the accept loop on a thread named `thread_name` (a no-op
    /// when it already runs). Every accepted socket gets [`IO_TIMEOUT`]
    /// read and write timeouts and goes to `on_conn`; accept failures
    /// are recorded in `errors`. The loop ends when the stop flag is
    /// raised or `on_conn` returns `Break`, and then drops the callback
    /// — with whatever it owns, such as a worker pool that drains its
    /// queue — on the accept thread, before [`Server::join`] returns.
    ///
    /// # Errors
    ///
    /// [`BindError`] when the thread cannot be spawned.
    pub fn spawn<F>(
        mut self,
        thread_name: &str,
        errors: ClientErrors,
        mut on_conn: F,
    ) -> Result<Self, BindError>
    where
        F: FnMut(TcpStream) -> ControlFlow<()> + Send + 'static,
    {
        let Some(listener) = self.listener.take() else {
            return Ok(self);
        };
        let stop = self.stop.clone();
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop.is_stopped() {
                        break;
                    }
                    let stream = match conn {
                        Ok(stream) => stream,
                        Err(e) => {
                            errors.record("accept", &e.to_string());
                            continue;
                        }
                    };
                    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    if on_conn(stream).is_break() {
                        break;
                    }
                }
            })
            .map_err(|e| BindError {
                addr: self.addr().to_string(),
                detail: format!("cannot spawn accept thread: {e}"),
            })?;
        self.handle = Some(handle);
        Ok(self)
    }

    /// Blocks until the accept loop ends, however it was asked to,
    /// then leaves the stop flag raised so threads watching it (the
    /// serve chaos clients) wind down too.
    pub fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.stop.raise();
    }

    /// Stops the accept loop and joins its thread.
    pub fn shutdown(&mut self) {
        if self.handle.is_some() {
            self.stop.stop();
        }
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One row of a plane's route table: `(method, path, route)`. The
/// table is the only place a plane spells a path.
pub type RouteEntry<R> = (&'static str, &'static str, R);

/// A routing decision: the matched route with its query pairs, or the
/// refusal status and body to send.
pub type Routed<'a, R> = Result<(R, Vec<(&'a str, &'a str)>), (u16, String)>;

/// Matches a request line against a route table. The query string is
/// split off first, so it never affects which route matches. Returns
/// the bare path (for the plane's logs and traces) with either the
/// matched route and its query pairs, or the refusal to send: 404 for
/// an unknown path, 405 for a known path with the wrong method.
pub fn dispatch<'a, R: Copy>(
    table: &[RouteEntry<R>],
    request_line: &'a str,
) -> (&'a str, Routed<'a, R>) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let (path, query) = split_query(parts.next().unwrap_or(""));
    let routed = match table.iter().find(|(m, p, _)| *m == method && *p == path) {
        Some(&(_, _, route)) => Ok((route, query)),
        None => match table.iter().find(|(_, p, _)| *p == path) {
            Some((allowed, _, _)) => {
                Err((405, format!("{path} is {allowed}-only (got {method})\n")))
            }
            None => Err((404, format!("no route {path}\n"))),
        },
    };
    (path, routed)
}

/// The `/` index text: `"<title>: GET /a, POST /b\n"` (`/` omitted).
pub fn index_line<R>(title: &str, table: &[RouteEntry<R>]) -> String {
    let routes: Vec<String> = table
        .iter()
        .filter(|(_, path, _)| *path != "/")
        .map(|(method, path, _)| format!("{method} {path}"))
        .collect();
    format!("{title}: {}\n", routes.join(", "))
}

/// A parsed request head: the request line plus the header fields that
/// followed it, kept as `(lowercased-name, value)` pairs so lookups are
/// case-insensitive without allocating per query.
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// The trimmed request line, e.g. `GET /predict?rob=64 HTTP/1.1`.
    pub line: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// Returns the value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads the request head (everything up to the blank line), bounding
/// the buffered size by `max_head`; the caller bounds time via the
/// stream's read timeout. Keeps the header fields, for servers that
/// honor request metadata such as the `X-Ppm-Trace` trace context.
///
/// # Errors
///
/// A human-readable description when the peer disconnects, stalls past
/// the socket timeout, sends an oversized head, or sends an empty
/// request line.
pub fn read_request_head(stream: &mut TcpStream, max_head: usize) -> Result<RequestHead, String> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed before request completed".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > max_head {
            return Err(format!("request head exceeds {max_head} bytes"));
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let mut lines = text.lines();
    let line = match lines.next() {
        Some(line) if !line.trim().is_empty() => line.trim().to_string(),
        _ => return Err("empty request line".to_string()),
    };
    let mut headers = Vec::new();
    for raw in lines {
        let raw = raw.trim_end_matches('\r');
        if raw.is_empty() {
            break;
        }
        if let Some((name, value)) = raw.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok(RequestHead { line, headers })
}

/// The standard reason phrase for the status codes these servers emit.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Reads a request head under [`MAX_HEAD`]. On failure the error is
/// recorded in `errors` as op `read`, a best-effort 400 goes back (the
/// peer may already be gone), and the detail is returned.
///
/// # Errors
///
/// The [`read_request_head`] detail.
pub fn read_head_or_400(
    stream: &mut TcpStream,
    errors: &ClientErrors,
) -> Result<RequestHead, String> {
    read_request_head(stream, MAX_HEAD).inspect_err(|detail| {
        errors.record("read", detail);
        let _ = write_response_with_headers(stream, 400, TEXT, &[], "bad request\n");
    })
}

/// Writes a complete HTTP/1.1 response (`Connection: close`) with
/// extra response headers (name, value) ahead of the body — used to
/// echo the `X-Ppm-Trace` trace context.
///
/// # Errors
///
/// A human-readable description when the peer stops reading mid-write.
pub fn write_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> Result<(), String> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())
}

/// Splits a request-line path into `(route, query pairs)`:
/// `"/predict?rob=64&deadline_ms=50"` becomes
/// `("/predict", [("rob", "64"), ("deadline_ms", "50")])`. No
/// percent-decoding — the serving query surface is plain numerals.
pub fn split_query(path: &str) -> (&str, Vec<(&str, &str)>) {
    match path.split_once('?') {
        None => (path, Vec::new()),
        Some((route, query)) => {
            let pairs = query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
                .collect();
            (route, pairs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_query_handles_bare_and_paired_params() {
        assert_eq!(split_query("/predict"), ("/predict", vec![]));
        let (route, pairs) = split_query("/predict?rob=64&flag&x=");
        assert_eq!(route, "/predict");
        assert_eq!(pairs, vec![("rob", "64"), ("flag", ""), ("x", "")]);
    }

    #[test]
    fn request_head_lookup_is_case_insensitive() {
        let head = RequestHead {
            line: "GET /predict HTTP/1.1".to_string(),
            headers: vec![
                ("host".to_string(), "ppm".to_string()),
                ("x-ppm-trace".to_string(), "abc-7".to_string()),
            ],
        };
        assert_eq!(head.header("X-Ppm-Trace"), Some("abc-7"));
        assert_eq!(head.header("HOST"), Some("ppm"));
        assert_eq!(head.header("x-missing"), None);
    }

    #[test]
    fn full_head_reader_captures_headers() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /p?x=1 HTTP/1.1\r\nHost: ppm\r\nX-Ppm-Trace: t-42\r\n\r\n")
                .expect("write");
            s
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let head = read_request_head(&mut stream, MAX_HEAD).expect("head");
        assert_eq!(head.line, "GET /p?x=1 HTTP/1.1");
        assert_eq!(head.header("x-ppm-trace"), Some("t-42"));
        drop(writer.join());
    }

    #[test]
    fn dispatch_refuses_unknown_paths_and_wrong_methods_ignoring_the_query() {
        const TABLE: [RouteEntry<u8>; 3] = [
            ("GET", "/metrics", 1),
            ("GET", "/", 2),
            ("POST", "/quitz", 3),
        ];
        // Unknown path: 404 whatever the method.
        for method in ["GET", "POST", "DELETE"] {
            let line = format!("{method} /nope?x=1 HTTP/1.1");
            let (path, routed) = dispatch(&TABLE, &line);
            assert_eq!(path, "/nope");
            assert!(matches!(routed, Err((404, _))), "{line}: {routed:?}");
        }
        // Known path, wrong method: 405 naming the allowed one.
        let (_, routed) = dispatch(&TABLE, "POST /metrics HTTP/1.1");
        assert_eq!(
            routed,
            Err((405, "/metrics is GET-only (got POST)\n".to_string()))
        );
        let (_, routed) = dispatch(&TABLE, "GET /quitz?now=1 HTTP/1.1");
        assert!(matches!(routed, Err((405, _))), "{routed:?}");
        // The query string never changes which route matches.
        assert_eq!(dispatch(&TABLE, "GET /metrics HTTP/1.1").1, Ok((1, vec![])));
        assert_eq!(
            dispatch(&TABLE, "GET /metrics?x=1&y HTTP/1.1").1,
            Ok((1, vec![("x", "1"), ("y", "")]))
        );
        assert_eq!(
            dispatch(&TABLE, "GET /?x=1 HTTP/1.1").1,
            Ok((2, vec![("x", "1")]))
        );
        assert_eq!(
            index_line("ppm test", &TABLE),
            "ppm test: GET /metrics, POST /quitz\n"
        );
    }

    #[test]
    fn reasons_cover_the_served_statuses() {
        for status in [200, 400, 404, 405, 409, 500, 503] {
            assert_ne!(reason(status), "Error", "status {status}");
        }
        assert_eq!(reason(418), "Error");
    }
}
