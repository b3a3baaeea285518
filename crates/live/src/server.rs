//! The live plane's routes, mounted on the shared server core
//! ([`crate::http`]): one `ppm-live` accept thread that serves each
//! scrape inline — scrapes are rare and cheap, so there is no queue to
//! protect.

use std::net::{SocketAddr, TcpStream};

use ppm_telemetry::EventRing;

use crate::http::{self, ClientErrors, RouteEntry, Server, JSON, PROMETHEUS, TEXT};
use crate::{buildz, expo, LiveError, RegistrySource};

#[derive(Debug, Clone, Copy)]
enum Route {
    Metrics,
    Buildz,
    Eventz,
    Index,
}

const ROUTES: [RouteEntry<Route>; 4] = [
    ("GET", "/metrics", Route::Metrics),
    ("GET", "/buildz", Route::Buildz),
    ("GET", "/eventz", Route::Eventz),
    ("GET", "/", Route::Index),
];

/// A running live-plane endpoint. Dropping the handle (or calling
/// [`LiveServer::shutdown`]) stops the accept loop and joins its
/// thread; in-flight responses finish first.
#[derive(Debug)]
pub struct LiveServer {
    server: Server,
}

impl LiveServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `/metrics`, `/buildz`, and `/eventz` on a
    /// background thread. `source` selects the registry the routes
    /// snapshot; `ring` is the event buffer behind `/eventz` (install a
    /// clone of it as a telemetry sink to populate it).
    ///
    /// # Errors
    ///
    /// [`LiveError::Bind`] when the address cannot be bound or parsed.
    pub fn start(addr: &str, source: RegistrySource, ring: EventRing) -> Result<Self, LiveError> {
        let errors = ClientErrors::new("live.client_errors", "live.client_error");
        let server = Server::bind(addr)?.spawn("ppm-live", errors.clone(), move |stream| {
            serve_connection(stream, &errors, &source, &ring);
        })?;
        Ok(LiveServer { server })
    }

    /// The actually bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    errors: &ClientErrors,
    source: &RegistrySource,
    ring: &EventRing,
) {
    let Ok(head) = http::read_head_or_400(&mut stream, errors) else {
        return;
    };
    let (status, content_type, body) = match http::dispatch(&ROUTES, &head.line).1 {
        Ok((Route::Metrics, _)) => (200, PROMETHEUS, expo::render_prometheus(&source.snapshot())),
        Ok((Route::Buildz, _)) => (200, JSON, buildz::render_buildz(&source.snapshot())),
        Ok((Route::Eventz, _)) => (200, JSON, ring.render_json()),
        Ok((Route::Index, _)) => (200, TEXT, http::index_line("ppm live plane", &ROUTES)),
        Err((status, body)) => (status, TEXT, body),
    };
    if let Err(detail) =
        http::write_response_with_headers(&mut stream, status, content_type, &[], &body)
    {
        errors.record("write", &detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::http_get;
    use crate::http::IO_TIMEOUT;
    use ppm_telemetry::Json;
    use ppm_telemetry::Level;
    use std::io::{Read, Write};
    use std::sync::Arc as StdArc;
    use std::time::Duration;

    fn scoped_server() -> (LiveServer, StdArc<ppm_telemetry::Registry>, EventRing) {
        let registry = StdArc::new(ppm_telemetry::Registry::new());
        let ring = EventRing::new(16);
        let server = LiveServer::start(
            "127.0.0.1:0",
            RegistrySource::Shared(StdArc::clone(&registry)),
            ring.clone(),
        )
        .expect("bind ephemeral port");
        (server, registry, ring)
    }

    #[test]
    fn serves_metrics_buildz_and_eventz() {
        let (server, registry, ring) = scoped_server();
        registry.counter("live.test_hits").add(7);
        {
            let mut writer = ring.clone();
            use ppm_telemetry::{Record, Sink};
            writer.record(&Record::Event {
                name: "t.ring".into(),
                level: Level::Warn,
                fields: vec![("k".into(), Json::from(1u64))],
                depth: 0,
            });
        }
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/metrics", IO_TIMEOUT).expect("scrape metrics");
        assert_eq!(status, 200);
        assert!(body.contains("ppm_live_test_hits 7\n"), "{body}");
        let (status, body) = http_get(&addr, "/buildz", IO_TIMEOUT).expect("scrape buildz");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("buildz is JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-buildz v1")
        );
        let (status, body) = http_get(&addr, "/eventz", IO_TIMEOUT).expect("scrape eventz");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("eventz is JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ppm-eventz v1")
        );
        assert!(body.contains("t.ring"));
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let (server, _registry, _ring) = scoped_server();
        let addr = server.addr().to_string();
        let (status, _) = http_get(&addr, "/nope", IO_TIMEOUT).expect("404 response");
        assert_eq!(status, 404);
        // The query string does not change the route.
        let (status, _) = http_get(&addr, "/metrics?x=1", IO_TIMEOUT).expect("200 response");
        assert_eq!(status, 200);
        // Raw POSTs through a plain socket: a known path is 405, an
        // unknown one is 404 whatever the method.
        for (request, want) in [
            (
                &b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n"[..],
                "HTTP/1.1 405",
            ),
            (
                &b"POST /nope HTTP/1.1\r\nHost: x\r\n\r\n"[..],
                "HTTP/1.1 404",
            ),
        ] {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(request).expect("send");
            let mut text = String::new();
            let _ = stream.read_to_string(&mut text);
            assert!(text.starts_with(want), "{text}");
        }
    }

    #[test]
    fn garbage_and_disconnects_count_as_client_errors_not_panics() {
        let (server, _registry, _ring) = scoped_server();
        let before = ppm_telemetry::registry()
            .counter("live.client_errors")
            .get();
        // A connection that closes without sending anything.
        drop(TcpStream::connect(server.addr()).expect("connect"));
        // A connection that sends garbage with no request terminator.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"\x00\x01\x02 garbage").expect("send");
        drop(stream);
        // The server must still answer afterwards.
        let addr = server.addr().to_string();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match http_get(&addr, "/buildz", IO_TIMEOUT) {
                Ok((200, _)) => break,
                _ if std::time::Instant::now() > deadline => panic!("server stopped answering"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let after = ppm_telemetry::registry()
            .counter("live.client_errors")
            .get();
        assert!(after >= before + 2, "before={before} after={after}");
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let (server, _registry, _ring) = scoped_server();
        let taken = server.addr().to_string();
        let err = LiveServer::start(&taken, RegistrySource::Global, EventRing::new(4))
            .expect_err("address in use");
        match err {
            LiveError::Bind { addr, .. } => assert_eq!(addr, taken),
            other => panic!("wrong error: {other:?}"),
        }
        let nonsense =
            LiveServer::start("not-an-address", RegistrySource::Global, EventRing::new(4));
        assert!(matches!(nonsense, Err(LiveError::Bind { .. })));
    }

    #[test]
    fn shutdown_joins_and_stops_accepting() {
        let (mut server, _registry, _ring) = scoped_server();
        let addr = server.addr();
        server.shutdown();
        // The listener is gone: connects are refused (or at least no
        // longer answered).
        let res = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
        assert!(res.is_err(), "server still accepting after shutdown");
    }
}
