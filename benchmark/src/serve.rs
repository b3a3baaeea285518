//! The serving side: a `ppm serve` child process, generated `/predict`
//! queries, and a traffic session with optional hot reloads beside it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppm_core::space::DesignSpace;
use ppm_rng::{derive_seed, Rng};
use ppm_sim::SimConfig;

use crate::answers::{self, Failure, Reload};
use crate::loadgen::{self, Charged, Clock, Exchange, WallClock};

/// Socket budget for one request.
const TIMEOUT: Duration = Duration::from_secs(2);

/// A running `ppm serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    /// The bound address.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Starts `ppm serve` on an ephemeral port over `registry` with two
    /// workers, and waits for its first 200 on `/readyz`. Returns the
    /// server and the spawn-to-ready time.
    ///
    /// # Errors
    ///
    /// A description when the process cannot start, never announces
    /// its address, or never becomes ready.
    pub fn start(
        ppm: &Path,
        registry: &Path,
        extra: &[&str],
    ) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(ppm)
            .args(["serve", "127.0.0.1:0", "--workers", "2", "--registry"])
            .arg(registry)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ppm.display()))?;
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let (tx, rx) = mpsc::channel();
        // The announcement line carries the port; the rest of stderr is
        // drained so the pipe never fills and blocks the server.
        let reader = std::thread::spawn(move || {
            let mut stderr = BufReader::new(stderr);
            let mut seen = String::new();
            let mut line = String::new();
            while stderr.read_line(&mut line).unwrap_or(0) > 0 {
                if let Some(addr) = line.trim().split("listening on http://").nth(1) {
                    let _ = tx.send(addr.to_string());
                }
                seen.push_str(&line);
                line.clear();
            }
            seen
        });
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let announced = rx
            .recv_timeout(Duration::from_secs(20))
            .map_err(|_| format!("ppm serve never announced its address: {}", server.kill()))?;
        server.addr = announced
            .parse()
            .map_err(|_| format!("unparseable serve address {announced:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match server.get("/readyz") {
                Ok((200, _)) => return Ok((server, started.elapsed())),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("ppm serve never became ready: {other:?}")),
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// `GET path` on the server.
    ///
    /// # Errors
    ///
    /// The transport failure.
    pub fn get(&self, path: &str) -> Result<(u16, String), String> {
        ppm_live::http_get(&self.addr.to_string(), path, TIMEOUT).map_err(|e| e.to_string())
    }

    /// `POST path` on the server, with a trace id so the request can be
    /// found in `/tracez`.
    ///
    /// # Errors
    ///
    /// The transport failure.
    pub fn post(&self, path: &str, trace_id: &str) -> Result<(u16, String), String> {
        ppm_live::http_request_full(
            &self.addr.to_string(),
            "POST",
            path,
            &[("X-Ppm-Trace", trace_id)],
            TIMEOUT,
        )
        .map(|r| (r.status, r.body))
        .map_err(|e| e.to_string())
    }

    /// Stops the server with `POST /quitz` and reaps it.
    ///
    /// # Errors
    ///
    /// A description when it had to be killed or exited with failure.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.post("/quitz", "quitz");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(child) = self.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    self.child = None;
                    let log = self
                        .stderr
                        .take()
                        .and_then(|h| h.join().ok())
                        .unwrap_or_default();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("ppm serve exited with {status}: {log}"))
                    };
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("ppm serve ignored /quitz: {}", self.kill()))
    }

    fn kill(&mut self) -> String {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The generated `/predict` queries: request paths and the unit design
/// point the server will evaluate for each.
pub struct Queries {
    /// `/predict?depth=…` paths, all nine Table 1 parameters set.
    pub paths: Vec<String>,
    /// The unit point each path maps to, exactly as the server computes
    /// it from the parsed configuration.
    pub units: Vec<Vec<f64>>,
    /// The configuration each path names.
    pub configs: Vec<SimConfig>,
}

impl Queries {
    /// `count` random Table 1 configurations drawn from `seed`.
    pub fn generate(seed: u64, count: usize) -> Self {
        let space = DesignSpace::paper_table1();
        let mut rng = Rng::seed_from_u64(derive_seed(seed, 0x5e7e));
        let mut paths = Vec::with_capacity(count);
        let mut units = Vec::with_capacity(count);
        let mut configs = Vec::with_capacity(count);
        for _ in 0..count {
            let unit: Vec<f64> = (0..space.dim()).map(|_| rng.unit_f64()).collect();
            let c = space.to_config(&unit);
            paths.push(format!(
                "/predict?depth={}&rob={}&iq={}&lsq={}&l2-kb={}&l2-lat={}&il1-kb={}&dl1-kb={}&dl1-lat={}",
                c.pipe_depth,
                c.rob_size,
                c.iq_frac,
                c.lsq_frac,
                c.l2_size_kb,
                c.l2_lat,
                c.il1_size_kb,
                c.dl1_size_kb,
                c.dl1_lat
            ));
            units.push(space.params().to_unit(&[
                f64::from(c.pipe_depth),
                f64::from(c.rob_size),
                c.iq_frac,
                c.lsq_frac,
                f64::from(c.l2_size_kb),
                f64::from(c.l2_lat),
                f64::from(c.il1_size_kb),
                f64::from(c.dl1_size_kb),
                f64::from(c.dl1_lat),
            ]));
            configs.push(c);
        }
        Queries {
            paths,
            units,
            configs,
        }
    }

    /// The raw request for query `i` of phase `tag`; the trace id makes
    /// the phase's requests findable in `/tracez`.
    fn request(&self, tag: char, i: usize) -> Vec<u8> {
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nX-Ppm-Trace: {tag}-{i}\r\n\r\n",
            self.paths[i % self.paths.len()]
        )
        .into_bytes()
    }
}

/// A traffic mix. Load comes from at most two threads with at most two
/// connections open.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Closed-loop warm-up, not recorded.
    pub warmup: Duration,
    /// Closed-loop phase length.
    pub closed: Duration,
    /// Closed-loop clients (one connection each). With reloads, the
    /// last client also does them, between its requests.
    pub clients: usize,
    /// Open-loop phase length.
    pub open: Duration,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Threads the open-loop schedule is split over; with reloads, one
    /// more thread does them.
    pub open_threads: usize,
    /// Publish the next model and `POST /reloadz` this often, in both
    /// phases.
    pub reload_every: Option<Duration>,
}

/// What one session sent and got back.
pub struct Traffic {
    /// Closed-loop requests.
    pub closed: Vec<Charged<Exchange>>,
    /// Wall time of the closed-loop phase.
    pub closed_wall: Duration,
    /// Open-loop requests, charged from their due times.
    pub open: Vec<Charged<Exchange>>,
    /// Every reload, in order.
    pub reloads: Vec<Reload>,
    /// Wall time of each publish before a reload.
    pub publishes: Vec<Duration>,
    /// Server CPU nanoseconds spent during the open-loop phase.
    pub open_server_cpu_ns: u64,
    /// The server's peak resident set (KiB) after the warm-up, before
    /// the measured phases.
    pub warm_rss_kb: u64,
}

/// Runs `plan` against `server`. `models` are the model files reloads
/// cycle through (published into `registry`); `versions` their content
/// hashes, in the same order. Version 0 serves first.
pub fn session(
    server: &Server,
    queries: &Queries,
    plan: &Plan,
    registry: &Path,
    models: &[PathBuf],
    versions: &[String],
) -> Traffic {
    let clock = WallClock(Instant::now());
    let addr = server.addr;
    let send =
        |tag: char| move |i: usize| loadgen::exchange(&addr, &queries.request(tag, i), TIMEOUT);
    let reload = |k: usize| publish_and_reload(server, &clock, registry, models, versions, k);
    let clients = |tag: char, until: Duration, reloading: Option<Duration>| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..plan.clients)
                .map(|c| {
                    // The last client also publishes and reloads on
                    // schedule, between its requests.
                    let every = reloading.filter(|_| c + 1 == plan.clients);
                    s.spawn(move || {
                        let mut log = Vec::new();
                        let mut next = every.map(|e| clock.now() + e);
                        let between = || {
                            if let (Some(every), Some(tick)) = (every, next.as_mut()) {
                                if clock.now() >= *tick {
                                    log.push(reload(1 + log.len()));
                                    *tick += every;
                                }
                            }
                        };
                        let out = loadgen::closed_loop(
                            &clock,
                            (c, plan.clients),
                            until,
                            between,
                            send(tag),
                        );
                        (out, log)
                    })
                })
                .collect();
            let mut out = Vec::new();
            let mut log = Vec::new();
            for h in handles {
                if let Ok((mut o, mut l)) = h.join() {
                    out.append(&mut o);
                    log.append(&mut l);
                }
            }
            (out, log)
        })
    };
    if !plan.warmup.is_zero() {
        clients('w', clock.now() + plan.warmup, None);
    }
    let warm_rss_kb = crate::procfs::vm_hwm_kb(server.pid()).unwrap_or(0);
    let closed_start = clock.now();
    let (closed, mut log) = clients('c', closed_start + plan.closed, plan.reload_every);
    let closed_wall = clock.now() - closed_start;

    let cpu_before = crate::procfs::process_cpu_ns(&server.pid().to_string());
    let open_start = clock.now();
    let until = open_start + plan.open;
    let first_open_reload = 1 + log.len();
    let (open, mut open_log) = std::thread::scope(|s| {
        let reloader = plan.reload_every.map(|every| {
            s.spawn(move || {
                let mut log = Vec::new();
                let mut tick = clock.now() + every;
                while tick < until {
                    clock.sleep_until(tick);
                    log.push(reload(first_open_reload + log.len()));
                    tick += every;
                }
                log
            })
        });
        let handles: Vec<_> = (0..plan.open_threads)
            .map(|t| {
                s.spawn(move || {
                    loadgen::open_loop(
                        &clock,
                        open_start,
                        plan.rate,
                        (t, plan.open_threads),
                        until,
                        send('o'),
                    )
                })
            })
            .collect();
        let open: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect();
        (
            open,
            reloader.and_then(|h| h.join().ok()).unwrap_or_default(),
        )
    });
    let cpu_after = crate::procfs::process_cpu_ns(&server.pid().to_string());
    log.append(&mut open_log);
    log.sort_by_key(|(r, _)| r.start);
    Traffic {
        closed,
        closed_wall,
        open,
        reloads: log.iter().map(|(r, _)| *r).collect(),
        publishes: log.iter().map(|(_, p)| *p).collect(),
        open_server_cpu_ns: cpu_after.saturating_sub(cpu_before),
        warm_rss_kb,
    }
}

/// Publishes model `k % models.len()` and reloads it, timing both.
pub fn publish_and_reload(
    server: &Server,
    clock: &dyn Clock,
    registry: &Path,
    models: &[PathBuf],
    versions: &[String],
    k: usize,
) -> (Reload, Duration) {
    let which = k % models.len();
    let t = Instant::now();
    let published = ppm_serve::publish(registry, &models[which]).ok();
    let publish = t.elapsed();
    let start = clock.now();
    let reply = server.post("/reloadz", &format!("reload-{k}"));
    let end = clock.now();
    let version = match (&reply, published) {
        (Ok((200, body)), Some(v)) if body.contains(&v) && versions[which] == v => Some(which),
        _ => None,
    };
    (
        Reload {
            start,
            end,
            version,
        },
        publish,
    )
}

/// Requests per second completed in each whole `window` between
/// `start` and `end`.
pub fn window_rates(
    done: impl Iterator<Item = Duration>,
    start: Duration,
    end: Duration,
    window: Duration,
) -> Vec<f64> {
    let windows = ((end.saturating_sub(start)).as_nanos() / window.as_nanos().max(1)) as usize;
    let mut counts = vec![0u64; windows];
    for t in done {
        if let Some(w) = t
            .checked_sub(start)
            .map(|d| (d.as_nanos() / window.as_nanos()) as usize)
        {
            if let Some(c) = counts.get_mut(w) {
                *c += 1;
            }
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / window.as_secs_f64())
        .collect()
}

/// Counts failed answers in a session. `expected[v][q]` is the local
/// prediction of version `v` for query `q`; version 0 serves first.
pub fn failures(
    traffic: &Traffic,
    queries: &Queries,
    versions: &[String],
    expected: &[Vec<f64>],
) -> Vec<Failure> {
    let mut out = Vec::new();
    for c in traffic.closed.iter().chain(&traffic.open) {
        let q = c.index % queries.paths.len();
        match answers::check(&c.value.reply, q, versions, expected) {
            Ok(v) => {
                if !answers::allowed_versions(0, &traffic.reloads, c.sent, c.done).contains(&v) {
                    out.push(Failure::Stale { got: v });
                }
            }
            Err(f) => out.push(f),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_seeded_and_name_every_parameter() {
        let a = Queries::generate(7, 16);
        let b = Queries::generate(7, 16);
        let c = Queries::generate(8, 16);
        assert_eq!(a.paths, b.paths);
        assert_ne!(a.paths, c.paths);
        for (path, unit) in a.paths.iter().zip(&a.units) {
            assert_eq!(path.matches('=').count(), 9, "{path}");
            assert!(unit.iter().all(|u| (0.0..=1.0).contains(u)), "{unit:?}");
        }
    }
}
