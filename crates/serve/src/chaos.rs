//! Chaos mode: seeded fault injection for the serving plane.
//!
//! Two kinds of trouble, both derived deterministically from one seed:
//!
//! * **Evaluation faults** — a [`FaultPlan`] (reused from
//!   `ppm-core::fault`, the same machinery the model *builder* is
//!   hardened against) keyed off the request sequence number: worker
//!   panics, NaN/∞ predictions, and slow evaluations. The server routes
//!   these through exactly the paths a genuinely broken model would
//!   take, so chaos mode tests the real defenses, not a parallel code
//!   path.
//! * **Misbehaving clients** — a background thread that connects and
//!   hangs up, sends garbage, and slowlorises partial request heads at
//!   the service's own address, exercising the socket budget and the
//!   `serve.client_errors` path under load.
//!
//! Chaos is opt-in (`ppm serve --chaos <seed>`) and never enabled by
//! any default configuration.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use ppm_core::fault::FaultPlan;
use ppm_live::http::StopHandle;
use ppm_rng::Rng;

/// Rates tuned so a few hundred requests reliably see every fault kind
/// without drowning the healthy path: ~3% panics, ~3% NaNs, ~5% slow.
pub fn fault_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none()
        .with_seed(seed)
        .with_panic_rate(0.03)
        .with_nan_rate(0.03)
        .with_slow_rate(0.05);
    plan.slow_delay = Duration::from_millis(40);
    plan
}

/// A background thread throwing misbehaving clients at the service.
/// Stops once the server's stop flag is raised; joined on drop.
pub struct ChaosClients {
    handle: Option<JoinHandle<()>>,
}

impl ChaosClients {
    /// Starts the mischief thread against `addr`. Failures to spawn are
    /// swallowed — chaos is best-effort by definition.
    pub fn start(addr: SocketAddr, seed: u64, stop: StopHandle) -> Self {
        let handle = std::thread::Builder::new()
            .name("ppm-chaos".to_string())
            .spawn(move || mischief(addr, seed, &stop))
            .ok();
        ChaosClients { handle }
    }
}

impl Drop for ChaosClients {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn mischief(addr: SocketAddr, seed: u64, stop: &StopHandle) {
    let mut rng = Rng::seed_from_u64(ppm_rng::derive_seed(seed, 0x0c4a05));
    while !stop.is_stopped() {
        let connect = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        if let Ok(mut stream) = connect {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
            match rng.below(3) {
                // Connect and hang up without sending anything.
                0 => {}
                // Garbage bytes with no request terminator.
                1 => {
                    let mut junk = [0u8; 32];
                    for b in junk.iter_mut() {
                        *b = (rng.next_u64() & 0xff) as u8;
                    }
                    let _ = stream.write_all(&junk);
                }
                // Slowloris: a partial request head, then a stall that
                // holds the worker until its socket budget expires or
                // we hang up — whichever the server survives first.
                _ => {
                    let _ = stream.write_all(b"GET /predict?rob");
                    std::thread::sleep(Duration::from_millis(300));
                }
            }
            drop(stream);
        }
        // Pace the mischief so real load still gets through.
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_seeded_and_has_no_transients() {
        let plan = fault_plan(7);
        assert_eq!(plan.seed, 7);
        assert!(plan.panic_rate > 0.0 && plan.nan_rate > 0.0 && plan.slow_rate > 0.0);
        assert_eq!(plan.inf_rate, 0.0, "∞ is covered by the NaN path");
        assert_eq!(plan.transient_attempts, 0);
        // Two seeds schedule different fault sets over the same indices.
        let a: Vec<_> = (0..200).map(|i| fault_plan(1).fault_at_index(i)).collect();
        let b: Vec<_> = (0..200).map(|i| fault_plan(2).fault_at_index(i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn chaos_clients_stop_on_flag() {
        // Point the clients at an address nobody listens on: every
        // connect fails, and the loop must still exit promptly.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        // A bound, never-spawned server lends its stop flag.
        let server = ppm_live::http::Server::bind("127.0.0.1:0").unwrap();
        let clients = ChaosClients::start(addr, 3, server.stop_handle());
        std::thread::sleep(Duration::from_millis(50));
        server.stop_handle().stop();
        drop(clients); // joins; hangs the test if the flag is ignored
    }
}
