//! Load generation: open- and closed-loop request schedules and a
//! one-request HTTP client that times connect and first byte.
//!
//! Open-loop requests are charged from the time they were *due*, not
//! the time they were sent: when one request stalls, the requests
//! queued behind it on the same thread go out late, and the wait they
//! suffered counts against them. The lag between due and sent is kept
//! too, so a generator that cannot keep its schedule shows.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A source of time for a schedule. The wall clock drives real runs; a
/// fake one lets tests stall requests deterministically.
pub trait Clock {
    /// Time since the clock's epoch.
    fn now(&self) -> Duration;
    /// Blocks until `t` after the epoch (returns at once if past).
    fn sleep_until(&self, t: Duration);
}

/// The real clock, counting from an [`Instant`].
#[derive(Debug, Clone, Copy)]
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One request with its timeline, as offsets from the clock's epoch.
/// Closed-loop requests are due when they are sent.
#[derive(Debug, Clone)]
pub struct Charged<T> {
    /// Index in the schedule (selects the query).
    pub index: usize,
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its answer was complete.
    pub done: Duration,
    /// What came back.
    pub value: T,
}

impl<T> Charged<T> {
    /// Latency as the user sees it: from due time to answer.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs this thread's share of an open-loop schedule: requests
/// `first, first + stride, …`, request `i` due at `start + i / rate`,
/// until the next one would be due at or after `until`.
pub fn open_loop<T>(
    clock: &dyn Clock,
    start: Duration,
    rate: f64,
    (first, stride): (usize, usize),
    until: Duration,
    mut send: impl FnMut(usize) -> T,
) -> Vec<Charged<T>> {
    let mut out = Vec::new();
    let mut index = first;
    loop {
        let due = start + Duration::from_nanos((index as f64 * 1e9 / rate).round() as u64);
        if due >= until {
            return out;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let value = send(index);
        out.push(Charged {
            index,
            due,
            sent,
            done: clock.now(),
            value,
        });
        index += stride;
    }
}

/// Runs one closed-loop client: each request is sent when the previous
/// answer is complete, until `until`. `between` runs before each
/// request, outside its timing (a client that also does other work).
pub fn closed_loop<T>(
    clock: &dyn Clock,
    (first, stride): (usize, usize),
    until: Duration,
    mut between: impl FnMut(),
    mut send: impl FnMut(usize) -> T,
) -> Vec<Charged<T>> {
    let mut out = Vec::new();
    let mut index = first;
    while clock.now() < until {
        between();
        let sent = clock.now();
        let value = send(index);
        out.push(Charged {
            index,
            due: sent,
            sent,
            done: clock.now(),
            value,
        });
        index += stride;
    }
    out
}

/// One HTTP exchange as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Time to establish the TCP connection.
    pub connect: Duration,
    /// From sending the request to the first response byte.
    pub ttfb: Duration,
    /// Status and body, or the transport failure.
    pub reply: Result<(u16, String), String>,
}

/// Sends one request on a fresh connection (the server closes every
/// connection after its answer) and reads the answer to EOF.
pub fn exchange(addr: &SocketAddr, request: &[u8], timeout: Duration) -> Exchange {
    let t0 = Instant::now();
    let mut stream = match TcpStream::connect_timeout(addr, timeout) {
        Ok(s) => s,
        Err(e) => {
            return Exchange {
                connect: t0.elapsed(),
                ttfb: Duration::ZERO,
                reply: Err(format!("connect: {e}")),
            }
        }
    };
    let connect = t0.elapsed();
    let t1 = Instant::now();
    let mut raw = Vec::with_capacity(512);
    let mut ttfb = Duration::ZERO;
    let io = (|| -> std::io::Result<()> {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.write_all(request)?;
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        ttfb = t1.elapsed();
        raw.extend_from_slice(&chunk[..n]);
        stream.read_to_end(&mut raw)?;
        Ok(())
    })();
    let reply = io
        .map_err(|e| format!("io: {e}"))
        .and_then(|()| parse_reply(&raw));
    Exchange {
        connect,
        ttfb,
        reply,
    }
}

/// Splits a raw HTTP/1.1 response into status and body.
fn parse_reply(raw: &[u8]) -> Result<(u16, String), String> {
    let text = String::from_utf8_lossy(raw);
    let status = text
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    #[derive(Default)]
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn a_stalled_request_makes_later_ones_late_and_they_are_charged_from_due() {
        let clock = FakeClock::default();
        // 1000 req/s: request i is due at i ms. Request 0 stalls 10 ms;
        // every other request takes 100 µs.
        let out = open_loop(&clock, ms(0), 1000.0, (0, 1), ms(20), |i| {
            clock.advance(if i == 0 {
                ms(10)
            } else {
                Duration::from_micros(100)
            });
            i
        });
        assert_eq!(out.len(), 20);
        assert_eq!(out[0].latency(), ms(10));
        // Request 1 was due at 1 ms, sent at 10 ms, done at 10.1 ms.
        assert_eq!(out[1].lag(), ms(9));
        assert_eq!(out[1].latency(), Duration::from_micros(9100));
        // The backlog drains 0.1 ms per request until it catches up.
        assert_eq!(out[2].latency(), Duration::from_micros(8200));
        assert!(out[10].lag() < ms(1));
        // Once caught up, requests go out on time again.
        assert_eq!(out[15].lag(), Duration::ZERO);
        assert_eq!(out[15].latency(), Duration::from_micros(100));
    }

    #[test]
    fn open_loop_threads_interleave_the_schedule() {
        let clock = FakeClock::default();
        let out = open_loop(&clock, ms(5), 100.0, (1, 2), ms(65), |i| i);
        let due: Vec<Duration> = out.iter().map(|c| c.due).collect();
        assert_eq!(due, vec![ms(15), ms(35), ms(55)]);
        assert_eq!(
            out.iter().map(|c| c.index).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
    }

    #[test]
    fn closed_loop_sends_when_the_previous_answer_is_back() {
        let clock = FakeClock::default();
        let out = closed_loop(&clock, (0, 1), ms(10), || {}, |_| clock.advance(ms(3)));
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|c| c.lag() == Duration::ZERO));
        assert_eq!(out[3].sent, ms(9));
        // Work between requests delays the next one but is not timed.
        let clock = FakeClock::default();
        let out = closed_loop(
            &clock,
            (0, 1),
            ms(10),
            || clock.advance(ms(2)),
            |_| clock.advance(ms(3)),
        );
        assert_eq!(out.len(), 2);
        assert_eq!((out[1].sent, out[1].done), (ms(7), ms(10)));
    }

    #[test]
    fn parses_replies() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_reply(raw), Ok((503, "{}".to_string())));
        assert!(parse_reply(b"garbage").is_err());
    }
}
