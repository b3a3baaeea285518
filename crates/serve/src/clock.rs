//! The serving plane's only window onto real time.
//!
//! Deadlines and latency measurement are inherently observations of the
//! wall clock, and a service that cannot see time cannot shed late
//! work. The workspace's `wall-clock` lint rule therefore exempts
//! exactly this module (see `crates/lint/src/rules.rs`): every other
//! file in `ppm-serve` expresses time through [`Deadline`] and
//! [`Stopwatch`] so stray `Instant::now()` calls cannot creep into
//! logic that should be time-free. Nothing here ever feeds a
//! deterministic artifact — ledger bodies, models, and checkpoints are
//! produced by the build pipeline, not the serving plane.

use std::time::{Duration, Instant};

/// A point in the future by which a request must be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        // The single sanctioned clock read for deadline arming; see the
        // module docs for why this module is exempt from the wall-clock
        // rule.
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Unix wall-clock milliseconds — the completion stamp on a trace
/// record. Zero if the system clock is before the epoch.
pub fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Unix wall-clock seconds — the slot key for the SLO tracker's
/// one-second accounting ring (`trace::SloTracker`). Trace and SLO code
/// never reads the clock itself: this module is the wall-clock lint's
/// single sanctioned exemption in ppm-serve, and every trace timestamp
/// flows outward from here.
pub fn unix_now_sec() -> u64 {
    unix_now_ms() / 1000
}

/// Measures elapsed real time from its creation — request latency,
/// queueing delay.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed time since the start.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed whole milliseconds since the start.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Elapsed whole microseconds since the start.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// A deadline `budget` after the stopwatch *started* (not after
    /// now): the request's clock starts at accept, so time spent queued
    /// counts against its budget.
    pub fn deadline_after(&self, budget: Duration) -> Deadline {
        Deadline {
            at: self.started + budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_expire_and_report_remaining() {
        let d = Deadline::after(Duration::from_millis(50));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_millis(50));
        let past = Deadline::after(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }

    #[test]
    fn stopwatch_counts_up_and_anchors_deadlines_at_start() {
        let w = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(w.elapsed() >= Duration::from_millis(5));
        assert!(w.elapsed_ms() <= 10_000, "sane magnitude");
        // A deadline anchored at start is already mostly consumed.
        let d = w.deadline_after(Duration::from_millis(6));
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.expired());
    }
}
