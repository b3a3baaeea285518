//! Deterministic fault injection for testing the fault-tolerant
//! pipeline.
//!
//! [`FaultyResponse`] wraps any [`Response`] and injects failures —
//! panics, NaN/∞ values, and slow evaluations — at configurable rates.
//! Which points fail is a pure function of the plan's seed and the
//! point's coordinates, so scenarios are reproducible run to run. With
//! [`FaultPlan::transient_attempts`] set, a faulty point recovers after
//! that many failed attempts, which exercises the supervisor's retry
//! path; with it at 0, faults are permanent and exercise quarantine,
//! degradation, and checkpoint-resume.
//!
//! This is a test harness: a transiently-faulty wrapper is
//! intentionally *not* deterministic across attempts (that is the
//! point), so it must never back a production model build.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::response::Response;

/// What to inject at a faulty point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Evaluation panics.
    Panic,
    /// Evaluation returns NaN.
    Nan,
    /// Evaluation returns +∞.
    Inf,
    /// Evaluation sleeps before answering (still returns the true
    /// value).
    Slow,
}

/// Seed-driven fault schedule for a [`FaultyResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-point fault decision.
    pub seed: u64,
    /// Fraction of points that panic.
    pub panic_rate: f64,
    /// Fraction of points that return NaN.
    pub nan_rate: f64,
    /// Fraction of points that return +∞.
    pub inf_rate: f64,
    /// Fraction of points that evaluate slowly.
    pub slow_rate: f64,
    /// Sleep injected at slow points.
    pub slow_delay: Duration,
    /// When non-zero, a faulty point succeeds once it has failed this
    /// many times (models transient faults; exercises retry). When 0,
    /// faults are permanent.
    pub transient_attempts: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            panic_rate: 0.0,
            nan_rate: 0.0,
            inf_rate: 0.0,
            slow_rate: 0.0,
            slow_delay: Duration::from_millis(1),
            transient_attempts: 0,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (sanity baseline).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the decision seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the panic rate.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Sets the NaN rate.
    pub fn with_nan_rate(mut self, rate: f64) -> Self {
        self.nan_rate = rate;
        self
    }

    /// Sets the +∞ rate.
    pub fn with_inf_rate(mut self, rate: f64) -> Self {
        self.inf_rate = rate;
        self
    }

    /// Sets the slow-evaluation rate.
    pub fn with_slow_rate(mut self, rate: f64) -> Self {
        self.slow_rate = rate;
        self
    }

    /// Makes faults transient: they clear after `attempts` failures.
    pub fn with_transient_attempts(mut self, attempts: u32) -> Self {
        self.transient_attempts = attempts;
        self
    }

    /// The fault scheduled for a point, if any — a pure function of
    /// `(seed, point)`.
    pub fn fault_at(&self, point: &[f64]) -> Option<InjectedFault> {
        // Map the point hash to a uniform draw in [0, 1) and carve it
        // into the configured rate segments.
        let draw = (hash_point(self.seed, point) >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = self.panic_rate;
        if draw < edge {
            return Some(InjectedFault::Panic);
        }
        edge += self.nan_rate;
        if draw < edge {
            return Some(InjectedFault::Nan);
        }
        edge += self.inf_rate;
        if draw < edge {
            return Some(InjectedFault::Inf);
        }
        edge += self.slow_rate;
        if draw < edge {
            return Some(InjectedFault::Slow);
        }
        None
    }

    /// The fault scheduled for a request *index* — a pure function of
    /// `(seed, index)`. This is the serving-side twin of
    /// [`FaultPlan::fault_at`]: a request stream has no design point to
    /// hash, but its sequence number is just as reproducible, so a chaos
    /// run injects the same faults at the same request ordinals for a
    /// given seed.
    pub fn fault_at_index(&self, index: u64) -> Option<InjectedFault> {
        self.fault_at(&[index as f64])
    }
}

/// A [`Response`] wrapper that injects deterministic faults per
/// [`FaultPlan`]. See the module docs.
pub struct FaultyResponse<R> {
    inner: R,
    plan: FaultPlan,
    /// Failed-attempt counts per point hash (for transient faults).
    attempts: Mutex<BTreeMap<u64, u32>>,
}

impl<R: Response> FaultyResponse<R> {
    /// Wraps a response with a fault plan.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultyResponse {
            inner,
            plan,
            attempts: Mutex::new(BTreeMap::new()),
        }
    }

    /// The wrapped response.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total failed attempts injected so far.
    pub fn injected_failures(&self) -> u32 {
        self.attempts
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .values()
            .sum()
    }
}

impl<R: Response> Response for FaultyResponse<R> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(&self, unit: &[f64]) -> f64 {
        let Some(fault) = self.plan.fault_at(unit) else {
            return self.inner.eval(unit);
        };
        if fault == InjectedFault::Slow {
            std::thread::sleep(self.plan.slow_delay);
            return self.inner.eval(unit);
        }
        if self.plan.transient_attempts > 0 {
            let key = hash_point(self.plan.seed, unit);
            let mut attempts = self
                .attempts
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            let count = attempts.entry(key).or_insert(0);
            if *count >= self.plan.transient_attempts {
                // The fault has cleared; answer truthfully.
                return self.inner.eval(unit);
            }
            *count += 1;
        } else {
            let key = hash_point(self.plan.seed, unit);
            *self
                .attempts
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .entry(key)
                .or_insert(0) += 1;
        }
        match fault {
            // Panicking is this harness's entire purpose: it exercises
            // the supervisor's catch_unwind path. lint:allow(panic-path)
            InjectedFault::Panic => panic!("injected fault at {unit:?}"),
            InjectedFault::Nan => f64::NAN,
            InjectedFault::Inf => f64::INFINITY,
            InjectedFault::Slow => unreachable!("handled above"),
        }
    }
}

/// FNV-1a over the seed and the bit patterns of a unit point: the
/// stable per-point identity that keys fault decisions.
fn hash_point(seed: u64, point: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(8 + point.len() * 8);
    bytes.extend_from_slice(&seed.to_le_bytes());
    for &x in point {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    ppm_telemetry::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::FnResponse;

    #[test]
    fn point_hash_is_stable_and_seed_sensitive() {
        let p = [0.25, 0.5, 0.75];
        assert_eq!(hash_point(7, &p), hash_point(7, &p));
        assert_ne!(hash_point(7, &p), hash_point(8, &p));
        assert_ne!(hash_point(7, &p), hash_point(7, &[0.25, 0.5, 0.7500001]));
    }

    fn inner() -> FnResponse<impl Fn(&[f64]) -> f64 + Sync> {
        FnResponse::new(2, |x| 1.0 + x[0] + x[1]).unwrap()
    }

    #[test]
    fn no_faults_passes_through() {
        let r = FaultyResponse::new(inner(), FaultPlan::none());
        assert_eq!(r.dim(), 2);
        assert_eq!(r.eval(&[0.25, 0.5]), 1.75);
        assert_eq!(r.injected_failures(), 0);
    }

    #[test]
    fn fault_decision_is_deterministic_and_rate_plausible() {
        let plan = FaultPlan::default().with_panic_rate(0.3);
        let hits: Vec<bool> = (0..1000)
            .map(|i| plan.fault_at(&[i as f64 / 1000.0, 0.5]) == Some(InjectedFault::Panic))
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|i| plan.fault_at(&[i as f64 / 1000.0, 0.5]) == Some(InjectedFault::Panic))
            .collect();
        assert_eq!(hits, again);
        let rate = hits.iter().filter(|&&h| h).count() as f64 / 1000.0;
        assert!((0.2..0.4).contains(&rate), "observed panic rate {rate}");
    }

    #[test]
    fn fault_at_index_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::default()
            .with_seed(9)
            .with_panic_rate(0.2)
            .with_nan_rate(0.2);
        let first: Vec<_> = (0..500).map(|i| plan.fault_at_index(i)).collect();
        let again: Vec<_> = (0..500).map(|i| plan.fault_at_index(i)).collect();
        assert_eq!(first, again);
        let hits = first.iter().filter(|f| f.is_some()).count();
        assert!((100..300).contains(&hits), "observed {hits} faults in 500");
        let other = plan.clone().with_seed(10);
        let differs = (0..500).any(|i| plan.fault_at_index(i) != other.fault_at_index(i));
        assert!(differs, "seed does not influence the index schedule");
    }

    #[test]
    fn segments_do_not_overlap() {
        let plan = FaultPlan::default()
            .with_panic_rate(0.25)
            .with_nan_rate(0.25)
            .with_inf_rate(0.25)
            .with_slow_rate(0.25);
        // Every point draws exactly one fault when rates sum to 1.
        for i in 0..200 {
            assert!(plan.fault_at(&[i as f64, 1.0]).is_some());
        }
    }

    #[test]
    fn nan_and_inf_injection() {
        let all_nan = FaultyResponse::new(inner(), FaultPlan::default().with_nan_rate(1.0));
        assert!(all_nan.eval(&[0.1, 0.2]).is_nan());
        let all_inf = FaultyResponse::new(inner(), FaultPlan::default().with_inf_rate(1.0));
        assert_eq!(all_inf.eval(&[0.1, 0.2]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_injection_panics() {
        let r = FaultyResponse::new(inner(), FaultPlan::default().with_panic_rate(1.0));
        r.eval(&[0.1, 0.2]);
    }

    #[test]
    fn transient_faults_clear_after_budget() {
        let plan = FaultPlan::default()
            .with_nan_rate(1.0)
            .with_transient_attempts(2);
        let r = FaultyResponse::new(inner(), plan);
        let x = [0.3, 0.4];
        assert!(r.eval(&x).is_nan());
        assert!(r.eval(&x).is_nan());
        assert_eq!(r.eval(&x), 1.0 + 0.3 + 0.4, "third attempt succeeds");
        assert_eq!(r.injected_failures(), 2);
    }

    #[test]
    fn slow_points_still_answer_correctly() {
        let mut plan = FaultPlan::default().with_slow_rate(1.0);
        plan.slow_delay = Duration::from_millis(2);
        let r = FaultyResponse::new(inner(), plan);
        let t0 = std::time::Instant::now();
        assert_eq!(r.eval(&[0.25, 0.5]), 1.75);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
