//! Supervised batch execution: fault isolation, retries, and
//! quarantine for design-point evaluations.
//!
//! Cycle-level simulation batches are the expensive, failure-prone
//! resource of the whole pipeline (paper §1 step 3). A single panicking
//! design point or a non-finite CPI must not destroy the batch: the
//! supervisor isolates every evaluation with `catch_unwind`, retries
//! panics immediately up to a configurable budget, and quarantines
//! points that keep failing or that return a non-finite value. The
//! caller receives a typed [`BatchOutcome`] describing exactly which
//! points survived and why the rest did not.
//!
//! Telemetry: every retry emits a `robust.retry` event (counter
//! `robust.retries`), every quarantine a `robust.quarantine` event
//! (counter `robust.quarantined`), and every evaluated point increments
//! `sim.batch_points` — the counter resume tests use to prove that
//! checkpointed points are never re-simulated. `sim.batch_groups` counts
//! lane groups, and `sim.batch_declined` the groups whose one-pass
//! evaluation panicked or returned the wrong number of values.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use crate::builder::BuildError;
use crate::checkpoint::Checkpoint;
use crate::response::Response;

/// Why a design point was quarantined.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Fault {
    /// The evaluation panicked; the payload message is kept.
    Panic(String),
    /// The evaluation returned a non-finite value (NaN or ±∞).
    NonFinite(f64),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Panic(msg) => write!(f, "panicked: {msg}"),
            Fault::NonFinite(v) => write!(f, "non-finite response {v}"),
        }
    }
}

/// A design point dropped from a batch, with the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarantine {
    /// Index of the point in the input batch.
    pub index: usize,
    /// The unit design point itself.
    pub point: Vec<f64>,
    /// The last fault observed.
    pub fault: Fault,
    /// Total evaluation attempts made (1 + retries).
    pub attempts: u32,
}

/// How the supervisor treats failing evaluations.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorPolicy {
    /// Retries per point after the first attempt. Only panics are
    /// retried: a deterministic response that returned NaN once will
    /// return it again, so non-finite values quarantine immediately.
    pub max_retries: u32,
    /// Largest tolerated fraction of quarantined points in a batch.
    /// Above this the batch fails with
    /// [`BuildError::ExcessiveFaults`]; at or below it the survivors
    /// are returned for graceful degradation.
    pub max_quarantined_frac: f64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 2,
            max_quarantined_frac: 0.1,
        }
    }
}

impl SupervisorPolicy {
    /// The zero-tolerance policy: no retries, any fault fails the
    /// batch. This is the behaviour of the plain
    /// [`eval_batch`](crate::response::eval_batch) wrapper.
    pub fn strict() -> Self {
        SupervisorPolicy {
            max_retries: 0,
            max_quarantined_frac: 0.0,
        }
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the quarantine threshold as a fraction of the batch.
    pub fn with_max_quarantined_frac(mut self, f: f64) -> Self {
        self.max_quarantined_frac = f;
        self
    }
}

/// The outcome of a supervised batch: per-point values aligned with the
/// input (`None` where quarantined), plus the quarantine report.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One entry per input point; `None` marks a quarantined point.
    pub values: Vec<Option<f64>>,
    /// Quarantined points, in input order.
    pub quarantined: Vec<Quarantine>,
    /// Points actually evaluated by the response (excludes points
    /// served from a checkpoint).
    pub evaluated: usize,
    /// Points whose value came from a checkpoint journal.
    pub resumed: usize,
}

impl BatchOutcome {
    /// Splits the surviving `(point, value)` pairs out of a batch.
    pub fn survivors(&self, points: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut design = Vec::with_capacity(points.len());
        let mut responses = Vec::with_capacity(points.len());
        for (p, v) in points.iter().zip(&self.values) {
            if let Some(y) = v {
                design.push(p.clone());
                responses.push(*y);
            }
        }
        (design, responses)
    }

    /// Fails with [`BuildError::ExcessiveFaults`] if the quarantined
    /// fraction of the batch exceeds `policy.max_quarantined_frac`.
    ///
    /// # Errors
    ///
    /// [`BuildError::ExcessiveFaults`] carrying the first quarantined
    /// point's evidence.
    pub fn check_threshold(&self, policy: &SupervisorPolicy) -> Result<(), BuildError> {
        let n = self.values.len();
        let frac = if n == 0 {
            0.0
        } else {
            self.quarantined.len() as f64 / n as f64
        };
        if !self.quarantined.is_empty() && frac > policy.max_quarantined_frac {
            let first = &self.quarantined[0];
            return Err(BuildError::ExcessiveFaults {
                quarantined: self.quarantined.len(),
                total: n,
                detail: format!("point {} {}", first.index, first.fault),
            });
        }
        Ok(())
    }

    /// All values, or the first quarantine as a typed error — the
    /// strict adapter used by [`crate::response::eval_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ExcessiveFaults`] if any point was
    /// quarantined.
    pub fn into_values(self, total: usize) -> Result<Vec<f64>, BuildError> {
        if let Some(q) = self.quarantined.first() {
            return Err(BuildError::ExcessiveFaults {
                quarantined: self.quarantined.len(),
                total,
                detail: format!("point {} {}", q.index, q.fault),
            });
        }
        Ok(self
            .values
            .into_iter()
            .map(|v| v.unwrap_or(f64::NAN))
            .collect())
    }
}

/// One supervised evaluation: catch panics, retry, classify the
/// result.
fn supervised_eval<R: Response>(
    response: &R,
    index: usize,
    point: &[f64],
    policy: &SupervisorPolicy,
) -> Result<f64, (Fault, u32)> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = catch_unwind(AssertUnwindSafe(|| response.eval(point)));
        let fault = match result {
            Ok(v) if v.is_finite() => return Ok(v),
            Ok(v) => Fault::NonFinite(v),
            Err(payload) => Fault::Panic(panic_message(payload.as_ref())),
        };
        let transient = matches!(fault, Fault::Panic(_));
        if !transient || attempt > policy.max_retries {
            return Err((fault, attempt));
        }
        ppm_telemetry::counter("robust.retries").inc();
        ppm_telemetry::event!(
            ppm_telemetry::Level::Warn,
            "robust.retry",
            "index" => index,
            "attempt" => u64::from(attempt),
            "fault" => fault.to_string(),
        );
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Most design points simulated together as one lane group: one
/// [`Response::eval_many`] call, so one trace pass shared by this many
/// timing lanes. Chosen from the lanes-per-group curve in DESIGN §13:
/// larger groups amortize the shared trace pass over more lanes but keep
/// more lane state resident per worker, and fewer groups balance worse
/// across threads.
pub const LANES_PER_GROUP: usize = 16;

/// Evaluates a batch under supervision: faults are isolated per point,
/// panics retried per `policy`, and persistent failures quarantined.
/// Results are in input order and deterministic for a deterministic
/// response, regardless of `threads`.
///
/// The points still to evaluate are split into lane groups of at most
/// [`LANES_PER_GROUP`] points, balanced across the `threads` workers
/// they run on: every worker gets the same number of groups, and group
/// sizes differ by at most one point. Each group is tried as one
/// [`Response::eval_many`] call under its own `catch_unwind`; a group
/// that panics, declines, or returns the wrong number of values falls
/// back to supervised per-point evaluation of its own points only.
///
/// `precomputed` carries values known ahead (`&[]` for none): `Some(v)`
/// entries are taken as-is (counted as `resumed`) and never
/// re-evaluated.
///
/// # Errors
///
/// * [`BuildError::InvalidConfig`] if `threads == 0` or `precomputed`
///   is non-empty with a length different from `points`.
/// * [`BuildError::ExcessiveFaults`] if the quarantined fraction
///   exceeds `policy.max_quarantined_frac`.
pub fn eval_batch_supervised<R: Response>(
    response: &R,
    points: &[Vec<f64>],
    threads: usize,
    policy: &SupervisorPolicy,
    precomputed: &[Option<f64>],
) -> Result<BatchOutcome, BuildError> {
    let lanes = LANES_PER_GROUP;
    eval_batch_grouped(response, points, threads, policy, precomputed, lanes, None)
}

/// [`eval_batch_supervised`] journaled into `journal`: the one path by
/// which a batch is checkpointed and resumed. Journaled points are
/// served from it without re-simulation (`robust.resumed`); new results
/// are recorded and flushed atomically after every lane group, so a
/// killed run loses at most the groups in flight, and a batch that
/// fails `policy`'s quarantine threshold still leaves its good points
/// on disk. With `None` this is [`eval_batch_supervised`] with `&[]`.
///
/// # Errors
///
/// As [`eval_batch_supervised`], plus [`BuildError::Checkpoint`] for
/// the first failed flush, which takes precedence over the threshold.
pub fn eval_journaled<R: Response>(
    response: &R,
    points: &[Vec<f64>],
    threads: usize,
    policy: &SupervisorPolicy,
    journal: Option<&mut Checkpoint>,
) -> Result<BatchOutcome, BuildError> {
    let lanes = LANES_PER_GROUP;
    eval_batch_grouped(response, points, threads, policy, &[], lanes, journal)
}

/// The supervised batch with an explicit lane-group bound. A given
/// `journal` supplies the precomputed values in place of `precomputed`
/// and is recorded and flushed after every finished group.
fn eval_batch_grouped<R: Response>(
    response: &R,
    points: &[Vec<f64>],
    threads: usize,
    policy: &SupervisorPolicy,
    precomputed: &[Option<f64>],
    lanes_per_group: usize,
    journal: Option<&mut Checkpoint>,
) -> Result<BatchOutcome, BuildError> {
    // Rejects zero threads ("need at least one worker thread").
    let exec =
        ppm_exec::Executor::new(threads).map_err(|e| BuildError::InvalidConfig(e.to_string()))?;
    if !precomputed.is_empty() && precomputed.len() != points.len() {
        return Err(BuildError::InvalidConfig(format!(
            "precomputed length {} does not match batch size {}",
            precomputed.len(),
            points.len()
        )));
    }
    let n = points.len();
    let mut values: Vec<Option<f64>> = match journal.as_deref() {
        Some(cp) => points.iter().map(|p| cp.lookup(p)).collect(),
        None if precomputed.is_empty() => vec![None; n],
        None => precomputed.to_vec(),
    };
    let resumed = values.iter().filter(|v| v.is_some()).count();
    if resumed > 0 {
        ppm_telemetry::counter("robust.resumed").add(resumed as u64);
        ppm_telemetry::event(
            "robust.resume",
            &[("cached", resumed.into()), ("points", n.into())],
        );
    }
    let _span = ppm_telemetry::span("stage.simulation");
    let todo: Vec<usize> = (0..n).filter(|&i| values[i].is_none()).collect();
    ppm_telemetry::event(
        "sim.batch",
        &[
            ("points", n.into()),
            ("cached", resumed.into()),
            ("threads", threads.into()),
        ],
    );
    ppm_telemetry::counter("sim.batch_points").add(todo.len() as u64);
    // Progress counters for the live plane's /buildz route: planned
    // counts the whole batch up front, done advances as points finish
    // (checkpoint hits count as done immediately), so done/planned is
    // the completion rate the ETA estimate divides by.
    ppm_telemetry::counter("build.points_planned").add(n as u64);
    ppm_telemetry::counter("build.points_done").add(resumed as u64);
    ppm_telemetry::counter("build.points_resumed").add(resumed as u64);

    let quarantined: Mutex<Vec<Quarantine>> = Mutex::new(Vec::new());
    let journal = journal.map(|cp| Mutex::new((cp, Ok(()))));
    let groups = lane_groups(&todo, threads, lanes_per_group);
    ppm_telemetry::counter("sim.batch_groups").add(groups.len() as u64);
    // Each group depends only on its own points and results land in
    // group-ordered slots, so the values are the same for any thread
    // count or group size.
    let fresh: Vec<Option<f64>> = exec
        .map("sim_batch", groups.len(), |g| {
            let idxs = groups[g];
            let vals = run_group(response, idxs, points, policy, &quarantined);
            if let Some(journal) = &journal {
                let mut guard = journal.lock().unwrap_or_else(PoisonError::into_inner);
                let (cp, flushed) = &mut *guard;
                for (&i, v) in idxs.iter().zip(&vals) {
                    if let Some(y) = *v {
                        cp.record(&points[i], y);
                    }
                }
                if flushed.is_ok() {
                    // lint:allow(lock-order): the flush is each lane group's one-writer durability point
                    *flushed = cp.flush();
                }
            }
            vals
        })
        .into_iter()
        .flatten()
        .collect();
    if let Some(journal) = journal {
        journal
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .1?;
    }
    for (&i, v) in todo.iter().zip(fresh) {
        values[i] = v;
    }
    let mut quarantined = quarantined
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    quarantined.sort_by_key(|q| q.index);
    let outcome = BatchOutcome {
        evaluated: todo.len() - quarantined.len(),
        resumed,
        values,
        quarantined,
    };
    outcome.check_threshold(policy)?;
    Ok(outcome)
}

/// Splits `todo` into the fewest lane groups that number a multiple of
/// `threads` and hold at most `lanes_per_group` points each, capped at
/// one point per group, with sizes that differ by at most one.
fn lane_groups(todo: &[usize], threads: usize, lanes_per_group: usize) -> Vec<&[usize]> {
    let per_thread = todo
        .len()
        .div_ceil(lanes_per_group.max(1))
        .div_ceil(threads);
    let count = (per_thread * threads).min(todo.len());
    if count == 0 {
        return Vec::new();
    }
    let (size, longer) = (todo.len() / count, todo.len() % count);
    let mut rest = todo;
    (0..count)
        .map(|g| {
            let (group, tail) = rest.split_at(size + usize::from(g < longer));
            rest = tail;
            group
        })
        .collect()
}

/// Evaluates one lane group. A response with a one-pass multi-point
/// evaluator (the cycle-level simulator shares the trace pass across
/// lanes) takes the whole group at once, a one-point group included,
/// under one catch_unwind. A panic,
/// a decline, or a result of the wrong length falls back to supervised
/// per-point evaluation of this group's points, which re-isolates and
/// retries each one. Non-finite values quarantine exactly as in the
/// per-point path (deterministic, so never retried).
fn run_group<R: Response>(
    response: &R,
    idxs: &[usize],
    points: &[Vec<f64>],
    policy: &SupervisorPolicy,
    quarantined: &Mutex<Vec<Quarantine>>,
) -> Vec<Option<f64>> {
    let group_points: Vec<Vec<f64>> = idxs.iter().map(|&i| points[i].clone()).collect();
    let batched = catch_unwind(AssertUnwindSafe(|| response.eval_many(&group_points)));
    let fault = match batched {
        Ok(Some(vals)) if vals.len() == idxs.len() => {
            ppm_telemetry::event("sim.batch_fastpath", &[("points", idxs.len().into())]);
            let out = idxs
                .iter()
                .zip(vals)
                .map(|(&i, v)| {
                    if v.is_finite() {
                        Some(v)
                    } else {
                        record_quarantine(i, &points[i], Fault::NonFinite(v), 1, quarantined);
                        None
                    }
                })
                .collect();
            ppm_telemetry::counter("build.points_done").add(idxs.len() as u64);
            return out;
        }
        Ok(None) => None,
        Ok(Some(vals)) => Some(format!("returned {} values", vals.len())),
        Err(payload) => Some(panic_message(payload.as_ref())),
    };
    if let Some(fault) = fault {
        ppm_telemetry::counter("sim.batch_declined").inc();
        ppm_telemetry::event!(
            ppm_telemetry::Level::Warn,
            "sim.batch_declined",
            "points" => idxs.len(),
            "fault" => fault,
        );
    }
    idxs.iter()
        .map(|&i| run_one(response, i, &points[i], policy, quarantined))
        .collect()
}

/// Records one quarantined point: telemetry plus the report entry.
fn record_quarantine(
    index: usize,
    point: &[f64],
    fault: Fault,
    attempts: u32,
    quarantined: &Mutex<Vec<Quarantine>>,
) {
    ppm_telemetry::counter("robust.quarantined").inc();
    ppm_telemetry::event!(
        ppm_telemetry::Level::Error,
        "robust.quarantine",
        "index" => index,
        "attempts" => u64::from(attempts),
        "fault" => fault.to_string(),
    );
    quarantined
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Quarantine {
            index,
            point: point.to_vec(),
            fault,
            attempts,
        });
}

fn run_one<R: Response>(
    response: &R,
    index: usize,
    point: &[f64],
    policy: &SupervisorPolicy,
    quarantined: &Mutex<Vec<Quarantine>>,
) -> Option<f64> {
    let value = match supervised_eval(response, index, point, policy) {
        Ok(v) => Some(v),
        Err((fault, attempts)) => {
            record_quarantine(index, point, fault, attempts, quarantined);
            None
        }
    };
    // Quarantined points are still *done* for progress purposes: the
    // supervisor will not spend more time on them.
    ppm_telemetry::counter("build.points_done").inc();
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::FnResponse;

    fn clean() -> FnResponse<impl Fn(&[f64]) -> f64 + Sync> {
        FnResponse::new(2, |x| 1.0 + x[0] + 2.0 * x[1]).unwrap()
    }

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / n as f64, 0.5]).collect()
    }

    #[test]
    fn clean_batch_survives_fully_in_any_thread_count() {
        let r = clean();
        let pts = points(17);
        let a = eval_batch_supervised(&r, &pts, 1, &SupervisorPolicy::default(), &[]).unwrap();
        let b = eval_batch_supervised(&r, &pts, 8, &SupervisorPolicy::default(), &[]).unwrap();
        assert_eq!(a, b);
        assert!(a.quarantined.is_empty());
        assert_eq!(a.evaluated, 17);
        assert_eq!(a.resumed, 0);
        assert!(a.values.iter().all(|v| v.is_some()));
    }

    #[test]
    fn nan_points_are_quarantined_without_retry() {
        let r = FnResponse::new(1, |x: &[f64]| if x[0] > 0.5 { f64::NAN } else { x[0] }).unwrap();
        let pts = vec![vec![0.2], vec![0.9], vec![0.4]];
        let policy = SupervisorPolicy::default().with_max_quarantined_frac(0.5);
        let out = eval_batch_supervised(&r, &pts, 1, &policy, &[]).unwrap();
        assert_eq!(out.values, vec![Some(0.2), None, Some(0.4)]);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].index, 1);
        assert_eq!(out.quarantined[0].attempts, 1, "NaN must not be retried");
        assert!(matches!(out.quarantined[0].fault, Fault::NonFinite(_)));
        let (d, y) = out.survivors(&pts);
        assert_eq!(d, vec![vec![0.2], vec![0.4]]);
        assert_eq!(y, vec![0.2, 0.4]);
    }

    #[test]
    fn panics_are_isolated_and_reported() {
        let r = FnResponse::new(1, |x: &[f64]| {
            assert!(x[0] < 0.5, "injected failure");
            x[0]
        })
        .unwrap();
        let pts = vec![vec![0.1], vec![0.8]];
        let policy = SupervisorPolicy::default().with_max_quarantined_frac(0.5);
        let out = eval_batch_supervised(&r, &pts, 2, &policy, &[]).unwrap();
        assert_eq!(out.values[0], Some(0.1));
        assert_eq!(out.values[1], None);
        assert_eq!(out.quarantined[0].attempts, 3, "2 retries + first try");
        let msg = out.quarantined[0].fault.to_string();
        assert!(msg.contains("injected failure"), "{msg}");
    }

    #[test]
    fn threshold_breach_is_a_typed_error() {
        let r = FnResponse::new(1, |_: &[f64]| f64::INFINITY).unwrap();
        let err = eval_batch_supervised(&r, &points(4), 1, &SupervisorPolicy::default(), &[])
            .unwrap_err();
        match err {
            BuildError::ExcessiveFaults {
                quarantined, total, ..
            } => {
                assert_eq!(quarantined, 4);
                assert_eq!(total, 4);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn precomputed_entries_skip_evaluation() {
        // A response that panics on everything: only the cached entries
        // can succeed, proving nothing cached is re-evaluated.
        let r = FnResponse::new(1, |_: &[f64]| panic!("must not be called")).unwrap();
        let pts = vec![vec![0.1], vec![0.2]];
        let pre = vec![Some(10.0), Some(20.0)];
        let out = eval_batch_supervised(&r, &pts, 1, &SupervisorPolicy::strict(), &pre).unwrap();
        assert_eq!(out.values, pre);
        assert_eq!(out.resumed, 2);
        assert_eq!(out.evaluated, 0);
    }

    #[test]
    fn progress_counters_track_planned_and_done() {
        let scoped = ppm_telemetry::Registry::scoped();
        let r = FnResponse::new(1, |x: &[f64]| if x[0] > 0.5 { f64::NAN } else { x[0] }).unwrap();
        let pts = vec![vec![0.2], vec![0.9], vec![0.4], vec![0.1]];
        let pre = vec![None, None, None, Some(7.0)];
        let policy = SupervisorPolicy::default().with_max_quarantined_frac(0.5);
        let out = eval_batch_supervised(&r, &pts, 1, &policy, &pre).unwrap();
        assert_eq!(out.resumed, 1);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(scoped.counter("build.points_planned").get(), 4);
        // Done covers successes, the checkpoint hit, and the
        // quarantined point — progress must reach planned even when
        // points fail.
        assert_eq!(scoped.counter("build.points_done").get(), 4);
    }

    /// A response with a one-pass path: `eval_many` returns what `eval`
    /// would for each point, except that it panics on any group holding
    /// a point with `x[0] == poison`, and `short` drops its last value.
    /// Counts the per-point `eval` calls it receives.
    struct Batched {
        poison: f64,
        short: bool,
        evals: std::sync::atomic::AtomicUsize,
    }

    impl Batched {
        fn new(poison: f64, short: bool) -> Self {
            Batched {
                poison,
                short,
                evals: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn evals(&self) -> usize {
            self.evals.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Response for Batched {
        fn dim(&self) -> usize {
            2
        }

        fn eval(&self, x: &[f64]) -> f64 {
            self.evals
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if x[0] > 0.9 {
                f64::NAN
            } else {
                1.0 + x[0] + 2.0 * x[1]
            }
        }

        fn eval_many(&self, points: &[Vec<f64>]) -> Option<Vec<f64>> {
            assert!(
                points.iter().all(|p| p[0] != self.poison),
                "injected group failure"
            );
            let mut out: Vec<f64> = points
                .iter()
                .map(|p| {
                    if p[0] > 0.9 {
                        f64::NAN
                    } else {
                        1.0 + p[0] + 2.0 * p[1]
                    }
                })
                .collect();
            if self.short {
                out.pop();
            }
            Some(out)
        }
    }

    /// Values as bits plus (index, attempts) of each quarantine: what
    /// must match between runs (a NaN fault never equals itself).
    type Bits = (Vec<Option<u64>>, Vec<(usize, u32)>);

    fn grouped<R: Response>(r: &R, pts: &[Vec<f64>], threads: usize, group: usize) -> Bits {
        let policy = SupervisorPolicy::default().with_max_quarantined_frac(0.5);
        let out = eval_batch_grouped(r, pts, threads, &policy, &[], group, None).unwrap();
        (
            out.values.iter().map(|v| v.map(f64::to_bits)).collect(),
            out.quarantined
                .iter()
                .map(|q| (q.index, q.attempts))
                .collect(),
        )
    }

    #[test]
    fn lane_groups_are_identical_for_any_thread_count_and_group_size() {
        let sim = crate::response::SimulatorResponse::new(ppm_workload::Benchmark::Crafty, 3_000);
        let sim_pts: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                (0..9)
                    .map(|d| ((i * 9 + d) as f64 * 0.618_034).fract())
                    .collect()
            })
            .collect();
        let serial: Vec<Option<u64>> = sim_pts
            .iter()
            .map(|p| Some(sim.eval(p).to_bits()))
            .collect();
        let fake = Batched::new(-1.0, false);
        let fake_pts = points(23);
        let fake_ref = grouped(&fake, &fake_pts, 1, usize::MAX);
        for threads in [1, 2, 8] {
            for group in [1, 2, 7, usize::MAX] {
                let got = grouped(&sim, &sim_pts, threads, group);
                assert_eq!(
                    got,
                    (serial.clone(), vec![]),
                    "threads {threads}, group {group}"
                );
                let got = grouped(&fake, &fake_pts, threads, group);
                assert_eq!(got, fake_ref, "threads {threads}, group {group}");
            }
        }
        // The fake's last two points are non-finite: quarantined the
        // same way, with one attempt, by the batched and the per-point
        // path.
        assert_eq!(fake_ref.1, vec![(21, 1), (22, 1)]);
    }

    #[test]
    fn wrong_length_batch_is_declined_not_a_panic() {
        let scoped = ppm_telemetry::Registry::scoped();
        let r = Batched::new(-1.0, true);
        let pts = points(10);
        let out = grouped(&r, &pts, 1, 4);
        assert_eq!(out, grouped(&Batched::new(-1.0, false), &pts, 1, 4));
        // Every group (4 + 3 + 3) was declined and re-run point by point.
        assert_eq!(scoped.counter("sim.batch_declined").get(), 3);
        assert_eq!(r.evals(), 10);
    }

    #[test]
    fn a_panicking_group_retries_only_its_own_points() {
        let scoped = ppm_telemetry::Registry::scoped();
        let pts = points(12);
        // Three groups of at most four round up to four groups of three
        // on two threads; point 5 sits in the second: indices 3..6.
        let r = Batched::new(pts[5][0], false);
        let out = grouped(&r, &pts, 2, 4);
        assert_eq!(r.evals(), 3, "only the failed group goes point by point");
        assert_eq!(scoped.counter("sim.batch_declined").get(), 1);
        assert_eq!(scoped.counter("sim.batch_groups").get(), 4);
        assert_eq!(scoped.counter("build.points_done").get(), 12);
        assert_eq!(out, grouped(&Batched::new(-1.0, false), &pts, 1, 4));
    }

    #[test]
    fn journal_holds_every_survivor_even_when_the_batch_fails() {
        let path = std::env::temp_dir().join(format!("ppm-supervise-{}.ckpt", std::process::id()));
        let r = Batched::new(-1.0, false);
        let pts = points(20);
        let strict = SupervisorPolicy::strict();
        // Point 19 (x = 0.95) is non-finite: the strict batch fails, but
        // only after its 19 good points reached the journal on disk.
        let mut journal = Checkpoint::create(&path, &[]);
        let err = eval_journaled(&r, &pts, 2, &strict, Some(&mut journal)).unwrap_err();
        assert!(matches!(
            err,
            BuildError::ExcessiveFaults { quarantined: 1, .. }
        ));
        let mut journal = Checkpoint::load(&path).unwrap();
        assert_eq!(journal.len(), 19);
        for (i, p) in pts.iter().enumerate() {
            let want = (i < 19).then(|| 1.0 + p[0] + 2.0 * p[1]);
            assert_eq!(journal.lookup(p), want, "point {i}");
        }
        // A rerun serves the survivors from the journal and evaluates
        // only the faulty point again.
        let scoped = ppm_telemetry::Registry::scoped();
        let policy = SupervisorPolicy::default();
        let out = eval_journaled(&r, &pts, 2, &policy, Some(&mut journal)).unwrap();
        assert_eq!((out.resumed, out.evaluated), (19, 0));
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(scoped.counter("robust.resumed").get(), 19);
        assert_eq!(scoped.counter("sim.batch_points").get(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_batches_still_use_every_thread() {
        let scoped = ppm_telemetry::Registry::scoped();
        let pts = points(6);
        eval_batch_supervised(&clean(), &pts, 8, &SupervisorPolicy::strict(), &[]).unwrap();
        // ceil(6 / 8) = 1 lane per group: six groups, not one.
        assert_eq!(scoped.counter("sim.batch_groups").get(), 6);
    }

    #[test]
    fn lane_groups_are_balanced_across_threads() {
        let sizes = |points: usize, threads: usize| -> Vec<usize> {
            let todo: Vec<usize> = (0..points).collect();
            let groups = lane_groups(&todo, threads, LANES_PER_GROUP);
            assert_eq!(groups.concat(), todo, "{points} points on {threads}");
            groups.iter().map(|g| g.len()).collect()
        };
        // The sweep's 50 holdout points on 2 workers: 25 lanes each,
        // not 32 and 18.
        assert_eq!(sizes(50, 2), [13, 13, 12, 12]);
        assert_eq!(sizes(20, 2), [10, 10]);
        assert_eq!(sizes(6, 2), [3, 3]);
        assert_eq!(sizes(3, 4), [1, 1, 1]);
        assert_eq!(sizes(16, 1), [16]);
        assert_eq!(sizes(17, 1), [9, 8]);
        assert!(sizes(0, 2).is_empty());
        // The paper's 200-point sample: 14 groups, not 12 of 16 and one
        // of 8.
        let paper = sizes(200, 2);
        assert_eq!(paper.len(), 14);
        assert!(paper.iter().all(|&n| n == 14 || n == 15), "{paper:?}");
    }

    #[test]
    fn zero_threads_is_invalid_config() {
        let err = eval_batch_supervised(&clean(), &points(2), 0, &SupervisorPolicy::default(), &[])
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig(_)));
    }

    #[test]
    fn mismatched_precomputed_is_invalid_config() {
        let err = eval_batch_supervised(
            &clean(),
            &points(3),
            1,
            &SupervisorPolicy::default(),
            &[None],
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig(_)));
    }
}
