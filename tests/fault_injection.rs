//! Fault-injection tests for the fault-tolerant pipeline: supervised
//! execution, graceful degradation, and crash-safe checkpoint/resume.
//!
//! The centerpiece scenario kills a model build mid-batch with injected
//! panics, resumes from the journal, and proves the final model is
//! byte-identical to an uninterrupted run with zero re-simulation of
//! journaled points (via the `sim.batch_points` telemetry counter).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use ppm::model::builder::{BuildConfig, BuildError, RbfModelBuilder};
use ppm::model::response::{FnResponse, Response};
use ppm::model::space::DesignSpace;
use ppm::model::supervise::{eval_batch_supervised, SupervisorPolicy, LANES_PER_GROUP};
use ppm::model::{persist, Checkpoint, FaultPlan, FaultyResponse, InjectedFault};
use ppm_telemetry as tel;

/// Telemetry counters are process-global; tests that read them must not
/// interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Silences the default panic hook while injected panics fly, so the
/// test output stays readable. Restores the hook on drop.
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

fn clean_response() -> FnResponse<impl Fn(&[f64]) -> f64 + Sync> {
    FnResponse::new(9, |x| {
        2.0 + 1.5 * x[0] + 0.3 * (2.0 * x[4]).exp() + x[5] * x[5] - 0.5 * x[5] * x[6]
    })
    .expect("non-zero dimension")
}

/// A deterministic 9-dimensional low-discrepancy point set.
fn unit_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..9)
                .map(|d| (((i * 9 + d) as f64) * 0.618_034).fract())
                .collect()
        })
        .collect()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ppm_fault_injection_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn transient_panics_recover_through_retries() {
    let _serial = lock();
    let _quiet = QuietPanics::install();
    let clean = clean_response();
    let plan = FaultPlan::default()
        .with_panic_rate(0.3)
        .with_transient_attempts(1);
    let faulty = FaultyResponse::new(clean_response(), plan);
    let points = unit_points(30);

    let retries_before = tel::counter("robust.retries").get();
    let policy = SupervisorPolicy::default().with_max_retries(2);
    let outcome = eval_batch_supervised(&faulty, &points, 4, &policy, &[])
        .expect("transient faults must not kill the batch");

    assert!(outcome.quarantined.is_empty(), "{:?}", outcome.quarantined);
    assert!(
        faulty.injected_failures() > 0,
        "the plan never fired — fault rate too low for this point set"
    );
    assert!(
        tel::counter("robust.retries").get() > retries_before,
        "recovery must go through the supervisor's retry path"
    );
    // Despite the injected failures, every value is the true response.
    for (p, v) in points.iter().zip(&outcome.values) {
        assert_eq!(v.expect("no quarantine"), clean.eval(p));
    }
}

#[test]
fn slow_evaluations_survive_without_quarantine() {
    let _serial = lock();
    let clean = clean_response();
    let faulty = FaultyResponse::new(clean_response(), FaultPlan::default().with_slow_rate(1.0));
    let points = unit_points(8);
    let outcome =
        eval_batch_supervised(&faulty, &points, 4, &SupervisorPolicy::strict(), &[]).unwrap();
    assert!(outcome.quarantined.is_empty());
    for (p, v) in points.iter().zip(&outcome.values) {
        assert_eq!(v.expect("no quarantine"), clean.eval(p));
    }
}

#[test]
fn sparse_permanent_faults_degrade_gracefully() {
    let _serial = lock();
    let plan = FaultPlan::default().with_nan_rate(0.1).with_seed(7);
    let faulty = FaultyResponse::new(clean_response(), plan.clone());
    let config = BuildConfig::quick(50)
        .with_supervisor(SupervisorPolicy::default().with_max_quarantined_frac(0.3));
    let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), config);

    let quarantined_before = tel::counter("robust.quarantined").get();
    let built = builder
        .build(&faulty)
        .expect("sparse faults must degrade, not fail");

    assert!(
        !built.quarantined.is_empty(),
        "fault rate too low: no design point drew a fault"
    );
    assert_eq!(built.design.len() + built.quarantined.len(), 50);
    // The dropped points are exactly the planned fault sites.
    for q in &built.quarantined {
        assert_eq!(plan.fault_at(&q.point), Some(InjectedFault::Nan));
    }
    assert_eq!(
        tel::counter("robust.quarantined").get() - quarantined_before,
        built.quarantined.len() as u64
    );
    assert!(built.predict(&[0.5; 9]).is_finite());
}

#[test]
fn excessive_faults_fail_with_a_typed_error() {
    let _serial = lock();
    let faulty = FaultyResponse::new(clean_response(), FaultPlan::default().with_inf_rate(1.0));
    let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(20));
    let err = builder.build(&faulty).unwrap_err();
    match err {
        BuildError::ExcessiveFaults {
            quarantined, total, ..
        } => {
            assert_eq!(quarantined, 20);
            assert_eq!(total, 20);
        }
        other => panic!("expected ExcessiveFaults, got {other:?}"),
    }
}

/// The acceptance scenario: a study is killed mid-batch by injected
/// panics, its completed simulations survive in the journal, and a
/// resumed run (a) never re-simulates a journaled point and (b) saves a
/// model byte-identical to an uninterrupted run.
#[test]
fn interrupted_build_resumes_bit_identical_with_zero_resimulation() {
    let _serial = lock();
    let _quiet = QuietPanics::install();
    let space = DesignSpace::paper_table1();
    let builder = RbfModelBuilder::new(space, BuildConfig::quick(40));
    let clean = clean_response();
    let meta = vec![("benchmark".to_string(), "analytic".to_string())];

    // Reference: the uninterrupted run.
    let reference = builder.build(&clean).expect("clean build");
    let reference_text = persist::to_string(&reference.model.network, &meta);

    // Interrupted run: permanent injected panics push the quarantine
    // fraction over the default 10% threshold, killing the study
    // mid-batch — but only after the survivors reach the journal.
    let path = temp_path("resume.ckpt");
    std::fs::remove_file(&path).ok();
    let mut journal = Checkpoint::create(&path, &meta);
    let faulty = FaultyResponse::new(
        clean_response(),
        FaultPlan::default().with_panic_rate(0.25).with_seed(3),
    );
    let err = builder
        .build_checkpointed(&faulty, Some(&mut journal))
        .unwrap_err();
    let BuildError::ExcessiveFaults {
        quarantined, total, ..
    } = err
    else {
        panic!("expected ExcessiveFaults, got {err:?}");
    };
    assert_eq!(total, 40);
    assert!(
        quarantined > 4,
        "need > 10% of 40 points quarantined to kill the build, got {quarantined}"
    );

    // The journal on disk holds exactly the surviving points.
    let loaded = Checkpoint::load(&path).expect("journal must be readable after the crash");
    assert_eq!(loaded.len(), 40 - quarantined);

    // Resume with a healthy response: only the previously-quarantined
    // points are simulated; everything journaled is served from disk.
    let fresh_before = tel::counter("sim.batch_points").get();
    let resumed_before = tel::counter("robust.resumed").get();
    let mut journal = loaded;
    let resumed = builder
        .build_checkpointed(&clean, Some(&mut journal))
        .expect("resumed build");
    let fresh_evals = tel::counter("sim.batch_points").get() - fresh_before;
    let served = tel::counter("robust.resumed").get() - resumed_before;
    assert_eq!(
        fresh_evals as usize, quarantined,
        "journaled points were re-simulated"
    );
    assert_eq!(served as usize, 40 - quarantined);

    // The resumed model is byte-identical to the uninterrupted one.
    let resumed_text = persist::to_string(&resumed.model.network, &meta);
    assert_eq!(resumed_text, reference_text);
    assert!(resumed.quarantined.is_empty());
    assert_eq!(journal.len(), 40, "the resumed run completes the journal");
    std::fs::remove_file(&path).ok();
}

/// Copies the on-disk journal aside when the `kill_at`-th evaluation
/// starts: the file a `kill -9` at that moment would leave behind.
struct KillSnapshot<R> {
    inner: R,
    calls: AtomicUsize,
    kill_at: usize,
    journal: PathBuf,
    snapshot: PathBuf,
}

impl<R: Response> Response for KillSnapshot<R> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(&self, unit: &[f64]) -> f64 {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.kill_at {
            std::fs::copy(&self.journal, &self.snapshot).expect("journal exists mid-batch");
        }
        self.inner.eval(unit)
    }
}

/// A build killed in the last evaluation of its second lane group has
/// journaled the first group: resuming re-simulates exactly one group of
/// already-simulated points, and saves the uninterrupted model.
#[test]
fn build_killed_mid_simulation_loses_at_most_one_group() {
    let _serial = lock();
    let group = LANES_PER_GROUP;
    // Three full groups: lane groups are balanced, so any other size
    // would shrink them below `group`.
    let points = 3 * group;
    let mut config = BuildConfig::quick(points);
    // One worker runs the groups in order, so the kill point is exact.
    config.threads = 1;
    let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), config);
    let reference = builder.build(&clean_response()).expect("clean build");

    let journal = temp_path("killed.ckpt");
    let snapshot = temp_path("killed-snapshot.ckpt");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&snapshot).ok();
    let killed = KillSnapshot {
        inner: clean_response(),
        calls: AtomicUsize::new(0),
        kill_at: 2 * group,
        journal: journal.clone(),
        snapshot: snapshot.clone(),
    };
    builder
        .build_checkpointed(&killed, Some(&mut Checkpoint::create(&journal, &[])))
        .expect("the run itself completes");

    // What survived the kill: the first group, flushed when it finished.
    let mut survived = Checkpoint::load(&snapshot).expect("snapshot is a valid journal");
    assert_eq!(survived.len(), group, "journal must be flushed per group");

    let fresh_before = tel::counter("sim.batch_points").get();
    let resumed = builder
        .build_checkpointed(&clean_response(), Some(&mut survived))
        .expect("resumed build");
    let fresh = (tel::counter("sim.batch_points").get() - fresh_before) as usize;
    // Points never started before the kill must run anyway; the rest of
    // the fresh work is simulation the kill threw away.
    let never_started = points - killed.kill_at;
    let resimulated = fresh - never_started;
    assert_eq!(resimulated, group, "{fresh} fresh points on resume");
    assert_eq!(
        persist::to_string(&resumed.model.network, &[]),
        persist::to_string(&reference.model.network, &[])
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&snapshot).ok();
}

/// A second resume over a complete journal re-simulates nothing at all
/// and still reproduces the same model.
#[test]
fn resume_over_a_complete_journal_simulates_nothing() {
    let _serial = lock();
    let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(30));
    let clean = clean_response();
    let path = temp_path("complete.ckpt");
    std::fs::remove_file(&path).ok();

    let mut journal = Checkpoint::create(&path, &[]);
    let first = builder
        .build_checkpointed(&clean, Some(&mut journal))
        .unwrap();

    let fresh_before = tel::counter("sim.batch_points").get();
    let mut journal = Checkpoint::load(&path).unwrap();
    let second = builder
        .build_checkpointed(&clean, Some(&mut journal))
        .unwrap();
    assert_eq!(
        tel::counter("sim.batch_points").get(),
        fresh_before,
        "a complete journal must serve every point"
    );
    assert_eq!(
        persist::to_string(&second.model.network, &[]),
        persist::to_string(&first.model.network, &[])
    );
    std::fs::remove_file(&path).ok();
}
