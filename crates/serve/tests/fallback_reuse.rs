//! `/reloadz` reuses the analytical fallback of any trace the store
//! has profiled before.
//!
//! This is its own test binary because it reads the process-global
//! `workload.generators` counter: no other test may build a trace
//! generator while it runs.

use std::path::{Path, PathBuf};

use ppm_core::builder::{BuildConfig, RbfModelBuilder};
use ppm_core::persist;
use ppm_core::response::SimulatorResponse;
use ppm_core::space::DesignSpace;
use ppm_serve::{publish, ModelStore};
use ppm_workload::Benchmark;

/// A small genuine model trained with `seed`, saved with the metadata
/// the store builds its fallback from plus `note`, which changes the
/// file's bytes (and so its version) without changing the fallback.
fn write_model(dir: &Path, name: &str, seed: u64, note: &str) -> PathBuf {
    let response = SimulatorResponse::new(Benchmark::Ammp, 5_000).with_seed(seed);
    let built = RbfModelBuilder::new(
        DesignSpace::paper_table1(),
        BuildConfig::default()
            .with_sample_size(12)
            .with_seed(seed)
            .with_train_threads(2)
            .with_lhs_candidates(8),
    )
    .build(&response)
    .unwrap();
    let meta: Vec<(String, String)> = [
        ("benchmark", "ammp".to_string()),
        ("metric", "cpi".to_string()),
        ("seed", seed.to_string()),
        ("instructions", "5000".to_string()),
        ("note", note.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let path = dir.join(name);
    persist::save(&built.model.network, &meta, &path).unwrap();
    path
}

#[test]
fn reload_reuses_the_fallback_of_the_same_trace_and_rebuilds_for_a_new_seed() {
    let dir = std::env::temp_dir().join(format!("ppm-fallback-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let registry = dir.join("registry");
    // Every model is trained before the counter is read.
    let first = write_model(&dir, "first.txt", 3, "first");
    let same_trace = write_model(&dir, "same-trace.txt", 3, "second");
    let new_seed = write_model(&dir, "new-seed.txt", 4, "first");
    let generators = ppm_telemetry::counter("workload.generators");

    let profiles = ppm_telemetry::counter("serve.fallback_profiles");
    let (generators_before, profiles_before) = (generators.get(), profiles.get());

    let v1 = publish(&registry, &first).unwrap();
    let store = ModelStore::open(&registry, None).unwrap();
    let opened = generators.get();
    assert_eq!(opened, generators_before + 1, "open profiles one trace");
    let trace_a = format!("{:?}", store.active().fallback.stats());

    // Reloading the active model profiles nothing.
    let outcome = store.reload().unwrap();
    assert!(!outcome.changed);
    assert_eq!(
        generators.get(),
        opened,
        "same-model reload built a generator"
    );

    // A new version over the same (benchmark, seed, instructions) swaps
    // in with the active fallback.
    let v2 = publish(&registry, &same_trace).unwrap();
    assert_ne!(v1, v2);
    assert!(store.reload().unwrap().changed);
    assert_eq!(store.active().version, v2);
    assert_eq!(
        generators.get(),
        opened,
        "same-trace reload built a generator"
    );

    // A different seed is a different trace: its fallback is built.
    let v3 = publish(&registry, &new_seed).unwrap();
    assert!(store.reload().unwrap().changed);
    assert_eq!(store.active().version, v3);
    assert_eq!(
        generators.get(),
        opened + 1,
        "new-seed reload reused a fallback"
    );

    let trace_b = format!("{:?}", store.active().fallback.stats());
    assert_ne!(trace_a, trace_b);

    // A -> B -> A -> B: alternating between the two traces profiles
    // neither again, and each swapped-in fallback is its own trace's.
    for (model, version, trace) in [
        (&first, &v1, &trace_a),
        (&new_seed, &v3, &trace_b),
        (&same_trace, &v2, &trace_a),
        (&new_seed, &v3, &trace_b),
    ] {
        assert_eq!(&publish(&registry, model).unwrap(), version);
        assert!(store.reload().unwrap().changed);
        let active = store.active();
        assert_eq!(&active.version, version);
        assert_eq!(&format!("{:?}", active.fallback.stats()), trace);
    }
    assert_eq!(
        generators.get(),
        generators_before + 2,
        "one profile per distinct trace"
    );
    assert_eq!(
        profiles.get(),
        profiles_before + 2,
        "serve.fallback_profiles counts the profile passes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
