//! The model registry: content-addressed model files, an atomically
//! swappable active model, and validated hot reload with rollback.
//!
//! # Registry layout
//!
//! ```text
//! <registry>/
//!   CURRENT            one line: the version that should be serving
//!   <version>.model    a `ppm-rbf-model v1` file; <version> is the
//!                      FNV-1a content hash of its bytes (ppm-obs)
//! ```
//!
//! [`publish`] is the only writer: it hashes the file, copies it in
//! under its hash, and atomically points `CURRENT` at it. Because the
//! name *is* the content hash, a half-written or tampered model file is
//! detectable on load, and two publishes of the same bytes are
//! idempotent.
//!
//! [`ModelStore::reload`] re-reads `CURRENT`, loads and *validates* the
//! candidate (format checksum, a finite probe prediction, a usable
//! analytical fallback), and only then swaps it in behind an `RwLock`.
//! A candidate that fails any step leaves the previous model serving —
//! rollback is the absence of a swap, so there is no window in which
//! requests can observe a broken model.
//!
//! Every model carries an analytical fallback profiled from the trace
//! its metadata names. The store keeps the fallbacks it has built, by
//! trace, so reloading to any of the last [`FALLBACKS_KEPT`] traces it
//! has seen profiles nothing; each profile pass it does pay bumps the
//! `serve.fallback_profiles` counter.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use ppm_core::persist;
use ppm_firstorder::{FirstOrderModel, ProgramStats};
use ppm_rbf::RbfNetwork;
use ppm_sim::SimConfig;
use ppm_telemetry::Level;
use ppm_workload::{Benchmark, TraceGenerator};

use crate::ServeError;

/// The pointer file naming the version that should serve.
pub const CURRENT_FILE: &str = "CURRENT";

/// A validated, immutable model the workers serve from. Swapped
/// atomically as an `Arc`, so in-flight requests keep the model they
/// started with.
#[derive(Debug)]
pub struct ServingModel {
    /// The RBF surrogate; `None` when the store runs analytical-only
    /// (no loadable model in the registry, `--benchmark` fallback).
    pub network: Option<RbfNetwork>,
    /// Content-hash version (or `"analytical"` without a network).
    pub version: String,
    /// The benchmark the model was trained on.
    pub benchmark: Benchmark,
    /// The modeled metric, from the model's metadata (`cpi` unless the
    /// build said otherwise).
    pub metric: String,
    /// The first-order analytical estimator for the same workload — the
    /// degraded-mode prediction path.
    pub fallback: FirstOrderModel,
}

/// The trace an analytical fallback is profiled from: benchmark, seed
/// and instruction count. Two models with the same key have the same
/// fallback, bit for bit.
type FallbackKey = (Benchmark, u64, usize);

/// How many traces' fallbacks a store keeps; the least recently used
/// is dropped beyond that.
const FALLBACKS_KEPT: usize = 8;

/// The analytical fallbacks a store has built, most recently used
/// first, at most [`FALLBACKS_KEPT`].
#[derive(Debug, Default)]
struct Fallbacks(Mutex<Vec<(FallbackKey, FirstOrderModel)>>);

impl Fallbacks {
    /// The fallback for `key`: kept from an earlier model when the
    /// store has profiled that trace before, built (one profile pass)
    /// otherwise. Concurrent reloads of a new trace wait for one pass
    /// instead of each paying for their own.
    fn get(&self, key: FallbackKey) -> Result<FirstOrderModel, ServeError> {
        let mut kept = self.0.lock().unwrap_or_else(|poison| poison.into_inner());
        match kept.iter().position(|(k, _)| *k == key) {
            Some(i) => kept[..=i].rotate_right(1),
            None => {
                kept.insert(0, (key, build_fallback(key)?));
                kept.truncate(FALLBACKS_KEPT);
            }
        }
        Ok(kept[0].1.clone())
    }
}

/// How a [`ModelStore::reload`] resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The now-active version.
    pub version: String,
    /// False when `CURRENT` already named the active version (no-op).
    pub changed: bool,
}

/// The registry-backed holder of the active [`ServingModel`].
#[derive(Debug)]
pub struct ModelStore {
    dir: PathBuf,
    active: RwLock<Arc<ServingModel>>,
    fallbacks: Fallbacks,
}

/// Copies `model` into the registry under its content hash and points
/// `CURRENT` at it, creating the registry directory if needed. The file
/// must parse as a valid `ppm-rbf-model v1` — publishing garbage is
/// refused at the door rather than discovered by a reload. Returns the
/// version.
///
/// # Errors
///
/// [`ServeError::Store`] when the file is unreadable, unparseable, or
/// the registry cannot be written.
pub fn publish(registry: &Path, model: &Path) -> Result<String, ServeError> {
    let bytes = std::fs::read(model)
        .map_err(|e| ServeError::Store(format!("cannot read model {}: {e}", model.display())))?;
    let text = String::from_utf8_lossy(&bytes);
    persist::from_str(&text)
        .map_err(|e| ServeError::Store(format!("refusing to publish {}: {e}", model.display())))?;
    let version = ppm_obs::ledger::fnv1a64_hex(&bytes);
    std::fs::create_dir_all(registry).map_err(|e| {
        ServeError::Store(format!(
            "cannot create registry {}: {e}",
            registry.display()
        ))
    })?;
    let target = registry.join(format!("{version}.model"));
    ppm_obs::write_atomic(&target, &bytes)
        .map_err(|e| ServeError::Store(format!("cannot write {}: {e}", target.display())))?;
    let current = registry.join(CURRENT_FILE);
    ppm_obs::write_atomic(&current, format!("{version}\n").as_bytes())
        .map_err(|e| ServeError::Store(format!("cannot write {}: {e}", current.display())))?;
    Ok(version)
}

/// Loads and fully validates the version named by `CURRENT`:
/// checksum-verified parse, content hash matching the file name, a
/// finite probe prediction at the space midpoint, and a working
/// analytical fallback derived from the model's own metadata, taken
/// from `fallbacks`.
fn load_current(dir: &Path, fallbacks: &Fallbacks) -> Result<ServingModel, ServeError> {
    let current = dir.join(CURRENT_FILE);
    let version = std::fs::read_to_string(&current)
        .map_err(|e| ServeError::Store(format!("cannot read {}: {e}", current.display())))?
        .trim()
        .to_string();
    if version.is_empty() {
        return Err(ServeError::Store(format!("{} is empty", current.display())));
    }
    let path = dir.join(format!("{version}.model"));
    let bytes = std::fs::read(&path)
        .map_err(|e| ServeError::Store(format!("cannot read {}: {e}", path.display())))?;
    let actual = ppm_obs::ledger::fnv1a64_hex(&bytes);
    if actual != version {
        return Err(ServeError::Store(format!(
            "{}: content hash {actual} does not match its name (tampered or truncated)",
            path.display()
        )));
    }
    let saved = persist::from_str(&String::from_utf8_lossy(&bytes))
        .map_err(|e| ServeError::Store(format!("{}: {e}", path.display())))?;
    let benchmark = saved
        .meta_value("benchmark")
        .ok_or_else(|| {
            ServeError::Store(format!(
                "{}: no `benchmark` metadata (cannot build the degraded-mode fallback)",
                path.display()
            ))
        })?
        .parse::<Benchmark>()
        .map_err(|e| ServeError::Store(format!("{}: {e}", path.display())))?;
    let metric = saved.meta_value("metric").unwrap_or("cpi").to_string();
    let seed: u64 = saved
        .meta_value("seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let instructions: usize = saved
        .meta_value("instructions")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    // Probe: the model must answer finitely at the space midpoint, or
    // it has no business serving.
    let probe = saved.network.predict(&vec![0.5; saved.network.dim()]);
    if !probe.is_finite() {
        return Err(ServeError::Store(format!(
            "{}: probe prediction at the midpoint is {probe} (not finite)",
            path.display()
        )));
    }
    let fallback = fallbacks.get((benchmark, seed, instructions.max(1000)))?;
    Ok(ServingModel {
        network: Some(saved.network),
        version,
        benchmark,
        metric,
        fallback,
    })
}

/// Builds the analytical fallback: one cheap trace pass, validated with
/// a finite probe at the default configuration.
fn build_fallback(
    (benchmark, seed, instructions): FallbackKey,
) -> Result<FirstOrderModel, ServeError> {
    ppm_telemetry::counter("serve.fallback_profiles").inc();
    let stats = ProgramStats::collect(
        TraceGenerator::new(benchmark, seed).take(instructions),
        &SimConfig::default(),
    );
    let fallback = FirstOrderModel::new(stats);
    match fallback.try_predict(&SimConfig::default()) {
        Ok(v) if v.is_finite() => Ok(fallback),
        Ok(v) => Err(ServeError::Store(format!(
            "analytical fallback for {benchmark} probes to {v} (not finite)"
        ))),
        Err(e) => Err(ServeError::Store(format!(
            "analytical fallback for {benchmark} rejects the default config: {e}"
        ))),
    }
}

impl ModelStore {
    /// Opens the registry and loads the `CURRENT` model. When nothing
    /// loads and `fallback_benchmark` is given, the store starts
    /// analytical-only (version `"analytical"`): every prediction is
    /// degraded until a later reload brings a real model in.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when no model loads and no fallback
    /// benchmark was provided.
    pub fn open(dir: &Path, fallback_benchmark: Option<Benchmark>) -> Result<Self, ServeError> {
        let fallbacks = Fallbacks::default();
        let model = match load_current(dir, &fallbacks) {
            Ok(model) => model,
            Err(e) => match fallback_benchmark {
                Some(benchmark) => {
                    ppm_telemetry::event!(
                        Level::Warn,
                        "serve.store.analytical_only",
                        "detail" => e.to_string(),
                    );
                    ServingModel {
                        network: None,
                        version: "analytical".to_string(),
                        benchmark,
                        metric: "cpi".to_string(),
                        fallback: fallbacks.get((benchmark, 1, 100_000))?,
                    }
                }
                None => return Err(e),
            },
        };
        Ok(ModelStore {
            dir: dir.to_path_buf(),
            active: RwLock::new(Arc::new(model)),
            fallbacks,
        })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active model (cheap: one `Arc` clone under a read lock).
    pub fn active(&self) -> Arc<ServingModel> {
        Arc::clone(
            &self
                .active
                .read()
                .unwrap_or_else(|poison| poison.into_inner()),
        )
    }

    /// Re-reads `CURRENT` and swaps in the named model — but only after
    /// it passes the full validation gauntlet. On any failure the
    /// previous model keeps serving (versioned rollback by not
    /// swapping), and the error says why. A candidate whose benchmark,
    /// seed and instruction count match a model this store has loaded
    /// before takes that model's analytical fallback instead of
    /// profiling the trace again.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] describing the failed validation step; the
    /// active model is unchanged in that case.
    pub fn reload(&self) -> Result<ReloadOutcome, ServeError> {
        let candidate = load_current(&self.dir, &self.fallbacks)?;
        let mut active = self
            .active
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        if candidate.version == active.version {
            return Ok(ReloadOutcome {
                version: candidate.version,
                changed: false,
            });
        }
        ppm_telemetry::event!(
            Level::Info,
            "serve.store.swapped",
            "from" => active.version.clone(),
            "to" => candidate.version.clone(),
        );
        let version = candidate.version.clone();
        *active = Arc::new(candidate);
        Ok(ReloadOutcome {
            version,
            changed: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppm-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A tiny but genuine model file, exercised through the real
    /// persist format.
    fn write_model(dir: &Path, name: &str, seed: u64) -> PathBuf {
        use ppm_core::builder::{BuildConfig, RbfModelBuilder};
        use ppm_core::response::SimulatorResponse;
        use ppm_core::space::DesignSpace;
        let space = DesignSpace::paper_table1();
        let response = SimulatorResponse::new(Benchmark::Ammp, 5_000).with_seed(seed);
        let built = RbfModelBuilder::new(
            space,
            BuildConfig::default()
                .with_sample_size(12)
                .with_seed(seed)
                .with_train_threads(2)
                .with_lhs_candidates(8),
        )
        .build(&response)
        .unwrap();
        let meta = vec![
            ("benchmark".to_string(), "ammp".to_string()),
            ("metric".to_string(), "cpi".to_string()),
            ("seed".to_string(), seed.to_string()),
            ("instructions".to_string(), "5000".to_string()),
        ];
        let path = dir.join(name);
        persist::save(&built.model.network, &meta, &path).unwrap();
        path
    }

    #[test]
    fn publish_open_reload_round_trip_with_corrupt_rollback() {
        let dir = scratch("roundtrip");
        let registry = dir.join("registry");
        let m1 = write_model(&dir, "m1.txt", 3);

        // Publish is content-addressed and refuses garbage.
        let junk = dir.join("junk.txt");
        std::fs::write(&junk, "not a model\n").unwrap();
        assert!(publish(&registry, &junk).is_err());
        let v1 = publish(&registry, &m1).unwrap();
        assert!(registry.join(format!("{v1}.model")).is_file());

        let store = ModelStore::open(&registry, None).unwrap();
        assert_eq!(store.active().version, v1);
        assert_eq!(store.active().benchmark, Benchmark::Ammp);
        assert!(store.active().network.is_some());

        // Reload with an unchanged CURRENT is a no-op.
        let outcome = store.reload().unwrap();
        assert_eq!(
            outcome,
            ReloadOutcome {
                version: v1.clone(),
                changed: false
            }
        );

        // A corrupt candidate (name does not match content) rolls back:
        // the active model is untouched and predictions keep working.
        std::fs::write(registry.join("deadbeefdeadbeef.model"), "garbage").unwrap();
        std::fs::write(registry.join(CURRENT_FILE), "deadbeefdeadbeef\n").unwrap();
        let err = store.reload().unwrap_err();
        assert!(err.to_string().contains("deadbeef"), "{err}");
        let active = store.active();
        assert_eq!(active.version, v1);
        let network = active.network.as_ref().unwrap();
        let probe = network.predict(&vec![0.5; network.dim()]);
        assert!(probe.is_finite());

        // A valid second model swaps in.
        let m2 = write_model(&dir, "m2.txt", 4);
        let v2 = publish(&registry, &m2).unwrap();
        assert_ne!(v1, v2, "different seeds should hash differently");
        let outcome = store.reload().unwrap();
        assert_eq!(
            outcome,
            ReloadOutcome {
                version: v2.clone(),
                changed: true
            }
        );
        assert_eq!(store.active().version, v2);
    }

    #[test]
    fn analytical_only_startup_requires_a_benchmark() {
        let dir = scratch("analytical");
        let registry = dir.join("empty-registry");
        std::fs::create_dir_all(&registry).unwrap();
        // No CURRENT, no fallback: refused.
        assert!(ModelStore::open(&registry, None).is_err());
        // With a fallback benchmark the store serves analytically.
        let store = ModelStore::open(&registry, Some(Benchmark::Mcf)).unwrap();
        let active = store.active();
        assert_eq!(active.version, "analytical");
        assert!(active.network.is_none());
        let cpi = active.fallback.try_predict(&SimConfig::default()).unwrap();
        assert!(cpi.is_finite() && cpi > 0.0);
    }

    #[test]
    fn fallbacks_keep_the_most_recently_used_traces() {
        let scoped = ppm_telemetry::Registry::scoped();
        let profiles = || scoped.counter("serve.fallback_profiles").get();
        let fallbacks = Fallbacks::default();
        let key = |seed: u64| (Benchmark::Ammp, seed, 1000);
        let first = fallbacks.get(key(0)).unwrap();
        for seed in 1..FALLBACKS_KEPT as u64 {
            fallbacks.get(key(seed)).unwrap();
        }
        assert_eq!(profiles(), FALLBACKS_KEPT as u64);
        // Every kept trace is served as profiled, without a pass; the
        // lookup makes seed 0 the most recently used.
        let kept = fallbacks.get(key(0)).unwrap();
        assert_eq!(
            format!("{:?}", kept.stats()),
            format!("{:?}", first.stats())
        );
        assert_eq!(profiles(), FALLBACKS_KEPT as u64);
        // One trace too many evicts the least recently used, seed 1.
        fallbacks.get(key(FALLBACKS_KEPT as u64)).unwrap();
        fallbacks.get(key(0)).unwrap();
        fallbacks.get(key(2)).unwrap();
        assert_eq!(profiles(), FALLBACKS_KEPT as u64 + 1);
        fallbacks.get(key(1)).unwrap();
        assert_eq!(profiles(), FALLBACKS_KEPT as u64 + 2);
    }

    #[test]
    fn truncated_model_file_is_rejected_by_hash_then_checksum() {
        let dir = scratch("truncated");
        let registry = dir.join("registry");
        let m1 = write_model(&dir, "m1.txt", 5);
        let v1 = publish(&registry, &m1).unwrap();
        // Truncate the registry copy in place: the content hash no
        // longer matches the file name.
        let target = registry.join(format!("{v1}.model"));
        let bytes = std::fs::read(&target).unwrap();
        std::fs::write(&target, &bytes[..bytes.len() / 2]).unwrap();
        let err = ModelStore::open(&registry, None).unwrap_err();
        assert!(err.to_string().contains("content hash"), "{err}");
    }
}
