//! Crash-safe checkpointing of simulated responses.
//!
//! Simulation batches are hours of work; a mid-run crash must not force
//! re-simulation of finished points. A [`Checkpoint`] journals every
//! completed `(design point, value)` pair to a small line-oriented text
//! file. Writes go to a sibling temporary file which is atomically
//! renamed into place, so the journal on disk is always a complete,
//! verifiable snapshot — never a torn write.
//!
//! ```text
//! ppm-checkpoint v1
//! meta <key> <value>                 # zero or more
//! point <x0..xd> | <value> | <fnv64 of the payload>
//! ...
//! checksum <fnv64 of everything above>
//! ```
//!
//! The header, `meta` and `checksum` lines are the envelope this file
//! shares with the model file; this module reads and writes only the
//! `point` lines. Points are listed sorted by their coordinates' text,
//! whatever order they finished in, so the same run writes the same
//! journal at any thread count. Values are recorded with 17 significant
//! digits, so a resumed run reproduces bit-identical responses (and
//! therefore bit-identical models) without re-simulating journaled
//! points. Both the per-line and whole-file FNV-1a checksums are
//! verified on load; corrupted or truncated journals are rejected with
//! a typed [`FileError`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ppm_telemetry::fnv1a64;

use crate::envelope::{check_meta, floats, tagged, CHECKPOINT};
use crate::FileError;

/// A crash-safe journal of completed simulation results.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    meta: Vec<(String, String)>,
    /// Values keyed by the coordinates' text, which is also the file
    /// order.
    points: BTreeMap<String, f64>,
}

impl Checkpoint {
    /// Creates an empty journal that will be written to `path`. Nothing
    /// touches the filesystem until [`Checkpoint::flush`].
    ///
    /// # Panics
    ///
    /// Panics if a metadata key contains whitespace or a value contains
    /// a newline (mirrors [`crate::persist::to_string`]).
    pub fn create(path: impl Into<PathBuf>, meta: &[(String, String)]) -> Self {
        check_meta(meta);
        Checkpoint {
            path: path.into(),
            meta: meta.to_vec(),
            points: BTreeMap::new(),
        }
    }

    /// Loads and verifies an existing journal, in any point order.
    ///
    /// # Errors
    ///
    /// [`FileError::Io`] on filesystem failure,
    /// [`FileError::Format`] on any corruption: bad header, a
    /// point line whose per-line checksum disagrees, a missing or wrong
    /// whole-file checksum (truncation), or trailing garbage.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, FileError> {
        let path = path.into();
        let text = CHECKPOINT.read(&path)?;
        let (meta, lines) = CHECKPOINT.open(&text)?;
        let bad = |msg: &str| CHECKPOINT.bad(msg);
        let mut points = BTreeMap::new();
        for line in lines {
            let (tag, rest) = tagged(line);
            if tag != "point" {
                return Err(bad(&format!("unknown line tag {tag:?}")));
            }
            let (payload, line_sum) = rest
                .rsplit_once('|')
                .ok_or_else(|| bad("point line without checksum"))?;
            let payload = payload.trim_end();
            let expected = format!("{:016x}", fnv1a64(payload.as_bytes()));
            if line_sum.trim() != expected {
                return Err(bad(&format!("point line checksum mismatch on {payload:?}")));
            }
            let (coords, value) = payload
                .split_once('|')
                .ok_or_else(|| bad("point line without value"))?;
            let point: Vec<f64> = coords
                .split_whitespace()
                .map(|t| {
                    t.parse::<f64>()
                        .map_err(|_| bad(&format!("bad coordinate {t:?}")))
                })
                .collect::<Result<_, _>>()?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| bad(&format!("bad value {:?}", value.trim())))?;
            if point.is_empty() {
                return Err(bad("point line without coordinates"));
            }
            points.insert(floats(&point), value);
        }
        Ok(Checkpoint { path, meta, points })
    }

    /// The journal's filesystem path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `(key, value)` metadata pairs, in file order.
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Looks up a metadata value.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Verifies that the journal's metadata agrees with the current
    /// run's on every given key (keys absent from the journal pass).
    ///
    /// # Errors
    ///
    /// [`FileError::Mismatch`] on the first disagreement.
    pub fn verify_meta(&self, expected: &[(String, String)]) -> Result<(), FileError> {
        for (k, want) in expected {
            if let Some(found) = self.meta_value(k) {
                if found != want {
                    return Err(FileError::Mismatch {
                        key: k.clone(),
                        found: found.to_string(),
                        expected: want.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of journaled results.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The journaled value for a point, if present (bit-exact match on
    /// the coordinates).
    pub fn lookup(&self, point: &[f64]) -> Option<f64> {
        self.points.get(&floats(point)).copied()
    }

    /// Journals one completed result in memory (call
    /// [`Checkpoint::flush`] to persist). Re-recording a point
    /// overwrites its value.
    pub fn record(&mut self, point: &[f64], value: f64) {
        self.points.insert(floats(point), value);
    }

    /// Serializes the journal (header, meta, points sorted by key, file
    /// checksum).
    pub fn to_text(&self) -> String {
        CHECKPOINT.seal(&self.meta, |out| {
            for (key, value) in &self.points {
                // The per-line checksum covers the payload after the
                // tag, matching what `load` sees after splitting it off.
                let payload = format!("{key} | {value:.17e}");
                let sum = fnv1a64(payload.as_bytes());
                let _ = writeln!(out, "point {payload} | {sum:016x}");
            }
        })
    }

    /// Atomically persists the journal: writes a sibling temporary
    /// file, syncs it, and renames it over `path`.
    ///
    /// # Errors
    ///
    /// [`FileError::Io`] on filesystem failure.
    pub fn flush(&self) -> Result<(), FileError> {
        CHECKPOINT.write(&self.path, &self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ppm_checkpoint_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A two-point journal at its own file, so tests that flush it
    /// cannot remove each other's file mid-run.
    fn sample(name: &str) -> Checkpoint {
        let meta = vec![
            ("benchmark".to_string(), "mcf".to_string()),
            ("seed".to_string(), "1".to_string()),
        ];
        let mut c = Checkpoint::create(temp_path(name), &meta);
        c.record(&[0.25, 0.5], 1.75);
        c.record(&[0.1, 0.9], std::f64::consts::PI);
        c
    }

    /// [`sample`]'s journal with its points in the order they were
    /// recorded, as builds on more than one thread once wrote them
    /// (lane groups finish in any order).
    const RECORDING_ORDER: &str = "ppm-checkpoint v1
meta benchmark mcf
meta seed 1
point 2.50000000000000000e-1 5.00000000000000000e-1 | 1.75000000000000000e0 | 4c824a380f9c1571
point 1.00000000000000006e-1 9.00000000000000022e-1 | 3.14159265358979312e0 | fcb0677f3ec93273
checksum 064457219dc15d56
";

    #[test]
    fn round_trip_is_bit_exact() {
        let c = sample("round_trip.ckpt");
        // A journal written by this code, and one in recording order.
        for text in [c.to_text().as_str(), RECORDING_ORDER] {
            fs::write(c.path(), text).unwrap();
            let loaded = Checkpoint::load(c.path()).unwrap();
            assert_eq!(loaded.len(), 2);
            assert_eq!(loaded.lookup(&[0.25, 0.5]), Some(1.75));
            assert_eq!(loaded.lookup(&[0.1, 0.9]), Some(std::f64::consts::PI));
            assert_eq!(loaded.lookup(&[0.25, 0.51]), None);
            assert_eq!(loaded.meta_value("benchmark"), Some("mcf"));
            // The next flush lists the points sorted.
            loaded.flush().unwrap();
            let points: Vec<String> = fs::read_to_string(c.path())
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("point "))
                .map(str::to_string)
                .collect();
            let mut sorted = points.clone();
            sorted.sort();
            assert_eq!(points.len(), 2);
            assert_eq!(points, sorted);
            assert_eq!(fs::read_to_string(c.path()).unwrap(), c.to_text());
        }
        fs::remove_file(c.path()).ok();
    }

    #[test]
    fn rerecording_overwrites() {
        let mut c = Checkpoint::create(temp_path("overwrite.ckpt"), &[]);
        c.record(&[0.5], 1.0);
        c.record(&[0.5], 2.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&[0.5]), Some(2.0));
    }

    #[test]
    fn truncated_journal_is_rejected() {
        let c = sample("truncated_src.ckpt");
        let text = c.to_text();
        // Drop the checksum line entirely.
        let truncated = text.rsplit_once("checksum").unwrap().0;
        let path = temp_path("truncated.ckpt");
        fs::write(&path, truncated).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_point_line_is_rejected() {
        let c = sample("corrupt_src.ckpt");
        let text = c.to_text().replace("1.75", "9.75");
        let path = temp_path("corrupt.ckpt");
        fs::write(&path, text).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_header_is_rejected() {
        let path = temp_path("header.ckpt");
        let body = "ppm-checkpoint v2\n";
        let sum = fnv1a64(body.as_bytes());
        fs::write(&path, format!("{body}checksum {sum:016x}\n")).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("unknown header"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn meta_mismatch_is_typed() {
        let c = sample("meta.ckpt");
        let err = c
            .verify_meta(&[("benchmark".to_string(), "ammp".to_string())])
            .unwrap_err();
        assert!(matches!(err, FileError::Mismatch { .. }));
        // Matching and absent keys pass.
        c.verify_meta(&[
            ("benchmark".to_string(), "mcf".to_string()),
            ("absent".to_string(), "x".to_string()),
        ])
        .unwrap();
    }

    #[test]
    fn flush_is_atomic_rename() {
        let c = sample("atomic.ckpt");
        c.flush().unwrap();
        // No temporary file is left behind.
        let tmp = c.path().with_file_name("atomic.ckpt.tmp");
        assert!(!tmp.exists());
        assert!(c.path().exists());
        fs::remove_file(c.path()).ok();
    }
}
