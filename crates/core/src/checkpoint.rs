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
//! Values are recorded with 17 significant digits, so a resumed run
//! reproduces bit-identical responses (and therefore bit-identical
//! models) without re-simulating journaled points. Both the per-line and
//! whole-file FNV-1a checksums are verified on load; corrupted or
//! truncated journals are rejected with a typed [`CheckpointError`].

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::hash::fnv1a64;

/// Errors from reading or writing checkpoint journals.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The journal is not valid (message describes the problem).
    Format(String),
    /// The journal's metadata does not match the requesting run.
    Mismatch {
        /// Metadata key that disagrees.
        key: String,
        /// Value recorded in the journal.
        found: String,
        /// Value the current run expects.
        expected: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::Mismatch {
                key,
                found,
                expected,
            } => write!(
                f,
                "checkpoint belongs to a different run: {key} is {found:?}, expected {expected:?}"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A crash-safe journal of completed simulation results.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    meta: Vec<(String, String)>,
    entries: Vec<(Vec<f64>, f64)>,
    index: BTreeMap<String, f64>,
}

fn point_key(point: &[f64]) -> String {
    point
        .iter()
        .map(|x| format!("{x:.17e}"))
        .collect::<Vec<_>>()
        .join(" ")
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
        for (k, v) in meta {
            assert!(
                !k.contains(char::is_whitespace),
                "metadata key {k:?} contains whitespace"
            );
            assert!(!v.contains('\n'), "metadata value contains a newline");
        }
        Checkpoint {
            path: path.into(),
            meta: meta.to_vec(),
            entries: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Loads and verifies an existing journal.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure,
    /// [`CheckpointError::Format`] on any corruption: bad header, a
    /// point line whose per-line checksum disagrees, a missing or wrong
    /// whole-file checksum (truncation), or trailing garbage.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let path = path.into();
        let text = fs::read_to_string(&path)?;
        let bad = |msg: String| CheckpointError::Format(msg);

        // The whole-file checksum must be the final non-empty line; it
        // covers every byte before its own first character.
        let trimmed = text.trim_end();
        let (sum_start, sum_line) = match trimmed.rfind('\n') {
            Some(i) => (i + 1, &trimmed[i + 1..]),
            None => (0, trimmed),
        };
        let recorded = sum_line
            .strip_prefix("checksum ")
            .ok_or_else(|| bad("missing checksum line (truncated journal?)".to_string()))?
            .trim()
            .to_string();
        let actual = format!("{:016x}", fnv1a64(&text.as_bytes()[..sum_start]));
        if recorded != actual {
            return Err(bad(format!(
                "file checksum mismatch: recorded {recorded}, computed {actual} (corrupted journal)"
            )));
        }

        let mut lines = text[..sum_start].lines().filter(|l| !l.trim().is_empty());
        match lines.next() {
            Some("ppm-checkpoint v1") => {}
            Some(other) => return Err(bad(format!("unknown header {other:?}"))),
            None => return Err(bad("empty journal".to_string())),
        }
        let mut ckpt = Checkpoint {
            path,
            meta: Vec::new(),
            entries: Vec::new(),
            index: BTreeMap::new(),
        };
        for line in lines {
            let mut parts = line.splitn(2, ' ');
            let tag = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("").trim();
            match tag {
                "meta" => {
                    let mut kv = rest.splitn(2, ' ');
                    let k = kv.next().unwrap_or("").to_string();
                    let v = kv.next().unwrap_or("").to_string();
                    if k.is_empty() {
                        return Err(bad("meta line without a key".to_string()));
                    }
                    ckpt.meta.push((k, v));
                }
                "point" => {
                    let (payload, line_sum) = rest
                        .rsplit_once('|')
                        .ok_or_else(|| bad("point line without checksum".to_string()))?;
                    let payload = payload.trim_end();
                    let expected = format!("{:016x}", fnv1a64(payload.as_bytes()));
                    if line_sum.trim() != expected {
                        return Err(bad(format!("point line checksum mismatch on {payload:?}")));
                    }
                    let (coords, value) = payload
                        .split_once('|')
                        .ok_or_else(|| bad("point line without value".to_string()))?;
                    let point: Vec<f64> = coords
                        .split_whitespace()
                        .map(|t| {
                            t.parse::<f64>()
                                .map_err(|_| bad(format!("bad coordinate {t:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                    let value: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad value {:?}", value.trim())))?;
                    if point.is_empty() {
                        return Err(bad("point line without coordinates".to_string()));
                    }
                    ckpt.index.insert(point_key(&point), value);
                    ckpt.entries.push((point, value));
                }
                other => return Err(bad(format!("unknown line tag {other:?}"))),
            }
        }
        Ok(ckpt)
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
    /// [`CheckpointError::Mismatch`] on the first disagreement.
    pub fn verify_meta(&self, expected: &[(String, String)]) -> Result<(), CheckpointError> {
        for (k, want) in expected {
            if let Some(found) = self.meta_value(k) {
                if found != want {
                    return Err(CheckpointError::Mismatch {
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
        self.entries.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journaled value for a point, if present (bit-exact match on
    /// the coordinates).
    pub fn lookup(&self, point: &[f64]) -> Option<f64> {
        self.index.get(&point_key(point)).copied()
    }

    /// Journals one completed result in memory (call
    /// [`Checkpoint::flush`] to persist). Re-recording a point
    /// overwrites its value.
    pub fn record(&mut self, point: &[f64], value: f64) {
        let key = point_key(point);
        if self.index.insert(key, value).is_some() {
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| p.as_slice() == point) {
                e.1 = value;
            }
        } else {
            self.entries.push((point.to_vec(), value));
        }
    }

    /// Serializes the journal (header, meta, points, file checksum).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ppm-checkpoint v1");
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta {k} {v}");
        }
        for (point, value) in &self.entries {
            // The per-line checksum covers the payload after the tag,
            // matching what `load` sees after splitting it off.
            let payload = format!("{} | {value:.17e}", point_key(point));
            let sum = fnv1a64(payload.as_bytes());
            let _ = writeln!(out, "point {payload} | {sum:016x}");
        }
        let sum = fnv1a64(out.as_bytes());
        let _ = writeln!(out, "checksum {sum:016x}");
        out
    }

    /// Atomically persists the journal: writes a sibling temporary
    /// file, syncs it, and renames it over `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn flush(&self) -> Result<(), CheckpointError> {
        let file_name = self
            .path
            .file_name()
            .ok_or_else(|| CheckpointError::Format("checkpoint path has no file name".into()))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_is_bit_exact() {
        let c = sample("round_trip.ckpt");
        c.flush().unwrap();
        let loaded = Checkpoint::load(c.path()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.lookup(&[0.25, 0.5]), Some(1.75));
        assert_eq!(loaded.lookup(&[0.1, 0.9]), Some(std::f64::consts::PI));
        assert_eq!(loaded.lookup(&[0.25, 0.51]), None);
        assert_eq!(loaded.meta_value("benchmark"), Some("mcf"));
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
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
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
