//! The content-addressed store of simulated results behind
//! `ppm build --checkpoint`.
//!
//! Simulation batches are hours of work; a mid-run crash must not force
//! re-simulation of finished points, and neither should a later run
//! that asks for a simulation an earlier one already made. A
//! [`ResultStore`] keeps each value under the key of what determines it,
//! [`Response::key`](crate::response::Response::key), not under the run
//! that asked for it: for the simulator that is the simulation version,
//! the benchmark, the trace seed, the instruction count, the metric and
//! the machine. So a store written by one run serves every point of
//! another run whose key it holds.
//!
//! ```text
//! ppm-store v1
//! entry <key, 16 hex digits> | <value> | <fnv64 of the text between the tag and it>
//! ...
//! checksum <fnv64 of everything above>
//! ```
//!
//! The header and `checksum` line are the envelope this file shares with
//! the model file; this module reads and writes only the `entry` lines.
//! Entries are listed sorted by key, whatever order they finished in, so
//! the same runs write the same file at any thread count. Values are
//! written with 17 significant digits, so a reused value is bit-identical
//! to a simulated one and a run with hits saves the model a run without
//! them does. Both the per-line and the whole-file FNV-1a checksums are
//! verified on load; a corrupt or truncated store, or a file in another
//! format, is a typed [`FileError`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use ppm_telemetry::fnv1a64;

use crate::envelope::{tagged, STORE};
use crate::FileError;

/// Simulated results keyed by what determines them.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    /// Values by key, which is also the file order.
    entries: BTreeMap<u64, f64>,
}

impl ResultStore {
    /// Creates an empty store that will be written to `path`. Nothing
    /// touches the filesystem until [`ResultStore::flush`].
    pub fn create(path: impl Into<PathBuf>) -> Self {
        ResultStore {
            path: path.into(),
            entries: BTreeMap::new(),
        }
    }

    /// Loads and verifies an existing store.
    ///
    /// # Errors
    ///
    /// [`FileError::Io`] on filesystem failure, [`FileError::Format`] on
    /// any corruption: another header, an entry whose per-line checksum
    /// disagrees, a missing or wrong whole-file checksum (truncation), or
    /// trailing garbage.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, FileError> {
        let path = path.into();
        let text = STORE.read(&path)?;
        let (_, lines) = STORE.open(&text)?;
        let bad = |msg: String| STORE.bad(msg);
        let mut entries = BTreeMap::new();
        for line in lines {
            let (tag, rest) = tagged(line);
            if tag != "entry" {
                return Err(bad(format!("unknown line tag {tag:?}")));
            }
            let (payload, line_sum) = rest
                .rsplit_once('|')
                .ok_or_else(|| bad("entry line without checksum".into()))?;
            let payload = payload.trim_end();
            if line_sum.trim() != format!("{:016x}", fnv1a64(payload.as_bytes())) {
                return Err(bad(format!("entry line checksum mismatch on {payload:?}")));
            }
            let (key, value) = payload
                .split_once('|')
                .ok_or_else(|| bad("entry line without value".into()))?;
            let key = u64::from_str_radix(key.trim(), 16)
                .map_err(|_| bad(format!("bad key {:?}", key.trim())))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad value {:?}", value.trim())))?;
            entries.insert(key, value);
        }
        Ok(ResultStore { path, entries })
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored value for a key, if present.
    pub fn get(&self, key: u64) -> Option<f64> {
        self.entries.get(&key).copied()
    }

    /// Stores one result in memory (call [`ResultStore::flush`] to
    /// persist). Re-recording a key overwrites its value.
    pub fn record(&mut self, key: u64, value: f64) {
        self.entries.insert(key, value);
    }

    /// Serializes the store (header, entries sorted by key, file
    /// checksum).
    pub fn to_text(&self) -> String {
        STORE.seal(&[], |out| {
            for (key, value) in &self.entries {
                // The per-line checksum covers the payload after the
                // tag, matching what `load` sees after splitting it off.
                let payload = format!("{key:016x} | {value:.17e}");
                let sum = fnv1a64(payload.as_bytes());
                let _ = writeln!(out, "entry {payload} | {sum:016x}");
            }
        })
    }

    /// Atomically persists the store through
    /// [`ppm_telemetry::write_atomic`].
    ///
    /// # Errors
    ///
    /// [`FileError::Io`] on filesystem failure.
    pub fn flush(&self) -> Result<(), FileError> {
        STORE.write(&self.path, &self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ppm_store_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A two-entry store at its own file, recorded out of key order, so
    /// tests that flush it cannot remove each other's file mid-run.
    fn sample(name: &str) -> ResultStore {
        let mut s = ResultStore::create(temp_path(name));
        s.record(0xfeed, 1.75);
        s.record(0xbeef, std::f64::consts::PI);
        s
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let s = sample("round_trip.store");
        s.flush().unwrap();
        let loaded = ResultStore::load(&s.path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(0xfeed), Some(1.75));
        assert_eq!(loaded.get(0xbeef), Some(std::f64::consts::PI));
        assert_eq!(loaded.get(0xbeee), None);
        // Entries are listed sorted by key.
        let text = s.to_text();
        let keys: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("entry ")?.get(..16))
            .collect();
        assert_eq!(keys, ["000000000000beef", "000000000000feed"]);
        assert_eq!(loaded.to_text(), text);
        fs::remove_file(&s.path).ok();
    }

    #[test]
    fn rerecording_overwrites() {
        let mut s = ResultStore::create(temp_path("overwrite.store"));
        s.record(5, 1.0);
        s.record(5, 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(5), Some(2.0));
    }

    /// Writes `text` to its own file and returns the load error.
    fn load_err(name: &str, text: &str) -> String {
        let path = temp_path(name);
        fs::write(&path, text).unwrap();
        let err = ResultStore::load(&path).unwrap_err().to_string();
        fs::remove_file(&path).ok();
        err
    }

    #[test]
    fn truncated_store_is_rejected() {
        let text = sample("truncated_src.store").to_text();
        // Drop the checksum line entirely.
        let truncated = text.rsplit_once("checksum").unwrap().0;
        let err = load_err("truncated.store", truncated);
        assert!(err.contains("missing checksum line"), "{err}");
    }

    #[test]
    fn corrupted_entry_line_is_rejected() {
        let text = sample("corrupt_src.store")
            .to_text()
            .replace("1.75", "9.75");
        let err = load_err("corrupt.store", &text);
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn unknown_header_is_rejected() {
        // The journal format this store replaced, with a valid checksum.
        let body = "ppm-checkpoint v1\nmeta seed 1\n";
        let sum = fnv1a64(body.as_bytes());
        let err = load_err("header.store", &format!("{body}checksum {sum:016x}\n"));
        assert_eq!(
            err,
            "invalid checkpoint: unknown header \"ppm-checkpoint v1\""
        );
    }

    #[test]
    fn flush_is_atomic_rename() {
        let s = sample("atomic.store");
        s.flush().unwrap();
        // No temporary file is left behind.
        assert!(!s.path.with_file_name("atomic.store.tmp").exists());
        assert!(s.path.exists());
        fs::remove_file(&s.path).ok();
    }
}
