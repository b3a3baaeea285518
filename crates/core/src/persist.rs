//! Saving and loading fitted models as a plain-text format.
//!
//! The format is a small, versioned, line-oriented text file so models
//! can be trained once (simulations are expensive) and reused from the
//! CLI or other tools without any serialization dependency:
//!
//! ```text
//! ppm-rbf-model v1
//! meta <key> <value>        # zero or more
//! dim 9
//! centers 2
//! rbf <c0..c8> | <r0..r8> | <weight>
//! rbf ...
//! checksum <fnv1a64 of everything above, 16 hex digits>
//! ```
//!
//! The header, `meta` and `checksum` lines are the envelope this file
//! shares with the result store; this module reads and writes only
//! the `dim` / `centers` / `rbf` body. The trailing checksum makes
//! truncation and corruption detectable, and [`save`] writes through a
//! sibling temp file renamed into place, so a crash mid-write can never
//! leave a half-written model at the target path.

use std::fmt::Write as _;
use std::path::Path;

use ppm_rbf::{Rbf, RbfNetwork};

use crate::envelope::{floats, tagged, MODEL};
use crate::FileError;

/// A model together with free-form metadata (benchmark name, metric,
/// sample size, ...).
#[derive(Debug, Clone)]
pub struct SavedModel {
    /// The network.
    pub network: RbfNetwork,
    /// `(key, value)` metadata pairs, in file order.
    pub meta: Vec<(String, String)>,
}

impl SavedModel {
    /// Looks up a metadata value.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Serializes a network (with metadata) to a string.
///
/// # Panics
///
/// Panics if a metadata key contains whitespace or a value contains a
/// newline.
pub fn to_string(network: &RbfNetwork, meta: &[(String, String)]) -> String {
    MODEL.seal(meta, |out| {
        let _ = writeln!(out, "dim {}", network.dim());
        let _ = writeln!(out, "centers {}", network.num_centers());
        for (basis, &w) in network.bases().iter().zip(network.weights()) {
            let _ = writeln!(
                out,
                "rbf {} | {} | {w:.17e}",
                floats(basis.center()),
                floats(basis.radius())
            );
        }
    })
}

/// Writes a model file crash-safely: the content goes to a sibling
/// `.tmp` file, is synced, and is renamed over `path`, so an
/// interrupted save can never leave a torn file at the target.
///
/// # Errors
///
/// Returns [`FileError::Io`] on filesystem failure.
pub fn save(network: &RbfNetwork, meta: &[(String, String)], path: &Path) -> Result<(), FileError> {
    MODEL.write(path, &to_string(network, meta))
}

/// Parses a model from a string.
///
/// # Errors
///
/// Returns [`FileError::Format`] describing the first problem found.
pub fn from_str(text: &str) -> Result<SavedModel, FileError> {
    let (meta, lines) = MODEL.open(text)?;
    let bad = |msg: &str| MODEL.bad(msg);
    let mut dim: Option<usize> = None;
    let mut centers: Option<usize> = None;
    let mut bases = Vec::new();
    let mut weights = Vec::new();
    for line in lines {
        let (tag, rest) = tagged(line);
        match tag {
            "dim" => {
                dim = Some(
                    rest.parse()
                        .map_err(|_| bad(&format!("bad dim {rest:?}")))?,
                );
            }
            "centers" => {
                centers = Some(
                    rest.parse()
                        .map_err(|_| bad(&format!("bad center count {rest:?}")))?,
                );
            }
            "rbf" => {
                let dim = dim.ok_or_else(|| bad("rbf line before dim"))?;
                let mut fields = rest.split('|');
                let parse_vec = |s: &str| -> Result<Vec<f64>, FileError> {
                    s.split_whitespace()
                        .map(|t| {
                            t.parse::<f64>()
                                .map_err(|_| bad(&format!("bad float {t:?}")))
                        })
                        .collect()
                };
                let center = parse_vec(fields.next().ok_or_else(|| bad("missing center"))?)?;
                let radius = parse_vec(fields.next().ok_or_else(|| bad("missing radius"))?)?;
                let w: f64 = fields
                    .next()
                    .ok_or_else(|| bad("missing weight"))?
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad weight"))?;
                if center.len() != dim || radius.len() != dim {
                    return Err(bad("center/radius dimension mismatch"));
                }
                bases.push(Rbf::new(center, radius));
                weights.push(w);
            }
            other => return Err(bad(&format!("unknown line tag {other:?}"))),
        }
    }
    let expected = centers.ok_or_else(|| bad("missing centers line"))?;
    if bases.len() != expected {
        return Err(bad(&format!(
            "expected {expected} rbf lines, found {}",
            bases.len()
        )));
    }
    if bases.is_empty() {
        return Err(bad("model has no centers"));
    }
    Ok(SavedModel {
        network: RbfNetwork::new(bases, weights),
        meta,
    })
}

/// Reads a model file.
///
/// # Errors
///
/// Returns [`FileError`] on I/O or format problems.
pub fn load(path: &Path) -> Result<SavedModel, FileError> {
    from_str(&MODEL.read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    fn network() -> RbfNetwork {
        let mut rng = Rng::seed_from_u64(5);
        let bases: Vec<Rbf> = (0..7)
            .map(|_| {
                let c: Vec<f64> = (0..9).map(|_| rng.unit_f64()).collect();
                let r: Vec<f64> = (0..9).map(|_| 0.1 + rng.unit_f64()).collect();
                Rbf::new(c, r)
            })
            .collect();
        let w: Vec<f64> = (0..7).map(|_| rng.normal()).collect();
        RbfNetwork::new(bases, w)
    }

    #[test]
    fn round_trip_preserves_predictions_exactly() {
        let net = network();
        let meta = vec![
            ("benchmark".to_string(), "181.mcf".to_string()),
            ("metric".to_string(), "cpi".to_string()),
        ];
        let text = to_string(&net, &meta);
        let loaded = from_str(&text).unwrap();
        assert_eq!(loaded.meta_value("benchmark"), Some("181.mcf"));
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..50 {
            let x: Vec<f64> = (0..9).map(|_| rng.unit_f64()).collect();
            assert_eq!(net.predict(&x), loaded.network.predict(&x));
        }
    }

    #[test]
    fn file_round_trip() {
        let net = network();
        let dir = std::env::temp_dir().join("ppm_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        save(&net, &[], &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.network.num_centers(), net.num_centers());
        std::fs::remove_file(&path).ok();
    }

    /// Appends a valid checksum line so tests can target payload-level
    /// errors past the integrity check.
    fn with_checksum(payload: &str) -> String {
        let sum = ppm_telemetry::fnv1a64(payload.as_bytes());
        format!("{payload}checksum {sum:016x}\n")
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("not a model").is_err());
        assert!(from_str(&with_checksum("ppm-rbf-model v1\ndim 2\ncenters 1\n")).is_err());
        assert!(from_str(&with_checksum(
            "ppm-rbf-model v1\ndim 2\ncenters 1\nrbf 0.5 | 0.5 | 1.0\n"
        ))
        .is_err());
        let err = from_str("ppm-rbf-model v2").unwrap_err();
        assert!(err.to_string().contains("unknown header"));
    }

    #[test]
    fn rejects_truncated_file() {
        let text = to_string(&network(), &[]);
        // Drop the checksum line entirely: simulates a crash mid-write.
        let cut = text.trim_end().rfind('\n').unwrap();
        let err = from_str(&text[..cut]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Drop an rbf line but keep the checksum: content mismatch.
        let lines: Vec<&str> = text.lines().collect();
        let dropped = [&lines[..4], &lines[lines.len() - 1..]].concat().join("\n");
        let err = from_str(&dropped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn rejects_flipped_checksum() {
        let text = to_string(&network(), &[]);
        let flipped = if text.trim_end().ends_with('0') {
            format!("{}1\n", &text.trim_end()[..text.trim_end().len() - 1])
        } else {
            format!("{}0\n", &text.trim_end()[..text.trim_end().len() - 1])
        };
        let err = from_str(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn rejects_corrupted_payload_byte() {
        let text = to_string(&network(), &[("benchmark".into(), "mcf".into())]);
        let corrupted = text.replacen("mcf", "mcg", 1);
        let err = from_str(&corrupted).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn rejects_unknown_header_version() {
        let err = from_str(&with_checksum("ppm-rbf-model v2\ndim 2\ncenters 0\n")).unwrap_err();
        assert!(err.to_string().contains("unknown header"), "{err}");
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = std::env::temp_dir().join("ppm_persist_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        save(&network(), &[], &path).unwrap();
        assert!(path.exists());
        assert!(!dir.join("model.txt.tmp").exists());
        load(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn meta_is_preserved_in_order() {
        let net = network();
        let meta = vec![
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "two words".to_string()),
        ];
        let loaded = from_str(&to_string(&net, &meta)).unwrap();
        assert_eq!(loaded.meta, meta);
    }
}
