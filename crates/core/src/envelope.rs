//! The one checksummed text envelope of both files `BuildRBFmodel`
//! keeps, the model ([`crate::persist`]) and the result store
//! ([`crate::store`]):
//!
//! ```text
//! <header>
//! meta <key> <value>        # zero or more; the store writes none
//! <body lines>              # the format's own
//! checksum <fnv1a64 of everything above, 16 hex digits>
//! ```

use std::error::Error;
use std::fmt::{self, Write as _};
use std::path::Path;

use ppm_telemetry::fnv1a64;

/// Errors from reading or writing a model file or a result store. Each
/// carries the kind of file: `model file` or `checkpoint`.
#[derive(Debug)]
#[non_exhaustive]
pub enum FileError {
    /// Underlying I/O failure.
    Io(&'static str, std::io::Error),
    /// The file is not valid (the message describes the first problem).
    Format(&'static str, String),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Io(file, e) => write!(f, "{file} i/o error: {e}"),
            FileError::Format(file, msg) => write!(f, "invalid {file}: {msg}"),
        }
    }
}

impl Error for FileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FileError::Io(_, e) => Some(e),
            FileError::Format(..) => None,
        }
    }
}

/// `(key, value)` metadata pairs, in file order.
type Meta = Vec<(String, String)>;

/// One file format in the envelope: its header line and the kind of
/// file its errors name.
pub(crate) struct Envelope(&'static str, &'static str);

/// The fitted-model file.
pub(crate) const MODEL: Envelope = Envelope("ppm-rbf-model v1", "model file");

/// The store of simulated results, which `--checkpoint` names.
pub(crate) const STORE: Envelope = Envelope("ppm-store v1", "checkpoint");

/// Floats with 17 significant digits, space-separated, so they read
/// back bit-exact.
pub(crate) fn floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.17e}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Splits a line into its tag and the trimmed rest.
pub(crate) fn tagged(line: &str) -> (&str, &str) {
    let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
    (tag, rest.trim())
}

impl Envelope {
    /// A format error naming this kind of file.
    pub(crate) fn bad(&self, msg: impl Into<String>) -> FileError {
        FileError::Format(self.1, msg.into())
    }

    /// The whole file: header, `meta` lines, the lines `body` writes,
    /// then the checksum line.
    ///
    /// # Panics
    ///
    /// Panics if a metadata key contains whitespace or a value contains
    /// a newline: either would not read back as the same pair.
    pub(crate) fn seal(&self, meta: &[(String, String)], body: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.0);
        for (k, v) in meta {
            assert!(
                !k.contains(char::is_whitespace),
                "metadata key {k:?} contains whitespace"
            );
            assert!(!v.contains('\n'), "metadata value contains a newline");
            let _ = writeln!(out, "meta {k} {v}");
        }
        body(&mut out);
        let sum = fnv1a64(out.as_bytes());
        let _ = writeln!(out, "checksum {sum:016x}");
        out
    }

    /// Checks the header, then the checksum over the borrowed text
    /// before it, then reads the `meta` lines; returns the metadata and
    /// the non-blank body lines.
    pub(crate) fn open<'a>(
        &self,
        text: &'a str,
    ) -> Result<(Meta, impl Iterator<Item = &'a str>), FileError> {
        match text.lines().find(|l| !l.trim().is_empty()) {
            Some(h) if h == self.0 => {}
            Some(other) => return Err(self.bad(format!("unknown header {other:?}"))),
            None => return Err(self.bad("empty file")),
        }
        let trimmed = text.trim_end();
        let (body, sum_line) = match trimmed.rfind('\n') {
            Some(idx) => trimmed.split_at(idx + 1),
            None => ("", trimmed),
        };
        let sum_hex = sum_line
            .strip_prefix("checksum ")
            .ok_or_else(|| self.bad(format!("missing checksum line ({} truncated?)", self.1)))?;
        let stored = u64::from_str_radix(sum_hex.trim(), 16)
            .map_err(|_| self.bad(format!("bad checksum {sum_hex:?}")))?;
        let computed = fnv1a64(body.as_bytes());
        if computed != stored {
            return Err(self.bad(format!(
                "checksum mismatch (stored {stored:016x}, computed {computed:016x}): \
                 file truncated or corrupted"
            )));
        }
        let mut lines = body.lines().filter(|l| !l.trim().is_empty()).peekable();
        lines.next(); // the header, checked above
        let mut meta = Vec::new();
        while let Some(line) = lines.next_if(|l| tagged(l).0 == "meta") {
            let rest = tagged(line).1;
            let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
            if k.is_empty() {
                return Err(self.bad("meta line without a key"));
            }
            meta.push((k.to_string(), v.to_string()));
        }
        Ok((meta, lines))
    }

    /// Reads a file of this format.
    pub(crate) fn read(&self, path: &Path) -> Result<String, FileError> {
        std::fs::read_to_string(path).map_err(|e| FileError::Io(self.1, e))
    }

    /// Writes a sealed file through [`ppm_telemetry::write_atomic`], so a
    /// crash never leaves a torn file at `path`.
    pub(crate) fn write(&self, path: &Path, text: &str) -> Result<(), FileError> {
        ppm_telemetry::write_atomic(path, text.as_bytes()).map_err(|e| FileError::Io(self.1, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_checks_the_header_before_the_checksum() {
        let model = MODEL.seal(&[], |out| out.push_str("dim 2\n"));
        let err = STORE.open(&model).map(|_| ()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid checkpoint: unknown header \"ppm-rbf-model v1\""
        );
        let err = MODEL.open("").map(|_| ()).unwrap_err();
        assert_eq!(err.to_string(), "invalid model file: empty file");
    }

    #[test]
    #[should_panic(expected = "contains whitespace")]
    fn seal_refuses_a_key_with_whitespace() {
        MODEL.seal(&[("a b".to_string(), "1".to_string())], |_| {});
    }
}
