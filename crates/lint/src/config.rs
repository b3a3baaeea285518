//! The `scripts/lint.conf` allowlist.
//!
//! A violation can be suppressed two ways:
//!
//! 1. **Inline**, with a `lint:allow(<rule>)` comment on the violating
//!    line or the line directly above it, stating *why* the pattern is
//!    acceptable there. This is the preferred form — the justification
//!    lives next to the code.
//! 2. **Centrally**, with an `allow <rule> <substring>` entry in the
//!    config file. A diagnostic is suppressed when its source line
//!    contains the fixed substring. This form exists for call sites
//!    where an inline comment would be noise (e.g. a pattern repeated
//!    at several generated sites) and for migrating historical
//!    allowlists.
//!
//! File format, line oriented:
//!
//! ```text
//! # comment
//! allow <rule-name> <fixed substring, verbatim to end of line>
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

use crate::rules;

/// One `allow` entry from the config file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule the entry suppresses.
    pub rule: String,
    /// Fixed substring matched against the violating source line.
    pub pattern: String,
}

/// Parsed allowlist configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// All `allow` entries, in file order.
    pub entries: Vec<AllowEntry>,
}

/// Errors from loading a config file.
#[derive(Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying failure.
        error: std::io::Error,
    },
    /// A line did not parse.
    Parse {
        /// The offending path.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Io { path, error } => {
                write!(f, "cannot read lint config {}: {error}", path.display())
            }
            ConfigError::Parse {
                path,
                line,
                message,
            } => write!(f, "{}:{line}: {message}", path.display()),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Io { error, .. } => Some(error),
            ConfigError::Parse { .. } => None,
        }
    }
}

impl Config {
    /// An empty allowlist (nothing suppressed).
    pub fn empty() -> Self {
        Config::default()
    }

    /// Parses a config file from disk.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Io`] when the file cannot be read and
    /// [`ConfigError::Parse`] on a malformed or unknown-rule entry
    /// (typos in rule names must fail loudly, or the entry would
    /// silently suppress nothing).
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|error| ConfigError::Io {
            path: path.to_path_buf(),
            error,
        })?;
        Self::parse(&text).map_err(|(line, message)| ConfigError::Parse {
            path: path.to_path_buf(),
            line,
            message,
        })
    }

    /// Parses config text; errors carry `(line, message)`.
    ///
    /// # Errors
    ///
    /// On a malformed line or an unknown rule name.
    pub fn parse(text: &str) -> Result<Self, (usize, String)> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(rest) = line.strip_prefix("allow ") else {
                return Err((
                    idx + 1,
                    format!("expected `allow <rule> <substring>`, got {line:?}"),
                ));
            };
            let Some((rule, pattern)) = rest.trim_start().split_once(' ') else {
                return Err((idx + 1, format!("allow entry without a pattern: {line:?}")));
            };
            if !rules::is_rule(rule) {
                // The full valid set, so a typo'd entry tells the user
                // every name it could have meant, not just the offender.
                return Err((
                    idx + 1,
                    format!("unknown rule {rule:?} (known: {})", rules::rule_list()),
                ));
            }
            let pattern = pattern.trim();
            if pattern.is_empty() {
                return Err((idx + 1, format!("allow entry with empty pattern: {line:?}")));
            }
            entries.push(AllowEntry {
                rule: rule.to_string(),
                pattern: pattern.to_string(),
            });
        }
        Ok(Config { entries })
    }

    /// True when an entry suppresses `rule` on a line with this text.
    pub fn allows(&self, rule: &str, source_line: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == rule && source_line.contains(&e.pattern))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_skips_comments() {
        let conf = Config::parse(
            "# heading\n\nallow panic-path .expect(\"weights\")\nallow wall-clock Instant::now\n",
        )
        .expect("valid config");
        assert_eq!(conf.entries.len(), 2);
        assert!(conf.allows("panic-path", "let w = m.expect(\"weights\");"));
        assert!(!conf.allows("panic-path", "let w = m.expect(\"other\");"));
        assert!(!conf.allows("float-eq", "let w = m.expect(\"weights\");"));
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let err = Config::parse("allow not-a-rule x\n").expect_err("bad rule");
        assert!(err.1.contains("unknown rule"), "{}", err.1);
    }

    #[test]
    fn unknown_rule_error_lists_every_valid_name() {
        let err = Config::parse("allow panic-paths x\n").expect_err("bad rule");
        for rule in rules::RULES {
            assert!(err.1.contains(rule.name), "{}", err.1);
        }
    }

    #[test]
    fn semantic_rules_are_accepted() {
        let conf = Config::parse("allow lock-order shard.lock()\nallow exit-code 42\n")
            .expect("semantic rules are valid allowlist entries");
        assert_eq!(conf.entries.len(), 2);
        assert!(conf.allows("lock-order", "let q = shard.lock();"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Config::parse("deny panic-path x\n").is_err());
        assert!(Config::parse("allow panic-path\n").is_err());
        assert!(Config::parse("allow panic-path   \n").is_err());
    }

    #[test]
    fn empty_config_allows_nothing() {
        assert!(!Config::empty().allows("panic-path", ".unwrap()"));
    }
}
