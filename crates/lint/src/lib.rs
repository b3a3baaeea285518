//! ppm-lint: the workspace's static-analysis tool.
//!
//! The reproduction's headline guarantees — byte-identical fixed-seed
//! builds, panic-free typed-error library code, thread-safe serving,
//! versioned wire formats — used to be policed by an awk/grep gate that
//! could not see strings, comments, or module structure. This crate
//! replaces it with a real (still zero-dependency) analyzer built on a
//! hand-written Rust lexer ([`lexer`]), with two rule families:
//!
//! - **Token rules** ([`rules`]): six token-local invariants — a stray
//!   `unwrap`, a `HashMap` in a deterministic crate, an ad hoc clock
//!   read.
//! - **Semantic rules**: the questions a token window cannot answer.
//!   *Is the lock graph acyclic* ([`lockorder`])? *Does every
//!   `Ordering::` use match a declared policy* ([`atomics`])? *Can a
//!   worker thread reach a panic outside `catch_unwind`* ([`panics`])?
//!   *Does every emitted wire-format string have a parser and a golden
//!   test* ([`wire`])? *Do the CLI's exit codes, usage text, and README
//!   agree* ([`exitcode`])? They consume the owned per-file indices of
//!   [`items`].
//!
//! Each file is read and lexed once; the token stream feeds both the
//! token rules and the [`items`] index. Both families share one rule
//! table ([`rules::RULES`]), one allowlist ([`config`]:
//! `scripts/lint.conf` plus inline `lint:allow(<rule>)` comments), and
//! one [`Report`] in human or JSON form ([`report`]). The CLI exposes it
//! as `ppm lint`.
//!
//! Scope: the root binary's `src/` tree, every `crates/<name>/src` tree,
//! and `tests/` (wire formats are pinned by golden tests there), plus
//! `README.md` for the exit-code table. Test code — `#[cfg(test)]`
//! modules, `#[test]` functions, and all of `tests/` — is exempt from
//! every rule; the semantic rules read it only as wire-format coverage.

pub mod atomics;
pub mod config;
pub mod exitcode;
pub mod items;
pub mod lexer;
pub mod lockorder;
pub mod panics;
pub mod report;
pub mod rules;
pub mod wire;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub use config::{Config, ConfigError};
pub use report::{Diagnostic, Report};

/// Errors from walking and reading workspace sources.
#[derive(Debug)]
#[non_exhaustive]
pub enum LintError {
    /// A directory or file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying failure.
        error: std::io::Error,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, error } => {
                write!(f, "cannot read {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { error, .. } => Some(error),
        }
    }
}

/// Runs the token rules over one in-memory source file (the semantic
/// rules need the whole workspace; see [`lint_workspace`]). `rel_path`
/// must be workspace relative with `/` separators — it selects which
/// rules apply. Diagnostics are sorted by `(line, rule, col)`.
pub fn lint_source(rel_path: &str, source: &str, conf: &Config) -> Vec<Diagnostic> {
    let tokens = lexer::lex(source);
    let allows = rules::inline_allows(&tokens);
    let lines: Vec<&str> = source.lines().collect();
    let mut diags = rules::check_tokens(rel_path, &tokens, &lexer::test_regions(&tokens));
    diags.retain(|d| !suppressed(d, &allows, line_at(&lines, d.line), conf));
    diags.sort_by_key(|d| (d.line, d.rule, d.col));
    diags
}

/// Runs both rule families over every in-scope file under `root` (see
/// the crate docs), honoring the allowlist `conf` and inline
/// `lint:allow(<rule>)` comments. The [`Report`] is deterministic:
/// diagnostics are sorted by `(path, line, rule, col)`.
///
/// # Errors
///
/// [`LintError::Io`] when a scanned directory or file cannot be read.
pub fn lint_workspace(root: &Path, conf: &Config) -> Result<Report, LintError> {
    let rels = workspace_files(root)?;
    let mut diagnostics = Vec::new();
    let mut files = Vec::with_capacity(rels.len());
    let mut exit_facts = exitcode::Facts::default();
    for rel in &rels {
        let full = root.join(rel);
        let source = std::fs::read_to_string(&full).map_err(|error| LintError::Io {
            path: full.clone(),
            error,
        })?;
        let tokens = lexer::lex(&source);
        let in_test = lexer::test_regions(&tokens);
        if !rel.starts_with("tests/") {
            diagnostics.extend(rules::check_tokens(rel, &tokens, &in_test));
        }
        exit_facts.collect(rel, &tokens);
        files.push(items::index_tokens(rel, &source, &tokens, &in_test));
    }
    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    diagnostics.extend(lockorder::check(&files));
    diagnostics.extend(atomics::check(&files));
    diagnostics.extend(panics::check(&files));
    diagnostics.extend(wire::check(&files));
    diagnostics.extend(exitcode::check(&exit_facts, readme.as_deref()));

    // One suppression pass for both families. README findings (exit
    // codes) have no inline markers, only lint.conf substrings.
    let by_rel: BTreeMap<&str, &items::FileIndex> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let readme_lines: Vec<&str> = readme
        .as_deref()
        .map_or(Vec::new(), |r| r.lines().collect());
    let no_allows = BTreeSet::new();
    diagnostics.retain(|d| {
        let (allows, line_text) = match by_rel.get(d.path.as_str()) {
            Some(f) => (&f.allows, line_at(&f.lines, d.line)),
            None => (&no_allows, line_at(&readme_lines, d.line)),
        };
        !suppressed(d, allows, line_text, conf)
    });
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.col).cmp(&(b.path.as_str(), b.line, b.rule, b.col))
    });
    Ok(Report {
        files_scanned: files.len(),
        diagnostics,
    })
}

/// True when an inline marker on or above the diagnostic's line, or a
/// `lint.conf` entry whose substring occurs in `line_text`, allows it.
fn suppressed(
    d: &Diagnostic,
    allows: &BTreeSet<(String, u32)>,
    line_text: &str,
    conf: &Config,
) -> bool {
    allows.contains(&(d.rule.to_string(), d.line)) || conf.allows(d.rule, line_text)
}

/// The text of 1-based `line` (line 0, a file-level finding, reads the
/// first line; past the end reads as empty).
fn line_at<S: AsRef<str>>(lines: &[S], line: u32) -> &str {
    lines
        .get(line.saturating_sub(1) as usize)
        .map_or("", AsRef::as_ref)
}

/// Enumerates in-scope `.rs` files under `root`, as sorted
/// workspace-relative `/`-separated paths: the root binary's `src/`
/// tree, `crates/<name>/src` for every crate, and the root `tests/`
/// tree. Per-crate `tests/`, `examples/`, and `benches/` trees are out
/// of scope.
///
/// # Errors
///
/// [`LintError::Io`] when a directory listing fails.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, LintError> {
    let mut rels = Vec::new();
    for top in ["src", "tests"] {
        if root.join(top).is_dir() {
            collect_rs(root, top, &mut rels)?;
        }
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for name in sorted_entries(&crates_dir)? {
            let rel = format!("crates/{name}/src");
            if root.join(&rel).is_dir() {
                collect_rs(root, &rel, &mut rels)?;
            }
        }
    }
    rels.sort();
    Ok(rels)
}

/// Recursively collects `.rs` files under `root/rel_dir` into `out`.
fn collect_rs(root: &Path, rel_dir: &str, out: &mut Vec<String>) -> Result<(), LintError> {
    for name in sorted_entries(&root.join(rel_dir))? {
        let rel = format!("{rel_dir}/{name}");
        let full = root.join(&rel);
        if full.is_dir() {
            collect_rs(root, &rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Lists a directory's entry names in sorted order (so walk order, and
/// therefore diagnostic order, is independent of filesystem order).
fn sorted_entries(dir: &Path) -> Result<Vec<String>, LintError> {
    let io = |error: std::io::Error| LintError::Io {
        path: dir.to_path_buf(),
        error,
    };
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(root: &Path, rel: &str, text: &str) {
        let full = root.join(rel);
        std::fs::create_dir_all(full.parent().expect("parent")).expect("mkdir");
        std::fs::write(full, text).expect("write fixture");
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppm-lint-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean temp root");
        }
        std::fs::create_dir_all(&dir).expect("mkdir temp root");
        dir
    }

    #[test]
    fn walker_scopes_and_sorts() {
        let root = temp_root("walk");
        write(&root, "src/main.rs", "fn main() {}");
        write(&root, "src/cli/mod.rs", "pub mod x;");
        write(&root, "crates/core/src/lib.rs", "pub fn f() {}");
        write(&root, "crates/core/src/deep/inner.rs", "pub fn g() {}");
        write(&root, "crates/bench/src/lib.rs", "pub fn h() {}");
        write(&root, "crates/core/tests/it.rs", "fn t() { x.unwrap() }");
        write(&root, "crates/core/src/notes.txt", "not rust");
        write(&root, "tests/it.rs", "fn t() {}");
        let files = workspace_files(&root).expect("walk");
        assert_eq!(
            files,
            vec![
                "crates/bench/src/lib.rs",
                "crates/core/src/deep/inner.rs",
                "crates/core/src/lib.rs",
                "src/cli/mod.rs",
                "src/main.rs",
                "tests/it.rs",
            ]
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn lint_workspace_reports_findings() {
        let root = temp_root("report");
        write(
            &root,
            "crates/core/src/lib.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        write(&root, "crates/core/src/ok.rs", "pub fn g() -> u32 { 4 }");
        // Token rules skip tests/: this unwrap is not a finding.
        write(&root, "tests/it.rs", "fn t(x: Option<u32>) { x.unwrap(); }");
        let report = lint_workspace(&root, &Config::empty()).expect("lint");
        assert_eq!(report.files_scanned, 3);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "panic-path");
        assert_eq!(report.diagnostics[0].path, "crates/core/src/lib.rs");
        assert!(!report.is_clean());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn findings_sort_and_inline_allows_suppress() {
        let root = temp_root("allows");
        write(
            &root,
            "crates/serve/src/a.rs",
            "fn f(s: &S) {\n    // lint:allow(atomic-ordering) gauge pairs with recv\n    s.q.store(1, Ordering::SeqCst);\n    s.r.store(1, Ordering::SeqCst);\n}\n",
        );
        let report = lint_workspace(&root, &Config::empty()).expect("lint");
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert!(
            report.diagnostics[0].message.contains('r'),
            "{:?}",
            report.diagnostics
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn conf_allowlist_suppresses_semantic_findings_by_substring() {
        let root = temp_root("conf");
        write(
            &root,
            "crates/serve/src/a.rs",
            "fn f(s: &S) {\n    s.q.store(1, Ordering::SeqCst);\n}\n",
        );
        let conf = Config::parse("allow atomic-ordering s.q.store(1\n").expect("conf");
        let report = lint_workspace(&root, &conf).expect("lint");
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn missing_root_scans_nothing() {
        let report = lint_workspace(Path::new("/nonexistent-ppm-lint"), &Config::empty())
            .expect("empty scan is not an error");
        assert_eq!(report.files_scanned, 0);
    }
}
