//! Wire-format drift: every `ppm-<name> vN` version string the
//! workspace emits must be registered here, referenced from a
//! parse/validation context somewhere, and pinned by a test.
//!
//! The analysis tracks version strings three ways: literal occurrences
//! in string tokens, `const NAME: &str = "ppm-x vN"` bindings followed
//! through SCREAMING_CASE identifier uses, and `{NAME}` interpolations
//! inside format strings. Sites inside `#[cfg(test)]` regions or the
//! `tests/` tree count as test coverage; sites near `==`/`!=`/`=>` or
//! parse-ish calls (`strip_prefix`, `starts_with`, `contains`, ...)
//! count as parse contexts. This registry file itself is excluded from
//! the site census — it is the spec, not a use — so a registry entry
//! whose real emitter disappears still goes stale loudly.

use std::collections::BTreeMap;

use crate::items::FileIndex;
use crate::report::Diagnostic;

/// Every wire format the workspace is allowed to emit. Adding a format
/// means adding it here *and* giving it an emitter, a parser, and a
/// golden test; removing an emitter means removing the entry.
pub const KNOWN_FORMATS: [&str; 12] = [
    "ppm-buildz v1",
    "ppm-eventz v1",
    "ppm-ledger v1",
    "ppm-lint v2",
    "ppm-loadtest v1",
    "ppm-loadtest-ab v1",
    "ppm-rbf-model v1",
    "ppm-report v1",
    "ppm-serve v1",
    "ppm-statusz v1",
    "ppm-store v1",
    "ppm-tracez v1",
];

/// The registry's own file, excluded from the site census.
const REGISTRY_REL: &str = "crates/lint/src/wire.rs";

#[derive(Debug, Clone)]
struct Site {
    rel: String,
    line: u32,
    col: u32,
    in_test: bool,
    parse_ctx: bool,
}

/// Runs the analysis over the indexed workspace.
pub fn check(files: &[FileIndex]) -> Vec<Diagnostic> {
    // Wire-format constants may be used from other files than the one
    // defining them, so the const table is workspace-wide.
    let mut consts: BTreeMap<&str, &str> = BTreeMap::new();
    for f in files {
        for (name, fmt) in &f.consts {
            consts.insert(name.as_str(), fmt.as_str());
        }
    }

    let mut sites: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    for f in files.iter().filter(|f| f.rel != REGISTRY_REL) {
        for s in &f.strings {
            for fmt in &s.formats {
                sites.entry(fmt.clone()).or_default().push(Site {
                    rel: f.rel.clone(),
                    line: s.line,
                    col: s.col,
                    in_test: s.in_test,
                    parse_ctx: s.parse_ctx,
                });
            }
        }
        for c in &f.caps {
            if let Some(fmt) = consts.get(c.name.as_str()) {
                sites.entry((*fmt).to_string()).or_default().push(Site {
                    rel: f.rel.clone(),
                    line: c.line,
                    col: c.col,
                    in_test: c.in_test,
                    parse_ctx: c.parse_ctx,
                });
            }
        }
    }

    let mut diags = Vec::new();

    // Unregistered emissions. Test code is exempt — negative fixtures
    // ("ppm-bench v2 must be rejected") are exactly what tests contain.
    for (fmt, fmt_sites) in &sites {
        if KNOWN_FORMATS.contains(&fmt.as_str()) {
            continue;
        }
        for s in fmt_sites.iter().filter(|s| !s.in_test) {
            diags.push(Diagnostic {
                rule: "wire-format",
                path: s.rel.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "version string `{fmt}` is not in the wire-format registry \
                     ({REGISTRY_REL}) — register it with a parser and a golden test, \
                     or fix the string"
                ),
            });
        }
    }

    // Registered formats: stale entries, missing tests, missing parse
    // sites. Stale-entry detection only makes sense when the scanned
    // tree actually contains the registry (i.e. this workspace, not a
    // fixture tree).
    let registry_present = files.iter().any(|f| f.rel == REGISTRY_REL);
    for fmt in KNOWN_FORMATS {
        let fmt_sites = sites.get(fmt).map(Vec::as_slice).unwrap_or(&[]);
        let emit = fmt_sites.iter().find(|s| !s.in_test);
        match emit {
            None => {
                if registry_present {
                    diags.push(Diagnostic {
                        rule: "wire-format",
                        path: REGISTRY_REL.to_string(),
                        line: 0,
                        col: 0,
                        message: format!(
                            "registry entry `{fmt}` has no non-test emitter left in the \
                             workspace — remove the stale entry or restore the emitter"
                        ),
                    });
                }
            }
            Some(first) => {
                if !fmt_sites.iter().any(|s| s.in_test) {
                    diags.push(Diagnostic {
                        rule: "wire-format",
                        path: first.rel.clone(),
                        line: first.line,
                        col: first.col,
                        message: format!(
                            "`{fmt}` is emitted but no test pins it — add a golden test \
                             (tests/wire_formats.rs) so a version bump cannot ship silently"
                        ),
                    });
                }
                if !fmt_sites.iter().any(|s| s.parse_ctx) {
                    diags.push(Diagnostic {
                        rule: "wire-format",
                        path: first.rel.clone(),
                        line: first.line,
                        col: first.col,
                        message: format!(
                            "`{fmt}` is emitted but never parsed or validated — no \
                             `==`/`strip_prefix`/`starts_with` site references it; add a \
                             consumer-side check so producers cannot drift"
                        ),
                    });
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;

    #[test]
    fn unregistered_format_in_prod_code_is_reported() {
        let f = index_file(
            "crates/serve/src/a.rs",
            "pub fn schema() -> &'static str { \"ppm-bogus v7\" }\n",
        );
        let diags = check(&[f]);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("ppm-bogus v7") && d.message.contains("registry")),
            "{diags:?}"
        );
    }

    #[test]
    fn unregistered_format_in_test_code_is_fine() {
        let f = index_file(
            "tests/neg.rs",
            "fn t() { assert!(parse(\"ppm-bench v9\").is_err()); }\n",
        );
        let diags = check(&[f]);
        assert!(
            !diags.iter().any(|d| d.message.contains("ppm-bench v9")),
            "{diags:?}"
        );
    }

    #[test]
    fn emitted_format_without_test_or_parser_is_reported() {
        let f = index_file(
            "crates/obs/src/a.rs",
            "pub fn header() -> &'static str { \"ppm-ledger v1\" }\n",
        );
        let diags = check(&[f]);
        assert!(
            diags.iter().any(|d| d.message.contains("no test pins it")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("never parsed or validated")),
            "{diags:?}"
        );
    }

    #[test]
    fn parse_context_and_golden_test_satisfy_the_rule() {
        let emit = index_file(
            "crates/obs/src/a.rs",
            "pub fn header() -> &'static str { \"ppm-ledger v1\" }\n",
        );
        let test = index_file(
            "tests/wire.rs",
            "fn t() { assert!(header() == \"ppm-ledger v1\"); }\n",
        );
        let parse = index_file(
            "crates/obs/src/b.rs",
            "pub fn ok(h: &str) -> bool { h.starts_with(\"ppm-ledger v1\") }\n",
        );
        let diags = check(&[emit, test, parse]);
        assert!(
            !diags.iter().any(|d| d.message.contains("ppm-ledger v1")),
            "{diags:?}"
        );
    }

    #[test]
    fn const_bindings_carry_coverage_across_files() {
        let emit = index_file(
            "crates/serve/src/a.rs",
            "pub const TRACEZ_SCHEMA: &str = \"ppm-tracez v1\";\n",
        );
        let test = index_file(
            "tests/wire.rs",
            "fn t() { assert!(doc == TRACEZ_SCHEMA); }\n",
        );
        let diags = check(&[emit, test]);
        assert!(
            !diags.iter().any(|d| d.message.contains("ppm-tracez v1")),
            "{diags:?}"
        );
    }

    #[test]
    fn stale_registry_entries_fire_only_with_the_registry_present() {
        let lone = index_file(
            "crates/serve/src/a.rs",
            "pub fn schema() -> &'static str { \"ppm-serve v1\" }\n",
        );
        let diags = check(std::slice::from_ref(&lone));
        assert!(
            !diags.iter().any(|d| d.message.contains("stale entry")),
            "fixture trees must not see stale-entry findings: {diags:?}"
        );
        let registry = index_file(REGISTRY_REL, "// the registry file\n");
        let diags = check(&[lone, registry]);
        assert!(
            diags.iter().any(|d| d.message.contains("stale entry")),
            "{diags:?}"
        );
    }

    #[test]
    fn registry_path_is_this_file_so_unemitted_entries_stay_flagged() {
        // If REGISTRY_REL went stale (say, after a crate move), this
        // file's own literals would count as emission sites and every
        // entry would pass vacuously.
        let workspace = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let on_disk = std::fs::read_to_string(workspace.join(REGISTRY_REL))
            .expect("REGISTRY_REL names a workspace file");
        assert_eq!(
            on_disk,
            include_str!("wire.rs"),
            "REGISTRY_REL is not this file"
        );
        let diags = check(&[index_file(REGISTRY_REL, &on_disk)]);
        for fmt in KNOWN_FORMATS {
            assert!(
                diags
                    .iter()
                    .any(|d| d.message.contains(fmt) && d.message.contains("stale entry")),
                "{fmt} has no emitter but was not flagged: {diags:?}"
            );
        }
    }
}
