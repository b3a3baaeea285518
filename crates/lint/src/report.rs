//! Diagnostics and their human / JSON renderings.
//!
//! The human form is the compiler-style `file:line:col: rule: message`
//! line, one per finding. The JSON form reuses the `ppm-obs` codec so
//! `ppm lint --format json` emits the same dialect as ledgers and
//! traces, and verify.sh can gate on it without extra tooling.

use std::fmt;

use ppm_telemetry::Json;

use crate::rules;

/// One finding, from either rule family, at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (a name from [`rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// The result of linting a file set.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// How many files were scanned.
    pub files_scanned: usize,
    /// All findings, in walk order (deterministic: paths are sorted).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the human form: one `file:line:col: rule: message` line
    /// per finding plus a one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "ppm-lint: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.diagnostics.len()
        ));
        out
    }

    /// Renders the JSON form (schema `ppm-lint v2`), including the rule
    /// table so consumers can map names to descriptions.
    pub fn render_json(&self) -> String {
        let diags = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj([
                    ("rule", Json::Str(d.rule.to_string())),
                    ("path", Json::Str(d.path.clone())),
                    ("line", Json::Int(i64::from(d.line))),
                    ("col", Json::Int(i64::from(d.col))),
                    ("message", Json::Str(d.message.clone())),
                ])
            })
            .collect();
        let rules = rules::RULES
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.to_string())),
                    ("summary", Json::Str(r.summary.to_string())),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str("ppm-lint v2".to_string())),
            ("files_scanned", Json::Int(self.files_scanned as i64)),
            ("clean", Json::Bool(self.is_clean())),
            ("diagnostics", Json::Arr(diags)),
            ("rules", Json::Arr(rules)),
        ])
        .dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            files_scanned: 3,
            diagnostics: vec![Diagnostic {
                rule: "panic-path",
                path: "crates/core/src/f.rs".to_string(),
                line: 7,
                col: 9,
                message: "`.unwrap(...)` in non-test library code".to_string(),
            }],
        }
    }

    #[test]
    fn human_form_is_compiler_style() {
        let text = sample().render_human();
        assert!(
            text.contains("crates/core/src/f.rs:7:9: panic-path:"),
            "{text}"
        );
        assert!(text.contains("3 file(s) scanned, 1 finding(s)"), "{text}");
    }

    #[test]
    fn json_form_round_trips() {
        let report = sample();
        let json = Json::parse(&report.render_json()).expect("valid JSON");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("ppm-lint v2")
        );
        assert_eq!(json.get("files_scanned").and_then(Json::as_i64), Some(3));
        let diags = match json.get("diagnostics") {
            Some(Json::Arr(items)) => items,
            other => panic!("diagnostics not an array: {other:?}"),
        };
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("rule").and_then(Json::as_str),
            Some("panic-path")
        );
        assert_eq!(diags[0].get("line").and_then(Json::as_i64), Some(7));
        // The rule table rides along for consumers.
        let rules_arr = match json.get("rules") {
            Some(Json::Arr(items)) => items,
            other => panic!("rules not an array: {other:?}"),
        };
        assert_eq!(rules_arr.len(), 11);
    }

    #[test]
    fn empty_report_is_clean() {
        let report = Report::default();
        assert!(report.is_clean());
        let json = Json::parse(&report.render_json()).expect("valid JSON");
        assert_eq!(json.get("clean"), Some(&Json::Bool(true)));
    }
}
