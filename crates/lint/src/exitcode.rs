//! Exit-code contract: `CliError::exit_code()` is the single source of
//! truth, and the usage text (`EXIT CODES:` block in `src/cli/mod.rs`)
//! and README's `## Exit codes` table must both document exactly that
//! set — scripts branch on these numbers, so silent drift breaks CI
//! the slow way.
//!
//! During the workspace's lex pass, [`Facts::collect`] extracts the
//! `fn exit_code` match arms (`CliError::Variant ... => N`), the numeric
//! codes named in the usage block, and any `ExitCode::from(<literal>)`
//! in `src/main.rs`; [`check`] adds the codes in README table rows and
//! cross-checks all four. Code 0 (success) is implicit in the arm set.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::report::Diagnostic;

const COMMANDS_REL: &str = "src/cli/commands.rs";
const USAGE_REL: &str = "src/cli/mod.rs";
const MAIN_REL: &str = "src/main.rs";

/// The exit-code inputs found in the three CLI files.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// `variant → code` from `fn exit_code` (empty when absent).
    arms: BTreeMap<String, u8>,
    /// The usage text's `EXIT CODES:` set and its line.
    usage: Option<(BTreeSet<u8>, u32)>,
    /// `ExitCode::from(<literal>)` sites in `src/main.rs`.
    main: Vec<(u8, u32, u32)>,
}

impl Facts {
    /// Records what `rel` contributes, if it is one of the CLI files.
    pub fn collect(&mut self, rel: &str, tokens: &[Token<'_>]) {
        match rel {
            COMMANDS_REL => self.arms = exit_code_arms(tokens),
            USAGE_REL => self.usage = usage_codes(tokens),
            MAIN_REL => self.main = main_literals(tokens),
            _ => {}
        }
    }
}

/// Extracts `variant → code` from the `fn exit_code` match arms.
fn exit_code_arms(tokens: &[Token<'_>]) -> BTreeMap<String, u8> {
    let code: Vec<_> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let is_punct = |i: usize, c: char| code.get(i).is_some_and(|t| t.kind == TokenKind::Punct(c));
    let is_ident = |i: usize, s: &str| {
        code.get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    };
    // Locate the fn body.
    let mut body = None;
    for i in 0..code.len() {
        if is_ident(i, "fn") && is_ident(i + 1, "exit_code") {
            let mut j = i + 2;
            while j < code.len() && !is_punct(j, '{') {
                j += 1;
            }
            let mut d = 0i32;
            for k in j..code.len() {
                if is_punct(k, '{') {
                    d += 1;
                } else if is_punct(k, '}') {
                    d -= 1;
                    if d == 0 {
                        body = Some((j, k));
                        break;
                    }
                }
            }
            break;
        }
    }
    let mut arms = BTreeMap::new();
    let Some((start, end)) = body else {
        return arms;
    };
    let mut pending: Vec<String> = Vec::new();
    let mut i = start;
    while i <= end {
        if (is_ident(i, "CliError") || is_ident(i, "Self"))
            && is_punct(i + 1, ':')
            && is_punct(i + 2, ':')
            && code.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            if let Some(t) = code.get(i + 3) {
                pending.push(t.text.to_string());
            }
            i += 4;
            continue;
        }
        if is_punct(i, '=') && is_punct(i + 1, '>') {
            if let Some(n) = code.get(i + 2).and_then(|t| {
                matches!(t.kind, TokenKind::Number { .. }).then(|| t.text.parse::<u8>().ok())?
            }) {
                for v in pending.drain(..) {
                    arms.insert(v, n);
                }
            } else {
                pending.clear();
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    arms
}

/// Extracts the codes named in the usage text's `EXIT CODES:` block and
/// the 1-based source line of that block.
fn usage_codes(tokens: &[Token<'_>]) -> Option<(BTreeSet<u8>, u32)> {
    for t in tokens {
        if !matches!(t.kind, TokenKind::Str | TokenKind::RawStr) {
            continue;
        }
        let Some(at) = t.text.find("EXIT CODES:") else {
            continue;
        };
        let line = t.line + t.text[..at].matches('\n').count() as u32;
        let section = &t.text[at..];
        let section = &section[..section.find("\n\n").unwrap_or(section.len())];
        let codes: BTreeSet<u8> = section
            .split_whitespace()
            .filter_map(|w| w.parse::<u8>().ok())
            .collect();
        return Some((codes, line));
    }
    None
}

/// Extracts `code → README line` from the `## Exit codes` table.
fn readme_codes(readme: &str) -> Option<(BTreeMap<u8, u32>, u32)> {
    let mut rows = BTreeMap::new();
    let mut header_line = 0u32;
    let mut in_section = false;
    for (i, line) in readme.lines().enumerate() {
        let n = i as u32 + 1;
        let trimmed = line.trim();
        if trimmed.eq_ignore_ascii_case("## exit codes") {
            in_section = true;
            header_line = n;
            continue;
        }
        if in_section && trimmed.starts_with("## ") {
            break;
        }
        if in_section && trimmed.starts_with('|') {
            // `| `N` | description |` — take the first backticked cell.
            if let Some(rest) = trimmed.split('`').nth(1) {
                if let Ok(code) = rest.trim().parse::<u8>() {
                    rows.entry(code).or_insert(n);
                }
            }
        }
    }
    in_section.then_some((rows, header_line))
}

/// Extracts `ExitCode::from(<int literal>)` sites from `src/main.rs`.
fn main_literals(tokens: &[Token<'_>]) -> Vec<(u8, u32, u32)> {
    let code: Vec<_> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    for i in 0..code.len() {
        if code[i].kind == TokenKind::Ident
            && code[i].text == "ExitCode"
            && code
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Punct(':'))
            && code
                .get(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Punct(':'))
            && code
                .get(i + 3)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "from")
            && code
                .get(i + 4)
                .is_some_and(|t| t.kind == TokenKind::Punct('('))
        {
            if let Some(t) = code.get(i + 5) {
                if matches!(t.kind, TokenKind::Number { .. }) {
                    if let Ok(n) = t.text.parse::<u8>() {
                        out.push((n, t.line, t.col));
                    }
                }
            }
        }
    }
    out
}

/// Runs the analysis. `readme` is the workspace `README.md`, when it
/// exists; checks whose inputs are absent are skipped, so fixture trees
/// exercise only what they provide.
pub fn check(facts: &Facts, readme: Option<&str>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let arms = &facts.arms;
    if arms.is_empty() {
        return diags;
    }
    // The truth set: success plus every arm's code.
    let mut truth: BTreeSet<u8> = arms.values().copied().collect();
    truth.insert(0);
    let variants_for = |c: u8| -> String {
        let v: Vec<&str> = arms
            .iter()
            .filter(|(_, code)| **code == c)
            .map(|(name, _)| name.as_str())
            .collect();
        if v.is_empty() {
            "success".to_string()
        } else {
            format!("CliError::{}", v.join(" | CliError::"))
        }
    };

    if let Some((codes, line)) = &facts.usage {
        let line = *line;
        for &c in truth.difference(codes) {
            diags.push(Diagnostic {
                rule: "exit-code",
                path: USAGE_REL.to_string(),
                line,
                col: 1,
                message: format!(
                    "exit code {c} ({}) is missing from the usage text's EXIT CODES block",
                    variants_for(c)
                ),
            });
        }
        for &c in codes.difference(&truth) {
            diags.push(Diagnostic {
                rule: "exit-code",
                path: USAGE_REL.to_string(),
                line,
                col: 1,
                message: format!(
                    "usage text documents exit code {c} but no CliError variant produces it"
                ),
            });
        }
    }

    if let Some((rows, header_line)) = readme.and_then(readme_codes) {
        let documented: BTreeSet<u8> = rows.keys().copied().collect();
        for &c in truth.difference(&documented) {
            diags.push(Diagnostic {
                rule: "exit-code",
                path: "README.md".to_string(),
                line: header_line,
                col: 1,
                message: format!(
                    "exit code {c} ({}) is missing from README's exit-code table",
                    variants_for(c)
                ),
            });
        }
        for (&c, &line) in &rows {
            if !truth.contains(&c) {
                diags.push(Diagnostic {
                    rule: "exit-code",
                    path: "README.md".to_string(),
                    line,
                    col: 1,
                    message: format!(
                        "README documents exit code {c} but no CliError variant produces it"
                    ),
                });
            }
        }
    }

    for &(c, line, col) in &facts.main {
        if !truth.contains(&c) {
            diags.push(Diagnostic {
                rule: "exit-code",
                path: MAIN_REL.to_string(),
                line,
                col,
                message: format!(
                    "src/main.rs exits with literal code {c}, which no CliError \
                     variant (or success) accounts for"
                ),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Collects facts from `(rel, source)` fixtures.
    fn facts(files: &[(&str, &str)]) -> Facts {
        let mut facts = Facts::default();
        for (rel, source) in files {
            facts.collect(rel, &lex(source));
        }
        facts
    }

    const COMMANDS: &str = r#"
pub enum CliError { Args(String), Sim(String), Lint(usize) }
impl CliError {
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) => 2,
            CliError::Sim(_) => 3,
            CliError::Lint(_) => 6,
        }
    }
}
"#;

    #[test]
    fn arms_parse_including_multi_variant() {
        let arms = exit_code_arms(&lex(
            "fn exit_code(&self) -> u8 { match self { CliError::A(_) | CliError::B => 2, Self::C(_) => 5 } }",
        ));
        assert_eq!(arms.get("A"), Some(&2));
        assert_eq!(arms.get("B"), Some(&2));
        assert_eq!(arms.get("C"), Some(&5));
    }

    #[test]
    fn agreement_is_clean() {
        let usage = "pub const USAGE: &str = \"...\nEXIT CODES:\n  0 success    2 usage\n  3 simulation 6 lint\n\nMORE:\n\";\n";
        let readme = "# x\n\n## Exit codes\n\n| Code | Meaning |\n|---|---|\n| `0` | ok |\n| `2` | usage |\n| `3` | sim |\n| `6` | lint |\n\n## Next\n";
        let facts = facts(&[(COMMANDS_REL, COMMANDS), (USAGE_REL, usage)]);
        assert!(check(&facts, Some(readme)).is_empty());
    }

    #[test]
    fn missing_and_extra_readme_rows_are_reported() {
        let readme =
            "## Exit codes\n\n| `0` | ok |\n| `2` | usage |\n| `3` | sim |\n| `9` | ghost |\n";
        let diags = check(&facts(&[(COMMANDS_REL, COMMANDS)]), Some(readme));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("exit code 6") && d.message.contains("missing")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("exit code 9") && d.message.contains("no CliError")),
            "{diags:?}"
        );
    }

    #[test]
    fn usage_block_drift_is_reported() {
        let usage =
            "pub const USAGE: &str = \"...\nEXIT CODES:\n  0 success    2 usage\n\nMORE:\n\";\n";
        let diags = check(
            &facts(&[(COMMANDS_REL, COMMANDS), (USAGE_REL, usage)]),
            None,
        );
        assert!(
            diags
                .iter()
                .any(|d| d.path == USAGE_REL && d.message.contains("exit code 3")),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_literal_in_main_is_reported() {
        let main = "fn main() -> ExitCode { ExitCode::from(42) }\n";
        let diags = check(&facts(&[(COMMANDS_REL, COMMANDS), (MAIN_REL, main)]), None);
        assert!(
            diags
                .iter()
                .any(|d| d.path == MAIN_REL && d.message.contains("literal code 42")),
            "{diags:?}"
        );
    }

    #[test]
    fn fixture_trees_without_the_cli_are_quiet() {
        let facts = facts(&[("crates/serve/src/a.rs", "fn f() {}\n")]);
        assert!(check(&facts, Some("## Exit codes\n| `9` | x |\n")).is_empty());
    }
}
