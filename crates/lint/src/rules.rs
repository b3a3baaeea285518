//! The rule table for both families, and the token-rule engine.
//!
//! Each token rule guards one workspace invariant:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic-path` | library faults surface as typed errors, not panics |
//! | `iteration-order` | nothing determinism-critical iterates a hash map |
//! | `wall-clock` | time is observed through telemetry, not ad hoc |
//! | `float-eq` | numeric kernels never use exact float equality |
//! | `print-in-lib` | library crates report through telemetry sinks |
//! | `env-read` | process environment is read only by the CLI layer |
//!
//! Token rules skip comments and string literals (the lexer already
//! classified them) and `#[cfg(test)]` / `#[test]` regions. The five
//! semantic rules live in their own modules (see the crate docs);
//! suppression for both families is applied by the caller.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::report::Diagnostic;

/// A rule's name and one-line description.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case rule name (used in `lint:allow`, lint.conf,
    /// and `ppm lint --rule`).
    pub name: &'static str,
    /// What the rule enforces, for `--format json` consumers and docs.
    pub summary: &'static str,
}

/// Every rule, in reporting order: the six token rules, then the five
/// semantic rules.
pub const RULES: [Rule; 11] = [
    Rule {
        name: "panic-path",
        summary: "unwrap/expect/panic!/todo!/unimplemented! in non-test library code \
                  (faults must surface as typed errors)",
    },
    Rule {
        name: "iteration-order",
        summary: "HashMap/HashSet in determinism-critical crates \
                  (iteration order leaks into checkpoints and ledgers)",
    },
    Rule {
        name: "wall-clock",
        summary: "Instant::now/SystemTime::now outside the telemetry layer \
                  (stray timing breaks byte-identical fixed-seed runs)",
    },
    Rule {
        name: "float-eq",
        summary: "== or != against a float literal in numeric kernels \
                  (exact float equality is unreliable)",
    },
    Rule {
        name: "print-in-lib",
        summary: "println!/eprintln!/print!/eprint!/dbg! in library crates \
                  (events must go through telemetry sinks)",
    },
    Rule {
        name: "env-read",
        summary: "std::env reads outside the config/CLI layer \
                  (hidden environment coupling defeats reproducibility)",
    },
    Rule {
        name: "lock-order",
        summary: "acquired-while-held mutex graph must be acyclic, and no blocking \
                  I/O or channel op may run under a lock",
    },
    Rule {
        name: "atomic-ordering",
        summary: "every non-Relaxed Ordering:: use needs a declared \
                  atomic-policy(<name>) comment; mixed orderings must be declared",
    },
    Rule {
        name: "panic-reachability",
        summary: "unwrap/expect/slice-index reachable from worker or accept threads \
                  must sit under catch_unwind or carry a justified allow",
    },
    Rule {
        name: "wire-format",
        summary: "every emitted `ppm-* vN` version string must be registered, \
                  parsed somewhere, and pinned by a golden test",
    },
    Rule {
        name: "exit-code",
        summary: "CliError::exit_code(), the usage text, and README's exit-code \
                  table must agree on the full code set",
    },
];

/// True when `name` is a rule in [`RULES`].
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Every rule name, comma-separated in reporting order (for error
/// messages that list the valid choices).
pub fn rule_list() -> String {
    RULES.map(|r| r.name).join(", ")
}

/// Crates whose serialized artifacts (checkpoints, ledgers, persisted
/// models, sample plans) must be byte-identical across runs.
const DETERMINISTIC_CRATES: [&str; 4] = [
    "crates/core/",
    "crates/obs/",
    "crates/sampling/",
    "crates/firstorder/",
];

/// Crates that are numeric kernels, where exact float comparison is a
/// correctness smell rather than a style choice.
const NUMERIC_CRATES: [&str; 7] = [
    "crates/linalg/",
    "crates/rbf/",
    "crates/linreg/",
    "crates/regtree/",
    "crates/firstorder/",
    "crates/sampling/",
    "crates/rng/",
];

fn in_any(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Whether a rule applies to a file, by workspace-relative path.
///
/// `panic-path` covers every scanned file (library crates and the CLI).
/// `wall-clock` and `print-in-lib` exempt `crates/telemetry` (it *is*
/// the timing and output layer) and the CLI binary (`src/`), which owns
/// process-level I/O; `wall-clock` additionally exempts `crates/live`,
/// whose socket timeouts, ETA extrapolation, and refresh pacing are
/// observations of real time by design — the live plane reports on a
/// running process and never feeds deterministic artifacts. The serving
/// plane (`crates/serve`) gets a *narrower* exemption than live: only
/// its `clock.rs` (the `Deadline`/`Stopwatch` module, the plane's sole
/// sanctioned window onto real time) may read the clock; every other
/// serve file must express time through those types, so the rule still
/// catches stray `Instant::now()` in routing or model logic. `env-read`
/// exempts only the CLI, the designated config layer. The determinism
/// and numeric scopes are explicit crate lists.
pub fn rule_applies(rule: &str, rel_path: &str) -> bool {
    let in_crates = rel_path.starts_with("crates/");
    let in_telemetry = rel_path.starts_with("crates/telemetry/");
    let in_live = rel_path.starts_with("crates/live/");
    let is_serve_clock = rel_path == "crates/serve/src/clock.rs";
    match rule {
        "panic-path" => true,
        "iteration-order" => in_any(rel_path, &DETERMINISTIC_CRATES),
        "wall-clock" => in_crates && !in_telemetry && !in_live && !is_serve_clock,
        "float-eq" => in_any(rel_path, &NUMERIC_CRATES),
        "print-in-lib" => in_crates && !in_telemetry,
        "env-read" => in_crates,
        _ => false,
    }
}

/// Runs the token rules over one lexed file. `rel_path` is
/// workspace-relative with `/` separators (it selects which rules
/// apply); `in_test` is [`crate::lexer::test_regions`] of `tokens`.
/// Findings are unsuppressed and unsorted — see [`crate::lint_source`].
pub fn check_tokens(rel_path: &str, tokens: &[Token<'_>], in_test: &[bool]) -> Vec<Diagnostic> {
    // Code view: indices of non-comment tokens, for adjacency matching.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let mut diags = Vec::new();
    let mut emit = |rule: &'static str, tok: &Token<'_>, message: String| {
        if !rule_applies(rule, rel_path) {
            return;
        }
        diags.push(Diagnostic {
            rule,
            path: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        });
    };

    let tok = |ci: usize| -> Option<&Token<'_>> { code.get(ci).map(|&i| &tokens[i]) };
    let is_punct = |ci: usize, c: char| tok(ci).is_some_and(|t| t.kind == TokenKind::Punct(c));
    let is_float = |ci: usize| {
        tok(ci).is_some_and(|t| t.kind == TokenKind::Number { is_float: true })
            // A negated literal: `x == -1.0`.
            || (tok(ci).is_some_and(|t| t.kind == TokenKind::Punct('-'))
                && tok(ci + 1).is_some_and(|t| t.kind == TokenKind::Number { is_float: true }))
    };

    for ci in 0..code.len() {
        let t = tokens[code[ci]];
        if in_test[code[ci]] {
            continue;
        }
        if t.kind == TokenKind::Ident {
            match t.text {
                "unwrap" | "expect" if ci > 0 && is_punct(ci - 1, '.') && is_punct(ci + 1, '(') => {
                    emit(
                        "panic-path",
                        &t,
                        format!(
                            "`.{}(...)` in non-test library code; return a typed error \
                             (or justify with `lint:allow(panic-path)`)",
                            t.text
                        ),
                    );
                }
                "panic" | "todo" | "unimplemented" if is_punct(ci + 1, '!') => {
                    emit(
                        "panic-path",
                        &t,
                        format!(
                            "`{}!` in non-test library code; return a typed error",
                            t.text
                        ),
                    );
                }
                "HashMap" | "HashSet" => {
                    emit(
                        "iteration-order",
                        &t,
                        format!(
                            "`{}` in a determinism-critical crate; iteration/serialization \
                             order follows the hasher — use BTreeMap/BTreeSet or sort at write",
                            t.text
                        ),
                    );
                }
                "Instant" | "SystemTime"
                    if is_punct(ci + 1, ':')
                        && is_punct(ci + 2, ':')
                        && tok(ci + 3).is_some_and(|n| n.text == "now") =>
                {
                    emit(
                        "wall-clock",
                        &t,
                        format!(
                            "`{}::now` outside the telemetry layer; time it with a \
                             telemetry span/histogram instead",
                            t.text
                        ),
                    );
                }
                "println" | "eprintln" | "print" | "eprint" | "dbg" if is_punct(ci + 1, '!') => {
                    emit(
                        "print-in-lib",
                        &t,
                        format!(
                            "`{}!` in a library crate; emit a telemetry event or counter \
                             so sinks control the output",
                            t.text
                        ),
                    );
                }
                "env"
                    if is_punct(ci + 1, ':')
                        && is_punct(ci + 2, ':')
                        && tok(ci + 3).is_some_and(|n| {
                            matches!(n.text, "var" | "var_os" | "vars" | "vars_os")
                        }) =>
                {
                    emit(
                        "env-read",
                        &t,
                        format!(
                            "`env::{}` in library code; environment reads belong to the \
                             CLI/config layer — accept the value as a parameter",
                            tok(ci + 3).map_or("var", |n| n.text)
                        ),
                    );
                }
                _ => {}
            }
        }
        // Float equality: `==`/`!=` with a float literal on either side.
        if let TokenKind::Punct(op @ ('=' | '!')) = t.kind {
            let second = match tok(ci + 1) {
                Some(s) => *s,
                None => continue,
            };
            let adjacent = second.kind == TokenKind::Punct('=')
                && second.line == t.line
                && second.col == t.col + 1;
            if !adjacent {
                continue;
            }
            // Exclude `<=`, `>=`, and the tail of a longer operator.
            if ci > 0
                && tok(ci - 1).is_some_and(|p| {
                    matches!(p.kind, TokenKind::Punct('<' | '>' | '=' | '!'))
                        && p.line == t.line
                        && p.col + 1 == t.col
                })
            {
                continue;
            }
            let lhs_float = ci > 0
                && tok(ci - 1).is_some_and(|p| p.kind == TokenKind::Number { is_float: true });
            let rhs_float = is_float(ci + 2);
            if lhs_float || rhs_float {
                emit(
                    "float-eq",
                    &t,
                    format!(
                        "`{}=` against a float literal in a numeric kernel; compare with \
                         a tolerance (or justify an exact sentinel with `lint:allow(float-eq)`)",
                        op
                    ),
                );
            }
        }
    }
    diags
}

/// Collects `lint:allow(rule, ...)` markers from comment tokens as
/// `(rule, line)` pairs. A marker covers every line its comment spans
/// plus the line after it, so it works both trailing the violation and
/// on the line above. Names outside [`RULES`] are ignored.
pub fn inline_allows(tokens: &[Token<'_>]) -> BTreeSet<(String, u32)> {
    const MARKER: &str = "lint:allow(";
    let mut allows = BTreeSet::new();
    for tok in tokens.iter().filter(|t| t.is_comment()) {
        let mut rest = tok.text;
        while let Some(at) = rest.find(MARKER) {
            rest = &rest[at + MARKER.len()..];
            let Some(close) = rest.find(')') else { break };
            let end_line = tok.line + tok.text.matches('\n').count() as u32;
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if !is_rule(rule) {
                    continue;
                }
                for line in tok.line..=end_line + 1 {
                    allows.insert((rule.to_string(), line));
                }
            }
            rest = &rest[close + 1..];
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, Config};

    fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(rel, src, &Config::empty())
    }

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        lint(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn panic_path_matches_calls_not_strings_or_comments() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    // a comment mentioning .unwrap() and panic!
    let msg = "strings with .expect( and panic! are fine";
    let _ = msg;
    x.unwrap()
}
"#;
        let diags = lint("crates/core/src/f.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-path");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn panic_family_macros_are_flagged() {
        let src = "fn f() { panic!(\"x\") }\nfn g() { todo!() }\nfn h() { unimplemented!() }";
        assert_eq!(
            rules_hit("crates/sim/src/x.rs", src),
            vec!["panic-path", "panic-path", "panic-path"]
        );
        // `std::panic::catch_unwind` is a path segment, not the macro.
        assert!(rules_hit(
            "crates/sim/src/x.rs",
            "use std::panic; fn f() { std::panic::catch_unwind(|| 1).ok(); }"
        )
        .is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_else(|| 1)) }";
        assert!(rules_hit("crates/core/src/f.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u32>.unwrap(); }\n}";
        assert!(rules_hit("crates/core/src/f.rs", src).is_empty());
    }

    #[test]
    fn iteration_order_scoped_to_deterministic_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }";
        assert_eq!(
            rules_hit("crates/core/src/f.rs", src),
            vec!["iteration-order"; 3]
        );
        // The simulator crate may hash freely (its maps never serialize).
        assert!(rules_hit("crates/sim/src/f.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flags_now_calls_only() {
        let used = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }";
        assert_eq!(
            rules_hit("crates/linalg/src/f.rs", used),
            vec!["wall-clock"]
        );
        assert_eq!(
            rules_hit(
                "crates/core/src/f.rs",
                "fn f() { let _ = std::time::SystemTime::now(); }"
            ),
            vec!["wall-clock"]
        );
        // The telemetry crate is the timing layer.
        assert!(rules_hit("crates/telemetry/src/span.rs", used).is_empty());
        // The live plane observes real time by design (timeouts, ETA),
        // but its output must still go through sinks and it must not
        // read the environment.
        assert!(rules_hit("crates/live/src/server.rs", used).is_empty());
        assert_eq!(
            rules_hit("crates/live/src/server.rs", "fn f() { println!(\"x\"); }"),
            vec!["print-in-lib"]
        );
        // The serving plane gets a narrower dispensation than live:
        // only its clock module may observe real time — everything
        // else in `crates/serve` must go through those types.
        assert!(rules_hit("crates/serve/src/clock.rs", used).is_empty());
        assert_eq!(
            rules_hit("crates/serve/src/server.rs", used),
            vec!["wall-clock"]
        );
        // A Duration type mention is not an observation of the clock.
        assert!(rules_hit("crates/core/src/f.rs", "fn f(d: std::time::Duration) {}").is_empty());
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        assert_eq!(
            rules_hit(
                "crates/linalg/src/f.rs",
                "fn f(a: f64) -> bool { a == 0.0 }"
            ),
            vec!["float-eq"]
        );
        assert_eq!(
            rules_hit(
                "crates/linalg/src/f.rs",
                "fn f(a: f64) -> bool { 1.5 != a }"
            ),
            vec!["float-eq"]
        );
        assert_eq!(
            rules_hit(
                "crates/linalg/src/f.rs",
                "fn f(a: f64) -> bool { a == -2.5 }"
            ),
            vec!["float-eq"]
        );
        // Integers, `<=`, `>=`, and non-numeric crates pass.
        assert!(rules_hit("crates/linalg/src/f.rs", "fn f(a: u32) -> bool { a == 0 }").is_empty());
        assert!(rules_hit(
            "crates/linalg/src/f.rs",
            "fn f(a: f64) -> bool { a <= 0.0 }"
        )
        .is_empty());
        assert!(rules_hit("crates/obs/src/f.rs", "fn f(a: f64) -> bool { a == 0.0 }").is_empty());
    }

    #[test]
    fn print_in_lib_flags_macros() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); let _ = dbg!(1); }";
        assert_eq!(
            rules_hit("crates/rbf/src/f.rs", src),
            vec!["print-in-lib"; 3]
        );
        assert!(rules_hit("crates/telemetry/src/sink.rs", src).is_empty());
    }

    #[test]
    fn env_read_flags_var_calls() {
        let src = "fn f() { let _ = std::env::var(\"PPM_THREADS\"); }";
        assert_eq!(rules_hit("crates/exec/src/lib.rs", src), vec!["env-read"]);
        // temp_dir and set_var are not reads of configuration.
        assert!(rules_hit(
            "crates/exec/src/lib.rs",
            "fn f() { let _ = std::env::temp_dir(); }"
        )
        .is_empty());
    }

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let trailing =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(panic-path): contract";
        assert!(rules_hit("crates/core/src/f.rs", trailing).is_empty());
        let above = "// lint:allow(panic-path): documented contract panic\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(rules_hit("crates/core/src/f.rs", above).is_empty());
        // Two lines away is out of range — the comment must be adjacent.
        let far =
            "// lint:allow(panic-path): too far\n\nfn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_hit("crates/core/src/f.rs", far), vec!["panic-path"]);
    }

    #[test]
    fn inline_allow_is_rule_specific() {
        let src =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(wall-clock): wrong rule";
        assert_eq!(rules_hit("crates/core/src/f.rs", src), vec!["panic-path"]);
    }

    #[test]
    fn conf_allowlist_suppresses_by_substring() {
        let conf = Config::parse("allow panic-path .expect(\"non-empty model has weights\")\n")
            .expect("valid conf");
        let src = "fn f(w: Option<u32>) -> u32 { w.expect(\"non-empty model has weights\") }";
        assert!(lint_source("crates/rbf/src/selection.rs", src, &conf).is_empty());
        let other = "fn f(w: Option<u32>) -> u32 { w.expect(\"something else\") }";
        assert_eq!(
            lint_source("crates/rbf/src/selection.rs", other, &conf).len(),
            1
        );
    }

    #[test]
    fn diagnostics_carry_positions() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}";
        let d = &lint("crates/core/src/f.rs", src)[0];
        assert_eq!((d.line, d.col), (2, 7));
        assert!(d.message.contains("unwrap"));
    }
}
