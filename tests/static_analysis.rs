//! Integration tests for `ppm lint` and its two rule families: token
//! rules and cross-crate semantic rules. Golden diagnostics on seeded
//! fixtures, a firing for every rule, the CLI exit-code contract, and
//! the self-scan gate asserting this workspace is violation-free.

mod common;

use std::path::Path;

use common::scratch;
use ppm::cli::{CliError, Parsed};
use ppm_lint::rules::RULES;
use ppm_lint::{lint_source, lint_workspace, Config};
use ppm_telemetry::Json;

/// A fixture with exactly one violation per rule, at a path where every
/// rule is in scope. `crates/firstorder` is in the deterministic, the
/// numeric, and (as a non-telemetry library crate) the wall-clock,
/// print, and env scopes at once.
const SEEDED: &str = r#"
use std::collections::HashMap;

pub fn broken(x: Option<f64>) -> f64 {
    let m: HashMap<u32, f64> = std::collections::HashMap::new();
    let t = std::time::Instant::now();
    println!("elapsed {:?}", t.elapsed());
    let v = std::env::var("PPM_FIXTURE").unwrap_or_default();
    if x.unwrap() == 0.5 {
        return m.len() as f64 + v.len() as f64;
    }
    panic!("unreachable")
}
"#;

const SEEDED_PATH: &str = "crates/firstorder/src/seeded.rs";

#[test]
fn every_rule_fires_on_the_seeded_fixture() {
    let diags = lint_source(SEEDED_PATH, SEEDED, &Config::empty());
    let mut fired: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    fired.sort_unstable();
    fired.dedup();
    assert_eq!(
        fired,
        vec![
            "env-read",
            "float-eq",
            "iteration-order",
            "panic-path",
            "print-in-lib",
            "wall-clock",
        ],
        "full diagnostics: {diags:#?}"
    );
}

#[test]
fn seeded_fixture_diagnostics_are_golden() {
    let diags = lint_source(SEEDED_PATH, SEEDED, &Config::empty());
    let rendered: Vec<String> = diags
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.path, d.line, d.col, d.rule))
        .collect();
    assert_eq!(
        rendered,
        vec![
            "crates/firstorder/src/seeded.rs:2:23 iteration-order",
            "crates/firstorder/src/seeded.rs:5:12 iteration-order",
            "crates/firstorder/src/seeded.rs:5:50 iteration-order",
            "crates/firstorder/src/seeded.rs:6:24 wall-clock",
            "crates/firstorder/src/seeded.rs:7:5 print-in-lib",
            "crates/firstorder/src/seeded.rs:8:18 env-read",
            "crates/firstorder/src/seeded.rs:9:19 float-eq",
            "crates/firstorder/src/seeded.rs:9:10 panic-path",
            "crates/firstorder/src/seeded.rs:12:5 panic-path",
        ],
        "full diagnostics: {diags:#?}"
    );
    // Diagnostics arrive in (line, rule, col) order and carry
    // actionable messages.
    assert!(
        diags[0].message.contains("BTreeMap"),
        "{}",
        diags[0].message
    );
}

#[test]
fn test_code_in_the_fixture_is_exempt() {
    let in_test = format!(
        "#[cfg(test)]\nmod tests {{\n{}\n}}\n",
        SEEDED.replace("pub fn", "fn")
    );
    let diags = lint_source(SEEDED_PATH, &in_test, &Config::empty());
    assert!(diags.is_empty(), "{diags:#?}");
}

fn write(root: &Path, rel: &str, text: &str) {
    let full = root.join(rel);
    std::fs::create_dir_all(full.parent().expect("parent")).expect("mkdir");
    std::fs::write(full, text).expect("write fixture");
}

fn run_cli(args: &[&str]) -> (String, Result<(), CliError>) {
    let parsed = Parsed::parse(args.iter().map(|s| s.to_string())).expect("args parse");
    let mut out = String::new();
    let result = ppm::cli::run(&parsed, &mut out);
    (out, result)
}

#[test]
fn cli_lint_exits_6_on_a_seeded_violation_and_0_when_fixed() {
    let root = scratch("exit");
    write(&root, SEEDED_PATH, SEEDED);
    let root_s = root.to_string_lossy().into_owned();

    let (out, result) = run_cli(&["lint", "--root", &root_s]);
    let err = result.expect_err("violations must fail the command");
    match &err {
        CliError::Lint(n) => assert_eq!(*n, 9, "{out}"),
        other => panic!("expected CliError::Lint, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 6);
    assert!(out.contains("panic-path"), "{out}");

    // The same tree with the violation file replaced is clean.
    write(&root, SEEDED_PATH, "pub fn fine() -> u32 { 7 }\n");
    let (out, result) = run_cli(&["lint", "--root", &root_s]);
    result.expect("clean tree must pass");
    assert!(out.contains("0 finding(s)"), "{out}");
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn cli_lint_json_is_parseable_and_complete() {
    let root = scratch("json");
    write(&root, SEEDED_PATH, SEEDED);
    let root_s = root.to_string_lossy().into_owned();

    let (out, result) = run_cli(&["lint", "--root", &root_s, "--format", "json"]);
    assert_eq!(result.expect_err("seeded violations").exit_code(), 6);
    let json = Json::parse(out.trim()).expect("valid JSON on stdout");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("ppm-lint v2")
    );
    assert_eq!(json.get("clean"), Some(&Json::Bool(false)));
    assert_eq!(json.get("files_scanned").and_then(Json::as_i64), Some(1));
    let diags = match json.get("diagnostics") {
        Some(Json::Arr(items)) => items,
        other => panic!("diagnostics not an array: {other:?}"),
    };
    assert_eq!(diags.len(), 9);
    for d in diags {
        for key in ["rule", "path", "line", "col", "message"] {
            assert!(d.get(key).is_some(), "diagnostic missing {key}: {d:?}");
        }
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn cli_lint_rejects_unknown_format_and_bad_conf() {
    let root = scratch("badargs");
    write(&root, "crates/core/src/lib.rs", "pub fn ok() {}\n");
    let root_s = root.to_string_lossy().into_owned();

    let (_, result) = run_cli(&["lint", "--root", &root_s, "--format", "xml"]);
    assert_eq!(result.expect_err("unknown format").exit_code(), 2);

    let (_, result) = run_cli(&["lint", "--root", &root_s, "--rule", "nonsense"]);
    let err = result.expect_err("unknown rule");
    assert_eq!(err.exit_code(), 2);
    for rule in RULES {
        assert!(err.to_string().contains(rule.name), "{err}");
    }

    write(&root, "bad.conf", "allow not-a-rule something\n");
    let conf = root.join("bad.conf").to_string_lossy().into_owned();
    let (_, result) = run_cli(&["lint", "--root", &root_s, "--conf", &conf]);
    assert_eq!(result.expect_err("bad conf").exit_code(), 4);
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// The self-scan gate: the workspace itself has zero findings under
/// either rule family with its checked-in allowlist.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let conf = Config::load(&root.join("scripts").join("lint.conf")).expect("lint.conf loads");
    let report = lint_workspace(root, &conf).expect("workspace scan");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let rendered = report.render_human();
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{rendered}"
    );
}

// ---------------------------------------------------------------------
// The semantic rule family.
// ---------------------------------------------------------------------

/// One seeded violation per semantic rule: `(rule, path, source)`.
/// Each source is minimal enough to trip exactly its own rule.
const SEMANTIC_SEEDS: &[(&str, &str, &str)] = &[
    (
        "lock-order",
        "crates/serve/src/seeded_locks.rs",
        r#"pub fn double_lock(s: &S) {
    let g = s.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = s.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (g, h);
}
"#,
    ),
    (
        "atomic-ordering",
        "crates/serve/src/seeded_atomics.rs",
        r#"pub fn publish(s: &S) {
    s.flag.store(1, Ordering::SeqCst);
}
"#,
    ),
    (
        "panic-reachability",
        "crates/serve/src/seeded_panics.rs",
        r#"pub fn start() {
    std::thread::spawn(move || {
        let v: Option<u32> = None;
        let _ = v.unwrap(); // lint:allow(panic-path): seeded for reachability
    });
}
"#,
    ),
    (
        "wire-format",
        "crates/serve/src/seeded_wire.rs",
        r#"pub fn schema() -> &'static str {
    "ppm-bogus v9"
}
"#,
    ),
    (
        "exit-code",
        "src/cli/commands.rs",
        r#"pub enum CliError { Args(String), Sim(String), Lint(usize) }
impl CliError {
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) => 2,
            CliError::Sim(_) => 3,
            CliError::Lint(_) => 6,
        }
    }
}
"#,
    ),
];

/// The usage text companion for the exit-code seed: documents a ghost
/// code 9 that no variant produces.
const SEEDED_USAGE: &str = r#"pub const USAGE: &str = "ppm <command>

EXIT CODES:
  0 success    2 usage
  3 simulation 6 lint
  9 ghost

";
"#;

/// Writes the seeded fixture for `rule` under `root`: the shared token
/// fixture for a token rule, or the rule's own semantic seed.
fn write_seed(root: &Path, rule: &str) {
    match SEMANTIC_SEEDS.iter().find(|(r, _, _)| *r == rule) {
        Some((_, rel, src)) => {
            write(root, rel, src);
            if rule == "exit-code" {
                write(root, "src/cli/mod.rs", SEEDED_USAGE);
            }
        }
        None => write(root, SEEDED_PATH, SEEDED),
    }
}

#[test]
fn cli_lint_exits_6_on_each_seeded_rule() {
    for rule in RULES.map(|r| r.name) {
        let root = scratch(&format!("seed-{rule}"));
        write_seed(&root, rule);
        let root_s = root.to_string_lossy().into_owned();

        let (out, result) = run_cli(&["lint", "--root", &root_s, "--rule", rule]);
        let err = result.expect_err("seeded violation must fail the command");
        match &err {
            CliError::Lint(n) => assert!(*n > 0, "{rule}: {out}"),
            other => panic!("{rule}: expected CliError::Lint, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 6, "{rule}");
        let findings: Vec<&str> = out
            .lines()
            .filter(|l| !l.starts_with("ppm-lint:"))
            .collect();
        assert!(
            !findings.is_empty() && findings.iter().all(|l| l.contains(&format!(": {rule}: "))),
            "{rule}: --rule must report that rule only:\n{out}"
        );

        // Scoping to a rule the seed does not trip silences it (exit 0).
        let other_rule = if rule == "wire-format" {
            "lock-order"
        } else {
            "wire-format"
        };
        let (out, result) = run_cli(&["lint", "--root", &root_s, "--rule", other_rule]);
        result
            .unwrap_or_else(|e| panic!("{rule}: --rule {other_rule} must pass, got {e:?}\n{out}"));
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}

#[test]
fn analyze_seeded_tree_diagnostics_are_golden() {
    let root = scratch("semantic-golden");
    for (rule, _, _) in SEMANTIC_SEEDS {
        write_seed(&root, rule);
    }
    let report = lint_workspace(&root, &Config::empty()).expect("lint");
    let rendered: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.path, d.line, d.col, d.rule))
        .collect();
    assert_eq!(
        rendered,
        vec![
            "crates/serve/src/seeded_atomics.rs:2:12 atomic-ordering",
            "crates/serve/src/seeded_locks.rs:3:21 lock-order",
            "crates/serve/src/seeded_panics.rs:4:19 panic-reachability",
            "crates/serve/src/seeded_wire.rs:2:5 wire-format",
            "src/cli/mod.rs:3:1 exit-code",
        ],
        "full diagnostics: {:#?}",
        report.diagnostics
    );
    std::fs::remove_dir_all(&root).expect("cleanup");
}
