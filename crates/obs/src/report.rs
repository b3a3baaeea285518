//! The regression sentry: compares two run ledgers — a candidate
//! against a baseline — on their deterministic bodies only: held-out
//! model-error statistics and work counters.
//!
//! A fixed-seed run is deterministic by construction, so both rules are
//! fixed rather than configurable. An error statistic regresses when
//! the candidate exceeds the baseline by more than 10% plus 0.1
//! percentage point; a smaller error is headroom, never a failure.
//! Counters must match exactly: a fixed-seed counter that changed in
//! either direction means the run did different work. Stage wall and
//! CPU times stay in the ledger header for observability but are not
//! compared: on a shared host they vary by more than any budget that
//! would still catch a real slowdown.

use std::fmt;
use std::fmt::Write as _;

use ppm_telemetry::Json;

/// An error statistic regresses above `baseline * MAX_ERROR_RATIO +
/// ERROR_SLACK_PP`.
const MAX_ERROR_RATIO: f64 = 1.10;

/// Absolute slack in percentage points on top of the error ratio, so
/// near-zero baselines do not trip on rounding.
const ERROR_SLACK_PP: f64 = 0.1;

/// What kind of quantity a [`Finding`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingCategory {
    /// A model-error statistic from the body diagnostics.
    Error,
    /// A deterministic counter from the body metrics.
    Counter,
}

impl FindingCategory {
    fn label(self) -> &'static str {
        match self {
            FindingCategory::Error => "error",
            FindingCategory::Counter => "counter",
        }
    }
}

/// One compared quantity.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What kind of quantity this is.
    pub category: FindingCategory,
    /// Name of the stage / statistic / counter.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// `candidate / baseline` (1.0 when the baseline is zero and the
    /// candidate matches it; infinite when it does not).
    pub ratio: f64,
    /// The threshold this finding was judged against, as a ratio.
    pub limit: f64,
    /// Whether the candidate is worse than the threshold allows.
    pub regressed: bool,
}

/// The sentry's verdict over all compared quantities.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every compared quantity, regressed or not, in comparison order.
    pub findings: Vec<Finding>,
    /// Quantities present in only one ledger (named, with which side).
    pub unmatched: Vec<String>,
}

impl Report {
    /// Whether any finding regressed.
    pub fn regressed(&self) -> bool {
        self.findings.iter().any(|f| f.regressed)
    }

    /// Only the regressed findings.
    pub fn regressions(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.regressed)
    }

    /// A fixed-width human-readable table with a one-line verdict.
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<7} {:<34} {:>14} {:>14} {:>8} {:>8}  verdict",
            "kind", "name", "baseline", "candidate", "ratio", "limit"
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{:<7} {:<34} {:>14} {:>14} {:>8} {:>8}  {}",
                f.category.label(),
                f.name,
                fmt_value(f.baseline),
                fmt_value(f.candidate),
                fmt_ratio(f.ratio),
                fmt_ratio(f.limit),
                if f.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "note    {name} (present in only one ledger; skipped)");
        }
        let n = self.regressions().count();
        if n == 0 {
            let _ = writeln!(
                out,
                "verdict: OK ({} quantities compared)",
                self.findings.len()
            );
        } else {
            let _ = writeln!(
                out,
                "verdict: REGRESSED ({n} of {} quantities)",
                self.findings.len()
            );
        }
        out
    }

    /// The machine-readable form for `ppm report --json-out`.
    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::obj([
                    ("category", Json::from(f.category.label())),
                    ("name", Json::from(f.name.as_str())),
                    ("baseline", Json::Float(f.baseline)),
                    ("candidate", Json::Float(f.candidate)),
                    ("ratio", Json::Float(f.ratio)),
                    ("limit", Json::Float(f.limit)),
                    ("regressed", Json::Bool(f.regressed)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::from("ppm-report v1")),
            ("regressed", Json::Bool(self.regressed())),
            ("findings", Json::Arr(findings)),
            (
                "unmatched",
                Json::Arr(
                    self.unmatched
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A structural problem that prevents comparing two ledgers at all
/// (as opposed to a regression, which is a successful comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError(pub String);

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot compare ledgers: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

/// Compares a candidate ledger document against a baseline.
///
/// Two families of quantities from the deterministic body are diffed:
///
/// * error statistics (numeric `_pct` fields of `diagnostics` and of
///   its nested objects such as `holdout`, plus the worst region
///   residual), judged against `baseline × 1.10 + 0.1` percentage point;
/// * counters (`metrics` entries of kind `counter`), which must match
///   exactly.
///
/// Stage timings in the header are not read. Quantities present in only
/// one document are listed in [`Report::unmatched`] and do not regress —
/// a new counter is a code change, not a regression.
///
/// # Errors
///
/// [`ReportError`] when either document lacks `body.command`, the two
/// commands differ, or the ledgers share no error statistic or counter
/// (an empty comparison would be a vacuous pass).
pub fn compare(baseline: &Json, candidate: &Json) -> Result<Report, ReportError> {
    let mut report = Report::default();

    let base_cmd = command_of(baseline)?;
    let cand_cmd = command_of(candidate)?;
    if base_cmd != cand_cmd {
        return Err(ReportError(format!(
            "command mismatch: baseline ran {base_cmd:?}, candidate ran {cand_cmd:?}"
        )));
    }

    let errors = pair_up(
        "error",
        error_stats(baseline),
        error_stats(candidate),
        &mut report.unmatched,
    );
    for (name, base, cand) in errors {
        report.findings.push(Finding {
            category: FindingCategory::Error,
            name,
            baseline: base,
            candidate: cand,
            ratio: ratio(base, cand),
            limit: MAX_ERROR_RATIO,
            regressed: cand > base * MAX_ERROR_RATIO + ERROR_SLACK_PP,
        });
    }

    let counters = pair_up(
        "counter",
        counters(baseline),
        counters(candidate),
        &mut report.unmatched,
    );
    for (name, base, cand) in counters {
        report.findings.push(Finding {
            category: FindingCategory::Counter,
            name,
            baseline: base as f64,
            candidate: cand as f64,
            ratio: ratio(base as f64, cand as f64),
            limit: 1.0,
            regressed: cand != base,
        });
    }

    if report.findings.is_empty() {
        return Err(ReportError(
            "no comparable quantities: the ledgers share no error statistic or counter".to_string(),
        ));
    }
    Ok(report)
}

/// Matches quantities by name, in baseline order, as `(name, baseline,
/// candidate)`; names found on one side only are noted in `unmatched`.
fn pair_up<T>(
    kind: &str,
    base: Vec<(String, T)>,
    mut cand: Vec<(String, T)>,
    unmatched: &mut Vec<String>,
) -> Vec<(String, T, T)> {
    let mut pairs = Vec::new();
    for (name, b) in base {
        match cand.iter().position(|(n, _)| *n == name) {
            Some(i) => {
                let (_, c) = cand.remove(i);
                pairs.push((name, b, c));
            }
            None => unmatched.push(format!("{kind} {name} (baseline only)")),
        }
    }
    for (name, _) in cand {
        unmatched.push(format!("{kind} {name} (candidate only)"));
    }
    pairs
}

/// `candidate / baseline`: 1 when both are zero, infinite when only the
/// baseline is.
fn ratio(base: f64, cand: f64) -> f64 {
    if base == 0.0 {
        if cand == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cand / base
    }
}

fn command_of(doc: &Json) -> Result<String, ReportError> {
    doc.get("body")
        .and_then(|b| b.get("command"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ReportError("missing body.command".to_string()))
}

/// Numeric `_pct` fields from `body.diagnostics`, flattened one level:
/// top-level fields keep their name, nested objects (e.g. `holdout`)
/// prefix it (`holdout.mean_pct`). Region residuals are summarized by
/// their maximum `mean_abs_pct` rather than matched per-leaf — leaf
/// numbering shifts when the tree changes shape.
fn error_stats(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(diag) = doc.get("body").and_then(|b| b.get("diagnostics")) else {
        return out;
    };
    let Some(entries) = diag.as_obj() else {
        return out;
    };
    for (key, value) in entries {
        if key.ends_with("_pct") {
            if let Some(v) = value.as_f64() {
                out.push((key.clone(), v));
            }
        } else if key == "regions" {
            let worst = value
                .as_arr()
                .into_iter()
                .flatten()
                .filter_map(|r| r.get("mean_abs_pct").and_then(Json::as_f64))
                .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))));
            if let Some(w) = worst {
                out.push(("regions.worst_mean_abs_pct".to_string(), w));
            }
        } else if let Some(nested) = value.as_obj() {
            for (nk, nv) in nested {
                if nk.ends_with("_pct") {
                    if let Some(v) = nv.as_f64() {
                        out.push((format!("{key}.{nk}"), v));
                    }
                }
            }
        }
    }
    out
}

fn counters(doc: &Json) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let metrics = doc
        .get("body")
        .and_then(|b| b.get("metrics"))
        .and_then(Json::as_arr);
    if let Some(metrics) = metrics {
        for m in metrics {
            if m.get("kind").and_then(Json::as_str) == Some("counter") {
                if let (Some(name), Some(v)) = (
                    m.get("name").and_then(Json::as_str),
                    m.get("value").and_then(Json::as_i64),
                ) {
                    out.push((name.to_string(), v.max(0) as u64));
                }
            }
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn fmt_ratio(r: f64) -> String {
    if r.is_finite() {
        format!("{r:.3}")
    } else {
        "inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_doc(stage_us: u64, mean_pct: f64, counter: u64) -> Json {
        let text = format!(
            r#"{{
              "header": {{
                "schema": "ppm-ledger v1",
                "run_id": "build-7-x",
                "created_unix_ms": 0,
                "timings": {{
                  "total_wall_us": {stage_us},
                  "total_cpu_us": null,
                  "stages": [
                    {{"name": "stage.rbf_train", "wall_us": {stage_us}, "cpu_us": null}},
                    {{"name": "stage.blip", "wall_us": 40, "cpu_us": null}}
                  ]
                }}
              }},
              "body": {{
                "schema": "ppm-ledger v1",
                "command": "build",
                "args": {{"--seed": "7"}},
                "env": {{}},
                "metrics": [
                  {{"kind": "counter", "name": "sim.batch_points", "value": {counter}}}
                ],
                "diagnostics": {{
                  "holdout": {{"mean_pct": {mean_pct}, "max_pct": {max_pct}}},
                  "regions": [
                    {{"leaf": 0, "count": 10, "mean_abs_pct": 1.5, "max_abs_pct": 4.0}},
                    {{"leaf": 2, "count": 12, "mean_abs_pct": 2.5, "max_abs_pct": 6.0}}
                  ],
                  "aicc": -12.0
                }}
              }}
            }}"#,
            max_pct = mean_pct * 3.0,
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn self_compare_is_clean() {
        let doc = ledger_doc(100_000, 2.0, 40);
        let report = compare(&doc, &doc).unwrap();
        assert!(!report.regressed(), "{}", report.human_table());
        assert!(report
            .findings
            .iter()
            .any(|f| f.name == "regions.worst_mean_abs_pct" && f.baseline == 2.5));
        assert!(report.unmatched.is_empty());
    }

    #[test]
    fn stage_times_are_ignored() {
        let base = ledger_doc(100_000, 2.0, 40);
        let slow = ledger_doc(1_000_000, 2.0, 40);
        for (a, b) in [(&base, &slow), (&slow, &base)] {
            let report = compare(a, b).unwrap();
            assert!(!report.regressed(), "{}", report.human_table());
            assert!(!report.findings.iter().any(|f| f.name.starts_with("stage.")));
        }
        // A renamed or missing stage is not even noted.
        let text = base
            .dump()
            .replace("stage.rbf_train", "stage.renamed_train");
        let report = compare(&base, &Json::parse(&text).unwrap()).unwrap();
        assert!(report.unmatched.is_empty(), "{:?}", report.unmatched);
    }

    #[test]
    fn error_growth_regresses_past_ratio_plus_slack() {
        let base = ledger_doc(100_000, 2.0, 40);
        // 2.0 * 1.10 + 0.1 = 2.3 percentage points is the limit.
        let worse = ledger_doc(100_000, 2.35, 40);
        let report = compare(&base, &worse).unwrap();
        assert!(report
            .regressions()
            .any(|f| f.name == "holdout.mean_pct" && f.category == FindingCategory::Error));
        let ok = ledger_doc(100_000, 2.2, 40);
        let report = compare(&base, &ok).unwrap();
        assert!(!report.regressed(), "{}", report.human_table());
        // A lower error is headroom, never a failure.
        let better = ledger_doc(100_000, 0.5, 40);
        assert!(!compare(&base, &better).unwrap().regressed());
    }

    #[test]
    fn counter_drift_regresses_in_both_directions() {
        let base = ledger_doc(100_000, 2.0, 40);
        for doctored in [39, 41] {
            let cand = ledger_doc(100_000, 2.0, doctored);
            let report = compare(&base, &cand).unwrap();
            let regressed: Vec<_> = report.regressions().collect();
            assert_eq!(regressed.len(), 1);
            assert_eq!(regressed[0].name, "sim.batch_points");
            assert_eq!(regressed[0].category, FindingCategory::Counter);
        }
    }

    #[test]
    fn command_mismatch_is_an_error_not_a_regression() {
        let base = ledger_doc(100_000, 2.0, 40);
        let text = base.dump().replace("\"build\"", "\"simulate\"");
        let other = Json::parse(&text).unwrap();
        let err = compare(&base, &other).unwrap_err();
        assert!(err.to_string().contains("command mismatch"));
    }

    #[test]
    fn ledgers_without_counters_or_diagnostics_are_an_error() {
        let text = r#"{
          "header": {"timings": {"stages": [{"name": "stage.rbf_train", "wall_us": 9}]}},
          "body": {"command": "build", "metrics": [], "diagnostics": null}
        }"#;
        let doc = Json::parse(text).unwrap();
        let err = compare(&doc, &doc).unwrap_err();
        assert!(
            err.to_string().contains("no comparable quantities"),
            "{err}"
        );
    }

    #[test]
    fn unmatched_quantities_are_noted_not_failed() {
        let base = ledger_doc(100_000, 2.0, 40);
        let text = base
            .dump()
            .replace("sim.batch_points", "sim.renamed_points");
        let cand = Json::parse(&text).unwrap();
        let report = compare(&base, &cand).unwrap();
        assert!(!report.regressed());
        assert_eq!(
            report.unmatched,
            [
                "counter sim.batch_points (baseline only)",
                "counter sim.renamed_points (candidate only)"
            ]
        );
    }

    #[test]
    fn table_and_json_agree_on_verdict() {
        let base = ledger_doc(100_000, 2.0, 40);
        let drifted = ledger_doc(100_000, 2.0, 41);
        let report = compare(&base, &drifted).unwrap();
        assert!(report.human_table().contains("verdict: REGRESSED"));
        let json = report.to_json();
        assert_eq!(json.get("regressed"), Some(&Json::Bool(true)));
    }
}
