//! The regression sentry: compares two run ledgers — a candidate
//! against a baseline — and flags stage-time blowups, model-error
//! growth, and counter drift against configurable thresholds.
//!
//! The comparison is deliberately asymmetric: only changes *for the
//! worse* regress (slower stages, larger errors). Faster/smaller is
//! reported as headroom, never as a failure — a sentry that fails on
//! improvement trains people to stop running it.

use std::fmt;
use std::fmt::Write as _;

use ppm_telemetry::Json;

/// Regression thresholds; [`Thresholds::default`] gives the values
/// used by `scripts/verify.sh`.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// A stage regresses when `candidate_wall > baseline_wall *
    /// max_stage_ratio` (default 2.0 — wall time is noisy in CI).
    pub max_stage_ratio: f64,
    /// Stages faster than this (in both runs) are ignored entirely —
    /// sub-millisecond stages are pure scheduling jitter.
    pub min_stage_us: u64,
    /// An error statistic regresses when `candidate > baseline *
    /// max_error_ratio + error_slack_pp`.
    pub max_error_ratio: f64,
    /// Absolute slack in percentage points added on top of the error
    /// ratio, so near-zero baselines don't trip on rounding.
    pub error_slack_pp: f64,
    /// Allowed relative drift for deterministic counters (default 0.0:
    /// fixed-seed counters must match exactly).
    pub counter_tol: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            max_stage_ratio: 2.0,
            min_stage_us: 1_000,
            max_error_ratio: 1.10,
            error_slack_pp: 0.1,
            counter_tol: 0.0,
        }
    }
}

/// What kind of quantity a [`Finding`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingCategory {
    /// A stage wall time from the ledger header.
    Stage,
    /// A model-error statistic from the body diagnostics.
    Error,
    /// A deterministic counter from the body metrics.
    Counter,
}

impl FindingCategory {
    fn label(self) -> &'static str {
        match self {
            FindingCategory::Stage => "stage",
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
/// Three families of quantities are diffed:
///
/// * header stage wall times (`timings.stages[].wall_us`),
/// * body diagnostics error statistics (any numeric field of
///   `diagnostics.holdout` whose name ends in `_pct`, plus
///   `diagnostics` numeric fields ending in `_pct`),
/// * body counters (exact match by default).
///
/// Quantities present in only one document are listed in
/// [`Report::unmatched`] and do not regress — a new stage or counter
/// is a code change, not a performance regression.
///
/// # Errors
///
/// [`ReportError`] when either document is structurally unusable
/// (missing blocks, no commands, non-numeric values where numbers are
/// required).
pub fn compare(baseline: &Json, candidate: &Json, t: &Thresholds) -> Result<Report, ReportError> {
    let mut report = Report::default();

    let base_cmd = command_of(baseline)?;
    let cand_cmd = command_of(candidate)?;
    if base_cmd != cand_cmd {
        return Err(ReportError(format!(
            "command mismatch: baseline ran {base_cmd:?}, candidate ran {cand_cmd:?}"
        )));
    }

    // Stage wall times (header block).
    let base_stages = stage_walls(baseline);
    let cand_stages = stage_walls(candidate);
    for (name, base_us) in &base_stages {
        match cand_stages.iter().find(|(n, _)| n == name) {
            Some((_, cand_us)) => {
                if *base_us < t.min_stage_us && *cand_us < t.min_stage_us {
                    continue;
                }
                let (ratio, regressed) =
                    judge_ratio(*base_us as f64, *cand_us as f64, t.max_stage_ratio, 0.0);
                report.findings.push(Finding {
                    category: FindingCategory::Stage,
                    name: name.clone(),
                    baseline: *base_us as f64,
                    candidate: *cand_us as f64,
                    ratio,
                    limit: t.max_stage_ratio,
                    regressed,
                });
            }
            None => report
                .unmatched
                .push(format!("stage {name} (baseline only)")),
        }
    }
    for (name, _) in &cand_stages {
        if !base_stages.iter().any(|(n, _)| n == name) {
            report
                .unmatched
                .push(format!("stage {name} (candidate only)"));
        }
    }

    // Error statistics (body diagnostics).
    let base_errs = error_stats(baseline);
    let cand_errs = error_stats(candidate);
    for (name, base_v) in &base_errs {
        match cand_errs.iter().find(|(n, _)| n == name) {
            Some((_, cand_v)) => {
                let (ratio, regressed) =
                    judge_ratio(*base_v, *cand_v, t.max_error_ratio, t.error_slack_pp);
                report.findings.push(Finding {
                    category: FindingCategory::Error,
                    name: name.clone(),
                    baseline: *base_v,
                    candidate: *cand_v,
                    ratio,
                    limit: t.max_error_ratio,
                    regressed,
                });
            }
            None => report
                .unmatched
                .push(format!("error {name} (baseline only)")),
        }
    }
    for (name, _) in &cand_errs {
        if !base_errs.iter().any(|(n, _)| n == name) {
            report
                .unmatched
                .push(format!("error {name} (candidate only)"));
        }
    }

    // Deterministic counters (body metrics). Drift in either direction
    // beyond the tolerance regresses: a fixed-seed counter that merely
    // *changed* means the run did different work than the baseline.
    let base_ctrs = counters(baseline);
    let cand_ctrs = counters(candidate);
    for (name, base_v) in &base_ctrs {
        match cand_ctrs.iter().find(|(n, _)| n == name) {
            Some((_, cand_v)) => {
                let base_f = *base_v as f64;
                let cand_f = *cand_v as f64;
                let ratio = if base_f == 0.0 {
                    if cand_f == 0.0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    cand_f / base_f
                };
                let drift = (cand_f - base_f).abs() / base_f.max(1.0);
                report.findings.push(Finding {
                    category: FindingCategory::Counter,
                    name: name.clone(),
                    baseline: base_f,
                    candidate: cand_f,
                    ratio,
                    limit: 1.0 + t.counter_tol,
                    regressed: drift > t.counter_tol,
                });
            }
            None => report
                .unmatched
                .push(format!("counter {name} (baseline only)")),
        }
    }
    for (name, _) in &cand_ctrs {
        if !base_ctrs.iter().any(|(n, _)| n == name) {
            report
                .unmatched
                .push(format!("counter {name} (candidate only)"));
        }
    }

    if report.findings.is_empty() {
        return Err(ReportError(
            "no comparable quantities: both ledgers lack stages, diagnostics, and counters"
                .to_string(),
        ));
    }
    Ok(report)
}

/// `candidate/baseline` plus the worse-than-allowed verdict; `slack`
/// is absolute headroom added to the scaled baseline.
fn judge_ratio(base: f64, cand: f64, max_ratio: f64, slack: f64) -> (f64, bool) {
    let ratio = if base == 0.0 {
        if cand == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cand / base
    };
    (ratio, cand > base * max_ratio + slack)
}

fn command_of(doc: &Json) -> Result<String, ReportError> {
    doc.get("body")
        .and_then(|b| b.get("command"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ReportError("missing body.command".to_string()))
}

fn stage_walls(doc: &Json) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let stages = doc
        .get("header")
        .and_then(|h| h.get("timings"))
        .and_then(|t| t.get("stages"))
        .and_then(Json::as_arr);
    if let Some(stages) = stages {
        for s in stages {
            if let (Some(name), Some(us)) = (
                s.get("name").and_then(Json::as_str),
                s.get("wall_us").and_then(Json::as_i64),
            ) {
                out.push((name.to_string(), us.max(0) as u64));
            }
        }
    }
    out
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
        let report = compare(&doc, &doc, &Thresholds::default()).unwrap();
        assert!(!report.regressed(), "{}", report.human_table());
        // stage.blip sits below min_stage_us and must be skipped.
        assert!(!report.findings.iter().any(|f| f.name == "stage.blip"));
        assert!(report
            .findings
            .iter()
            .any(|f| f.name == "regions.worst_mean_abs_pct" && f.baseline == 2.5));
        assert!(report.unmatched.is_empty());
    }

    #[test]
    fn slow_stage_regresses_but_fast_stage_does_not() {
        let base = ledger_doc(100_000, 2.0, 40);
        let slow = ledger_doc(250_000, 2.0, 40);
        let report = compare(&base, &slow, &Thresholds::default()).unwrap();
        let stage: Vec<_> = report.regressions().collect();
        assert_eq!(stage.len(), 1);
        assert_eq!(stage[0].name, "stage.rbf_train");
        assert_eq!(stage[0].category, FindingCategory::Stage);
        // The improvement direction never fails.
        let report = compare(&slow, &base, &Thresholds::default()).unwrap();
        assert!(!report.regressed());
    }

    #[test]
    fn error_growth_regresses_past_ratio_plus_slack() {
        let base = ledger_doc(100_000, 2.0, 40);
        let worse = ledger_doc(100_000, 2.5, 40);
        let report = compare(&base, &worse, &Thresholds::default()).unwrap();
        assert!(report
            .regressions()
            .any(|f| f.name == "holdout.mean_pct" && f.category == FindingCategory::Error));
        // Within ratio*1.10 + 0.1pp slack: fine.
        let ok = ledger_doc(100_000, 2.2, 40);
        let report = compare(&base, &ok, &Thresholds::default()).unwrap();
        assert!(!report
            .regressions()
            .any(|f| f.category == FindingCategory::Error));
    }

    #[test]
    fn counter_drift_regresses_in_both_directions() {
        let base = ledger_doc(100_000, 2.0, 40);
        for doctored in [39, 41] {
            let cand = ledger_doc(100_000, 2.0, doctored);
            let report = compare(&base, &cand, &Thresholds::default()).unwrap();
            assert!(report
                .regressions()
                .any(|f| f.category == FindingCategory::Counter));
        }
        let tolerant = Thresholds {
            counter_tol: 0.05,
            ..Thresholds::default()
        };
        let cand = ledger_doc(100_000, 2.0, 41);
        let report = compare(&base, &cand, &tolerant).unwrap();
        assert!(!report.regressed());
    }

    #[test]
    fn command_mismatch_is_an_error_not_a_regression() {
        let base = ledger_doc(100_000, 2.0, 40);
        let text = base.dump().replace("\"build\"", "\"simulate\"");
        let other = Json::parse(&text).unwrap();
        let err = compare(&base, &other, &Thresholds::default()).unwrap_err();
        assert!(err.to_string().contains("command mismatch"));
    }

    #[test]
    fn unmatched_quantities_are_noted_not_failed() {
        let base = ledger_doc(100_000, 2.0, 40);
        let text = base
            .dump()
            .replace("stage.rbf_train", "stage.renamed_train")
            .replace("sim.batch_points", "sim.renamed_points");
        let cand = Json::parse(&text).unwrap();
        let report = compare(&base, &cand, &Thresholds::default()).unwrap();
        assert!(!report.regressed());
        assert_eq!(report.unmatched.len(), 4, "{:?}", report.unmatched);
    }

    #[test]
    fn table_and_json_agree_on_verdict() {
        let base = ledger_doc(100_000, 2.0, 40);
        let slow = ledger_doc(300_000, 2.0, 40);
        let report = compare(&base, &slow, &Thresholds::default()).unwrap();
        assert!(report.human_table().contains("verdict: REGRESSED"));
        let json = report.to_json();
        assert_eq!(json.get("regressed"), Some(&Json::Bool(true)));
    }
}
