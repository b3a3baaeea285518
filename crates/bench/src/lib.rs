//! Shared infrastructure for the paper-reproduction harnesses.
//!
//! Each example of this crate regenerates one table or figure of the
//! paper (see DESIGN.md for the index). Run one with
//!
//! ```text
//! cargo run --release -p ppm-experiments --example table3_error_diagnostics
//! ```
//!
//! Every accuracy number goes through one path on [`Scale`]: the
//! Table 1 builder for a sample size ([`Scale::builder`],
//! [`Scale::build`], [`Scale::sample`]), one strict simulation call
//! ([`Scale::simulate`]), the §3 Table 2 holdout ([`Scale::holdout`],
//! the builder's [`RbfModelBuilder::holdout`], which depends only on
//! the seed, so one holdout serves every sample size), and the scoring
//! of any predictor against it ([`Holdout::score`]).
//!
//! By default the harnesses run at a *reduced scale* (shorter traces,
//! smaller samples) so the whole suite completes in minutes; set
//! `PPM_FULL=1` for paper-scale runs. Simulation uses `PPM_THREADS`
//! workers (default: the available parallelism); results do not depend
//! on it. Every harness prints a markdown table to stdout and writes the
//! same data as CSV under `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use ppm_core::builder::{BuildConfig, BuiltModel, Holdout, RbfModelBuilder};
use ppm_core::response::{eval_batch, Response, SimulatorResponse};
use ppm_core::space::DesignSpace;
use ppm_rbf::RbfTrainer;
use ppm_workload::Benchmark;

/// Experiment scale, controlled by the `PPM_FULL` environment variable.
#[derive(Debug, Clone)]
pub struct Scale {
    /// True when `PPM_FULL=1`.
    pub full: bool,
    /// Instructions simulated per design point.
    pub trace_len: usize,
    /// The sample-size sweep (paper: 30..200).
    pub sample_sizes: Vec<usize>,
    /// The "large" sample size used for Tables 3 and 5 (paper: 200).
    pub final_sample: usize,
    /// Number of random test points (paper: 50).
    pub test_points: usize,
    /// Latin hypercube candidates per selection.
    pub lhs_candidates: usize,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        // PPM_FULL is the harnesses' documented scale switch. lint:allow(env-read)
        let full = std::env::var("PPM_FULL").map(|v| v == "1").unwrap_or(false);
        if full {
            Scale {
                full,
                trace_len: 300_000,
                sample_sizes: vec![30, 50, 70, 90, 110, 200],
                final_sample: 200,
                test_points: 50,
                lhs_candidates: 200,
            }
        } else {
            Scale {
                full,
                trace_len: 100_000,
                sample_sizes: vec![30, 50, 90],
                final_sample: 90,
                test_points: 25,
                lhs_candidates: 40,
            }
        }
    }

    /// The RBF training grid appropriate for this scale.
    pub fn trainer(&self) -> RbfTrainer {
        if self.full {
            RbfTrainer::default()
        } else {
            RbfTrainer::quick()
        }
    }

    /// A build configuration for the given sample size.
    pub fn build_config(&self, sample_size: usize) -> BuildConfig {
        BuildConfig {
            sample_size,
            lhs_candidates: self.lhs_candidates,
            trainer: self.trainer(),
            seed: 1,
            ..BuildConfig::default()
        }
    }

    /// The simulator-backed response for a benchmark at this scale.
    pub fn response(&self, benchmark: Benchmark) -> SimulatorResponse {
        SimulatorResponse::new(benchmark, self.trace_len)
    }

    /// The Table 1 training space every harness samples.
    pub fn space(&self) -> DesignSpace {
        DesignSpace::paper_table1()
    }

    /// The Table 1 builder for the given sample size.
    pub fn builder(&self, sample_size: usize) -> RbfModelBuilder {
        RbfModelBuilder::new(self.space(), self.build_config(sample_size))
    }

    /// Samples, simulates and fits a model of `response` at the given
    /// sample size (paper steps 1–4).
    ///
    /// # Panics
    ///
    /// Panics if the response yields values the model cannot train on.
    pub fn build<R: Response>(&self, response: &R, sample_size: usize) -> BuiltModel {
        self.builder(sample_size)
            .build(response)
            // A harness has no partial result to report. lint:allow(panic-path)
            .expect("finite responses")
    }

    /// The training sample of the given size and its simulated
    /// responses, unfitted: the design [`Scale::build`] would train on.
    ///
    /// # Panics
    ///
    /// As [`Scale::simulate`].
    pub fn sample<R: Response>(
        &self,
        response: &R,
        sample_size: usize,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (design, _) = self
            .builder(sample_size)
            .select_sample()
            // The scale's candidate count is non-zero. lint:allow(panic-path)
            .expect("valid sweep config");
        let responses = self.simulate(response, &design);
        (design, responses)
    }

    /// Evaluates `response` at every point, strictly.
    ///
    /// # Panics
    ///
    /// Panics on any faulty point instead of quarantining it.
    pub fn simulate<R: Response>(&self, response: &R, points: &[Vec<f64>]) -> Vec<f64> {
        // A number from a partial batch is not a result. lint:allow(panic-path)
        eval_batch(response, points, BuildConfig::default().threads).expect("clean batch")
    }

    /// The builder's §3 holdout of [`Scale::test_points`] points. The
    /// points depend only on the build seed, so one holdout serves
    /// every sample size.
    ///
    /// # Panics
    ///
    /// As [`Scale::simulate`].
    pub fn holdout<R: Response>(&self, response: &R) -> Holdout {
        self.builder(self.final_sample)
            .holdout(response, self.test_points, None)
            // A number from a partial batch is not a result. lint:allow(panic-path)
            .expect("clean batch")
    }
}

/// A simple experiment report: a header, column names and rows, printed
/// as markdown and mirrored to `results/<name>.csv`.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report.
    pub fn new(name: &str, title: &str, columns: &[&str]) -> Self {
        Report {
            name: name.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the report as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }

    /// Writes the CSV mirror to `results/<name>.csv`, then prints the
    /// markdown table and where the CSV went to stdout. If the CSV
    /// cannot be written, prints why to stderr and exits with status 1,
    /// so a stale committed CSV cannot pass for a fresh one.
    pub fn emit(&self) {
        let mut csv = String::new();
        for r in std::iter::once(&self.columns).chain(&self.rows) {
            let _ = writeln!(csv, "{}", r.join(","));
        }
        let dir = results_dir();
        let path = dir.join(format!("{}.csv", self.name));
        // Printing the report is what the harnesses are for. lint:allow(print-in-lib)
        println!("{}", self.to_markdown());
        if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, csv)) {
            // lint:allow(print-in-lib)
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
        // lint:allow(print-in-lib)
        println!("(written to {})", path.display());
    }
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Formats a float with the given precision for report cells.
pub fn fmt(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_has_sane_defaults() {
        let scale = Scale::from_env();
        assert!(scale.final_sample <= 200);
        assert!(!scale.sample_sizes.is_empty());
        assert!(scale.trace_len >= 10_000);
    }

    #[test]
    fn report_renders_markdown_and_respects_width() {
        let mut r = Report::new("t", "Test", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        let md = r.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let mut r = Report::new("t", "Test", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        assert!(results_dir().ends_with("results"));
    }
}
