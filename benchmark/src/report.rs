//! The metric catalogue and the one-line JSON result a run prints last.
//!
//! Every workload reports every end-to-end metric (untraced runs) or
//! every per-layer metric (traced runs), so the two lists below are the
//! whole output schema; `BENCHMARK.json` declares the same names.

use ppm_obs::Json;

/// End-to-end metrics: `(name, unit)`. See README.md for what each one
/// means on each workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from traced runs: `(name, unit)`, grouped by the
/// crate whose public functions they time.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.sample_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.holdout_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.stage_coverage", "ratio"),
    ("model.err_pct", "%"),
    ("workload.trace_ns_per_instr", "ns"),
    ("sim.batch_ns_per_lane_instr", "ns"),
    ("sim.batch_cpu_util", "ratio"),
    ("sim.serial_ns_per_instr", "ns"),
    ("sim.skip_frac", "ratio"),
    ("sim.hier_ns_per_access", "ns"),
    ("sim.bpred_ns_per_branch", "ns"),
    ("sim.cpi_mean", "cycles"),
    ("sim.dl1_mpki", "count"),
    ("sim.l2_mpki", "count"),
    ("sampling.l2star_us", "us"),
    ("sampling.cpu_util", "ratio"),
    ("regtree.fit_us", "us"),
    ("rbf.train_cpu_util", "ratio"),
    ("rbf.fit_fixed_ms", "ms"),
    ("rbf.select_ms", "ms"),
    ("rbf.predict_ns", "ns"),
    ("firstorder.predict_ns", "ns"),
    ("persist.parse_us", "us"),
    ("store.publish_ms", "ms"),
    ("serve.hop.queue_wait_us", "us"),
    ("serve.hop.read_us", "us"),
    ("serve.hop.eval_us", "us"),
    ("serve.hop.write_us", "us"),
    ("serve.client.connect_us", "us"),
    ("serve.client.ttfb_us", "us"),
    ("serve.client.p90_ms", "ms"),
    ("serve.client.p99_ms", "ms"),
    ("serve.client.p999_ms", "ms"),
    ("serve.gen_lag_us_p99", "us"),
    ("serve.server_cpu_us_per_req", "us"),
    ("serve.reload_p50_ms", "ms"),
    ("serve.reload_server_us", "us"),
];

/// Which catalogue a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: per-layer metrics.
    PerLayer,
}

impl Mode {
    /// The `(name, unit)` list this mode must report, in order.
    pub fn catalogue(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Mode::EndToEnd => &END_TO_END,
            Mode::PerLayer => &PER_LAYER,
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (builds, or requests and reloads).
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
    /// Checks that are not per-operation (a model digest, a wrong
    /// error figure) and failed: each makes the run incorrect.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Renders the result line: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, with every metric of the
    /// mode's catalogue in catalogue order.
    ///
    /// # Errors
    ///
    /// Names a metric that was not measured or is not a finite number —
    /// an incomplete result line, which the caller turns into a
    /// failed run.
    pub fn render(&self, mode: Mode) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in mode.catalogue() {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Float(value)),
                    ("unit".to_string(), Json::from(unit)),
                ]),
            ));
        }
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !mode.catalogue().iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .dump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_emitted_metric_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (mode, section) in [
            (Mode::EndToEnd, "end_to_end"),
            (Mode::PerLayer, "per_layer"),
        ] {
            let want: Vec<(String, String)> = mode
                .catalogue()
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&doc, section), want, "{section} differs");
            for (name, _) in &want {
                assert!(valid_name(name), "bad metric name {name:?}");
            }
        }
    }

    #[test]
    fn render_requires_the_whole_catalogue() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.render(Mode::EndToEnd).unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(out.render(Mode::PerLayer).is_err(), "layer metrics missing");
        out.set("setup_s", f64::NAN);
        assert!(out.render(Mode::EndToEnd).is_err());
    }
}
