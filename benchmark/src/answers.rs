//! Checks on `/predict` answers: every answer must be a full-fidelity
//! 200 whose prediction is bit-equal to the benchmark's own
//! `RbfNetwork::predict` for the model version it names, and that
//! version must not be older than the last reload that succeeded before
//! the request was sent.

use std::time::Duration;

use crate::scan::field;

/// Why an answer failed its check.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Connect, read or write failed, or the reply was not HTTP.
    Transport(String),
    /// A status other than 200 (a shed 503, a deadline 503, a 4xx).
    Status(u16),
    /// A 200 whose body is not a `ppm-serve v1` prediction.
    Malformed,
    /// The answer came from the analytical fallback.
    Degraded,
    /// The answer names a version the benchmark never published.
    UnknownVersion(String),
    /// The prediction differs from the local evaluation.
    Mismatch {
        /// What the server sent.
        got: f64,
        /// What the benchmark computed.
        want: f64,
    },
    /// The version was replaced by a reload that finished before the
    /// request was sent.
    Stale {
        /// The version the answer named.
        got: usize,
    },
}

/// One reload as the reload thread saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reload {
    /// When `POST /reloadz` was sent (offset from the session epoch).
    pub start: Duration,
    /// When its answer was complete.
    pub end: Duration,
    /// Index of the published version, when the reload returned 200.
    pub version: Option<usize>,
}

/// The versions a request in flight over `[sent, done]` may name: the
/// one installed by the last successful reload finished before it was
/// sent, plus any whose reload overlapped the request.
pub fn allowed_versions(
    initial: usize,
    reloads: &[Reload],
    sent: Duration,
    done: Duration,
) -> Vec<usize> {
    let current = reloads
        .iter()
        .filter(|r| r.end <= sent)
        .filter_map(|r| r.version)
        .next_back()
        .unwrap_or(initial);
    let mut allowed = vec![current];
    for r in reloads {
        if let Some(v) = r.version {
            if r.start <= done && r.end > sent && !allowed.contains(&v) {
                allowed.push(v);
            }
        }
    }
    allowed
}

/// Checks one `/predict` reply for query `query`. `versions` are the
/// published versions; `expected[v][q]` is the local prediction of
/// version `v` at query `q`. Returns the version index on success.
pub fn check(
    reply: &Result<(u16, String), String>,
    query: usize,
    versions: &[String],
    expected: &[Vec<f64>],
) -> Result<usize, Failure> {
    let (status, body) = reply.as_ref().map_err(|e| Failure::Transport(e.clone()))?;
    if *status != 200 {
        return Err(Failure::Status(*status));
    }
    if field(body, "schema") != Some("ppm-serve v1") {
        return Err(Failure::Malformed);
    }
    if field(body, "degraded") != Some("false") {
        return Err(Failure::Degraded);
    }
    let named = field(body, "model_version").ok_or(Failure::Malformed)?;
    let version = versions
        .iter()
        .position(|v| v == named)
        .ok_or_else(|| Failure::UnknownVersion(named.to_string()))?;
    let got: f64 = field(body, "prediction")
        .and_then(|p| p.parse().ok())
        .ok_or(Failure::Malformed)?;
    let want = expected[version][query];
    if got.to_bits() != want.to_bits() {
        return Err(Failure::Mismatch { got, want });
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(prediction: f64, version: &str, degraded: bool) -> Result<(u16, String), String> {
        Ok((
            200,
            format!(
                "{{\"schema\":\"ppm-serve v1\",\"benchmark\":\"186.crafty\",\"metric\":\"cpi\",\
                 \"prediction\":{prediction},\"degraded\":{degraded},\"degraded_reason\":null,\
                 \"model_version\":\"{version}\",\"deadline_ms\":250,\"elapsed_ms\":0,\
                 \"trace_id\":\"o-1\"}}\n"
            ),
        ))
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn a_bit_exact_prediction_passes_and_anything_else_fails() {
        let versions = vec!["aaaa".to_string(), "bbbb".to_string()];
        let p = 1.0_f64 / 3.0;
        let expected = vec![vec![p, 2.0], vec![0.5, 2.5]];
        assert_eq!(
            check(&body(p, "aaaa", false), 0, &versions, &expected),
            Ok(0)
        );
        assert_eq!(
            check(&body(2.5, "bbbb", false), 1, &versions, &expected),
            Ok(1)
        );
        let off_by_one_ulp = f64::from_bits(p.to_bits() + 1);
        assert!(matches!(
            check(
                &body(off_by_one_ulp, "aaaa", false),
                0,
                &versions,
                &expected
            ),
            Err(Failure::Mismatch { .. })
        ));
        assert_eq!(
            check(&body(p, "aaaa", true), 0, &versions, &expected),
            Err(Failure::Degraded)
        );
        assert_eq!(
            check(&body(p, "cccc", false), 0, &versions, &expected),
            Err(Failure::UnknownVersion("cccc".to_string()))
        );
        assert_eq!(
            check(&Ok((503, "{}".to_string())), 0, &versions, &expected),
            Err(Failure::Status(503))
        );
        assert!(matches!(
            check(
                &Err("connect: refused".to_string()),
                0,
                &versions,
                &expected
            ),
            Err(Failure::Transport(_))
        ));
    }

    #[test]
    fn a_version_older_than_the_last_finished_reload_is_stale() {
        // Version 0 serves first; a reload to 1 finishes at 10 ms, a
        // reload back to 0 runs from 20 ms to 22 ms.
        let reloads = [
            Reload {
                start: ms(9),
                end: ms(10),
                version: Some(1),
            },
            Reload {
                start: ms(20),
                end: ms(22),
                version: Some(0),
            },
        ];
        assert_eq!(allowed_versions(0, &reloads, ms(1), ms(2)), vec![0]);
        // Sent after the first reload finished: version 0 is stale.
        assert_eq!(allowed_versions(0, &reloads, ms(11), ms(12)), vec![1]);
        // In flight while the reload back to 0 ran: both are fine.
        assert_eq!(allowed_versions(0, &reloads, ms(19), ms(21)), vec![1, 0]);
        // A failed reload changes nothing.
        let failed = [Reload {
            start: ms(1),
            end: ms(2),
            version: None,
        }];
        assert_eq!(allowed_versions(0, &failed, ms(5), ms(6)), vec![0]);
    }
}
