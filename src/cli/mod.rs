//! The `ppm` command-line interface.
//!
//! ```text
//! ppm benchmarks                          list the workload surrogates
//! ppm simulate  --benchmark mcf [config]  run one detailed simulation
//! ppm build     --benchmark mcf --out m.txt [--sample 90] [--metric cpi]
//!               [--train-threads N] [--lhs-candidates N]
//!               [--checkpoint s.txt]       (an existing store is reused)
//! ppm predict   --model m.txt [config]    evaluate a saved model
//! ppm screen    --benchmark mcf           Plackett-Burman screening
//! ppm firstorder --benchmark mcf [config] analytical CPI estimate
//! ```
//!
//! Configuration flags (all optional, defaults are the mid-range
//! machine): one `--<flag>` per row of the Table 1 knob table,
//! [`ppm_sim::KNOBS`], plus `--instructions N` for the trace length and
//! `--seed N`.
//!
//! Observability flags, accepted by every command: `--quiet` (no
//! stderr progress), `--trace` (nested span tracing on stderr; the
//! `PPM_TRACE` environment variable does the same), `--metrics-out
//! <file>` (JSON-lines telemetry export), and `--trace-out <file>`
//! (the span tree as Chrome-trace/Perfetto JSON).
//!
//! The flight recorder rides along on `build`, `simulate`, `screen`,
//! `firstorder` and `workload-info`: a `ppm-ledger v1` run manifest
//! lands in `results/runs/` (`--ledger-out` / `--ledger-dir` /
//! `--no-ledger` to steer it, taken by those five commands only), and
//! `ppm report` diffs two ledgers' deterministic bodies as a regression
//! sentry (exit code 5 on regression). See [`flight`].
//!
//! Each command takes only the flags it reads, plus the observability
//! flags; the one flag table in `args.rs` says which. Any other flag is
//! a usage error (exit code 2) before the command does any work, so no
//! sink, file or socket exists yet.
//!
//! `ppm lint` runs the workspace's static analysis (`crates/lint`): the
//! token rules plus the cross-crate semantic rules (lock-order,
//! atomic-ordering, panic-reachability, wire-format and exit-code
//! contracts); it exits 6 when a rule fires — see the "Static analysis"
//! section in README.md.
//!
//! The live observability plane (`crates/live`): `--live <addr>` on
//! `build`/`simulate`/`screen` serves `/metrics` (Prometheus text),
//! `/buildz` (JSON progress + ETA), and `/eventz` (recent events) over
//! HTTP for the duration of the run; `ppm top <addr>` renders it as a
//! terminal dashboard. Bind or endpoint failures exit with code 7.
//!
//! The serving plane (`crates/serve`): `ppm serve <addr>` answers
//! `GET /predict` with deadline enforcement, load shedding, and
//! graceful degradation to the first-order analytical estimator;
//! `ppm publish` installs models in its content-addressed registry and
//! `ppm loadtest` drives a running service and gates on a p99 SLO.
//! Serve failures exit with code 8.

mod args;
mod commands;
pub mod flight;

pub use args::{command_names, ArgError, Parsed};
pub use commands::{run, run_with_artifacts, start_live, CliError};
pub use flight::RunArtifacts;

/// Usage text printed by `ppm help`.
pub const USAGE: &str = "\
ppm — predictive performance models for superscalar processors

USAGE:
  ppm <command> [flags]

COMMANDS:
  benchmarks                     list available workload surrogates
  simulate    --benchmark <b>    run one detailed simulation, or a whole
              [--batch <n>]      design-space sample in one trace pass
                                 (each lane cross-checked against a
                                 serial run of the same configuration)
  build       --benchmark <b> --out <file>
                                 build an RBF model (simulates a sample)
  predict     --model <file>     evaluate a saved model at a configuration
  screen      --benchmark <b>    Plackett-Burman main-effect screening
  firstorder  --benchmark <b>    first-order analytical CPI estimate
  workload-info --benchmark <b>  one-pass program statistics
  report      --candidate <ledger> --against <ledger>
                                 regression sentry: diff two run ledgers
  check-trace --file <trace>     validate a --trace-out Chrome-trace file
  lint        [--root <dir>] [--conf <file>] [--format human|json]
              [--rule <name>]    static analysis of the workspace: token
                                 rules and semantic rules (lock-order,
                                 atomic-ordering, panic-reachability,
                                 wire-format and exit-code contracts)
                                 (exit code 6 on findings)
  top         <addr> [--once] [--interval-ms <n>]
                                 terminal dashboard for a --live endpoint
                                 or a serving plane (SLO burn rates)
  tail        <addr> [--once] [--interval-ms <n>] [--limit <n>]
              [--outcome <o>] [--min-ms <n>]
                                 stream the serving plane's retained
                                 request traces (/tracez) as a table
  serve       <addr> [--registry <dir>] [--benchmark <b>] [--chaos <seed>]
                                 fault-hardened CPI-prediction service:
                                 GET /predict /healthz /readyz /metrics
                                 /statusz /tracez, POST /reloadz /quitz
  publish     --model <file> --registry <dir>
                                 install a model in the serving registry
                                 (content-hash versioned, updates CURRENT)
  loadtest    <addr> [--requests <n>] [--concurrency <n>] [--rate <r>]
              [--slo-p99-ms <ms>] [--out <report.json>]
              [--ab <addr> [--ab-out <report.json>]] [--no-trace-check]
                                 drive a running service, report exact
                                 latency quantiles, cross-check request accounting
                                 against the server, optionally gate on a
                                 p99 SLO or measure tracing overhead (--ab)
  help                           print this text

CONFIGURATION FLAGS (defaults: the mid-range machine):
  --depth <7..24>     pipeline depth       --rob <24..128>   reorder buffer
  --iq <0.25..0.75>   IQ/ROB fraction      --lsq <0.25..0.75> LSQ/ROB fraction
  --l2-kb <256..8192> L2 capacity          --l2-lat <5..20>  L2 latency
  --il1-kb <8..64>    L1I capacity         --dl1-kb <8..64>  L1D capacity
  --dl1-lat <1..4>    L1D latency

OTHER FLAGS:
  --instructions <n>  trace length (default 100000)
  --seed <n>          workload seed (default 1)
  --sample <n>        training sample size for `build` (default 90)
  --metric <cpi|epi|edp>  modeled metric for `build` (default cpi)
  --lhs-candidates <n>  candidate hypercubes scored for `build` (default 200)
  --train-threads <n>  worker threads for sampling + training in `build`
                      (default: PPM_THREADS or machine parallelism; the
                      built model is identical for any value)
  --holdout <n>       held-out test points scored after `build` (default 12;
                      0 disables; statistics recorded in the run ledger)
  --energy            also report the energy estimate (simulate)
  --batch <n>         simulate an n-point Latin-hypercube sample of the
                      Table 1 space in one batched trace pass (simulate)

FAULT-TOLERANCE FLAGS (`build`):
  --checkpoint <f>    store every simulation, sample and holdout, in <f>
                      (crash-safe), keyed by what determines it; an
                      existing <f> is reused, also one another run wrote,
                      so no point it holds is simulated again (exit code
                      4 if it is corrupt)

EXIT CODES:
  0 success    2 usage error    3 simulation fault    4 persistence failure
  5 regression (`report`, `loadtest --slo-p99-ms`, and `loadtest --ab`
    when a leg had no successful answer)
  6 static-analysis findings (`lint`)
  7 live-plane failure (`--live` bind, `ppm top` endpoint)
  8 serve failure (`serve` bind/registry, `publish`, `loadtest` transport,
    `ppm tail` first poll)
  1 other errors

SERVING FLAGS (`serve`):
  --registry <dir>    model registry (default registry/)
  --benchmark <b>     serve analytically when no model loads (degraded)
  --workers <n>       prediction workers (default 4)
  --queue <n>         queue slots per worker; full queues shed (default 8;
                      0 = shed-all drill mode: every request refused)
  --deadline-ms <n>   default request deadline (default 250)
  --degrade-depth <n> queue depth that degrades predictions to the
                      analytical estimator (default 16; 0 = always degraded)
  --chaos <seed>      inject worker faults and misbehaving clients
  --no-trace          disable per-request tracing and /tracez
  --trace-ring <n>    trace records kept, oldest evicted first (default 4096)
  --trace-sample <n>  keep 1-in-n plain-OK requests (default 64)
  Fixed: client ?deadline_ms= is capped at 5000 ms; 3 consecutive model
  failures make degradation sticky, probing the model every 16th request;
  the slowest 32 requests are always traced; the SLO tracker's objectives
  are 99.9% availability and 100 ms latency.

OBSERVABILITY FLAGS (any command):
  --quiet             suppress progress output on stderr
  --trace             nested span tracing on stderr (or set PPM_TRACE=1)
  --metrics-out <f>   write spans, events, and metrics to <f> as JSON lines
  --trace-out <f>     write the span tree as Chrome-trace/Perfetto JSON

LIVE PLANE FLAG (`build`, `simulate`, `screen`):
  --live <addr>       serve /metrics /buildz /eventz over HTTP for the run
                      (use 127.0.0.1:0 for an ephemeral port, announced on
                      stderr)

RUN-LEDGER FLAGS (`build`, `simulate`, `screen`, `firstorder`, `workload-info`):
  --ledger-out <f>    run-ledger path (default results/runs/<run-id>.json)
  --ledger-dir <d>    run-ledger directory (default results/runs)
  --no-ledger         skip the run ledger entirely

REGRESSION SENTRY (`report`) FLAGS:
  --candidate <f>     the run ledger under test
  --against <f>       the baseline run ledger
  --json-out <f>      also write the findings as JSON
  Only the ledgers' deterministic bodies are compared: every counter must
  match exactly, and a held-out error statistic regresses above 1.10x its
  baseline plus 0.1 percentage point. Stage times are recorded, not gated.
";
