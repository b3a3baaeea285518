#!/usr/bin/env bash
# Full offline verification gate for the ppm workspace.
#
# Runs the tier-1 gate (release build + tests) plus formatting and lint
# checks. Requires no network access: the workspace has no external
# dependencies. One `cargo test -q` covers every workspace package (the
# root manifest's default-members) and compiles the paper harnesses,
# which are examples of crates/bench.
set -euo pipefail

cd "$(dirname "$0")/.."

# Per-gate wall-time accounting: gate_done <name> closes the current
# gate and starts the next; the summary line at the bottom is the
# one-glance answer to "what got slow this PR".
gate_summary=""
gate_start=$SECONDS
gate_done() {
  gate_summary="${gate_summary}${gate_summary:+  }$1=$((SECONDS - gate_start))s"
  gate_start=$SECONDS
}

echo "== tier-1: cargo build --release =="
cargo build --release
gate_done build

echo "== tier-1: cargo test -q =="
cargo test -q
gate_done test

echo "== paper-scale subset selection: bordered search == full refactor =="
# The debug-mode equivalence cases stay small to keep tier-1 fast; this
# ignored case runs the bordered-Cholesky search against the reference
# that factors every mask in full on 200 9-D points over the whole
# 27-cell (p_min, alpha) grid, in release mode.
cargo test -q --release -p ppm-rbf -- --ignored
gate_done selection

echo "== cache replacement: recency order == stamp model =="
# The batch engine, the reference oracle and the first-order profiler
# all share one Cache, so the batch == reference gates cannot catch a
# replacement bug. This ignored case is the only independent check of
# the replacement logic: 20.7 M interleaved access/install/probe calls
# on every Table 1 cache shape (plus 4-, 16-way and single-set ones)
# under LRU, FIFO and random, against the stamp-based cache it
# replaced. Half the cases spread their tags over the whole range below
# each shape's address bound, so the cache's 32-bit tags are checked
# against the stamp model's full line numbers where the high bits
# matter.
cargo test -q --release -p ppm-sim -- --ignored
gate_done cache

echo "== trace generation: generator == per-draw oracle =="
# Every engine, the profiler and every model replay the generator's
# trace, so the batch == reference and digest gates all consume one
# stream and cannot see it move. This ignored case is the only
# independent check that traces, and hence every CPI and model file,
# did not move: 108 M instructions of all 8 benchmarks (3 seeds), of
# dep_p = 0.01, 0.99 and 1 profiles and of a profile with odd region
# sizes, compared one by one against the generator's per-draw code (two
# logarithms per dependence distance, a weight sum per pick) kept
# verbatim in the test.
cargo test -q --release -p ppm-workload --test trace_oracle -- --ignored
gate_done generator

echo "== batch kernel: batch == oracle at paper scale =="
# The tier-1 batch == reference cases run 12k instructions. This ignored
# case is the only check at paper scale that the batch kernel's queues
# (completion wheel, intrusive waiter lists, implicit fetch queue) did
# not move a statistic: all 8 benchmarks x 12 random Table 1 points x
# 300k instructions, plus far-latency fixed machines whose DRAM
# completions land 512 or more cycles out, compared lane by lane against
# reference-oracle SimStats.
cargo test -q --release --test sim_batch -- --ignored
gate_done kernel

echo "== flight recorder: smoke build + regression sentry + trace check =="
# A fixed-seed smoke build must (a) reproduce the committed baseline
# ledger's deterministic body — every counter exactly, and each held-out
# error statistic within 1.10x the baseline plus 0.1 percentage point;
# stage times are recorded in the ledger header but not compared — and
# (b) emit a structurally valid Chrome-trace file. `ppm report` exits 5
# on regression, which fails this gate via `set -e`. The build also
# carries `--live 127.0.0.1:0`; with `--quiet` nothing learns the port or
# scrapes it, so this gate proves only that the live plane binds and
# shuts down cleanly alongside a real run. The mid-run scrape is pinned
# by tests/live_plane.rs. PPM_THREADS is
# pinned because the number of simulation lane groups (and so the
# sim.batch_* and exec.tasks counters) follows the worker count.
smoke_dir=$(mktemp -d)
# Every `ppm serve` started below is recorded here and killed on exit:
# after a failing gate a live server would keep the script's stdout
# open, and `verify.sh | tee log` would never return.
server_pids=""
cleanup() {
  for pid in $server_pids; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$smoke_dir"
}
trap cleanup EXIT
PPM_THREADS=2 target/release/ppm build --benchmark ammp --sample 20 --instructions 10000 \
  --seed 7 --train-threads 2 --holdout 6 --quiet --live 127.0.0.1:0 \
  --out "$smoke_dir/m.txt" --ledger-out "$smoke_dir/ledger.json" \
  --trace-out "$smoke_dir/trace.json"
target/release/ppm report --candidate "$smoke_dir/ledger.json" \
  --against results/baselines/smoke.json
target/release/ppm check-trace --file "$smoke_dir/trace.json"

echo "== batched simulation: equivalence smoke =="
# `ppm simulate --batch` runs a 32-point design sample in one batched
# trace pass, then cross-checks every lane against a reference-oracle
# run of the same configuration and exits 3 on any divergence — so this one
# invocation is the byte-identity gate.
target/release/ppm simulate --benchmark mcf --batch 32 --seed 7 --quiet \
  --no-ledger > "$smoke_dir/batch.out"
# Exactly one cross-checked row per lane: a lane number first, `yes`
# last (the table header also contains "identical", so matching that
# word alone would pass with no lane checked).
yes_rows=$(grep -cE '^[0-9]+ .* yes$' "$smoke_dir/batch.out" || true)
[ "$yes_rows" = 32 ] \
  || { echo "batched simulate cross-checked $yes_rows of 32 lanes"; exit 1; }
gate_done smoke

echo "== serving plane: publish + serve smoke + loadtest SLO gate =="
# Publish the smoke model into a scratch registry and prove the serving
# behaviours end to end against a real `ppm serve` process: one
# full-fidelity prediction, a hot-reload rollback cycle (corrupt CURRENT
# is refused with a 409, the restored pointer reloads with a 200), a
# loadtest whose p99 gates this script (exit 5 on SLO breach) and
# writes its `ppm-loadtest v1` report, and one degraded prediction from a
# second server forced into overload with --degrade-depth 0.
target/release/ppm publish --model "$smoke_dir/m.txt" \
  --registry "$smoke_dir/registry"

# Raw HTTP over bash's /dev/tcp (the container has no curl); the serve
# address comes from the stderr banner of the backgrounded server.
http_request() { # method path addr
  exec 3<>"/dev/tcp/${3%:*}/${3##*:}"
  printf '%s %s HTTP/1.1\r\nHost: ppm\r\nConnection: close\r\n\r\n' "$1" "$2" >&3
  cat <&3
  exec 3<&- 3>&-
}
serve_addr() { # logfile
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on http:\/\/\(.*\)$/\1/p' "$1" | head -n 1)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  echo "$addr"
}

target/release/ppm serve 127.0.0.1:0 --registry "$smoke_dir/registry" \
  2> "$smoke_dir/serve.log" &
serve_pid=$!
server_pids="$server_pids $serve_pid"
addr=$(serve_addr "$smoke_dir/serve.log")
[ -n "$addr" ] || { echo "serve never announced an address"; exit 1; }

http_request GET '/predict?rob=128' "$addr" | grep -q '"degraded":false' \
  || { echo "serve smoke: no full-fidelity prediction"; exit 1; }

version=$(cat "$smoke_dir/registry/CURRENT")
echo bogus > "$smoke_dir/registry/CURRENT"
http_request POST /reloadz "$addr" | grep -q 'HTTP/1.1 409' \
  || { echo "serve smoke: corrupt reload was not refused"; exit 1; }
echo "$version" > "$smoke_dir/registry/CURRENT"
http_request POST /reloadz "$addr" | grep -q 'HTTP/1.1 200' \
  || { echo "serve smoke: restored reload failed"; exit 1; }

target/release/ppm loadtest "$addr" --requests 200 --concurrency 4 \
  --slo-p99-ms 500 --out "$smoke_dir/loadtest.json"
grep -q '"schema":"ppm-loadtest v1"' "$smoke_dir/loadtest.json" \
  || { echo "loadtest --out: no ppm-loadtest v1 report"; exit 1; }

echo "== request tracing: /tracez schema + SLO budget + chrome export =="
# The loadtest above left tail-sampled trace records behind. /tracez
# must answer the versioned schema with tracing enabled and records
# retained; its Chrome-trace export must validate with the workspace's
# own checker; and /statusz must carry the multi-window SLO block.
http_request GET '/tracez?limit=8' "$addr" > "$smoke_dir/tracez.out"
grep -q '"schema":"ppm-tracez v1"' "$smoke_dir/tracez.out" \
  || { echo "tracez: missing schema line"; exit 1; }
grep -q '"enabled":true' "$smoke_dir/tracez.out" \
  || { echo "tracez: tracing not enabled"; exit 1; }
grep -q '"records":\[{"id":' "$smoke_dir/tracez.out" \
  || { echo "tracez: no retained records after a 200-request loadtest"; exit 1; }
http_request GET '/tracez?format=chrome' "$addr" \
  | sed '1,/^\r$/d' > "$smoke_dir/tracez-chrome.json"
target/release/ppm check-trace --file "$smoke_dir/tracez-chrome.json"
http_request GET /statusz "$addr" > "$smoke_dir/statusz.out"
grep -q '"slo":' "$smoke_dir/statusz.out" \
  || { echo "statusz: no SLO block"; exit 1; }
grep -q '"availability_budget_remaining"' "$smoke_dir/statusz.out" \
  || { echo "statusz: no error-budget accounting"; exit 1; }

http_request POST /quitz "$addr" > /dev/null
wait "$serve_pid"

# SLO honesty drill: a shed-everything server (--queue 0) refuses every
# request in microseconds. The gate must FAIL (exit 5) because there are
# zero successful samples — not pass on a vacuous p99 of 0 ms.
target/release/ppm serve 127.0.0.1:0 --registry "$smoke_dir/registry" \
  --queue 0 2> "$smoke_dir/serve-shed.log" &
serve_pid=$!
server_pids="$server_pids $serve_pid"
addr=$(serve_addr "$smoke_dir/serve-shed.log")
[ -n "$addr" ] || { echo "shed-all serve never announced an address"; exit 1; }
if target/release/ppm loadtest "$addr" --requests 40 --concurrency 2 \
  --slo-p99-ms 500 --quiet > "$smoke_dir/shed-loadtest.out" 2>&1; then
  echo "SLO gate passed vacuously against a shed-all server"; exit 1
else
  code=$?
  [ "$code" -eq 5 ] || { echo "SLO drill: expected exit 5, got $code"; \
    cat "$smoke_dir/shed-loadtest.out"; exit 1; }
fi
# Every refusal must be a 503 the client read, not a reset.
grep -qE '^shed +40$' "$smoke_dir/shed-loadtest.out" \
  || { echo "shed drill: not every request read its 503"; \
    cat "$smoke_dir/shed-loadtest.out"; exit 1; }
# /quitz is shed like everything else in drill mode; stop it directly.
kill "$serve_pid"
wait "$serve_pid" || true

# Overload drill: --degrade-depth 0 forces every prediction through the
# analytical estimator, flagged as degraded.
target/release/ppm serve 127.0.0.1:0 --registry "$smoke_dir/registry" \
  --degrade-depth 0 2> "$smoke_dir/serve-degraded.log" &
serve_pid=$!
server_pids="$server_pids $serve_pid"
addr=$(serve_addr "$smoke_dir/serve-degraded.log")
[ -n "$addr" ] || { echo "degraded serve never announced an address"; exit 1; }
http_request GET '/predict?rob=128' "$addr" | grep -q '"degraded":true' \
  || { echo "serve smoke: overload drill was not degraded"; exit 1; }
http_request POST /quitz "$addr" > /dev/null
wait "$serve_pid"
gate_done serve

echo "== library examples: each runs and exits 0 =="
# The six examples/*.rs show the library API end to end, and no other
# gate runs them. None writes a file; the six took about 6 s in total on
# a 2-vCPU VM, built. A non-zero exit stops the script here (set -e).
cargo build -q --release -p ppm --examples
for example in examples/*.rs; do
  "target/release/examples/$(basename "$example" .rs)" > /dev/null
done
gate_done examples

echo "== paper results: reduced-scale harnesses == committed CSVs =="
# EXPERIMENTS.md's numbers live in results/*.csv. This gate reruns, in
# release, the 17 reduced-scale harnesses (every crates/bench example
# except table3_error_diagnostics and fig4_error_vs_samples, whose
# committed CSVs are paper scale) and fails if any CSV moved: a change
# that moves a number regenerates its CSV and its EXPERIMENTS.md
# section in the same change. Each harness writes its CSV in place
# (results_dir() is fixed at compile time) and none depends on
# PPM_THREADS. The 17 runs took 41 and 49 s in two measurements on a
# 2-vCPU VM, with the examples built. Paper-scale Table 3 and Fig. 4
# (PPM_FULL=1, about 45 s and 30 s) stay manual. A harness that cannot
# write its CSV exits 1 (set -e stops here), and `git diff` does not see
# untracked files, so a CSV nobody committed fails the gate on its own.
cargo build -q --release -p ppm-experiments --examples
for example in crates/bench/examples/*.rs; do
  name=$(basename "$example" .rs)
  case "$name" in
    table3_error_diagnostics | fig4_error_vs_samples) continue ;;
  esac
  "target/release/examples/$name" > /dev/null
done
git diff --exit-code -- results/*.csv
untracked=$(git ls-files --others -- ':(glob)results/*.csv')
[ -z "$untracked" ] || { echo "untracked result CSVs: $untracked"; exit 1; }
gate_done results

echo "== rustdoc: every intra-doc link resolves =="
# A broken, ambiguous or private doc link is a warning, and a warning
# fails this gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
gate_done doc

echo "== ppm lint (static analysis: token and semantic rules) =="
# The workspace's own analyzer (crates/lint) in one pass over src/,
# every library crate, and tests/. Token rules: panic-path,
# iteration-order, wall-clock, float-eq, print-in-lib, env-read, with
# string/comment/test-module awareness. Semantic rules: lock-order
# cycles and I/O under a lock, atomic-ordering policies, panic
# reachability from worker threads, wire-format registry drift, and the
# exit-code contract. Allowlist: scripts/lint.conf and inline
# `lint:allow(<rule>)` comments. Exits 6 on findings, failing this
# gate; the JSON report is archived under results/ as the
# machine-readable record of the run.
target/release/ppm lint --format json > results/LINT.json \
  || { cat results/LINT.json; exit 6; }
gate_done lint

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings
gate_done style

echo "== tracing overhead: A/B loadtest (traced vs --no-trace) =="
# Two servers on the smoke registry, one traced and one started with
# --no-trace; the A/B loadtest drives both with identical traffic,
# reports the tracing p99 overhead and writes the `ppm-loadtest-ab v1`
# report. The acceptance budget is 2%; p99 deltas on a shared CI box
# are noisy, so the gate allows three attempts before failing. Tracing
# cannot make serving faster, so a reading below -2% is a failed
# measurement, not a pass: an attempt counts only when it lands within
# +-2%. A 2-vCPU VM seldom resolves 2%, so this gate runs last: its
# failure cannot stop the deterministic gates above.
target/release/ppm serve 127.0.0.1:0 --registry "$smoke_dir/registry" \
  2> "$smoke_dir/serve-traced.log" &
serve_pid=$!
server_pids="$server_pids $serve_pid"
addr=$(serve_addr "$smoke_dir/serve-traced.log")
[ -n "$addr" ] || { echo "traced serve never announced an address"; exit 1; }
target/release/ppm serve 127.0.0.1:0 --registry "$smoke_dir/registry" \
  --no-trace 2> "$smoke_dir/serve-notrace.log" &
baseline_pid=$!
server_pids="$server_pids $baseline_pid"
baseline_addr=$(serve_addr "$smoke_dir/serve-notrace.log")
[ -n "$baseline_addr" ] || { echo "baseline serve never announced an address"; exit 1; }
# Warm both fresh servers before measuring: a cold process's first
# requests pay one-time costs (page faults, allocator growth) that
# would otherwise be billed to one leg and fake an overhead.
target/release/ppm loadtest "$addr" --requests 100 --concurrency 4 > /dev/null
target/release/ppm loadtest "$baseline_addr" --requests 100 --concurrency 4 \
  --no-trace-check > /dev/null
overhead=""
readings=""
for attempt in 1 2 3; do
  target/release/ppm loadtest "$addr" --requests 300 --concurrency 4 \
    --ab "$baseline_addr" --ab-out "$smoke_dir/ab.json" \
    > "$smoke_dir/ab.out"
  cat "$smoke_dir/ab.out"
  overhead=$(sed -n 's/^tracing p99 overhead \([+-][0-9.]*\)%$/\1/p' "$smoke_dir/ab.out")
  [ -n "$overhead" ] || { echo "A/B loadtest reported no overhead"; exit 1; }
  awk -v o="$overhead" 'BEGIN { exit (o >= -2.0 && o <= 2.0 ? 0 : 1) }' && break
  echo "tracing overhead ${overhead}% outside +-2% (attempt $attempt); retrying"
  readings="$readings ${overhead}%"
  overhead=""
done
[ -n "$overhead" ] || {
  echo "tracing p99 overhead stayed outside +-2% after 3 runs:$readings"
  exit 1
}
grep -q '"schema":"ppm-loadtest-ab v1"' "$smoke_dir/ab.json" \
  || { echo "loadtest --ab-out: no ppm-loadtest-ab v1 report"; exit 1; }
http_request POST /quitz "$baseline_addr" > /dev/null
wait "$baseline_pid"

http_request POST /quitz "$addr" > /dev/null
wait "$serve_pid"

gate_done ab

echo "verify gate timings: $gate_summary"
echo "verify: all checks passed"
