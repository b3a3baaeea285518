#!/usr/bin/env bash
# Builds the release `ppm` binary and the benchmark from source, then runs
# the benchmark against that binary. Every argument is passed through:
#
#   bash benchmark/run.sh --workload serve_predict --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh agree --runs 5
#
# Cargo's output goes to stderr; the result is the last line on stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path Cargo.toml >&2
target="${CARGO_TARGET_DIR:-target}"
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    "$@" --ppm "$target/release/ppm"
