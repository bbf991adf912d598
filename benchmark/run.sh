#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   benchmark/run.sh [--seed S] [--traced] [--smoke] [--repeat N] [--out FILE]
#       every workload, each run in its own child process; prints every
#       metric by name and writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run of one workload; the last line of output is the result
#       object BENCHMARK.json describes
#   benchmark/run.sh compare A.json B.json
#       judges result file B against A by the bounds in BENCHMARK.json
#
# The package under benchmark/ is its own Cargo workspace with path
# dependencies on ../crates/* and ../vendor/*; nothing is fetched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# CARGO_TARGET_DIR wins when the caller sets it; otherwise share the
# repository's own (git-ignored) target directory.
target="${CARGO_TARGET_DIR:-target}"
started=$(date +%s.%N)
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
build_s=$(awk -v a="$started" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')

bin="$target/release/benchmark"
case " $* " in
    *" --workload "* | " compare "*) exec "$bin" "$@" ;;
    *) exec "$bin" --build-s "$build_s" "$@" ;;
esac
