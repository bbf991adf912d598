#!/usr/bin/env bash
# Tier-1 verification plus the hygiene gates: the one entry point local
# runs, bench runs, and the roadmap's "tier-1 verify" all share.
#
# Usage: scripts/ci.sh [--with-scenarios]
#   --with-scenarios   additionally run the full declarative scenario
#                      suite (scenarios/*.scn).
#
# Always runs: rustfmt check, clippy with warnings denied (the
# documented `#[allow]` seams in-tree are the only accepted ones),
# rustdoc with warnings denied, build, tests, the benchmark package's build and smoke tier, a memory
# budget on its jittered-stack workload, a one-scenario smoke of the
# composed tree-adversary + partition spec, a traced one, every recorded
# pin (scripts/repin.sh), the pinned regression scenarios and a line
# budget on docs/performance.md.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== docs diet ratchet (docs/performance.md may only shrink) =="
# The per-mechanism contracts belong there; per-change narratives belong
# in CHANGES.md and numbers in BENCH_<n>.json. Lower the budget when the
# file shrinks; never raise it.
PERF_DOC_LINES="$(wc -l < docs/performance.md)"
if (( PERF_DOC_LINES > 2094 )); then
    echo "docs: docs/performance.md is $PERF_DOC_LINES lines (budget 2094)"
    exit 1
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q =="
cargo test -q --offline

echo "== benchmark build + smoke (what the benchmark pipeline builds) =="
# benchmark/ is a package of its own (not a workspace member) that links
# ba_net::EventQueue, NetTransport, Lockstep and the harness by their
# public names: an API drift would otherwise first surface in the
# benchmark pipeline. The smoke tier (a few seconds of runs) checks every
# workload's outcomes and exits non-zero when any trial failed — the
# every-workload mode's form of a result line's `"correct": false`.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir target
benchmark/run.sh --smoke

echo "== jitter memory budget (stack-jitter-256 peak RSS) =="
# One gated run of the faulty-net workload (a few trials, ~15 s): over
# 1 % loss and Uniform{0,900} jitter almost every recipient of a fan is
# its own queue entry, so the peak is the event queue's and the flights'
# survivor lists'. At 4 bytes of queue (the flight's slot) and 4 of
# survivor list a queued recipient it reads 29-32 MB (≈ 9 MB of each at
# the busiest round's 2.26 M recipients). The 12-byte handles this
# replaced read 47-50 MB, 32-byte entries in per-tick power-of-two
# buffers ~140, and a registry that keeps a trial's committee graphs
# alive adds ~20: each of them crosses 42.
JITTER_LINE="$(target/release/benchmark --workload stack-jitter-256 \
    --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$JITTER_LINE"
awk -F'"peak_rss_mb": [{]"value": ' '{ found = NF > 1; if ($2 + 0 > 42) { print "jitter: stack-jitter-256 peaked at " $2 + 0 " MB (budget 42)"; exit 1 } }
    END { if (!found) { print "jitter: no peak_rss_mb in the result line"; exit 1 } }' <<<"$JITTER_LINE"

echo "== scenario smoke (composed tree adversary + partition) =="
cargo run --release --offline -p ba-bench --bin scenario -- \
    scenarios/10-composed-tree-partition.scn

echo "== trace smoke (phase attribution sums to total_bits) =="
# A traced scenario run digested by trace-report --check: fails unless
# every trial's per-phase bit attribution sums exactly to its
# total_bits (the ba-obs accounting invariant).
TRACE_TMP="$(mktemp)"
trap 'rm -f "$TRACE_TMP"' EXIT
cargo run --release --offline -p ba-bench --bin scenario -- \
    --trace "$TRACE_TMP" scenarios/03-partition-during-election.scn
cargo run --release --offline -p ba-bench --bin trace-report -- \
    --check "$TRACE_TMP"

echo "== recorded pins (scale rows, serve wire, golden tests, hunt smoke) =="
# scripts/repin.sh in check mode is the hunt, serve and scale smokes: it
# runs the adversary search (which must keep rediscovering the
# coordinator-equivocation break, and whose grid carries the Algorithm 3
# forger), boots the ba-serve daemon for a pass of fans and a pass of
# singles, runs exp_scale at n = 4096 and 16384 under its 600 MB budget,
# re-runs the golden tests, and fails unless every number equals
# scripts/pins.env. A change that means to move a draw, a charge or a
# frame runs `scripts/repin.sh --write` in the same commit. (The stream
# labels those numbers hang on are checked earlier, by `cargo test`:
# ba-core's `stream::tests::distinct_coordinates_get_distinct_seeds`.)
scripts/repin.sh

echo "== pinned regression scenarios =="
cargo run --release --offline -p ba-bench --bin scenario -- scenarios/regressions

if [[ "${1:-}" == "--with-scenarios" ]]; then
    echo "== full scenario suite =="
    cargo run --release --offline -p ba-bench --bin scenario -- scenarios
fi

echo "ci: OK"
