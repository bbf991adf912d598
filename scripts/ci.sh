#!/usr/bin/env bash
# Tier-1 verification plus the hygiene gates: the one entry point local
# runs, bench runs, and the roadmap's "tier-1 verify" all share.
#
# Usage: scripts/ci.sh
#
# Runs: rustfmt check, clippy with warnings denied (the documented
# `#[allow]` seams in-tree are the only accepted ones), rustdoc with
# warnings denied, build, tests, every experiment preset at one trial
# (`exp run` among them: the whole scenarios/ library), the benchmark
# package's build, tests and smoke tier, memory budgets on its jittered-stack
# and scale workloads, a traced scenario run, every recorded pin
# (scripts/repin.sh), the pinned regression scenarios, a line budget on
# docs/performance.md and that every pin its contracts cite exists.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== docs diet ratchet (docs/performance.md may only shrink) =="
# The per-mechanism contracts belong there; per-change narratives belong
# in CHANGES.md and numbers in BENCH_<n>.json. Lower the budget when the
# file shrinks; never raise it.
PERF_DOC_LINES="$(wc -l < docs/performance.md)"
if (( PERF_DOC_LINES > 583 )); then
    echo "docs: docs/performance.md is $PERF_DOC_LINES lines (budget 583)"
    exit 1
fi

echo "== contract pins (every Pinned by: token in docs/performance.md exists) =="
# A contract that cites a deleted or renamed test pins nothing. Every
# backticked token of a "Pinned by:" item (the item may wrap): one with a
# `/` is a path that must exist; any other names a `fn` or `mod` under
# crates/ or tests/ by its last `::` segment.
PIN_TOKENS="$(awk '/^- \*\*Pinned by:\*\*/ { on = 1 } on && !/^  / && !/^- \*\*Pinned by:\*\*/ { on = 0 } on' \
    docs/performance.md | tr '\n' ' ' | grep -o '`[^`]*`' | tr -d '`' | sort -u)"
[[ -n "$PIN_TOKENS" ]] || { echo "docs: no Pinned by: tokens found"; exit 1; }
PIN_MISSING=0
while IFS= read -r token; do
    if [[ "$token" == */* ]]; then
        [[ -e "$token" ]] && continue
    else
        name="${token##*::}"
        [[ "$name" =~ ^[A-Za-z_][A-Za-z0-9_]*$ ]] &&
            grep -rqE --include='*.rs' "\b(fn|mod) $name\b" crates tests && continue
    fi
    echo "docs: pinned \`$token\` in docs/performance.md names nothing that exists"
    PIN_MISSING=1
done <<<"$PIN_TOKENS"
if (( PIN_MISSING )); then exit 1; fi

echo "== cargo clippy (deny warnings) =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q =="
cargo test -q --offline

echo "== every experiment preset at one trial =="
# `exp` without a preset prints the preset table (and exits 2). Each
# preset but the scale rows runs once at --trials 1 (~25 s in all, the
# most of it bits_scaling and latency; `run` is the scenarios/ library)
# and must exit 0; the scale rows are one fixed seed each and run under
# scripts/repin.sh below.
PRESETS="$({ target/release/exp 2>&1 || true; } | awk '/^  [a-z]/ && $1 !~ /^scale/ { print $1 }')"
[[ -n "$PRESETS" ]] || { echo "exp listed no presets"; exit 1; }
for preset in $PRESETS; do
    echo "-- exp $preset --trials 1"
    target/release/exp "$preset" --trials 1 >/dev/null
done

echo "== benchmark build + tests + smoke (what the benchmark pipeline builds) =="
# benchmark/ is a package of its own (not a workspace member) that links
# ba_net::EventQueue, NetTransport, Lockstep and the harness by their
# public names: an API drift would otherwise first surface in the
# benchmark pipeline. The smoke tier (a few seconds of runs) checks every
# workload's outcomes and exits non-zero when any trial failed — the
# every-workload mode's form of a result line's `"correct": false`.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir target
# Its own unit and smoke tests: an item only benchmark/tests names would
# otherwise be narrowed or deleted without CI noticing.
cargo test --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir target
benchmark/run.sh --smoke

echo "== jitter memory budget (stack-jitter-256 peak RSS) =="
# One gated run of the faulty-net workload (a few trials, ~15 s): over
# 1 % loss and Uniform{0,900} jitter almost every recipient of a fan is
# its own queue entry, so the peak is the event queue's. At one 8-byte
# (flight, recipient) entry a queued recipient, in its arrival tick's
# bucket of the ring calendar, it reads 29-30 MB (≈ 18 MB of entries at
# the busiest round's 2.26 M recipients); a 4-byte slot per group and a
# 4-byte survivor-list entry read 29-32. The 12-byte handles before them
# read 47-50 MB, 32-byte entries in per-tick power-of-two buffers ~140,
# and keeping a trial's committee graphs alive past their elections
# adds ~20: each of them crosses 42.
# <workload> <seconds> <budget MB>: one gated run, fails above the budget.
rss_gate() {
    local line
    line="$(target/release/benchmark --workload "$1" --seed 1 --seconds "$2" --trace 0 | tail -n 1)"
    echo "$line"
    awk -F'"peak_rss_mb": [{]"value": ' -v w="$1" -v budget="$3" \
        '{ found = NF > 1; if ($2 + 0 > budget) { print w " peaked at " $2 + 0 " MB (budget " budget ")"; exit 1 } }
        END { if (!found) { print w ": no peak_rss_mb in the result line"; exit 1 } }' <<<"$line"
}
rss_gate stack-jitter-256 1 42

echo "== scale memory budget (stack-scale-4096 peak RSS) =="
# Ten seconds of full-stack trials at n = 4096 on Lockstep: the peak is
# one trial's own (the tree, the election graphs, the Algorithm 3 round)
# and must not grow with the trials before it. It reads 94-99 MB; a
# process-wide registry that kept each trial's 1.5 MiB root gossip graph
# until 64 MiB piled up read 122-128 and crosses 112.
rss_gate stack-scale-4096 10 112

echo "== trace smoke (phase attribution sums to total_bits) =="
# A traced scenario run digested by trace-report --check: fails unless
# every trial's per-phase bit attribution sums exactly to its
# total_bits (the ba-obs accounting invariant).
TRACE_TMP="$(mktemp)"
trap 'rm -f "$TRACE_TMP"' EXIT
target/release/exp run --trace "$TRACE_TMP" scenarios/03-partition-during-election.scn
cargo run --release --offline -p ba-bench --bin trace-report -- \
    --check "$TRACE_TMP"

echo "== recorded pins (scale rows, serve wire, golden tests, hunt smoke) =="
# scripts/repin.sh in check mode is the hunt, serve and scale smokes: it
# runs the adversary search (which must keep rediscovering the
# coordinator-equivocation break, and whose grid carries the Algorithm 3
# forger), boots the ba-serve daemon for a pass of fans and a pass of
# singles, runs `exp scale` (n = 4096 and 16384) under its 600 MB budget
# with its trace through trace-report --check,
# re-runs the golden tests, and fails unless every number equals
# scripts/pins.env. A change that means to move a draw, a charge or a
# frame runs `scripts/repin.sh --write` in the same commit. (The stream
# labels those numbers hang on are checked earlier, by `cargo test`:
# ba-core's `stream::tests::distinct_coordinates_get_distinct_seeds`.)
scripts/repin.sh

echo "== pinned regression scenarios =="
target/release/exp run scenarios/regressions

echo "ci: OK"
