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
# build, tests, the benchmark package's build and smoke tier, a memory
# budget on its jittered-stack workload, and a one-scenario smoke of the
# composed tree-adversary + partition spec.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy -q --offline --all-targets -- -D warnings

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
# its own queue entry, so the peak is the event queue's. At 12 bytes a
# queued recipient it reads 60-70 MB; 32-byte entries in per-tick
# power-of-two buffers (it was ~140 MB with them), or a second copy of
# the handles, cross 100.
JITTER_LINE="$(target/release/benchmark --workload stack-jitter-256 \
    --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$JITTER_LINE"
awk -F'"peak_rss_mb": [{]"value": ' '{ found = NF > 1; if ($2 + 0 > 100) { print "jitter: stack-jitter-256 peaked at " $2 + 0 " MB (budget 100)"; exit 1 } }
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

echo "== hunt smoke (seed-pinned, budget-bounded) =="
# The adversary search must keep rediscovering the coordinator-
# equivocation break against the leader-based baselines within a small
# budget (< 60 s); --expect fails the gate the day it stops finding it.
cargo run --release --offline -p ba-bench --bin hunt -- \
    --seed 7 --budget 150 --expect equivocate

echo "== serve smoke (TCP daemon, both frame kinds, pinned wire, graceful shutdown) =="
# Boots the ba-serve daemon on an ephemeral loopback port and runs two
# load passes through it: four sessions of the default spec (tournament
# n = 64, trials 0-3: nothing but fans, SendMany/DeliverMany) and four
# of an engine-hosted scenario (phase_king n = 48 under a configured
# schedule: nothing but singles, Send/Deliver). Requires: every session
# reaches agreement, the daemon drains cleanly on shutdown, the whole
# dance fits in a timeout (a hung accept loop or switch deadlock fails
# here) — and the server-counted data frames and bytes of each pass
# equal the recorded constants. They are exact per seed, as the scale
# rows' bits and rounds are: frame boundaries are a function of the
# executor's calls alone. A transport that fell back to a frame per
# recipient (b37dcd8) reads 54 645 136 B on the first pass in 60 times
# the frames and fails here without a timer; a change that means to move
# the wire re-records the four numbers.
SERVE_ADDR="$(mktemp)"
SERVE_LOG="$(mktemp)"
SERVE_JSON="$(mktemp)"
trap 'rm -f "$TRACE_TMP" "$SERVE_ADDR" "$SERVE_LOG" "$SERVE_JSON"' EXIT
rm -f "$SERVE_ADDR"
timeout 180 target/release/serve \
    --port-file "$SERVE_ADDR" --workers 2 --queue 4 &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -s "$SERVE_ADDR" ]] && break; sleep 0.1; done
[[ -s "$SERVE_ADDR" ]] || { echo "serve: daemon never published its port"; exit 1; }
serve_pass() { # <data frames> <data bytes> <load arguments...>
    local frames="$1" bytes="$2"
    shift 2
    timeout 120 target/release/load --port-file "$SERVE_ADDR" \
        --sessions 4 --concurrency 2 --json "$SERVE_JSON" "$@" | tee "$SERVE_LOG"
    grep -q "all_agreed = true" "$SERVE_LOG" \
        || { echo "serve: sessions completed without full agreement"; exit 1; }
    grep -q "\"server_data_frames\": $frames," "$SERVE_JSON" \
        && grep -q "\"server_data_bytes\": $bytes," "$SERVE_JSON" \
        || { echo "serve: the wire moved (pinned: $frames data frames, $bytes B)"; cat "$SERVE_JSON"; exit 1; }
}
serve_pass 20736 6088112
serve_pass 225992 6098184 --spec scenarios/00-baseline-sync.scn --shutdown
wait "$SERVE_PID"

echo "== scale smoke (everywhere stack end-to-end at n = 4096 and 16384) =="
# One seed of the full Algorithm 4 stack under exp_scale's scale
# profile at two sizes: exercises the batched-envelope tournament, the
# cached sampler registry, the arena share trees and the engine's
# one-buffer rounds at a five-digit n. The time budget is generous (the
# two rows are ~0.8 s and ~6 s release on two cores); the memory budget
# is not: the 16384 row peaks at 640–720 MB, and a second copy of an
# Algorithm 3 round in the engine (it was ~1250 MB with four) crosses
# 800. Blowing either means a scale regression, not noise. The rows'
# bits and rounds are pinned too: they are the one byte-identity check
# on the committee stack at the reduced-constant profile and at a
# five-digit n, equal at every commit since PR 12 — a change that means
# to move a draw or a charge re-records them here.
SCALE_JSON="$(mktemp)"
trap 'rm -f "$TRACE_TMP" "$SERVE_ADDR" "$SERVE_LOG" "$SERVE_JSON" "$SCALE_JSON"' EXIT
timeout 90 cargo run --release --offline -p ba-bench --bin exp_scale -- \
    --max-n 16384 --json "$SCALE_JSON"
awk -F'"peak_rss_mb": ' '/"n": 16384,/ { found = 1; if ($2 + 0 > 800) { print "scale: n = 16384 peaked at " $2 + 0 " MB (budget 800)"; exit 1 } }
    END { if (!found) { print "scale: no n = 16384 row"; exit 1 } }' "$SCALE_JSON"
for pin in \
    '"n": 4096, .*"bits_good_max": 30781046, .*"rounds": 509, "agreement": true' \
    '"n": 16384, .*"bits_good_max": 56761504, .*"rounds": 621, "agreement": true'; do
    grep -Eq "$pin" "$SCALE_JSON" \
        || { echo "scale: no row reads $pin"; cat "$SCALE_JSON"; exit 1; }
done

echo "== pinned regression scenarios =="
cargo run --release --offline -p ba-bench --bin scenario -- scenarios/regressions

if [[ "${1:-}" == "--with-scenarios" ]]; then
    echo "== full scenario suite =="
    cargo run --release --offline -p ba-bench --bin scenario -- scenarios
fi

echo "ci: OK"
