#!/usr/bin/env bash
# Runs the criterion micro benches, key `exp` experiment presets, and
# the declarative scenario suite (scenarios/*.scn over the ba-net fault
# models), then emits BENCH_<N>.json (default BENCH_1.json) — the
# repository's perf + robustness trajectory file.
#
# Usage: scripts/bench.sh [N]
#   N        suffix for the output file (BENCH_N.json), default 1
#
# The vendored criterion shim appends ndjson lines to $BENCH_JSON; this
# script collects them, computes kernel speedups against the retained
# reference kernel, times a couple of experiment presets end-to-end,
# runs the scenario suite for its JSON rows, and assembles the final
# JSON.

set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-1}"
OUT="BENCH_${N}.json"
NDJSON="$(mktemp)"
SCNJSON="$(mktemp)"
trap 'rm -f "$NDJSON" "$SCNJSON"' EXIT

echo "== criterion micro benches (release) =="
BENCH_JSON="$NDJSON" cargo bench -p ba-bench --bench micro --offline

# Experiment presets exercising the tournament / full stack at scale
# (each parallelizes its per-seed trial loop over ba-par workers).
cargo build --release --offline -p ba-bench --bin exp
EXPERIMENTS="tournament_survival election_quality"
EXP_ROWS=""
for exp in $EXPERIMENTS; do
    echo "== exp $exp =="
    start=$(date +%s.%N)
    target/release/exp "$exp" >/dev/null
    end=$(date +%s.%N)
    wall=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", b - a }')
    echo "   ${wall}s wall"
    # Pin: survival must stay on the batched envelope paths. BENCH_6
    # measured 172 s pre-batching; anything near that again means the
    # committee-batched fast path regressed.
    if [[ "$exp" == "tournament_survival" ]]; then
        awk -v w="$wall" 'BEGIN { exit (w < 30.0) ? 0 : 1 }' \
            || { echo "FAIL: exp tournament_survival took ${wall}s (pin: < 30 s)"; exit 1; }
    fi
    EXP_ROWS="${EXP_ROWS}    {\"preset\": \"${exp}\", \"wall_seconds\": ${wall}},\n"
done
EXP_ROWS="${EXP_ROWS%,\\n}"

echo "== scenario suite (ba-net fault models) =="
target/release/exp run scenarios --json "$SCNJSON"

# Trace overhead: the same scenario pair untraced vs traced (ba-obs
# JSONL event capture). The delta is what `--trace` costs; the traced
# run's quarantined profile section supplies the hotspot rows below.
echo "== trace overhead (untraced vs traced scenario pair) =="
TRACEJSONL="$(mktemp)"
trap 'rm -f "$NDJSON" "$SCNJSON" "$TRACEJSONL"' EXIT
TRACE_SCENARIOS="scenarios/03-partition-during-election.scn scenarios/07-everywhere-lossy.scn"
start=$(date +%s.%N)
target/release/exp run $TRACE_SCENARIOS >/dev/null
end=$(date +%s.%N)
UNTRACED_WALL=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
start=$(date +%s.%N)
target/release/exp run --trace "$TRACEJSONL" $TRACE_SCENARIOS >/dev/null
end=$(date +%s.%N)
TRACED_WALL=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
TRACE_RATIO=$(awk -v t="$TRACED_WALL" -v u="$UNTRACED_WALL" \
    'BEGIN { if (u > 0) printf "%.2f", t / u; else print "0" }')
echo "   untraced ${UNTRACED_WALL}s, traced ${TRACED_WALL}s (x${TRACE_RATIO})"
# The profile lines are flat JSON objects already; top 5 by secs.
PROFILE_ROWS=$(grep '"section": "profile"' "$TRACEJSONL" \
    | awk -F'"secs": ' '{ v = $2; sub(/[^0-9.eE+-].*/, "", v); print v "\t" $0 }' \
    | sort -gr | head -5 | cut -f2- | sed 's/^/    /;s/$/,/' | sed '$ s/,$//')

# Scale campaign: the full everywhere stack swept up to n = 2^17
# (≥ 10^5 processors) under the reduced-constant scale profile
# (`exp scale-131072`), with
# trace-report fitting bits/good-proc to c·√n·log₂^k(n) from the
# emitted trial events. The largest row completing end-to-end is the
# headline number of the batching/caching/arena work.
echo "== scale sweep (everywhere stack up to n = 131072) =="
SCALEJSON="$(mktemp)"
SCALETRACE="$(mktemp)"
trap 'rm -f "$NDJSON" "$SCNJSON" "$TRACEJSONL" "$SCALEJSON" "$SCALETRACE"' EXIT
target/release/exp scale-131072 --json "$SCALEJSON" --trace "$SCALETRACE"
SCALE_FIT=$(cargo run --release --offline -p ba-bench --bin trace-report -- \
    "$SCALETRACE" | grep '^fit:' | sed 's/^fit: //')
echo "   fit: ${SCALE_FIT}"

# Adversary-search throughput: trials/sec over the default seed-pinned
# hunt (grid + sampled fault space, including each finding's shrink).
echo "== hunt throughput =="
HUNT_BUDGET=220
start=$(date +%s.%N)
cargo run --release --offline -p ba-bench --bin hunt -- \
    --seed 7 --budget "$HUNT_BUDGET" >/dev/null
end=$(date +%s.%N)
HUNT_WALL=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", b - a }')
HUNT_TPS=$(awk -v t="$HUNT_BUDGET" -v w="$HUNT_WALL" \
    'BEGIN { if (w > 0) printf "%.1f", t / w; else print "0" }')
echo "   ${HUNT_WALL}s wall, ${HUNT_TPS} trials/sec"

# Service throughput: the ba-serve daemon hosting concurrent agreement
# sessions over loopback TCP, measured by the load client (latency
# percentiles, sessions/sec, bytes on the wire).
echo "== serve throughput (64 concurrent sessions over loopback TCP) =="
SERVE_ADDR="$(mktemp)"
SERVE_JSON="$(mktemp)"
trap 'rm -f "$NDJSON" "$SCNJSON" "$TRACEJSONL" "$SCALEJSON" "$SCALETRACE" "$SERVE_ADDR" "$SERVE_JSON"' EXIT
rm -f "$SERVE_ADDR"
timeout 600 target/release/serve \
    --port-file "$SERVE_ADDR" --workers 8 --queue 64 >/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -s "$SERVE_ADDR" ]] && break; sleep 0.1; done
[[ -s "$SERVE_ADDR" ]] || { echo "serve: daemon never published its port"; exit 1; }
target/release/load \
    --port-file "$SERVE_ADDR" --sessions 64 --concurrency 16 \
    --json "$SERVE_JSON" --shutdown
wait "$SERVE_PID"

# ns/iter for one benchmark name out of the collected ndjson
# (lines look like {"bench":"gf16/mul","ns_per_iter":1.97}).
ns() {
    awk -F'"' -v want="$2" \
        '$2 == "bench" && $4 == want { v = $7; sub(/^:/, "", v); sub(/}/, "", v); print v }' \
        "$1" | tail -1
}

speedup() {
    awk -v new="$1" -v ref="$2" 'BEGIN { if (new > 0) printf "%.1f", ref / new; else print "0" }'
}

GF_MUL=$(ns "$NDJSON" "gf16/mul");           GF_MUL_REF=$(ns "$NDJSON" "gf16/mul_ref")
GF_INV=$(ns "$NDJSON" "gf16/inv");           GF_INV_REF=$(ns "$NDJSON" "gf16/inv_ref")
SH_64=$(ns "$NDJSON" "shamir/reconstruct_n64")
SH_64_REF=$(ns "$NDJSON" "shamir/reconstruct_ref_n64")
SH_256=$(ns "$NDJSON" "shamir/reconstruct_n256")
SH_256_REF=$(ns "$NDJSON" "shamir/reconstruct_ref_n256")

{
    echo "{"
    echo "  \"suite\": \"king-saia micro + experiments\","
    echo "  \"toolchain\": \"$(rustc --version | tr -d '\n')\","
    echo "  \"speedups_vs_reference_kernel\": {"
    echo "    \"gf16_mul\": $(speedup "$GF_MUL" "$GF_MUL_REF"),"
    echo "    \"gf16_inv\": $(speedup "$GF_INV" "$GF_INV_REF"),"
    echo "    \"shamir_reconstruct_n64\": $(speedup "$SH_64" "$SH_64_REF"),"
    echo "    \"shamir_reconstruct_n256\": $(speedup "$SH_256" "$SH_256_REF")"
    echo "  },"
    echo "  \"micro_ns_per_iter\": ["
    awk -F'"' '$2 == "bench" { v = $7; sub(/^:/, "", v); sub(/}/, "", v);
        printf "    {\"bench\": \"%s\", \"ns_per_iter\": %s},\n", $4, v }' "$NDJSON" \
        | sed '$ s/,$//'
    echo "  ],"
    echo "  \"experiments\": ["
    printf "%b\n" "$EXP_ROWS"
    echo "  ],"
    echo "  \"trace_overhead\": {"
    echo "    \"scenarios\": \"03-partition-during-election + 07-everywhere-lossy\","
    echo "    \"untraced_wall_seconds\": ${UNTRACED_WALL},"
    echo "    \"traced_wall_seconds\": ${TRACED_WALL},"
    echo "    \"ratio\": ${TRACE_RATIO}"
    echo "  },"
    echo "  \"profile_hotspots\": ["
    printf "%s\n" "$PROFILE_ROWS"
    echo "  ],"
    echo "  \"scale\": {"
    echo "    \"fit\": \"${SCALE_FIT}\","
    echo "    \"rows\":"
    sed 's/^/    /' "$SCALEJSON"
    echo "  },"
    echo "  \"hunt\": {"
    echo "    \"budget_trials\": ${HUNT_BUDGET},"
    echo "    \"wall_seconds\": ${HUNT_WALL},"
    echo "    \"trials_per_second\": ${HUNT_TPS}"
    echo "  },"
    echo "  \"serve\":"
    sed 's/^/  /' "$SERVE_JSON" | sed '$ s/$/,/'
    echo "  \"scenarios\":"
    sed 's/^/  /' "$SCNJSON"
    echo "}"
} > "$OUT"

echo "wrote $OUT"
