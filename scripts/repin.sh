#!/usr/bin/env bash
# Measures every recorded outcome constant and sets it beside the value
# on record: the one place that knows how each pin is taken.
#
# Usage: scripts/repin.sh [--write]
#   (no flag)  check: prints `pin  old -> new` for every pin and exits
#              non-zero if one moved, a golden test failed or a run broke
#              its own budget. `scripts/ci.sh` runs this as its scale and
#              serve smokes.
#   --write    prints the same table, then records what it measured:
#              rewrites scripts/pins.env and replaces each moved number
#              wherever .claude/skills/verify/SKILL.md quotes it. Put the
#              table in the PR and in CHANGES.md.
#
# Numeric pins (scripts/pins.env): the exp_scale rows' bits and rounds at
# n = 4096 and 16384, and the serve daemon's data frames and bytes for a
# pass of fans and a pass of singles. Golden tests (constants recorded in
# their own source, re-recorded by hand as each says): the engine's
# delivery order and counters, the Theorem 1 / Theorem 2 shapes, the
# partition elections, the hunt's pinned regressions and the finding CI
# expects. Rounds are fixed by the schedule, never by a draw: if they
# move, something other than a stream changed, and --write refuses.

set -euo pipefail
cd "$(dirname "$0")/.."

WRITE=0
case "${1:-}" in
    "") ;;
    --write) WRITE=1 ;;
    *) echo "usage: scripts/repin.sh [--write]"; exit 2 ;;
esac

PINS=scripts/pins.env
SKILL=.claude/skills/verify/SKILL.md
# shellcheck source=scripts/pins.env
source "$PINS"

cargo build --release --offline

TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

PIN_NAMES=(SCALE_4096_BITS SCALE_4096_ROUNDS SCALE_16384_BITS SCALE_16384_ROUNDS
    SERVE_FANS_FRAMES SERVE_FANS_BYTES SERVE_SINGLES_FRAMES SERVE_SINGLES_BYTES)

FAILED=0
fail() { echo "repin: $*"; FAILED=1; }
# The value of `"field": value` on the first line of a JSON file that
# holds `row` (exp_scale writes a row a line, load a field a line).
json_field() { # <file> <field> [row]
    grep -- "${3:-}" "$1" | grep -o "\"$2\": [^,}]*" | head -n 1 | sed 's/.*: //' || true
}

echo "== scale rows (everywhere stack end-to-end at n = 4096 and 16384) =="
# One seed of the full Algorithm 4 stack under exp_scale's scale profile
# at two sizes: the batched-envelope tournament, the cached sampler
# registry, the arena share trees and the engine's one-buffer rounds at a
# five-digit n, and the one byte-identity check on the committee stack at
# the reduced-constant profile. The time budget is generous (the rows are
# ~0.4 s and ~3.5 s release on two cores); the memory budget is not: the
# 16384 row peaks at ~480 MB (640-720 while a registry kept committee
# graphs alive), and a second copy of an Algorithm 3 round in the engine
# (~270 MB; it was ~1250 MB in all with four) crosses 600.
timeout 90 target/release/exp_scale --max-n 16384 --json "$TMP/scale.json"
scale_field() { json_field "$TMP/scale.json" "$2" "\"n\": $1,"; } # <n> <field>
for n in 4096 16384; do
    [[ "$(scale_field "$n" agreement)" == "true" ]] \
        || fail "scale: the n = $n row did not reach everywhere agreement"
done
awk -v rss="$(scale_field 16384 peak_rss_mb)" 'BEGIN { exit (rss + 0 > 0 && rss + 0 <= 600) ? 0 : 1 }' \
    || fail "scale: n = 16384 peaked at $(scale_field 16384 peak_rss_mb) MB (budget 600)"
NEW_SCALE_4096_BITS="$(scale_field 4096 bits_good_max)"
NEW_SCALE_4096_ROUNDS="$(scale_field 4096 rounds)"
NEW_SCALE_16384_BITS="$(scale_field 16384 bits_good_max)"
NEW_SCALE_16384_ROUNDS="$(scale_field 16384 rounds)"

echo "== serve wire (TCP daemon, both frame kinds, graceful shutdown) =="
# Boots the ba-serve daemon on an ephemeral loopback port and runs two
# load passes through it: four sessions of the default spec (tournament
# n = 64, trials 0-3: nothing but fans, SendMany/DeliverMany) and four of
# an engine-hosted scenario (phase_king n = 48 under a configured
# schedule: nothing but singles, Send/Deliver). Requires: every session
# reaches agreement, the daemon drains cleanly on shutdown, the whole
# dance fits in a timeout (a hung accept loop or switch deadlock fails
# here). The server-counted data frames and bytes of each pass are exact
# per seed: frame boundaries are a function of the executor's calls
# alone. A transport that fell back to a frame per recipient (b37dcd8)
# reads 54 645 136 B on the first pass in 60 times the frames.
timeout 180 target/release/serve \
    --port-file "$TMP/addr" --workers 2 --queue 4 &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -s "$TMP/addr" ]] && break; sleep 0.1; done
[[ -s "$TMP/addr" ]] || { echo "serve: daemon never published its port"; exit 1; }
serve_pass() { # <json out> <load arguments...>
    local json="$1"
    shift
    timeout 120 target/release/load --port-file "$TMP/addr" \
        --sessions 4 --concurrency 2 --json "$json" "$@" | tee "$TMP/load.log"
    grep -q "all_agreed = true" "$TMP/load.log" \
        || fail "serve: sessions completed without full agreement"
}
serve_pass "$TMP/fans.json"
serve_pass "$TMP/singles.json" --spec scenarios/00-baseline-sync.scn --shutdown
wait "$SERVE_PID" || fail "serve: the daemon did not drain cleanly"
SERVE_PID=""
NEW_SERVE_FANS_FRAMES="$(json_field "$TMP/fans.json" server_data_frames)"
NEW_SERVE_FANS_BYTES="$(json_field "$TMP/fans.json" server_data_bytes)"
NEW_SERVE_SINGLES_FRAMES="$(json_field "$TMP/singles.json" server_data_frames)"
NEW_SERVE_SINGLES_BYTES="$(json_field "$TMP/singles.json" server_data_bytes)"

echo "== golden tests (constants recorded in their own source) =="
golden() { # <what to do when it moved> <cargo test arguments...>
    local remedy="$1"
    shift
    if cargo test -q --offline "$@" >"$TMP/golden.log" 2>&1; then
        echo "  holds: cargo test $*"
    else
        tail -n 20 "$TMP/golden.log"
        fail "moved: cargo test $* ($remedy)"
    fi
}
golden "re-record its lines: run it with --nocapture" --test engine_golden
golden "re-pick the seeds its header says are pinned" --test theorem_shapes
golden "re-pick its seeds" --test partition_elections
golden "re-hunt: hunt --pin scenarios/regressions" -p ba-exp --lib pinned_regressions
# The whole grid plus a sampled tail (~0.3 s): must keep rediscovering
# the coordinator-equivocation break against the leader-based baselines.
if target/release/hunt --seed 7 --budget 220 --expect equivocate >"$TMP/hunt.log" 2>&1; then
    echo "  holds: hunt --seed 7 --budget 220 --expect equivocate"
else
    cat "$TMP/hunt.log"
    fail "moved: the hunt no longer finds the equivocation break (re-pick --seed in this script)"
fi

echo "== pins: on record -> measured =="
MOVED=0
ROUNDS_MOVED=0
for pin in "${PIN_NAMES[@]}"; do
    old="${!pin}"
    new_var="NEW_$pin"
    new="${!new_var}"
    [[ "$new" =~ ^[0-9]+$ ]] || { echo "repin: could not measure $pin (read '$new')"; exit 1; }
    if [[ "$old" == "$new" ]]; then
        printf '  %-22s %12s    (unchanged)\n' "$pin" "$old"
    else
        printf '  %-22s %12s -> %s\n' "$pin" "$old" "$new"
        MOVED=1
        [[ "$pin" == *_ROUNDS ]] && ROUNDS_MOVED=1
    fi
done
if [[ "$ROUNDS_MOVED" == 1 ]]; then
    fail "rounds are schedule-fixed: something other than a stream changed"
fi

if [[ "$WRITE" == 1 ]]; then
    [[ "$FAILED" == 0 ]] || { echo "repin: not recording a run that failed"; exit 1; }
    for pin in "${PIN_NAMES[@]}"; do
        old="${!pin}"
        new_var="NEW_$pin"
        new="${!new_var}"
        [[ "$old" == "$new" ]] && continue
        sed -i "s/^$pin=.*/$pin=$new/" "$PINS"
        sed -i "s/\\b$old\\b/$new/g" "$SKILL"
    done
    echo "repin: recorded in $PINS and $SKILL"
    exit 0
fi
[[ "$MOVED" == 0 ]] || fail "a pin moved: if it was meant to, run scripts/repin.sh --write and list the table in CHANGES.md"
[[ "$FAILED" == 0 ]] || exit 1
echo "repin: every pin holds"
