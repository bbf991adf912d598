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
# Pins (scripts/pins.env): the `exp scale` rows' bits and rounds at
# n = 4096 and 16384, the `exp scale-jitter` ones at 512 and 1024 with
# each row's net totals (sent, delivered, dropped), the serve daemon's data frames and bytes for a pass
# of fans and a pass of singles, and the sha256 of what `exp run` writes
# for the whole scenario library (its JSON rows, and its trace without the
# wall-clock profile section; the rows are measured again on one ba-par
# lane and must equal the default lanes'), and the sha256 of the whole hunt report
# (`hunt --seed 7 --budget 220`: its candidates, draws, shrinks and
# text). Golden tests (constants recorded in
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
    SCALE_JITTER_512_BITS SCALE_JITTER_512_ROUNDS SCALE_JITTER_1024_BITS SCALE_JITTER_1024_ROUNDS
    SCALE_JITTER_512_SENT SCALE_JITTER_512_DELIVERED SCALE_JITTER_512_DROPPED
    SCALE_JITTER_1024_SENT SCALE_JITTER_1024_DELIVERED SCALE_JITTER_1024_DROPPED
    SERVE_FANS_FRAMES SERVE_FANS_BYTES SERVE_SINGLES_FRAMES SERVE_SINGLES_BYTES
    LIBRARY_ROWS LIBRARY_TRACE HUNT_REPORT)

FAILED=0
fail() { echo "repin: $*"; FAILED=1; }
# The value of `"field": value` on the first line of a JSON file that
# holds `row` (exp writes a row a line, load a field a line).
json_field() { # <file> <field> [row]
    grep -- "${3:-}" "$1" | grep -o "\"$2\": [^,}]*" | head -n 1 | sed 's/.*: //' || true
}

echo "== scale rows (everywhere stack end-to-end at n = 4096 and 16384) =="
# One seed of the full Algorithm 4 stack under the scale profile
# (`exp scale`) at two sizes: the batched-envelope tournament, the flat gossip graphs,
# the arena share trees and the engine's one-buffer rounds at a
# five-digit n, and the one byte-identity check on the committee stack at
# the reduced-constant profile. The time budget is generous (the rows are
# ~0.4 s and ~3.5 s release on two cores); the memory budget is not: the
# 16384 row peaks at ~480 MB (640-720 while a registry kept committee
# graphs alive), and a second copy of an Algorithm 3 round in the engine
# (~270 MB; it was ~1250 MB in all with four) crosses 600.
timeout 90 target/release/exp scale --json "$TMP/scale.json" --trace "$TMP/scale.jsonl"
# The rows are trials in the harness's trial:* schema: each one's phase
# bits must sum to its total_bits, as for every traced harness run.
target/release/trace-report --check "$TMP/scale.jsonl" >"$TMP/scale-report.log" \
    || { cat "$TMP/scale-report.log"; fail "scale: the trace fails trace-report --check"; }
# An Experiment row: labels are strings, values numbers.
scale_field() { json_field "$TMP/scale.json" "$2" "\"n\": \"$1\","; } # <n> <field>
for n in 4096 16384; do
    [[ "$(scale_field "$n" agreement)" == "1" ]] \
        || fail "scale: the n = $n row did not reach everywhere agreement"
done
awk -v rss="$(scale_field 16384 peak_rss_mb)" 'BEGIN { exit (rss + 0 > 0 && rss + 0 <= 600) ? 0 : 1 }' \
    || fail "scale: n = 16384 peaked at $(scale_field 16384 peak_rss_mb) MB (budget 600)"
NEW_SCALE_4096_BITS="$(scale_field 4096 bits_good_max)"
NEW_SCALE_4096_ROUNDS="$(scale_field 4096 rounds)"
NEW_SCALE_16384_BITS="$(scale_field 16384 bits_good_max)"
NEW_SCALE_16384_ROUNDS="$(scale_field 16384 rounds)"

echo "== scale rows over a faulty net (everywhere stack at n = 512 and 1024) =="
# The same stack over stack-jitter-256's lossy, jittered net
# (`exp scale-jitter`, ~12-16 s, ~355 MB at 1024): the only pin on
# committees wide enough that a fan puts several recipients in one tick,
# so the drain hands the tournament partial groups of several. The most
# a good processor sends is fixed by the schedule, so the bits alone are
# blind to the net's draws; each row's `NetStats` totals (the `net:`
# line printed under it) read them.
timeout 120 target/release/exp scale-jitter --json "$TMP/scale-jitter.json" >"$TMP/scale-jitter.log"
jitter_field() { json_field "$TMP/scale-jitter.json" "$2" "\"n\": \"$1\","; } # <n> <field>
for n in 512 1024; do
    [[ "$(jitter_field "$n" agreement)" == "1" ]] \
        || fail "scale-jitter: the n = $n row did not reach everywhere agreement"
done
NEW_SCALE_JITTER_512_BITS="$(jitter_field 512 bits_good_max)"
NEW_SCALE_JITTER_512_ROUNDS="$(jitter_field 512 rounds)"
NEW_SCALE_JITTER_1024_BITS="$(jitter_field 1024 bits_good_max)"
NEW_SCALE_JITTER_1024_ROUNDS="$(jitter_field 1024 rounds)"
# `<n> <sent> <delivered> <dropped>` for each row's `net:` line.
awk '$1 ~ /^[0-9]+$/ { n = $1 } $1 == "net:" { print n, $2, $4, $6 }' \
    "$TMP/scale-jitter.log" >"$TMP/scale-jitter-net.txt"
jitter_net() { awk -v n="$1" -v col="$2" '$1 == n { print $col }' "$TMP/scale-jitter-net.txt"; } # <n> <column>
for n in 512 1024; do
    printf -v "NEW_SCALE_JITTER_${n}_SENT" '%s' "$(jitter_net "$n" 2)"
    printf -v "NEW_SCALE_JITTER_${n}_DELIVERED" '%s' "$(jitter_net "$n" 3)"
    printf -v "NEW_SCALE_JITTER_${n}_DROPPED" '%s' "$(jitter_net "$n" 4)"
done

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

echo "== scenario library (exp run: every .scn, rows and trace) =="
# Every spec under scenarios/ and scenarios/regressions at its own trial
# count (~2 s): each protocol over every kind of net the grammar can
# say, every delivery policy among them. The rows and the trace lines are
# exact per seed at any BA_PAR_THREADS; the profile section is wall-clock
# and is left out.
timeout 120 target/release/exp run --json "$TMP/library.json" --trace "$TMP/library.jsonl" \
    scenarios scenarios/regressions >"$TMP/library.log" \
    || { cat "$TMP/library.log"; fail "library: exp run failed"; }
NEW_LIBRARY_ROWS="$(sha256sum <"$TMP/library.json" | cut -d' ' -f1)"
NEW_LIBRARY_TRACE="$(grep -v '"section": "profile"' "$TMP/library.jsonl" | sha256sum | cut -d' ' -f1)"
# The same rows on one lane: `ba-par` lanes claim trials in whatever
# order they get to them, and the rows must not care.
BA_PAR_THREADS=1 timeout 120 target/release/exp run --json "$TMP/library-1.json" \
    scenarios scenarios/regressions >"$TMP/library-1.log" \
    || { cat "$TMP/library-1.log"; fail "library: exp run on one lane failed"; }
ONE_LANE_ROWS="$(sha256sum <"$TMP/library-1.json" | cut -d' ' -f1)"
[[ "$ONE_LANE_ROWS" == "$NEW_LIBRARY_ROWS" ]] \
    || fail "library: the rows on one lane ($ONE_LANE_ROWS) differ from the default lanes' ($NEW_LIBRARY_ROWS)"

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
# Its stdout is the report HUNT_REPORT pins; --expect only sets the exit.
if target/release/hunt --seed 7 --budget 220 --expect equivocate \
    >"$TMP/hunt.log" 2>"$TMP/hunt.err"; then
    echo "  holds: hunt --seed 7 --budget 220 --expect equivocate"
else
    cat "$TMP/hunt.log" "$TMP/hunt.err"
    fail "moved: the hunt no longer finds the equivocation break (re-pick --seed in this script)"
fi
NEW_HUNT_REPORT="$(sha256sum <"$TMP/hunt.log" | cut -d' ' -f1)"

echo "== pins: on record -> measured =="
MOVED=0
ROUNDS_MOVED=0
for pin in "${PIN_NAMES[@]}"; do
    old="${!pin}"
    new_var="NEW_$pin"
    new="${!new_var}"
    [[ "$new" =~ ^[0-9a-f]+$ ]] || { echo "repin: could not measure $pin (read '$new')"; exit 1; }
    if [[ "$old" == "$new" ]]; then
        printf '  %-27s %12s    (unchanged)\n' "$pin" "$old"
    else
        printf '  %-27s %12s -> %s\n' "$pin" "$old" "$new"
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
        # A pin recorded for the first time has no old value to replace.
        [[ -z "$old" ]] || sed -i "s/\\b$old\\b/$new/g" "$SKILL"
    done
    echo "repin: recorded in $PINS and $SKILL"
    exit 0
fi
[[ "$MOVED" == 0 ]] || fail "a pin moved: if it was meant to, run scripts/repin.sh --write and list the table in CHANGES.md"
[[ "$FAILED" == 0 ]] || exit 1
echo "repin: every pin holds"
