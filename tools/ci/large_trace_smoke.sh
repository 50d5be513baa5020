#!/bin/sh
# Large-trace streaming smoke test (CI): generate a ~1M-event trace with
# st-analyze --gen, stream it through the full analysis ladder in a single
# pass, and assert the streaming guarantees hold in practice:
#
#  - peak memory stays bounded (hard virtual-address-space caps via
#    ulimit -v; materializing the trace or the race records would blow
#    them, analysis metadata does not);
#  - wall time stays under a budget (timeout);
#  - the text and STB encodings produce identical verdicts.
#
# When a second argument (path to st-lint) is given, both encodings are
# also linted as a pre-analyze gate: hard violations (exit 2) fail the
# smoke; soft lints (exit 3) are expected on synthetic workloads (the
# random generator leaves empty critical sections by design).
#
# When a third argument (path to st-serve) is given, the same 1M-event
# trace is also served over a unix socket: st-serve under its own 256MB
# cap, st-analyze --connect uploading from stdin under the same cap, and
# the client must exit 2 with the streamed summary — the serving pipeline
# inherits the O(1)-memory guarantee end to end.
#
# Usage: large_trace_smoke.sh path/to/st-analyze [st-lint] [st-serve]
set -eu

ST=${1:?usage: large_trace_smoke.sh path/to/st-analyze [st-lint] [st-serve]}
LINT=${2:-}
SERVE=${3:-}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

GEN_SPEC=threads=4,vars=6,locks=3,events=1000000,seed=11
TIME_BUDGET=${SMOKE_TIME_BUDGET:-300}

# Runs "$@" under a vmem cap (KB) and the time budget, streaming from
# stdin; requires exit code 2 (races found — the generated trace races).
expect_races() {
    vmem_kb=$1
    input=$2
    shift 2
    rc=0
    (
        ulimit -v "$vmem_kb"
        timeout "$TIME_BUDGET" "$@" - < "$input" > /dev/null
    ) || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: '$*' on $input exited $rc (wanted 2: races, in budget," \
             "under the ${vmem_kb}KB cap)"
        exit 1
    fi
}

echo "== generating ~1M-event trace, then converting text -> STB"
"$ST" --gen "$GEN_SPEC" -o "$DIR/big.trace"
# Conversion (not a second --gen) so both encodings carry the same
# line-number sites and static race counts must match exactly.
"$ST" --convert=stb -o "$DIR/big.stb" "$DIR/big.trace"
ls -l "$DIR"

if [ -n "$LINT" ]; then
    echo "== pre-analyze lint gate over both encodings (1M events, streamed)"
    for f in big.trace big.stb; do
        rc=0
        (
            ulimit -v 262144
            timeout "$TIME_BUDGET" "$LINT" --quiet "$DIR/$f"
        ) || rc=$?
        if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
            echo "FAIL: st-lint on $f exited $rc (wanted 0 or 3: no hard" \
                 "violations, in budget, under the 256MB cap)"
            exit 1
        fi
    done
fi

echo "== single analysis, text stdin, 256MB address-space cap"
expect_races 262144 "$DIR/big.trace" "$ST" --analysis=ST-WDC --quiet --max-races=16

echo "== all 14 analyses, single pass, STB stdin, 1GB address-space cap"
expect_races 1048576 "$DIR/big.stb" "$ST" --all --quiet --max-races=16

echo "== all 14 analyses, parallel fan-out, STB stdin, 1GB cap"
expect_races 1048576 "$DIR/big.stb" "$ST" --all --quiet --max-races=16 --parallel

echo "== NDJSON race stream, 256MB cap, every line valid JSON"
# Races stream out through the NdjsonSink as they are detected, so even a
# racy 1M-event run holds O(1) race memory (hence the same cap as the
# single-analysis cell). Every emitted line must parse as a standalone
# JSON object, and there must be exactly one race line per dynamic race
# the summary counts.
rc=0
(
    ulimit -v 262144
    timeout "$TIME_BUDGET" "$ST" --analysis=ST-WDC --format=ndjson - \
        < "$DIR/big.trace" > "$DIR/races.ndjson"
) || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "FAIL: ndjson run exited $rc (wanted 2: races, in budget," \
         "under the 256MB cap)"
    exit 1
fi
if ! python3 -m json.tool --json-lines < "$DIR/races.ndjson" > /dev/null; then
    echo "FAIL: ndjson output contains an invalid line"
    exit 1
fi
race_lines=$(grep -c '"type":"race"' "$DIR/races.ndjson")
if ! grep -q '"type":"summary"' "$DIR/races.ndjson"; then
    echo "FAIL: ndjson output is missing the summary line"
    exit 1
fi
dynamic_races=$(sed -n \
    's/^{"type":"summary".*"dynamic_races":\([0-9]*\).*/\1/p' \
    "$DIR/races.ndjson")
if [ "$race_lines" != "$dynamic_races" ]; then
    echo "FAIL: $race_lines race lines, but the summary counts" \
         "'$dynamic_races' dynamic races"
    exit 1
fi
echo "   $race_lines race lines (= the summary's dynamic_races) + summaries," \
     "all valid JSON"

echo "== text and STB encodings agree on every analysis"
for f in big.trace big.stb; do
    rc=0
    "$ST" --all --quiet --max-races=16 "$DIR/$f" > "$DIR/$f.out" || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: --all on $f exited $rc (wanted 2: races found)"
        exit 1
    fi
done
if ! cmp -s "$DIR/big.trace.out" "$DIR/big.stb.out"; then
    echo "FAIL: summaries differ between text and STB input"
    diff "$DIR/big.trace.out" "$DIR/big.stb.out" | head -20
    exit 1
fi
head -3 "$DIR/big.trace.out"

if [ -n "$SERVE" ]; then
    echo "== served run: 1M events over a unix socket, 256MB cap each side"
    SOCK="$DIR/serve.sock"
    (
        ulimit -v 262144
        timeout "$TIME_BUDGET" "$SERVE" --listen=unix:"$SOCK" \
            --max-conns=1 2> "$DIR/serve.log"
    ) &
    SERVE_PID=$!
    i=0
    while [ ! -S "$SOCK" ] && [ "$i" -lt 200 ]; do sleep 0.05; i=$((i+1)); done
    rc=0
    (
        ulimit -v 262144
        timeout "$TIME_BUDGET" "$ST" --connect=unix:"$SOCK" --quiet - \
            < "$DIR/big.trace" > "$DIR/served.out"
    ) || rc=$?
    wait "$SERVE_PID" || true
    cat "$DIR/serve.log"
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: served run exited $rc (wanted 2: races, in budget," \
             "under the 256MB caps)"
        exit 1
    fi
    if ! grep -q '"total_dynamic_races"' "$DIR/served.out"; then
        echo "FAIL: served run did not relay the stream summary"
        exit 1
    fi
    if ! grep -q '1 accepted, 1 completed, 0 evicted, 0 rejected' \
        "$DIR/serve.log"; then
        echo "FAIL: st-serve accounting did not record a clean completion"
        exit 1
    fi
fi

echo "OK: streamed 1M events through the ladder within memory and time budgets"
