#!/usr/bin/env bash
# Regenerate a serving-perf snapshot and (optionally) append it to the
# checked-in BENCH_server.json perf trajectory.
#
# One command, fixed seed and workload, so successive snapshots are
# comparable run-to-run on the same machine. Absolute milliseconds still
# vary with hardware; when reading the trajectory across commits, track
# ratios (throughput, hit rate, queue-wait vs service split), not raw ms.
# Each snapshot records its provenance (git rev, host, CPU count) in
# "config" for exactly that reason.
#
#   scripts/bench_snapshot.sh                     # writes BENCH_server.json (one snapshot)
#   REQUESTS=500 OUT=bench.json scripts/bench_snapshot.sh
#   APPEND=1 OUT=BENCH_server.json scripts/bench_snapshot.sh
#       # append a fresh snapshot to the trajectory instead of overwriting
#   PROFILE=1 scripts/bench_snapshot.sh           # alloc accounting on (--profile)
#   PROFILE_OUT=profile.json scripts/bench_snapshot.sh
#       # also save the server's /debug/profile JSON after the run
#   SWEEP=500:500:8 scripts/bench_snapshot.sh     # open-loop saturation sweep
#   OPEN_LOOP=1 RATE=1000 scripts/bench_snapshot.sh
#       # one open-loop step at a fixed offered rate
#   CACHE_TRACE=run.trc scripts/bench_snapshot.sh
#       # also record the cache access trace (replay: trasyn-cachesim)
#
# Knobs (env): REQUESTS, CONNECTIONS, MIX, SEED, OUT, APPEND, PROFILE,
# PROFILE_OUT, HTTP_WORKERS, QUEUE_DEPTH, MAX_CONNS, KEEPALIVE_MS,
# OPEN_LOOP, RATE, SWEEP (START:STEP:COUNT), SWEEP_STEP_SECS,
# CACHE_TRACE.
set -euo pipefail
cd "$(dirname "$0")/.."

REQUESTS="${REQUESTS:-2000}"
CONNECTIONS="${CONNECTIONS:-4}"
MIX="${MIX:-mixed}"
SEED="${SEED:-42}"
OUT="${OUT:-BENCH_server.json}"
APPEND="${APPEND:-0}"
PROFILE="${PROFILE:-0}"
PROFILE_OUT="${PROFILE_OUT:-}"
HTTP_WORKERS="${HTTP_WORKERS:-4}"
QUEUE_DEPTH="${QUEUE_DEPTH:-64}"
MAX_CONNS="${MAX_CONNS:-10240}"
KEEPALIVE_MS="${KEEPALIVE_MS:-5000}"
OPEN_LOOP="${OPEN_LOOP:-0}"
RATE="${RATE:-0}"
SWEEP="${SWEEP:-}"
SWEEP_STEP_SECS="${SWEEP_STEP_SECS:-3}"
CACHE_TRACE="${CACHE_TRACE:-}"

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
HOST="$(uname -n 2>/dev/null || echo unknown)"

cargo build --release -p server

ADDR_FILE="$(mktemp)"
SNAP_FILE="$(mktemp)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -f "$ADDR_FILE" "$SNAP_FILE"
}
trap cleanup EXIT

SERVER_FLAGS=()
[ "$PROFILE" = "1" ] && SERVER_FLAGS+=(--profile)
[ -n "$CACHE_TRACE" ] && SERVER_FLAGS+=(--cache-trace "$CACHE_TRACE")
./target/release/trasyn-server \
    --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" \
    --http-workers "$HTTP_WORKERS" --queue-depth "$QUEUE_DEPTH" \
    --max-conns "$MAX_CONNS" --keepalive-timeout-ms "$KEEPALIVE_MS" \
    "${SERVER_FLAGS[@]+"${SERVER_FLAGS[@]}"}" &
SERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$ADDR_FILE" ] && break
    sleep 0.1
done
[ -s "$ADDR_FILE" ] || { echo "error: server did not report its address" >&2; exit 1; }

LOADGEN_FLAGS=(--trace-summary --profile-summary)
[ -n "$PROFILE_OUT" ] && LOADGEN_FLAGS+=(--profile-json "$PROFILE_OUT")
if [ -n "$SWEEP" ]; then
    # Sweep mode replaces the fixed request count: a sequence of
    # open-loop steps, snapshot taken from the final (highest-rate) step
    # with the full per-step table and knee under "sweep".
    LOADGEN_FLAGS+=(--sweep "$SWEEP" --sweep-step-secs "$SWEEP_STEP_SECS")
elif [ "$OPEN_LOOP" = "1" ]; then
    [ "$RATE" != "0" ] || { echo "error: OPEN_LOOP=1 needs RATE=<req/s>" >&2; exit 1; }
    LOADGEN_FLAGS+=(--open-loop --rate "$RATE" --requests "$REQUESTS")
else
    LOADGEN_FLAGS+=(--requests "$REQUESTS")
fi
./target/release/trasyn-loadgen \
    --addr "$(cat "$ADDR_FILE")" \
    --connections "$CONNECTIONS" --mix "$MIX" --seed "$SEED" \
    --git-rev "$GIT_REV" --host "$HOST" \
    --json "$SNAP_FILE" --fail-on-error "${LOADGEN_FLAGS[@]}"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""

if [ "$APPEND" = "1" ]; then
    ./target/release/trasyn-benchdiff append "$OUT" "$SNAP_FILE"
else
    cp "$SNAP_FILE" "$OUT"
    echo "wrote $OUT"
fi
