#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for the grid-serving daemon.
#
# Builds the CLI, starts `dynloop serve` with a persistent store, runs
# the same small sweep locally and remotely (twice, so the second hits
# the daemon's cache), asserts all three outputs are byte-identical,
# does the same for a user-authored declarative grid spec (local run vs
# POST /v1/grid, plus a registered grid by name, plus the /v1/grids
# listing), restarts the daemon over the warm store and asserts the
# sweep is served purely from disk (zero traversals), then restarts it
# again with a warm trace archive and a FRESH store and asserts the
# sweep is served purely by replay (zero traversals, nonzero
# replay_runs, byte-identical to the local run), then SIGINTs the
# daemon and asserts a graceful zero exit. CI runs this; it is also
# handy locally: scripts/serve_smoke.sh
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-19095}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/dynloop"
STORE="$WORK/store"
SWEEP_ARGS=(-bench swim,compress -policy str,str3 -tus 2,4 -n 200000)
SERVE_PID=""

cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -9 "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "daemon at $BASE never became healthy"
}

start_daemon() {
  local name=$1
  shift
  "$BIN" serve -addr "$ADDR" -parallel 4 "$@" 2>"$WORK/serve-$name.log" &
  SERVE_PID=$!
  wait_healthy
}

stop_daemon_gracefully() {
  kill -INT "$SERVE_PID"
  local code=0
  wait "$SERVE_PID" || code=$?
  SERVE_PID=""
  [ "$code" -eq 0 ] || fail "daemon exited $code after SIGINT (want graceful 0)"
}

echo "serve_smoke: building"
go build -o "$BIN" ./cmd/dynloop

echo "serve_smoke: local reference sweep"
"$BIN" sweep "${SWEEP_ARGS[@]}" -parallel 1 >"$WORK/local.txt"

echo "serve_smoke: local reference grids"
cat >"$WORK/grid.json" <<'JSON'
{
  "title": "smoke: seed sweep at unpaper TU counts",
  "kind": "spec",
  "benchmarks": ["swim", "compress"],
  "seeds": [1, 2],
  "tus": [3, 5],
  "policies": ["str"],
  "budgets": [200000]
}
JSON
"$BIN" grid -spec "$WORK/grid.json" -parallel 1 >"$WORK/grid-local.txt"
"$BIN" grid -name table2 -bench swim,compress -n 200000 -parallel 1 >"$WORK/named-local.txt"

# metric NAME [FILE] prints one series value from a /metrics scrape.
metric() {
  awk -v m="$1" '$1 == m {print $2}' "$2"
}

echo "serve_smoke: daemon round trip"
start_daemon cold -store "$STORE"
curl -sf "$BASE/metrics" >"$WORK/metrics0.txt"
"$BIN" sweep "${SWEEP_ARGS[@]}" -remote "$BASE" >"$WORK/remote1.txt"
"$BIN" sweep "${SWEEP_ARGS[@]}" -remote "$BASE" >"$WORK/remote2.txt"
cmp "$WORK/local.txt" "$WORK/remote1.txt" || fail "remote sweep differs from local run"
cmp "$WORK/remote1.txt" "$WORK/remote2.txt" || fail "repeat remote sweep not stable"

echo "serve_smoke: metrics moved"
curl -sf "$BASE/metrics" >"$WORK/metrics1.txt"
for m in dynloop_runner_jobs_submitted_total dynloop_runner_jobs_executed_total \
         dynloop_runner_cache_hits_total dynloop_interp_instructions_total \
         'dynloop_http_requests_total{endpoint="/v1/grid"}'; do
  before=$(metric "$m" "$WORK/metrics0.txt")
  after=$(metric "$m" "$WORK/metrics1.txt")
  [ -n "$before" ] && [ -n "$after" ] || fail "series $m missing from scrape"
  [ "$after" -gt "$before" ] || fail "series $m did not move across the sweeps ($before -> $after)"
done

echo "serve_smoke: custom grid spec over POST /v1/grid"
"$BIN" grid -spec "$WORK/grid.json" -remote "$BASE" >"$WORK/grid-remote.txt"
cmp "$WORK/grid-local.txt" "$WORK/grid-remote.txt" || fail "remote custom grid differs from local run"
"$BIN" grid -name table2 -bench swim,compress -n 200000 -remote "$BASE" >"$WORK/named-remote.txt"
cmp "$WORK/named-local.txt" "$WORK/named-remote.txt" || fail "remote named grid differs from local run"
GRIDS="$(curl -sf "$BASE/v1/grids")"
case "$GRIDS" in
  *'"table1"'*) ;;
  *) fail "/v1/grids listing is missing table1: $GRIDS" ;;
esac
stop_daemon_gracefully

echo "serve_smoke: warm-store restart"
start_daemon warm -store "$STORE"
"$BIN" sweep "${SWEEP_ARGS[@]}" -remote "$BASE" >"$WORK/remote3.txt"
cmp "$WORK/local.txt" "$WORK/remote3.txt" || fail "warm-store sweep differs from local run"
STATS="$(curl -sf "$BASE/v1/stats")"
echo "serve_smoke: warm stats: $STATS"
case "$STATS" in
  *'"traversals":0'*) ;;
  *) fail "warm-store daemon re-ran traversals: $STATS" ;;
esac
case "$STATS" in
  *'"executed":0'*) ;;
  *) fail "warm-store daemon re-executed cells: $STATS" ;;
esac
stop_daemon_gracefully

echo "serve_smoke: warm trace archive, fresh store — replay tier"
TRACES="$WORK/traces"
"$BIN" sweep "${SWEEP_ARGS[@]}" -traces "$TRACES" -parallel 1 >/dev/null
start_daemon traces -store "$WORK/store-traces" -traces "$TRACES"
"$BIN" sweep "${SWEEP_ARGS[@]}" -remote "$BASE" >"$WORK/remote4.txt"
cmp "$WORK/local.txt" "$WORK/remote4.txt" || fail "replayed remote sweep differs from local run"
STATS="$(curl -sf "$BASE/v1/stats")"
echo "serve_smoke: replay stats: $STATS"
case "$STATS" in
  *'"traversals":0'*) ;;
  *) fail "traced daemon made interpreter traversals: $STATS" ;;
esac
case "$STATS" in
  *'"replay_runs":0'*) fail "traced daemon never replayed: $STATS" ;;
esac
case "$STATS" in
  *'"record_runs":0'*) ;;
  *) fail "traced daemon re-recorded archived groups: $STATS" ;;
esac
stop_daemon_gracefully

echo "serve_smoke: PASS"
