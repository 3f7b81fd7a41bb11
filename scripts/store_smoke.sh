#!/usr/bin/env bash
# store_smoke.sh — end-to-end smoke test for the on-disk result store.
#
# Builds the CLI, computes a paper-experiment subset into a fresh store
# and audits it with `store verify`, then re-renders the experiment from
# the store: the warm render must be byte-identical to the cold one,
# make ZERO interpreter traversals and report a nonzero disk-hit count.
# `store ls` and `store stats` must open the store and agree on its
# record count. Finally a daemon serves a registered grid from the same
# store (byte-identical to the local render, no cell executed), and its
# SIGINT shutdown summary must carry the `store:` line with nonzero get
# hits. CI runs this; it is also handy locally: scripts/store_smoke.sh
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-19097}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/dynloop"
STORE="$WORK/store"
EXP_ARGS=(all -bench swim,compress -n 200000)
GRID_ARGS=(-name table2 -bench swim,compress -n 200000)
SERVE_PID=""

cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -9 "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "store_smoke: FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "daemon at $BASE never became healthy"
}

# traversals FILE extracts the traversal count from a -progress obs line.
traversals() {
  sed -n 's/.* \([0-9][0-9]*\) traversals.*/\1/p' "$1" | tail -1
}

# count WHAT FILE extracts "N WHAT" from the last runner/daemon line.
count() {
  sed -n "s/.* \([0-9][0-9]*\) $1.*/\1/p" "$2" | tail -1
}

echo "store_smoke: building"
go build -o "$BIN" ./cmd/dynloop

echo "store_smoke: cold experiment into the store, then audit it"
"$BIN" experiment "${EXP_ARGS[@]}" -store "$STORE" -progress >"$WORK/render-cold.txt" 2>"$WORK/cold.log"
puts=$(count "disk puts" "$WORK/cold.log")
[ -n "$puts" ] && [ "$puts" -gt 0 ] || fail "cold render put no cells into the store: $(cat "$WORK/cold.log")"
"$BIN" store verify -store "$STORE" >"$WORK/verify.txt" || fail "fresh store failed verify"
cat "$WORK/verify.txt"

echo "store_smoke: warm re-render from the store"
"$BIN" experiment "${EXP_ARGS[@]}" -store "$STORE" -progress >"$WORK/render-warm.txt" 2>"$WORK/warm.log"
cmp "$WORK/render-cold.txt" "$WORK/render-warm.txt" || fail "warm render differs from cold render"
t=$(traversals "$WORK/warm.log")
[ "$t" = "0" ] || fail "warm render made $t traversals (want 0)"
hits=$(count "disk hits" "$WORK/warm.log")
[ -n "$hits" ] && [ "$hits" -gt 0 ] || fail "warm render reported no disk hits: $(cat "$WORK/warm.log")"

echo "store_smoke: store ls and store stats"
"$BIN" store ls -store "$STORE" >"$WORK/ls.txt"
cat "$WORK/ls.txt"
"$BIN" store stats -store "$STORE" >"$WORK/stats.txt"
cat "$WORK/stats.txt"
records=$(awk '/records:/ {print $2}' "$WORK/stats.txt")
[ -n "$records" ] && [ "$records" -gt 0 ] || fail "store stats reports no records"
grep -q "($records records," "$WORK/ls.txt" || fail "store ls disagrees with store stats ($records records)"
live=$(sed -n 's/.* \([0-9][0-9]*\) live.*/\1/p' "$WORK/verify.txt")
[ "$live" = "$records" ] || fail "store verify found $live live records, store stats $records"

echo "store_smoke: daemon serves the store"
"$BIN" grid "${GRID_ARGS[@]}" -store "$STORE" >"$WORK/grid-local.txt"
"$BIN" serve -addr "$ADDR" -parallel 2 -store "$STORE" 2>"$WORK/serve.log" &
SERVE_PID=$!
wait_healthy
"$BIN" grid "${GRID_ARGS[@]}" -remote "$BASE" -progress >"$WORK/grid-remote.txt" 2>"$WORK/grid-remote.log"
cmp "$WORK/grid-local.txt" "$WORK/grid-remote.txt" || fail "served grid differs from local render"
executed=$(count "executed" "$WORK/grid-remote.log")
[ "$executed" = "0" ] || fail "daemon executed $executed cells of a stored grid (want 0)"

kill -INT "$SERVE_PID"
code=0
wait "$SERVE_PID" || code=$?
SERVE_PID=""
[ "$code" -eq 0 ] || fail "daemon exited $code after SIGINT (want graceful 0)"
line=$(grep "^store: " "$WORK/serve.log") || fail "shutdown summary missing store line: $(cat "$WORK/serve.log")"
echo "store_smoke: $line"
case "$line" in
  *" 0/"*" get hits"*) fail "daemon served no cell from the store: $line" ;;
esac

echo "store_smoke: PASS"
