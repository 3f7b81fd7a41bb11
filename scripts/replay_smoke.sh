#!/usr/bin/env bash
# replay_smoke.sh — end-to-end smoke test for the trace replay tier.
#
# Builds the CLI, renders an interpreted reference sweep and grid, then
# runs the same work with a trace archive attached: the cold run must
# record (nonzero "trace records" in the runner stats line), and a second
# run against a FRESH result store — so every cell is cold again — must
# be served entirely by replay (zero records, nonzero replays) while
# rendering byte-identical output — every leg that asserts replays in
# its stderr log diffs the stdout render of that same invocation
# against the interpreted reference. Finishes with the trace
# subcommands:
# `trace record` reports already-archived benchmarks as replayed,
# `trace ls` lists the recordings, and `trace verify` replays every
# archived stream end to end. CI runs this; it is also handy locally:
# scripts/replay_smoke.sh
set -euo pipefail

WORK="$(mktemp -d)"
BIN="$WORK/dynloop"
TRACES="$WORK/traces"
SWEEP_ARGS=(-bench swim,compress -policy str,str3 -tus 2,4 -n 200000)

cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

fail() { echo "replay_smoke: FAIL: $*" >&2; exit 1; }

echo "replay_smoke: building"
go build -o "$BIN" ./cmd/dynloop

echo "replay_smoke: interpreted references"
"$BIN" sweep "${SWEEP_ARGS[@]}" -parallel 1 >"$WORK/ref-sweep.txt"
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
"$BIN" grid -spec "$WORK/grid.json" -parallel 1 >"$WORK/ref-grid.txt"

echo "replay_smoke: cold run records"
"$BIN" sweep "${SWEEP_ARGS[@]}" -traces "$TRACES" -store "$WORK/store1" -parallel 4 -progress \
  >"$WORK/cold-sweep.txt" 2>"$WORK/cold.log"
cmp "$WORK/ref-sweep.txt" "$WORK/cold-sweep.txt" || fail "traced cold sweep differs from interpreted run"
grep -E '[1-9][0-9]* trace records' "$WORK/cold.log" >/dev/null \
  || fail "cold run recorded nothing: $(cat "$WORK/cold.log")"

echo "replay_smoke: fresh store, warm archive — replay only"
"$BIN" sweep "${SWEEP_ARGS[@]}" -traces "$TRACES" -store "$WORK/store2" -parallel 4 -progress \
  >"$WORK/warm-sweep.txt" 2>"$WORK/warm.log"
cmp "$WORK/ref-sweep.txt" "$WORK/warm-sweep.txt" || fail "replayed sweep differs from interpreted run"
grep -E '[1-9][0-9]* trace replays, 0 trace records' "$WORK/warm.log" >/dev/null \
  || fail "warm-archive run did not replay everything: $(cat "$WORK/warm.log")"

echo "replay_smoke: grid over the archive"
# The grid adds seed 2, which the sweep never recorded: the first pass
# replays the seed-1 groups and records the seed-2 ones, the second pass
# replays everything.
"$BIN" grid -spec "$WORK/grid.json" -traces "$TRACES" -parallel 4 -progress \
  >"$WORK/grid1.txt" 2>"$WORK/grid1.log"
cmp "$WORK/ref-grid.txt" "$WORK/grid1.txt" || fail "traced grid differs from interpreted run"
grep -E '[1-9][0-9]* trace replays' "$WORK/grid1.log" >/dev/null \
  || fail "grid did not replay the archived seed-1 groups: $(cat "$WORK/grid1.log")"
"$BIN" grid -spec "$WORK/grid.json" -traces "$TRACES" -parallel 4 -progress \
  >"$WORK/grid2.txt" 2>"$WORK/grid2.log"
cmp "$WORK/ref-grid.txt" "$WORK/grid2.txt" || fail "replayed grid differs from interpreted run"
grep -E '[1-9][0-9]* trace replays, 0 trace records' "$WORK/grid2.log" >/dev/null \
  || fail "grid over fully warm archive re-recorded: $(cat "$WORK/grid2.log")"

echo "replay_smoke: trace subcommands"
"$BIN" trace record -traces "$TRACES" -bench swim -n 200000 >"$WORK/record.txt"
grep 'already archived, replayed' "$WORK/record.txt" >/dev/null \
  || fail "trace record re-recorded an archived benchmark: $(cat "$WORK/record.txt")"
"$BIN" trace ls -traces "$TRACES" >"$WORK/ls.txt"
grep swim "$WORK/ls.txt" >/dev/null || fail "trace ls is missing swim: $(cat "$WORK/ls.txt")"
grep compress "$WORK/ls.txt" >/dev/null || fail "trace ls is missing compress: $(cat "$WORK/ls.txt")"
"$BIN" trace verify -traces "$TRACES" || fail "trace verify rejected a freshly recorded archive"

echo "replay_smoke: PASS"
