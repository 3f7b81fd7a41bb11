#!/usr/bin/env bash
# bench_smoke.sh — interpreter-core performance regression gate.
#
# Gate 1 runs BenchmarkRun (the full pipeline at the default batch
# size) once at a fixed iteration count and fails if ns/instruction
# exceeds the pinned ceiling. The ceiling is deliberately loose — the
# split-plane core measures ~4.5-4.8 ns/instr on the reference host
# (see BENCH_interp.json v2) and the ceiling sits at 6.5, well under
# the ~8.9 of the reference path — so normal runner-to-runner noise
# passes but losing a tentpole optimisation (or an accidental
# fall-back to the reference path) fails loudly. Also asserts the
# benchmark still reports 0 allocs/op on both legs: the
# zero-allocation batch path is part of the perf contract.
#
# Gate 2 runs the ctl-plane legs of BenchmarkTraceReplay and fails if
# a full replay (header-plane decode + consumer delivery) costs more
# than interpretation of the same stream into the same sink. The two
# sit ~1% apart on the reference host (7.2 vs 7.3 ns/instr), so the
# gate allows a noise ratio; losing the header-plane decode puts
# replay at full-decode cost (~+22%), which trips it.
#
# Gate 3 runs the allocation checks with -count=1: the scaling test
# (for every workload and registered grid, a warmed fused group must not
# allocate more at budget 4N than at N, so nothing allocates per loop
# execution) and every zero-allocation pin of the hot paths. It also
# runs the event-plane pins: TestCtlOnlyCellPlanes (only fig8's cells
# and traversals may use the full event plane, so a new stream observer
# that pulls a grid back onto it fails here) and TestBatchCutInvariance
# (the control-plane consumers compute the same results at every batch
# size on both planes).
#
# CI runs this; locally: scripts/bench_smoke.sh
set -euo pipefail

CEILING_NS="${BENCH_SMOKE_CEILING_NS:-6.5}"
REPLAY_RATIO="${BENCH_SMOKE_REPLAY_RATIO:-1.15}"
ITERS="${BENCH_SMOKE_ITERS:-2000000}"

fail() { echo "bench_smoke: FAIL: $*" >&2; exit 1; }

# parse_line VAR_PREFIX REGEX OUT — extracts ns/op and allocs/op from
# the first benchmark result line matching REGEX.
parse() {
	local line
	line="$(echo "$2" | grep -E "$1")" || fail "no result line matching $1"
	NS="$(echo "$line" | awk '{for (i=1; i<NF; i++) if ($(i+1) == "ns/op") print $i}')"
	ALLOCS="$(echo "$line" | awk '{for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i}')"
	[ -n "$NS" ] || fail "could not parse ns/op from: $line"
	[ -n "$ALLOCS" ] || fail "could not parse allocs/op from: $line"
}

echo "bench_smoke: BenchmarkRun x$ITERS (ceiling ${CEILING_NS} ns/instr)"
OUT="$(go test -run='^$' -bench='^BenchmarkRun$' -benchtime="${ITERS}x" .)"
echo "$OUT"

parse '^BenchmarkRun\b' "$OUT"
awk -v ns="$NS" -v ceil="$CEILING_NS" 'BEGIN { exit !(ns <= ceil) }' ||
	fail "BenchmarkRun at ${NS} ns/instr exceeds the ${CEILING_NS} ns ceiling"
[ "$ALLOCS" = "0" ] || fail "BenchmarkRun allocates (${ALLOCS} allocs/op), want 0"
RUN_NS="$NS"

echo "bench_smoke: BenchmarkTraceReplay interpret vs replay x$ITERS (ratio <= ${REPLAY_RATIO})"
OUT="$(go test -run='^$' -bench='^BenchmarkTraceReplay/(interpret|replay)$' -benchtime="${ITERS}x" .)"
echo "$OUT"

parse '^BenchmarkTraceReplay/interpret\b' "$OUT"
INTERP_NS="$NS"
[ "$ALLOCS" = "0" ] || fail "interpret leg allocates (${ALLOCS} allocs/op), want 0"
parse '^BenchmarkTraceReplay/replay\b' "$OUT"
REPLAY_NS="$NS"
[ "$ALLOCS" = "0" ] || fail "replay leg allocates (${ALLOCS} allocs/op), want 0"

awk -v r="$REPLAY_NS" -v i="$INTERP_NS" -v k="$REPLAY_RATIO" 'BEGIN { exit !(r <= i * k) }' ||
	fail "full replay (${REPLAY_NS} ns/instr) regressed above interpretation (${INTERP_NS} ns/instr) beyond the ${REPLAY_RATIO}x noise ratio"

echo "bench_smoke: allocation scaling, zero-alloc and event-plane pins"
go test -count=1 -run '^(TestAllocsDoNotScaleWithBudget|TestSteadyStateZeroAllocs|TestCtlSteadyStateZeroAllocs|TestNilSinkNoAllocs|TestReplayZeroAllocs|TestReplayCtlZeroAllocs|TestHotPathZeroAllocs|TestExecStartZeroAllocs|TestCtlOnlyCellPlanes|TestBatchCutInvariance)$' \
	. ./internal/grid ./internal/interp ./internal/tracefile ./internal/obs ./internal/taskpred ||
	fail "a hot path allocates again, or a grid left the control plane (see the failing test above)"

echo "bench_smoke: OK (run ${RUN_NS} ns/instr; replay ${REPLAY_NS} vs interpret ${INTERP_NS} ns/instr; 0 allocs; no per-execution allocation)"
