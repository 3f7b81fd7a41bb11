#!/usr/bin/env bash
# bench_smoke.sh — interpreter-core performance regression gate.
#
# Gate 1 runs BenchmarkRun (the full pipeline at the default batch
# size) 5 times at a fixed iteration count and fails if the fastest
# run's ns/instruction exceeds the pinned ceiling: a noisy neighbour
# slows some runs of a shared host, never all of them, while a lost
# optimisation slows every run. The ceiling is deliberately loose — the
# transfer-only control plane measures ~3.2 ns/instr on the reference
# host and the ceiling sits at 6.5, well under the ~8.9 of the
# reference path — so normal runner-to-runner noise
# passes but losing a tentpole optimisation (or an accidental
# fall-back to the reference path) fails loudly. Also asserts every
# run of the benchmark still reports 0 allocs/op: the
# zero-allocation batch path is part of the perf contract.
#
# Gate 2 runs the ctl-plane legs of BenchmarkTraceReplay and fails if
# a full replay (header-plane decode + consumer delivery) costs more
# than interpretation of the same stream into the same sink. Replay
# is the faster leg on the reference host (~2.0 vs ~2.4 ns/instr),
# and the gate allows a noise ratio; losing the header-plane decode
# puts replay at full-decode cost (~+22%), which trips it.
#
# Gate 3 runs the allocation checks with -count=1: the scaling test
# (for every workload and registered grid, a warmed fused group must not
# allocate more at budget 4N than at N, so nothing allocates per loop
# execution) and every zero-allocation pin of the hot paths. It also
# runs the event-plane pins: TestCtlOnlyCellPlanes (no registered grid
# cell or traversal may use the full event plane, and only fig8's take
# the data tap) and TestBatchCutInvariance (the
# control-plane consumers compute the same results at every batch size
# on both planes). TestWarmLoopZeroAllocs pins that the Figure-8
# collector allocates nothing per iteration of a warm loop, fed runs as
# the detector hands them over on the tap plane, and
# TestFig8TraversalAllocsDoNotScale that a fig8 traversal of swim
# allocates the same bytes, beyond its data pages, at 100k and 500k
# instructions, so the data tap stays bounded and pooled.
# TestCompileAllocs pins grid.Compile's allocations per cell over the
# serve-mix grids, uncached, so cell keys cannot slide back onto fmt
# unnoticed. TestCompileMemoHitAllocs pins a warm compile of each
# serve-mix grid (a memo hit) at its measured count, so a served
# named-grid request cannot go back to expanding its cells.
# TestGroupDetectorCounts pins that a fused group builds one detector
# per CLS capacity and plane and one engine bank per LET capacity (one
# of each for a Figure 7 group; 306 group detectors and 270 banks per
# paper render), so cells cannot go back to building their own.
# TestBankAllocsDoNotScale pins that a warm bank of Figure 7's 20
# speculation engines allocates nothing per loop event.
# TestCtlReplayZeroAllocs pins that a warm control-plane replay of each
# of the 18 workloads allocates nothing. TestFreshSeedWriteAllocs pins
# that, with programs built, a one-cell table1 grid at a fresh seed (a
# serve-mix write) allocates at most 12 KB on every workload, so a seed
# cannot go back to building and predecoding its own program.
# TestRecycleWarmGroupAllocs pins that a warm execution of any
# registered grid's fused group allocates at most 16 KB, so groups
# cannot go back to building their detectors, banks, tables,
# collectors, predictor suites and data pages from scratch.
# TestWarmAllAllocs pins that a warm render of the whole evaluation at
# 500k instructions over all 18 workloads allocates at most 1.1 MB, so
# passes cannot go back to being dropped between groups nor the runner
# to per-cell bookkeeping, and that every free list stays within its
# bound.
# TestWarmGridAllocs pins that a registered grid whose every cell is a
# runner memory hit allocates no more on fig6 (72 cells) than on table1
# (18 cells), so cached cells cannot go back to a goroutine or a group
# key string per cell.
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

echo "bench_smoke: BenchmarkRun x$ITERS, 5 runs (ceiling ${CEILING_NS} ns/instr on the fastest)"
OUT="$(go test -run='^$' -bench='^BenchmarkRun$' -benchtime="${ITERS}x" -count=5 .)"
echo "$OUT"

RUN_NS=""
while IFS= read -r line; do
	parse '^BenchmarkRun\b' "$line"
	[ "$ALLOCS" = "0" ] || fail "BenchmarkRun allocates (${ALLOCS} allocs/op), want 0"
	if [ -z "$RUN_NS" ] || awk -v ns="$NS" -v min="$RUN_NS" 'BEGIN { exit !(ns < min) }'; then
		RUN_NS="$NS"
	fi
done < <(echo "$OUT" | grep -E '^BenchmarkRun\b')
[ -n "$RUN_NS" ] || fail "no BenchmarkRun result line"
awk -v ns="$RUN_NS" -v ceil="$CEILING_NS" 'BEGIN { exit !(ns <= ceil) }' ||
	fail "the fastest of 5 BenchmarkRun runs took ${RUN_NS} ns/instr, over the ${CEILING_NS} ns ceiling"

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
go test -count=1 -run '^(TestAllocsDoNotScaleWithBudget|TestSteadyStateZeroAllocs|TestCtlSteadyStateZeroAllocs|TestNilSinkNoAllocs|TestReplayZeroAllocs|TestReplayCtlZeroAllocs|TestHotPathZeroAllocs|TestExecStartZeroAllocs|TestCtlOnlyCellPlanes|TestBatchCutInvariance|TestWarmLoopZeroAllocs|TestCompileAllocs|TestCompileMemoHitAllocs|TestGroupDetectorCounts|TestCtlReplayZeroAllocs|TestFreshSeedWriteAllocs|TestWarmGridAllocs|TestRecycleWarmGroupAllocs|TestBankAllocsDoNotScale|TestFig8TraversalAllocsDoNotScale|TestAppendCellsAllocs|TestDecodeCellsAllocs|TestWarmServedGridAllocs|TestWarmAllAllocs)$' \
	. ./internal/expt ./internal/grid ./internal/interp ./internal/tracefile ./internal/obs ./internal/taskpred ./internal/datapred ./internal/spec ./internal/wire ./internal/server ||
	fail "a hot path allocates again, the data tap grows with the stream, a grid left the control plane, a fused group builds extra detectors or banks, a fresh seed rebuilds its program, a group builds its passes anew, a registered grid recompiles, a warm grid allocates per cell, an engine bank allocates per loop event, or a grid payload is regrown or re-boxed on the wire, or a warm paper render allocates more than it keeps (see the failing test above)"

echo "bench_smoke: OK (run ${RUN_NS} ns/instr; replay ${REPLAY_NS} vs interpret ${INTERP_NS} ns/instr; 0 allocs; no per-execution allocation)"
