package spec

import (
	"fmt"

	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/looptab"
)

// refEngine is the reference speculation engine the Bank is checked
// against: one observer per configuration, with a private LET, its
// per-execution states on the heap, a thread queue of one entry per
// thread and a map for the STR(i) starved set. It is written for
// clarity, not speed; TestBankMatchesReference and FuzzBank require
// every lane of a bank to compute exactly its Metrics.

// thread is one speculative thread: a future iteration of a loop.
type thread struct {
	iter       int
	spawnClock uint64
	spawnIndex uint64
	// predicted marks threads spawned under an iteration-count
	// prediction; only those count toward the exclusion table's accuracy
	// (a cold loop's blind IDLE-fallback threads say nothing about its
	// predictability).
	predicted bool
}

// loopState is the engine's per-execution state, mirroring the TU
// identifiers the paper stores in the CLS entry (§3.1.2). Queued threads
// always hold consecutive iterations starting at x.Iters+1, so the next
// iteration to speculate is derived as x.Iters+1+len(threads). Like the
// CLS entry it mirrors, a loopState is recycled when its execution ends
// (see refEngine.free), keeping its thread queue's and starved set's
// storage.
type loopState struct {
	x       *loopdet.Exec
	threads []thread
	// oracleIters is the execution's true final iteration count when the
	// engine runs with an oracle (0 = none).
	oracleIters int
	// starved collects the distinct loops (by target address) that wanted
	// speculative threads but found no idle TU while this loop was the
	// outermost thread owner — the STR(i) accounting (see Policy). It is
	// allocated on first use and cleared, never dropped, on reset.
	starved map[isa.Addr]struct{}
	// infinite-machine representation: from allFrom on, every iteration
	// counts as spawned at allClock/allIndex.
	allFrom  int
	allClock uint64
	allIndex uint64
}

type refEngine struct {
	cfg Config
	let *looptab.LET

	clock      uint64
	skipBudget uint64
	extentID   uint64

	idle   int
	active []*loopState
	// free holds the states of ended executions for reuse by ExecStart.
	free []*loopState

	// §2.3.2 exclusion machinery (nil unless enabled).
	accs     map[isa.Addr]*accuracy
	excluded *looptab.Table[struct{}]

	// oracle consumption state.
	oracleNext int

	m         Metrics
	lastIndex uint64
}

// newRefEngine returns a reference engine for cfg with a private LET of
// cfg.LETCapacity entries.
func newRefEngine(cfg Config) *refEngine {
	e := &refEngine{cfg: cfg, let: looptab.NewLET(cfg.LETCapacity)}
	if cfg.TUs > 0 {
		e.idle = cfg.TUs - 1 // one TU is the non-speculative thread
	}
	if cfg.Exclude {
		e.cfg.excludeDefaults()
		e.accs = make(map[isa.Addr]*accuracy)
		e.excluded = looptab.NewTable[struct{}](e.cfg.ExcludeCapacity)
	}
	return e
}

// Infinite reports whether the engine models the unbounded machine.
func (e *refEngine) Infinite() bool { return e.cfg.TUs == 0 }

// Metrics returns a snapshot of the results so far.
func (e *refEngine) Metrics() Metrics {
	m := e.m
	m.Cycles = e.clock
	if e.excluded != nil {
		m.ExcludedLoops = e.excluded.Len()
	}
	return m
}

// Clock returns the elapsed cycles.
func (e *refEngine) Clock() uint64 { return e.clock }

// Retired implements loopdet.CountObserver: every retired instruction
// costs one cycle unless it was already executed by a promoted
// speculative thread (skip credit). Over a run that is a pair of
// additions, because no thread can resolve mid-run (loop events only
// occur at run boundaries).
func (e *refEngine) Retired(n, last uint64) {
	e.m.Instrs += n
	e.lastIndex = last
	if e.skipBudget >= n {
		e.skipBudget -= n
		return
	}
	e.clock += n - e.skipBudget
	e.skipBudget = 0
}

// ExecStart implements loopdet.Observer.
func (e *refEngine) ExecStart(x *loopdet.Exec) {
	var st *loopState
	if n := len(e.free); n > 0 {
		st = e.free[n-1]
		e.free = e.free[:n-1]
		clear(st.starved)
		*st = loopState{x: x, threads: st.threads[:0], starved: st.starved}
	} else {
		st = &loopState{x: x}
	}
	if n := len(e.cfg.OracleIters); n > 0 {
		if e.oracleNext < n {
			st.oracleIters = e.cfg.OracleIters[e.oracleNext]
		}
		e.oracleNext++
	}
	e.active = append(e.active, st)
	e.let.OnExecStart(x.T)
	if e.cfg.Policy.NestLimit > 0 && e.cfg.NestRule == NestRuleStatic && !e.Infinite() {
		e.enforceStaticNestLimit()
	}
}

// enforceStaticNestLimit applies the literal structural STR(i) reading:
// while the outermost loop owning speculative threads has more than
// NestLimit non-speculated loops nested above it on the CLS, its threads
// are squashed.
func (e *refEngine) enforceStaticNestLimit() {
	limit := e.cfg.Policy.NestLimit
	for {
		oi := -1
		for i, st := range e.active {
			if len(st.threads) > 0 {
				oi = i
				break
			}
		}
		if oi < 0 {
			return
		}
		nested := 0
		for j := oi + 1; j < len(e.active); j++ {
			if len(e.active[j].threads) == 0 {
				nested++
			}
		}
		if nested <= limit {
			return
		}
		e.squash(e.active[oi], e.lastIndex, false)
	}
}

// starve implements the STR(i) rule. The paper: "the maximum number of
// non-speculated loops that can be nested into a loop that is being
// speculated; if this limit is exceeded, all speculative threads
// corresponding to the outermost loop are squashed. In this way, idle
// TUs can be used to speculate in inner loops."
//
// We count a nested loop as "non-speculated" when it *asked* for threads
// and found none idle — loops whose predicted remaining iterations are
// already covered do not count (otherwise short fully-covered inner
// loops, e.g. fpppp's trip-2/3 nests, would squash exactly the coarse
// outer speculation whose huge verification distances Table 2 reports).
// The distinct-loop count accumulates on the outermost thread owner and
// resets whenever that owner spawns again.
func (e *refEngine) starve(st *loopState, index uint64) {
	limit := e.cfg.Policy.NestLimit
	if limit <= 0 {
		return
	}
	var outer *loopState
	for _, s := range e.active {
		if len(s.threads) > 0 {
			outer = s
			break
		}
	}
	if outer == nil || outer == st {
		return
	}
	if outer.starved == nil {
		outer.starved = make(map[isa.Addr]struct{})
	}
	outer.starved[st.x.T] = struct{}{}
	if len(outer.starved) > limit {
		e.squash(outer, index, false)
		clear(outer.starved)
	}
}

// findState returns the active state for execution id. The active list
// is at most CLS-deep, so a linear scan from the innermost end beats a
// map on every real workload (and allocates nothing).
func (e *refEngine) findState(id uint64) *loopState {
	for i := len(e.active) - 1; i >= 0; i-- {
		if st := e.active[i]; st.x.ID == id {
			return st
		}
	}
	return nil
}

// IterStart implements loopdet.Observer: verification (promotion of the
// first speculated iteration, §3.1.3) followed by spawning (§3.1.1).
func (e *refEngine) IterStart(x *loopdet.Exec, index uint64) {
	st := e.findState(x.ID)
	if st == nil {
		e.m.Anomalies++
		return
	}
	if e.extentID == x.ID {
		// The promoted thread reached its termination point; leftover
		// credit (it finished early and waited) is discarded.
		e.extentID = 0
		e.skipBudget = 0
	}
	promoted := false
	switch {
	case e.Infinite() && st.allFrom > 0 && x.Iters >= st.allFrom:
		promoted = true
		e.m.ThreadsPromoted++
		e.m.ResolvedThreads++
		e.m.VerifDistSum += index - st.allIndex
		if e.clock > st.allClock {
			e.skipBudget = e.clock - st.allClock
			e.extentID = x.ID
		}
	case len(st.threads) > 0:
		if e.skipBudget > 0 || st.threads[0].iter != x.Iters {
			// Should be unreachable: threads always precede the frontier
			// in program order and are consumed in iteration order.
			e.m.Anomalies++
			e.squash(st, index, false)
			break
		}
		h := st.threads[0]
		// Shift down instead of reslicing: a reslice walks the base
		// pointer forward until the next append reallocates, which would
		// cost one heap allocation every few promotions forever. The
		// queue is at most TUs-1 long, so the copy is trivial.
		copy(st.threads, st.threads[1:])
		st.threads = st.threads[:len(st.threads)-1]
		promoted = true
		e.m.ThreadsPromoted++
		e.m.ResolvedThreads++
		e.m.VerifDistSum += index - h.spawnIndex
		e.idle++
		if h.predicted {
			e.noteResolved(st.x.T, true)
		}
		if e.clock > h.spawnClock {
			e.skipBudget = e.clock - h.spawnClock
			e.extentID = x.ID
		}
	}
	// Spawn only at the engine's real frontier: at the promotion boundary
	// itself, or when no skip credit is pending. Boundaries strictly
	// inside already-executed speculative work never spawn (that work is
	// in the past; see DESIGN.md).
	if promoted || e.skipBudget == 0 {
		e.spawn(st, index)
	}
}

// spawn creates speculative threads for future iterations of st per the
// configured policy. The first speculated iteration is always the one
// after the last queued (or current) iteration.
func (e *refEngine) spawn(st *loopState, index uint64) {
	first := st.x.Iters + 1 + len(st.threads)
	if e.Infinite() {
		if st.allFrom == 0 {
			st.allFrom = first
			st.allClock = e.clock
			st.allIndex = index
			e.m.SpecEvents++
		}
		return
	}
	if e.excluded != nil && e.excluded.Touch(st.x.T) != nil {
		// The loop is in the §2.3.2 exclusion table: no speculation.
		e.m.DeniedSpawns++
		return
	}
	// How many further iterations the policy wants covered.
	desired := int64(1) << 62 // unknown count: as many as there are TUs
	predicted := false
	switch {
	case st.oracleIters > 0:
		desired = int64(st.oracleIters) - int64(first) + 1
		predicted = true
	case e.cfg.Policy.Kind == PolicyStride:
		if n, ok := e.let.PredictIters(st.x.T); ok {
			desired = n - int64(first) + 1
			predicted = true
		}
	}
	if desired <= 0 {
		return
	}
	if e.idle == 0 {
		if len(st.threads) == 0 && e.cfg.NestRule == NestRuleStarvation {
			// A loop that wants speculation but owns no thread and finds
			// no TU: the STR(i) trigger.
			e.starve(st, index)
		}
		if e.idle == 0 {
			return
		}
	}
	want := e.idle
	if int64(want) > desired {
		want = int(desired)
	}
	for i := 0; i < want; i++ {
		st.threads = append(st.threads, thread{iter: first + i, spawnClock: e.clock, spawnIndex: index, predicted: predicted})
	}
	e.idle -= want
	clear(st.starved)
	e.m.SpecEvents++
	e.m.ThreadsSpawned += uint64(want)
	e.m.OutstandingSum += uint64(len(st.threads))
}

// ExecEnd implements loopdet.Observer: remaining speculative threads of
// the loop execute non-existent iterations and are squashed (§3.1.3).
func (e *refEngine) ExecEnd(x *loopdet.Exec, reason loopdet.EndReason, index uint64) {
	st := e.findState(x.ID)
	if st == nil {
		return
	}
	if e.extentID == x.ID {
		e.extentID = 0
		e.skipBudget = 0
	}
	e.squash(st, index, reason == loopdet.EndFlush)
	// Evictions and flushes are not real completions; the LET keeps its
	// history.
	if reason != loopdet.EndEvicted && reason != loopdet.EndFlush {
		e.let.OnExecEnd(x.T, x.Iters)
	}
	for i := len(e.active) - 1; i >= 0; i-- {
		if e.active[i] == st {
			copy(e.active[i:], e.active[i+1:])
			e.active = e.active[:len(e.active)-1]
			break
		}
	}
	// The detector recycles x once ExecEnd returns; drop the reference.
	st.x = nil
	e.free = append(e.free, st)
}

// squash discards all pending threads of st. Flush-squashes (stream end)
// are accounted separately and excluded from the hit ratio.
func (e *refEngine) squash(st *loopState, index uint64, flush bool) {
	n := len(st.threads)
	if n == 0 {
		return
	}
	for _, t := range st.threads {
		if flush {
			e.m.ThreadsFlushed++
		} else {
			e.m.ThreadsSquashed++
			e.m.ResolvedThreads++
			e.m.VerifDistSum += index - t.spawnIndex
			if t.predicted {
				e.noteResolved(st.x.T, false)
			}
		}
	}
	st.threads = st.threads[:0]
	e.idle += n
}

// noteResolved feeds the exclusion table's accuracy tracking (§2.3.2):
// once a loop has enough resolved threads and a poor ratio, it is
// excluded from further speculation.
func (e *refEngine) noteResolved(t isa.Addr, promoted bool) {
	if e.accs == nil {
		return
	}
	a := e.accs[t]
	if a == nil {
		a = &accuracy{}
		e.accs[t] = a
	}
	if promoted {
		a.promoted++
	} else {
		a.squashed++
	}
	total := int(a.promoted + a.squashed)
	if total >= e.cfg.ExcludeMinResolved {
		ratio := float64(a.promoted) / float64(total)
		if ratio < e.cfg.ExcludeThreshold && e.excluded.Get(t) == nil {
			e.excluded.Insert(t)
		}
	}
}

// OneShot implements loopdet.Observer: single-iteration executions never
// reach the CLS, so the engine cannot speculate on them.
func (e *refEngine) OneShot(t, b isa.Addr, index uint64) {}

// CheckInvariant verifies TU conservation: idle + 1 (non-speculative) +
// outstanding speculative threads == TUs. Tests call it; it is a no-op
// for the infinite machine.
func (e *refEngine) CheckInvariant() error {
	if e.Infinite() {
		return nil
	}
	busy := 0
	for _, st := range e.active {
		busy += len(st.threads)
	}
	if e.idle+1+busy != e.cfg.TUs {
		return fmt.Errorf("spec: TU leak: idle=%d busy=%d tus=%d", e.idle, busy, e.cfg.TUs)
	}
	return nil
}
