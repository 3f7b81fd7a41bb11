package looptab

import (
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
)

// TestLETHitSemantics: a hit requires two completed executions since
// insertion.
func TestLETHitSemantics(t *testing.T) {
	l := NewLET(4)
	if hit := l.OnExecStart(10); hit {
		t.Fatal("first start must miss")
	}
	l.OnExecEnd(10, 5)
	if hit := l.OnExecStart(10); hit {
		t.Fatal("one completed execution must still miss")
	}
	l.OnExecEnd(10, 5)
	if hit := l.OnExecStart(10); !hit {
		t.Fatal("two completed executions must hit")
	}
	r, tests := l.HitRatio()
	if tests != 3 || r < 0.33 || r > 0.34 {
		t.Fatalf("ratio=%v tests=%d", r, tests)
	}
}

// TestLETPredictCascade checks the STR prediction order: reliable stride,
// then last count, then nothing.
func TestLETPredictCascade(t *testing.T) {
	l := NewLET(4)
	if _, ok := l.PredictIters(10); ok {
		t.Fatal("unknown loop must not predict")
	}
	l.OnExecStart(10)
	if _, ok := l.PredictIters(10); ok {
		t.Fatal("no completed executions: no prediction")
	}
	l.OnExecEnd(10, 4)
	if n, ok := l.PredictIters(10); !ok || n != 4 {
		t.Fatalf("last-count prediction = %d %v, want 4", n, ok)
	}
	// Build a reliable stride 4,6,8,10 -> predict 12.
	for _, it := range []int{6, 8, 10} {
		l.OnExecStart(10)
		l.OnExecEnd(10, it)
	}
	if n, ok := l.PredictIters(10); !ok || n != 12 {
		t.Fatalf("stride prediction = %d %v, want 12", n, ok)
	}
}

// TestLETEvictionResets: counters restart after eviction.
func TestLETEvictionResets(t *testing.T) {
	l := NewLET(1)
	l.OnExecStart(10)
	l.OnExecEnd(10, 3)
	l.OnExecEnd(10, 3) // hmm: second end without start is fine for the test
	l.OnExecStart(20)  // evicts 10
	if hit := l.OnExecStart(10); hit {
		t.Fatal("re-inserted entry must miss")
	}
	if _, ok := l.PredictIters(10); ok {
		t.Fatal("history must be gone after eviction")
	}
}

// TestLETPredictSeesEveryUpdate: PredictIters answers for the table as
// it is now, after any completion or insertion since the last question.
func TestLETPredictSeesEveryUpdate(t *testing.T) {
	l := NewLET(1)
	l.OnExecStart(10)
	l.OnExecEnd(10, 3)
	if n, ok := l.PredictIters(10); !ok || n != 3 {
		t.Fatalf("prediction = %d %v, want 3", n, ok)
	}
	l.OnExecEnd(10, 7)
	if n, ok := l.PredictIters(10); !ok || n != 7 {
		t.Fatalf("prediction after a completion = %d %v, want 7", n, ok)
	}
	l.OnExecStart(20) // evicts 10
	if n, ok := l.PredictIters(10); ok {
		t.Fatalf("prediction after eviction = %d, want none", n)
	}
}

// TestLITHitSemantics follows one execution with 6 iterations: tests at
// iteration starts 2..6, completions counted from iteration 2 on, so
// iterations 4,5,6 hit.
func TestLITHitSemantics(t *testing.T) {
	li := NewLIT(4)
	li.OnExecStart(10)
	hits := 0
	// Iteration starts 2..6 as the Tracker would drive them.
	for k := 2; k <= 6; k++ {
		if k >= 3 {
			li.OnIterEnd(10)
		}
		if li.OnIterStart(10) {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("hits = %d, want 3 (iterations 4..6)", hits)
	}
	r, tests := li.HitRatio()
	if tests != 5 || r != 0.6 {
		t.Fatalf("ratio=%v tests=%d", r, tests)
	}
}

// TestLITPersistsAcrossExecutions: a resident entry with history hits at
// the second execution's first tested iteration.
func TestLITPersistsAcrossExecutions(t *testing.T) {
	li := NewLIT(4)
	li.OnExecStart(10)
	for k := 2; k <= 5; k++ {
		if k >= 3 {
			li.OnIterEnd(10)
		}
		li.OnIterStart(10)
	}
	li.OnIterEnd(10) // final iteration completes with the execution
	// New execution of the same loop: entry resident, completed >= 2.
	li.OnExecStart(10)
	if !li.OnIterStart(10) {
		t.Fatal("resident history must hit immediately")
	}
}

// TestLRURecencyDiffersBetweenTables: the LET ranks by execution starts,
// the LIT by iteration starts, so under the same event stream they evict
// different victims.
func TestLRURecencyDiffersBetweenTables(t *testing.T) {
	tr := NewTracker(2, 2)
	det := events{tr}
	// Loop A starts an execution, then loop B starts one; B iterates many
	// times (B most recent in LIT). Then A iterates once (A most recent
	// in LIT? no: A iterates last). Order the events so that the tables'
	// LRU victims differ when C arrives:
	//   exec starts: A then B -> LET victim is A.
	//   iter starts: ... A iterates last -> LIT victim is B.
	a, b, c := newExec(1, 100, 110), newExec(2, 200, 210), newExec(3, 300, 310)
	det.execStart(a)
	det.execStart(b)
	det.iterStart(b)
	det.iterStart(b)
	det.iterStart(a) // A now most recent in LIT; LET order still A older
	det.execStart(c) // inserts into both, evicting per-table victims
	if tr.LET.tab.Get(100) != nil {
		t.Fatal("LET should have evicted A (oldest execution start)")
	}
	if tr.LET.tab.Get(200) == nil {
		t.Fatal("LET should have kept B")
	}
	if tr.LIT.tab.Get(200) != nil {
		t.Fatal("LIT should have evicted B (oldest iteration start)")
	}
	if tr.LIT.tab.Get(100) == nil {
		t.Fatal("LIT should have kept A (iterated most recently)")
	}
}

// TestNestingAwareInhibit: with the §2.3.2 policy, inserting an outer
// loop that would evict a loop nested inside it is skipped.
func TestNestingAwareInhibit(t *testing.T) {
	tr := NewTracker(1, 1)
	tr.EnableNestingAware()
	det := events{tr}
	inner := newExec(1, 50, 60) // body [50,60]
	outer := newExec(2, 10, 90) // body [10,90] encloses inner
	det.execStart(inner)
	det.execStart(outer) // would evict inner: inhibited
	if tr.LET.tab.Get(50) == nil || tr.LET.tab.Get(10) != nil {
		t.Fatal("LET: inner must stay, outer must be inhibited")
	}
	if tr.LET.Inhibited() != 1 || tr.LIT.Inhibited() != 1 {
		t.Fatalf("inhibit counters: LET=%d LIT=%d", tr.LET.Inhibited(), tr.LIT.Inhibited())
	}
	// A disjoint loop is NOT inhibited.
	other := newExec(3, 200, 210)
	det.execStart(other)
	if tr.LET.tab.Get(200) == nil {
		t.Fatal("disjoint loop must replace normally")
	}
}

// events is a tiny driver that feeds observer callbacks like the detector
// would.
type events struct{ tr *Tracker }

func newExec(id uint64, tt, bb uint32) *loopdet.Exec {
	return &loopdet.Exec{ID: id, T: isa.Addr(tt), B: isa.Addr(bb), Iters: 2}
}

func (e events) execStart(x *loopdet.Exec) { e.tr.ExecStart(x) }
func (e events) iterStart(x *loopdet.Exec) {
	x.Iters++
	e.tr.IterStart(x, 0)
}

// TestTrackerEndToEnd drives a full execution through the Tracker and
// checks both tables' counters.
func TestTrackerEndToEnd(t *testing.T) {
	tr := NewTracker(4, 4)
	x := newExec(1, 10, 20)
	tr.ExecStart(x)
	tr.IterStart(x, 0) // iteration 2 (the detection one)
	for x.Iters < 5 {
		x.Iters++
		tr.IterStart(x, 0)
	}
	tr.ExecEnd(x, loopdet.EndBackEdge, 0)
	if _, tests := tr.LIT.HitRatio(); tests != 4 {
		t.Fatalf("LIT tests = %d, want 4 (iterations 2..5)", tests)
	}
	if n, ok := tr.LET.PredictIters(10); !ok || n != 5 {
		t.Fatalf("LET learned %d %v, want 5", n, ok)
	}
	// Flush-terminated executions must not count as completed.
	y := newExec(2, 30, 40)
	tr.ExecStart(y)
	tr.IterStart(y, 0)
	tr.ExecEnd(y, loopdet.EndFlush, 0)
	if _, ok := tr.LET.PredictIters(30); ok {
		t.Fatal("flushed execution must not train the LET")
	}
}
