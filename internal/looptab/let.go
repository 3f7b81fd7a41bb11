package looptab

import (
	"dynloop/internal/isa"
	"dynloop/internal/predict"
)

// letEntry is the per-loop payload of the LET: how many executions have
// completed since the entry was inserted, and a stride predictor over the
// iteration counts of successive executions (§2.3: "the last iteration
// count and the difference between the previous two counts").
type letEntry struct {
	completed uint32
	iters     predict.Stride
}

// LET is the Loop Execution Table. Recency is "initiated a new execution
// least recently" (§2.3).
type LET struct {
	tab Table[letEntry]
	// hit-ratio accounting (§2.3.1)
	tests, hits uint64
	// InhibitInsert, when non-nil, implements the §2.3.2 nesting-aware
	// replacement ablation: a full-table insertion of cand is skipped when
	// the function reports that evicting victim would discard a loop
	// nested inside cand.
	InhibitInsert func(victim, cand isa.Addr) bool
	inhibited     uint64
}

// NewLET returns a LET with the given capacity (0 = unbounded).
func NewLET(capacity int) *LET {
	l := &LET{}
	l.Reset(capacity)
	return l
}

// Reset empties the LET, sets its capacity (0 = unbounded) and clears
// its hit-ratio accounting and InhibitInsert, keeping the table storage.
func (l *LET) Reset(capacity int) {
	l.tab.Reset(capacity)
	l.tests, l.hits, l.inhibited = 0, 0, 0
	l.InhibitInsert = nil
}

// OnExecStart records that loop t starts a new execution: the Figure-4
// hit test runs (hit iff the entry is resident with >= 2 completed
// executions since insertion), recency is updated, and an absent entry is
// inserted.
func (l *LET) OnExecStart(t isa.Addr) (hit bool) {
	l.tests++
	e := l.tab.Touch(t)
	if e == nil {
		if l.InhibitInsert != nil {
			if vk, _, full := l.tab.Victim(); full && l.InhibitInsert(vk, t) {
				l.inhibited++
				return false
			}
		}
		l.tab.Insert(t)
		return false
	}
	if e.completed >= 2 {
		l.hits++
		return true
	}
	return false
}

// Inhibited returns how many insertions the nesting-aware policy skipped.
func (l *LET) Inhibited() uint64 { return l.inhibited }

// OnExecEnd records a completed execution of loop t with the given final
// iteration count. Entries evicted in the meantime are ignored.
func (l *LET) OnExecEnd(t isa.Addr, iters int) {
	e := l.tab.Get(t)
	if e == nil {
		return
	}
	e.completed++
	e.iters.Observe(int64(iters))
}

// PredictIters implements the STR policy's iteration-count cascade
// (§3.1.2): if the stride is reliable (two-bit counter), predict last
// count + stride; otherwise, if a last count is known, predict it
// repeats; otherwise report no prediction (the policy then behaves like
// IDLE for this loop).
func (l *LET) PredictIters(t isa.Addr) (n int64, ok bool) {
	e := l.tab.Get(t)
	if e == nil {
		return 0, false
	}
	if e.iters.Reliable() {
		return e.iters.Predict()
	}
	return e.iters.HaveLast()
}

// HitRatio returns the §2.3.1 hit ratio measured so far and the number of
// tests it is based on.
func (l *LET) HitRatio() (ratio float64, tests uint64) {
	if l.tests == 0 {
		return 0, 0
	}
	return float64(l.hits) / float64(l.tests), l.tests
}

// Len returns the number of resident entries.
func (l *LET) Len() int { return l.tab.Len() }

// Capacity returns the configured capacity (0 = unbounded).
func (l *LET) Capacity() int { return l.tab.Capacity() }

// Evictions returns the number of LRU evictions.
func (l *LET) Evictions() uint64 { return l.tab.Evictions() }

// litEntry is the per-loop payload of the LIT: iterations completed since
// insertion. (The live-in value payload of §2.3 lives in package datapred,
// which models unbounded tables as the paper does for Figure 8; the LIT
// here carries what the Figure-4 hit-ratio experiment needs.)
type litEntry struct {
	completed uint32
}

// LIT is the Loop Iteration Table. Recency is "initiated a new iteration
// least recently" (§2.3).
type LIT struct {
	tab         Table[litEntry]
	tests, hits uint64
	// InhibitInsert mirrors LET.InhibitInsert for the §2.3.2 ablation.
	InhibitInsert func(victim, cand isa.Addr) bool
	inhibited     uint64
}

// NewLIT returns a LIT with the given capacity (0 = unbounded).
func NewLIT(capacity int) *LIT {
	l := &LIT{}
	l.Reset(capacity)
	return l
}

// Reset empties the LIT, sets its capacity (0 = unbounded) and clears
// its hit-ratio accounting and InhibitInsert, keeping the table storage.
func (l *LIT) Reset(capacity int) {
	l.tab.Reset(capacity)
	l.tests, l.hits, l.inhibited = 0, 0, 0
	l.InhibitInsert = nil
}

// OnExecStart inserts loop t if absent (entries are inserted when an
// execution starts, §2.3). It does not test or touch: the iteration-2
// start that coincides with execution start is reported through
// OnIterStart.
func (l *LIT) OnExecStart(t isa.Addr) {
	if l.tab.Get(t) != nil {
		return
	}
	if l.InhibitInsert != nil {
		if vk, _, full := l.tab.Victim(); full && l.InhibitInsert(vk, t) {
			l.inhibited++
			return
		}
	}
	l.tab.Insert(t)
}

// Inhibited returns how many insertions the nesting-aware policy skipped.
func (l *LIT) Inhibited() uint64 { return l.inhibited }

// OnIterStart records that an iteration of loop t starts: the Figure-4
// hit test runs (>= 2 iterations completed since insertion) and recency
// is updated. The first iteration of an execution is never reported (it
// is not detected until it finishes, §2.3.1).
func (l *LIT) OnIterStart(t isa.Addr) (hit bool) {
	l.tests++
	e := l.tab.Touch(t)
	if e == nil {
		// Evicted while its execution is still live; reinsert.
		l.tab.Insert(t)
		return false
	}
	if e.completed >= 2 {
		l.hits++
		return true
	}
	return false
}

// OnIterEnd records a completed (detected) iteration of loop t.
func (l *LIT) OnIterEnd(t isa.Addr) {
	if e := l.tab.Get(t); e != nil {
		e.completed++
	}
}

// HitRatio returns the §2.3.1 hit ratio measured so far and the number of
// tests it is based on.
func (l *LIT) HitRatio() (ratio float64, tests uint64) {
	if l.tests == 0 {
		return 0, 0
	}
	return float64(l.hits) / float64(l.tests), l.tests
}

// Len returns the number of resident entries.
func (l *LIT) Len() int { return l.tab.Len() }

// Evictions returns the number of LRU evictions.
func (l *LIT) Evictions() uint64 { return l.tab.Evictions() }
