package looptab

import (
	"dynloop/internal/freelist"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
)

// Tracker wires detector events into a LET and a LIT (attach it as a
// detector observer, or bundle it into one pass of a fused multi-pass
// traversal with harness.NewObserverPass — Figure 4 runs all its table
// sizes on one traversal that way), implementing the event-to-table
// mapping of §2.3:
//
//   - entries are inserted when an execution starts (the detection point);
//   - the LET hit test and recency update happen at execution start;
//   - the LIT hit test and recency update happen at every detected
//     iteration start (the first iteration of an execution is never
//     tested);
//   - completed-iteration and completed-execution counters advance on the
//     corresponding end events; evictions and flushes do not count as
//     completions.
//
// With NestingAware set, both tables run the §2.3.2 replacement ablation:
// an insertion is inhibited when it would evict a loop nested inside the
// incoming one.
type Tracker struct {
	loopdet.NopObserver
	// LET and LIT are the tracked tables.
	LET *LET
	LIT *LIT
	// nesting is set by EnableNestingAware; bounds then remembers the
	// widest [T,B] seen per loop.
	nesting bool
	bounds  map[isa.Addr]isa.Addr
}

// trackers recycles Trackers with their tables' storage (see Release).
// A fused group of the paper's grids takes at most six; the bound
// covers four such groups at once.
var trackers = freelist.New[Tracker]("looptab.trackers", 24)

// NewTracker returns a tracker over empty tables of the given capacities
// (0 = unbounded). It may return a released tracker, whose tables keep
// the storage they grew.
func NewTracker(letCapacity, litCapacity int) *Tracker {
	tr := trackers.Get()
	tr.Reset(letCapacity, litCapacity)
	return tr
}

// Reset empties both tables, sets their capacities and switches the
// nesting-aware policy off, keeping the storage.
func (tr *Tracker) Reset(letCapacity, litCapacity int) {
	if tr.LET == nil {
		tr.LET, tr.LIT = &LET{}, &LIT{}
	}
	tr.LET.Reset(letCapacity)
	tr.LIT.Reset(litCapacity)
	tr.nesting = false
	clear(tr.bounds)
}

// Release hands the tracker, with its tables, back for a later
// NewTracker to reuse. Neither it nor its tables may be used afterwards.
func (tr *Tracker) Release() { trackers.Put(tr) }

// EnableNestingAware switches both tables to the §2.3.2 insertion-inhibit
// replacement policy.
func (tr *Tracker) EnableNestingAware() {
	tr.nesting = true
	if tr.bounds == nil {
		tr.bounds = make(map[isa.Addr]isa.Addr)
	}
	tr.LET.InhibitInsert = tr.nestedInCandidate
	tr.LIT.InhibitInsert = tr.nestedInCandidate
}

// nestedInCandidate reports whether loop victim is nested inside loop
// cand: [victim, vb] within [cand, cb].
func (tr *Tracker) nestedInCandidate(victim, cand isa.Addr) bool {
	vb, ok := tr.bounds[victim]
	if !ok {
		return false
	}
	cb, ok := tr.bounds[cand]
	if !ok {
		return false
	}
	return cand <= victim && vb <= cb
}

// ExecStart implements loopdet.Observer.
func (tr *Tracker) ExecStart(x *loopdet.Exec) {
	if tr.nesting {
		if b, ok := tr.bounds[x.T]; !ok || x.B > b {
			tr.bounds[x.T] = x.B
		}
	}
	tr.LET.OnExecStart(x.T)
	tr.LIT.OnExecStart(x.T)
}

// IterStart implements loopdet.Observer. The event for iteration k means
// iteration k-1 just completed; completions of iteration 1 coincide with
// insertion and are not counted (see DESIGN.md).
func (tr *Tracker) IterStart(x *loopdet.Exec, index uint64) {
	if x.Iters >= 3 {
		tr.LIT.OnIterEnd(x.T)
	}
	tr.LIT.OnIterStart(x.T)
}

// ExecEnd implements loopdet.Observer.
func (tr *Tracker) ExecEnd(x *loopdet.Exec, reason loopdet.EndReason, index uint64) {
	if reason == loopdet.EndEvicted || reason == loopdet.EndFlush {
		return
	}
	// The final iteration (>= 2) completes with the execution.
	tr.LIT.OnIterEnd(x.T)
	tr.LET.OnExecEnd(x.T, x.Iters)
}
