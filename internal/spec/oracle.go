package spec

import (
	"dynloop/internal/freelist"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
)

// OracleRecorder captures the true final iteration count of every loop
// execution, in execution birth order, from one deterministic run. Feed
// the result to Config.OracleIters on a second identical run to measure
// the upper bound of the STR policy family: speculation with perfect
// iteration-count knowledge.
type OracleRecorder struct {
	loopdet.NopObserver
	counts []int
	slot   map[uint64]int
}

// oracleRecorders recycles OracleRecorders (see Release). An oracle
// cell takes one; the bound covers four at once.
var oracleRecorders = freelist.New[OracleRecorder]("spec.oracleRecorders", 4)

// NewOracleRecorder returns an empty recorder; attach it as a detector
// observer. It may return a released recorder, which keeps the storage
// it grew.
func NewOracleRecorder() *OracleRecorder {
	r := oracleRecorders.Get()
	r.Reset()
	return r
}

// Reset empties the recorder, keeping its storage. A zero recorder is
// ready once Reset.
func (r *OracleRecorder) Reset() {
	r.counts = r.counts[:0]
	if r.slot == nil {
		r.slot = make(map[uint64]int)
	}
	clear(r.slot)
}

// Release hands the recorder back for a later NewOracleRecorder to
// reuse. Neither it nor the slice Counts returned may be used
// afterwards.
func (r *OracleRecorder) Release() { oracleRecorders.Put(r) }

// ExecStart implements loopdet.Observer: allocate this execution's slot
// in birth order.
func (r *OracleRecorder) ExecStart(x *loopdet.Exec) {
	r.slot[x.ID] = len(r.counts)
	r.counts = append(r.counts, 0)
}

// ExecEnd implements loopdet.Observer: record the final count.
func (r *OracleRecorder) ExecEnd(x *loopdet.Exec, reason loopdet.EndReason, index uint64) {
	if i, ok := r.slot[x.ID]; ok {
		r.counts[i] = x.Iters
		delete(r.slot, x.ID)
	}
}

// OneShot implements loopdet.Observer (one-shots never enter the CLS and
// consume no oracle slot).
func (r *OracleRecorder) OneShot(t, b isa.Addr, index uint64) {}

// Counts returns the recorded per-execution iteration counts in birth
// order. The slice is live until the recorder is reset or released.
func (r *OracleRecorder) Counts() []int { return r.counts }
