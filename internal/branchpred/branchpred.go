// Package branchpred implements the classic branch predictors the paper
// positions itself against: "branch prediction is the most studied
// control speculation technique" (§1, citing Smith [8] and Yeh/Patt
// [13]). They are the intra-thread baseline: a superscalar machine
// speculates one branch at a time, while the paper's mechanism
// speculates whole future iterations. Measuring them on the same
// workloads grounds the paper's premise that "the closing branches of
// loops are highly predictable".
package branchpred

import (
	"dynloop/internal/freelist"
	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// Predictor guesses conditional-branch outcomes.
type Predictor interface {
	// Predict returns the predicted outcome for the branch at pc with
	// the given target.
	Predict(pc, target isa.Addr) bool
	// Update trains the predictor with the actual outcome.
	Update(pc, target isa.Addr, taken bool)
	// Name identifies the predictor in reports.
	Name() string
	// Reset returns the predictor to the state its constructor gives.
	Reset()
}

// BTFN is the static backward-taken/forward-not-taken rule (Smith's
// baseline): it captures loop closing branches by construction.
type BTFN struct{}

// Predict returns taken for backward branches.
func (BTFN) Predict(pc, target isa.Addr) bool { return target <= pc }

// Update is a no-op: BTFN is static.
func (BTFN) Update(isa.Addr, isa.Addr, bool) {}

// Name returns "BTFN".
func (BTFN) Name() string { return "BTFN" }

// Reset is a no-op: BTFN has no state.
func (BTFN) Reset() {}

// Bimodal is a table of 2-bit saturating counters indexed by PC (Smith's
// dynamic predictor).
type Bimodal struct {
	table []uint8
	mask  uint32
}

// NewBimodal returns a bimodal predictor with 2^bits counters,
// initialised weakly taken.
func NewBimodal(bits uint) *Bimodal {
	n := 1 << bits
	b := &Bimodal{table: make([]uint8, n), mask: uint32(n - 1)}
	b.Reset()
	return b
}

// Reset sets every counter back to weakly taken.
func (b *Bimodal) Reset() { weaklyTaken(b.table) }

// weaklyTaken sets every 2-bit counter of t to 2.
func weaklyTaken(t []uint8) {
	for i := range t {
		t[i] = 2
	}
}

// Predict reads the counter's direction bit.
func (b *Bimodal) Predict(pc, target isa.Addr) bool {
	return b.table[uint32(pc)&b.mask] >= 2
}

// Update saturates the counter toward the outcome.
func (b *Bimodal) Update(pc, target isa.Addr, taken bool) {
	i := uint32(pc) & b.mask
	c := b.table[i]
	if taken {
		if c < 3 {
			b.table[i] = c + 1
		}
	} else if c > 0 {
		b.table[i] = c - 1
	}
}

// Name returns "bimodal".
func (b *Bimodal) Name() string { return "bimodal" }

// GShare is the two-level predictor of Yeh/Patt lineage: global branch
// history XORed into the PC index.
type GShare struct {
	table   []uint8
	mask    uint32
	history uint32
	hmask   uint32
}

// NewGShare returns a gshare predictor with 2^bits counters and a
// history register of the same width.
func NewGShare(bits uint) *GShare {
	n := 1 << bits
	g := &GShare{table: make([]uint8, n), mask: uint32(n - 1), hmask: uint32(n - 1)}
	g.Reset()
	return g
}

// Reset sets every counter back to weakly taken and clears the history.
func (g *GShare) Reset() {
	weaklyTaken(g.table)
	g.history = 0
}

func (g *GShare) index(pc isa.Addr) uint32 {
	return (uint32(pc) ^ g.history) & g.mask
}

// Predict reads the indexed counter.
func (g *GShare) Predict(pc, target isa.Addr) bool {
	return g.table[g.index(pc)] >= 2
}

// Update trains the counter and shifts the outcome into the history.
func (g *GShare) Update(pc, target isa.Addr, taken bool) {
	i := g.index(pc)
	c := g.table[i]
	if taken {
		if c < 3 {
			g.table[i] = c + 1
		}
	} else if c > 0 {
		g.table[i] = c - 1
	}
	g.history = ((g.history << 1) | b2u(taken)) & g.hmask
}

// Name returns "gshare".
func (g *GShare) Name() string { return "gshare" }

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Result is one predictor's accuracy over a stream.
type Result struct {
	Name     string
	Branches uint64
	Hits     uint64
	// BackwardBranches/BackwardHits isolate the loop closing branches —
	// the population the paper's premise is about.
	BackwardBranches uint64
	BackwardHits     uint64
}

// Accuracy returns hits/branches in percent.
func (r Result) Accuracy() float64 {
	if r.Branches == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(r.Branches)
}

// BackwardAccuracy returns the accuracy on backward branches only.
func (r Result) BackwardAccuracy() float64 {
	if r.BackwardBranches == 0 {
		return 0
	}
	return 100 * float64(r.BackwardHits) / float64(r.BackwardBranches)
}

// Collector measures any number of predictors over one stream. It
// implements trace.Consumer, trace.BatchConsumer and trace.Pass: attach
// it with harness.Config.PreDetector, or schedule it directly as one
// pass of a fused multi-pass traversal (it needs no loop detector).
type Collector struct {
	preds   []Predictor
	results []Result
	// suite marks a DefaultSuite collector, which Release recycles.
	suite bool
}

// Init implements trace.Pass; a fresh collector needs no setup.
func (c *Collector) Init() {}

// Finalize implements trace.Pass; the results need no end-of-stream
// work.
func (c *Collector) Finalize() {}

// NewCollector returns a collector over the given predictors.
func NewCollector(preds ...Predictor) *Collector {
	c := &Collector{preds: preds, results: make([]Result, len(preds))}
	for i, p := range preds {
		c.results[i].Name = p.Name()
	}
	return c
}

// suites recycles DefaultSuite collectors with their tables (see
// Release). A fused group runs at most one; the bound covers four at
// once.
var suites = freelist.New[Collector]("branchpred.suites", 4)

// DefaultSuite returns the standard comparison: BTFN, 4K-entry bimodal,
// 4K-entry gshare. It may return a released suite, reset.
func DefaultSuite() *Collector {
	c := suites.Get()
	if c.suite {
		c.Reset()
		return c
	}
	*c = *NewCollector(BTFN{}, NewBimodal(12), NewGShare(12))
	c.suite = true
	return c
}

// Reset returns every predictor to its initial state and zeroes the
// results, keeping the tables' storage.
func (c *Collector) Reset() {
	for i, p := range c.preds {
		p.Reset()
		c.results[i] = Result{Name: c.results[i].Name}
	}
}

// Release hands a DefaultSuite collector back for a later DefaultSuite
// to reuse; it may not be used afterwards. Other collectors are left
// to the garbage collector.
func (c *Collector) Release() {
	if c.suite {
		suites.Put(c)
	}
}

// Consume implements trace.Consumer: score conditional branches.
func (c *Collector) Consume(ev *trace.Event) {
	if ev.Instr.Kind != isa.KindBranch {
		return
	}
	c.score(ev.PC, ev.Instr.Target, ev.Taken)
}

// ConsumeBatch implements trace.BatchConsumer: non-branches — the vast
// majority of the stream — cost one kind test each, with no interface
// dispatch.
func (c *Collector) ConsumeBatch(evs []trace.Event) {
	for i := range evs {
		if ev := &evs[i]; ev.Instr.Kind == isa.KindBranch {
			c.score(ev.PC, ev.Instr.Target, ev.Taken)
		}
	}
}

// ConsumeCtlBatch implements trace.CtlBatchConsumer: predictors read only
// conditional branches, which are all control-plane events, so the
// collector is control-only and never sees straight-line code at all.
func (c *Collector) ConsumeCtlBatch(evs []trace.CtlEvent, _, _ uint64) {
	for i := range evs {
		if ev := &evs[i]; ev.Instr.Kind == isa.KindBranch {
			c.score(ev.PC, ev.Instr.Target, ev.Taken)
		}
	}
}

// score runs every predictor on one conditional branch.
func (c *Collector) score(pc, target isa.Addr, taken bool) {
	backward := target <= pc
	for i, p := range c.preds {
		r := &c.results[i]
		r.Branches++
		hit := p.Predict(pc, target) == taken
		if hit {
			r.Hits++
		}
		if backward {
			r.BackwardBranches++
			if hit {
				r.BackwardHits++
			}
		}
		p.Update(pc, target, taken)
	}
}

// Results returns a copy of the accumulated results.
func (c *Collector) Results() []Result {
	out := make([]Result, len(c.results))
	copy(out, c.results)
	return out
}
