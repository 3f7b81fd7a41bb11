// Package datapred gathers the paper's §4 data-speculation statistics
// (Figure 8): how often iterations of a loop follow the loop's most
// frequent control path, and how often the live-in registers and memory
// locations of an iteration can be predicted from the previous iteration's
// value plus the last stride.
//
// A live-in of an iteration is a register or memory location read before
// it is written inside the iteration (including nested subroutines and
// inner loops, which belong to the iteration). Tables are unbounded here,
// as the paper assumes for Figure 8 ("LIT and LET tables have enough
// capacity to store all the loops"). The Collector is a detector
// observer: attach it with Detector.AddObserver, or bundle it into one
// pass of a fused multi-pass traversal with harness.NewObserverPass.
//
// # Static walk
//
// The Collector is a loopdet.TapObserver: it runs on the interpreter's
// control plane plus the data tap (trace.PlaneTap), never on the full
// event plane, and does its per-iteration work once per run, not once
// per instruction per active loop. A run is a stretch of instructions
// with no loop event inside, so every active iteration takes in all of
// it, and its only branch, jump or return is its last instruction. The
// tap reports a run as its start address and length plus its loads and
// stores; the rest is static. The collector walks the run over the
// program's segment table (trace.Segments), following each call to its
// static target: each whole segment contributes its precomputed masks of
// the registers it reads before writing them and the registers it
// touches, and only a segment the run cuts short is folded instruction
// by instruction. Each active iteration then folds the run's masks in:
// its live-in registers are a mask, grown by the run's read-first
// registers it had not touched yet, at O(1) cost. A live-in register is
// read before any write in its iteration, so its value is the
// register's value when the iteration began, which the tap snapshots at
// every taken backward branch or jump — the only transfers that start
// executions and iterations — and the iteration keeps. Register order
// does not matter: every register has its own predictor and the
// outcomes are sums. Memory stays per access, in stream order, because
// the MaxMemPerLoop cap admits locations first come, first served.
//
// A path is identified by the FNV-1a hash of the iteration's PCs; the
// hash function is part of the results, because the most frequent
// path's ties break on the lowest hash. The walk yields the run's
// address spans, and the frames fold them into their hashes two at a
// time, side by side. Per-loop predictors and path buckets, and each
// iteration's set of touched locations, live in flat open-addressed
// tables of values (table, addrSet), so a warm loop allocates nothing
// per iteration. Package datapredtest holds a per-instruction collector
// on the full event plane that tests diff this one against.
package datapred

import (
	"fmt"
	"math/bits"

	"dynloop/internal/freelist"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/predict"
)

// Config tunes resource caps of the collector. The caps exist because our
// substrate is a simulator: the paper's hardware proposal stores a fixed
// number of live-ins per LIT entry anyway.
type Config struct {
	// MaxMemPerLoop caps the distinct memory locations tracked per loop
	// (default 4096). Further locations are ignored and counted in
	// Summary.MemOverflow.
	MaxMemPerLoop int
	// MaxPathsPerLoop caps distinct path signatures tracked per loop
	// (default 4096).
	MaxPathsPerLoop int
}

func (c *Config) setDefaults() {
	if c.MaxMemPerLoop == 0 {
		c.MaxMemPerLoop = 4096
	}
	if c.MaxPathsPerLoop == 0 {
		c.MaxPathsPerLoop = 4096
	}
}

// pathStat accumulates prediction outcomes for iterations of one control
// path of one loop.
type pathStat struct {
	iters     uint64
	lrAttempt uint64
	lrCorrect uint64
	lmAttempt uint64
	lmCorrect uint64
	// lrLast/lmLast count last-value (stride-less) prediction hits over
	// the same attempts, for the predictor-choice ablation: the paper's
	// LIT stores value+stride; these quantify what the stride buys.
	lrLast  uint64
	lmLast  uint64
	allLr   uint64
	allLm   uint64
	allData uint64
}

// loopAcc is the per-loop accumulated state: value predictors (shared
// across paths, fed by every iteration) and per-path outcome buckets.
type loopAcc struct {
	// regPred holds the predictors of the registers that have been
	// live-ins of the loop, in first-use order; regAt[r] is 1 + register
	// r's position there, or 0. Most loops have a few live-in registers,
	// so this costs far less than a predictor for each of them.
	regAt    [isa.NumRegs]uint8
	regPred  []predict.Stride
	memPred  table[predict.Stride] // by address, at most MaxMemPerLoop
	paths    table[pathStat]       // by path hash, at most MaxPathsPerLoop+1
	iters    uint64
	overflow uint64
}

// frame tracks the current iteration of one active loop execution.
// Frames are recycled when their execution ends (see Collector.free).
type frame struct {
	loop *loopAcc
	id   uint64 // the execution's loopdet.Exec.ID
	// pathHash is the FNV-1a hash of the iteration's PCs so far.
	pathHash uint64
	// seen holds the registers the iteration has read or written so far,
	// live those of them it read first: its live-in registers.
	seen, live uint32
	// start holds the register values when the iteration began. A
	// live-in is read before any write in the iteration, so this is the
	// value it was read with.
	start [isa.NumRegs]int64
	// mem holds the locations the iteration has read or written so far;
	// memLive lists those it read first, in first-read stream order, so
	// that live-in evaluation (and, crucially, the MaxMemPerLoop cap
	// admission) is deterministic.
	mem     addrSet
	memLive []memValue
}

// memValue is a memory location and the value read there.
type memValue struct {
	addr uint64
	val  int64
}

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

// reset starts a fresh iteration whose registers begin at regs.
func (f *frame) reset(regs *[isa.NumRegs]int64) {
	f.pathHash = fnvOffset
	f.seen, f.live = 0, 0
	f.start = *regs
	f.mem.clear()
	f.memLive = f.memLive[:0]
}

// Collector implements the Figure-8 measurement as a detector observer.
type Collector struct {
	cfg Config
	// regs is the register file the tap snapshotted at the latest taken
	// backward branch or jump (see Regs).
	regs   *[isa.NumRegs]int64
	frames []*frame // active executions, outermost first
	// free holds the frames of ended executions, reused by later ones
	// with the storage they grew, so there are never more frames than
	// the CLS is deep.
	free  []*frame
	loops map[isa.Addr]*loopAcc
	// order lists the loops' states in first-seen order. Reset stacks
	// them on spareLoops so that the next traversal's loops take them in
	// that order again: a rerun of one stream gives each loop the state
	// whose tables it grew, and allocates nothing.
	order      []*loopAcc
	spareLoops []*loopAcc
	// spans is per-run scratch: the address spans the run covers.
	spans []span
}

// span is the addresses lo, lo+1, ..., hi-1 of a run, in stream order.
type span struct{ lo, hi uint64 }

// collectors recycles Collectors with their frames and per-loop tables
// (see Release). A Figure 8 group takes one; the bound covers four at
// once.
var collectors = freelist.New[Collector]("datapred.collectors", 4)

// NewCollector returns a collector with the given configuration. It may
// return a released collector, which keeps the storage it grew.
func NewCollector(cfg Config) *Collector {
	c := collectors.Get()
	c.Reset(cfg)
	return c
}

// Reset empties the collector and sets its configuration, keeping its
// frames and per-loop tables for the loops it meets next. A zero
// Collector is ready once Reset.
func (c *Collector) Reset(cfg Config) {
	if c.loops == nil {
		c.loops = make(map[isa.Addr]*loopAcc)
	}
	cfg.setDefaults()
	c.cfg = cfg
	c.regs = nil
	c.free = append(c.free, c.frames...)
	clear(c.frames)
	c.frames = c.frames[:0]
	for i := len(c.order) - 1; i >= 0; i-- {
		c.order[i].reset()
		c.spareLoops = append(c.spareLoops, c.order[i])
	}
	clear(c.order)
	c.order = c.order[:0]
	clear(c.loops)
}

// Release hands the collector back for a later NewCollector to reuse.
// It may not be used afterwards.
func (c *Collector) Release() { collectors.Put(c) }

// reset empties the loop's state, keeping its table storage.
func (la *loopAcc) reset() {
	la.regAt = [isa.NumRegs]uint8{}
	la.regPred = la.regPred[:0]
	la.memPred.reset()
	la.paths.reset()
	la.iters, la.overflow = 0, 0
}

// Regs implements loopdet.TapObserver: it keeps the snapshot for the
// ExecStart and IterStart its transfer triggers.
func (c *Collector) Regs(regs *[isa.NumRegs]int64) { c.regs = regs }

// Run implements loopdet.TapObserver: it walks the run's segments once
// and folds the result into every active frame (see the package
// comment). Only the path hashes and the memory accesses remain per
// instruction or access per frame.
func (c *Collector) Run(r *loopdet.TapRun) {
	fs := c.frames
	if len(fs) == 0 {
		return
	}
	// readFirst holds the registers the run reads before writing them,
	// seen every register it reads or writes.
	var readFirst, seen uint32
	segs, spans := r.Segs, c.spans[:0]
	pc, rem := uint64(r.PC), r.N
	for {
		s := &segs[pc]
		if whole := uint64(s.Skip) + 1; whole <= rem && s.End != isa.KindNop {
			readFirst |= s.Read &^ seen
			seen |= s.Touch
			spans = append(spans, span{pc, pc + whole})
			if rem -= whole; rem == 0 {
				break
			}
			if s.End != isa.KindCall {
				panic(fmt.Sprintf("datapred: a run from %d crosses the %v at %d", r.PC, s.End, pc+whole-1))
			}
			pc = uint64(s.Target)
			continue
		}
		// The run ends inside this segment.
		spans = append(spans, span{pc, pc + rem})
		for end := pc + rem; pc < end; pc++ {
			s := &segs[pc]
			readFirst |= s.InstrRead &^ seen
			seen |= s.InstrRead | s.InstrWrite
		}
		break
	}
	c.spans = spans
	foldSpans(fs, spans)
	for _, fr := range fs {
		fr.live |= readFirst &^ fr.seen
		fr.seen |= seen
		for i := range r.Mem {
			m := &r.Mem[i]
			if fr.mem.add(m.Addr) && !m.Store {
				fr.memLive = append(fr.memLive, memValue{m.Addr, m.Val})
			}
		}
	}
}

// foldSpans extends the path hashes of fs with the addresses of spans.
// Each FNV-1a chain is a serial multiply, so the frames fold two at a
// time, side by side, to overlap their latencies.
func foldSpans(fs []*frame, spans []span) {
	for ; len(fs) >= 2; fs = fs[2:] {
		h0, h1 := fs[0].pathHash, fs[1].pathHash
		for _, sp := range spans {
			for pc := sp.lo; pc < sp.hi; pc++ {
				h0 = (h0 ^ pc) * fnvPrime
				h1 = (h1 ^ pc) * fnvPrime
			}
		}
		fs[0].pathHash, fs[1].pathHash = h0, h1
	}
	if len(fs) == 1 {
		h := fs[0].pathHash
		for _, sp := range spans {
			for pc := sp.lo; pc < sp.hi; pc++ {
				h = (h ^ pc) * fnvPrime
			}
		}
		fs[0].pathHash = h
	}
}

// ExecStart implements loopdet.Observer.
func (c *Collector) ExecStart(x *loopdet.Exec) {
	la := c.loops[x.T]
	if la == nil {
		if n := len(c.spareLoops); n > 0 {
			la = c.spareLoops[n-1]
			c.spareLoops = c.spareLoops[:n-1]
		} else {
			la = &loopAcc{}
		}
		c.loops[x.T] = la
		c.order = append(c.order, la)
	}
	var fr *frame
	if n := len(c.free); n > 0 {
		fr = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		fr = &frame{}
	}
	fr.loop, fr.id = la, x.ID
	fr.reset(c.regs)
	c.frames = append(c.frames, fr)
}

// frameIndex returns the position of execution id's frame in c.frames,
// or -1. The list is at most CLS-deep, so a scan from the innermost end
// beats a map.
func (c *Collector) frameIndex(id uint64) int {
	for i := len(c.frames) - 1; i >= 0; i-- {
		if c.frames[i].id == id {
			return i
		}
	}
	return -1
}

// IterStart implements loopdet.Observer: the previous iteration is
// complete — evaluate and train the predictors — and a fresh one begins.
func (c *Collector) IterStart(x *loopdet.Exec, index uint64) {
	i := c.frameIndex(x.ID)
	if i < 0 {
		return
	}
	fr := c.frames[i]
	if x.Iters > 2 {
		c.finishIteration(fr)
	}
	fr.reset(c.regs)
}

// ExecEnd implements loopdet.Observer.
func (c *Collector) ExecEnd(x *loopdet.Exec, reason loopdet.EndReason, index uint64) {
	i := c.frameIndex(x.ID)
	if i < 0 {
		return
	}
	fr := c.frames[i]
	switch reason {
	case loopdet.EndEvicted, loopdet.EndFlush:
		// Partial iteration; discard.
	default:
		c.finishIteration(fr)
	}
	copy(c.frames[i:], c.frames[i+1:])
	c.frames = c.frames[:len(c.frames)-1]
	c.free = append(c.free, fr)
}

// OneShot implements loopdet.Observer; one-shot executions have no
// detected iterations.
func (c *Collector) OneShot(t, b isa.Addr, index uint64) {}

// finishIteration evaluates the just-completed iteration of fr against
// the loop's predictors, then trains them with the observed live-ins.
func (c *Collector) finishIteration(fr *frame) {
	la := fr.loop
	la.iters++
	ps := la.paths.get(fr.pathHash)
	if ps == nil {
		key := fr.pathHash
		if len(la.paths.entries) >= c.cfg.MaxPathsPerLoop {
			// Bucket overflow paths together; they are by construction
			// rare paths.
			key = 0
			ps = la.paths.get(0)
		}
		if ps == nil {
			ps = la.paths.add(key)
		}
	}
	ps.iters++

	// Every register has its own predictor and the outcomes are sums, so
	// the live-ins may be taken in register order.
	allReg, allMem := true, true
	for live := fr.live; live != 0; live &= live - 1 {
		r := bits.TrailingZeros32(live)
		if la.regAt[r] == 0 {
			la.regPred = append(la.regPred, predict.Stride{})
			la.regAt[r] = uint8(len(la.regPred))
		}
		pr := &la.regPred[la.regAt[r]-1]
		if !predictNext(pr, fr.start[r], &ps.lrAttempt, &ps.lrCorrect, &ps.lrLast) {
			allReg = false
		}
	}
	for _, m := range fr.memLive {
		pr := la.memPred.get(m.addr)
		if pr == nil {
			if len(la.memPred.entries) >= c.cfg.MaxMemPerLoop {
				la.overflow++
				allMem = false
				continue
			}
			pr = la.memPred.add(m.addr)
		}
		if !predictNext(pr, m.val, &ps.lmAttempt, &ps.lmCorrect, &ps.lmLast) {
			allMem = false
		}
	}
	if allReg {
		ps.allLr++
	}
	if allMem {
		ps.allLm++
	}
	if allReg && allMem {
		ps.allData++
	}
}

// predictNext scores v against pr once pr has a stride: it counts the
// attempt, a stride-prediction hit and a last-value hit. It then trains
// pr with v and reports whether the stride prediction hit.
func predictNext(pr *predict.Stride, v int64, attempts, hits, lastHits *uint64) bool {
	hit := false
	if pr.Samples() >= 2 {
		pred, _ := pr.Predict()
		*attempts++
		if pred == v {
			*hits++
			hit = true
		}
		if last, _ := pr.HaveLast(); last == v {
			*lastHits++
		}
	}
	pr.Observe(v)
	return hit
}

// Summary is the Figure-8 result set; all percentages except SamePathPct
// are measured over iterations of each loop's most frequent path, as in
// the paper.
type Summary struct {
	// Loops is the number of distinct loops with at least one evaluated
	// iteration.
	Loops int
	// Iters is the number of evaluated iterations.
	Iters uint64
	// SamePathPct is the percentage of iterations covered by their loop's
	// most frequent path.
	SamePathPct float64
	// LrPredPct is the percentage of live-in register reads predicted
	// correctly (last value + stride).
	LrPredPct float64
	// LmPredPct is the same for live-in memory locations.
	LmPredPct float64
	// AllLrPct is the percentage of iterations with every live-in
	// register predicted correctly.
	AllLrPct float64
	// AllLmPct is the same for live-in memory locations.
	AllLmPct float64
	// AllDataPct is the percentage of iterations with all live-in values
	// correct.
	AllDataPct float64
	// LrLastPct and LmLastPct are the same accuracies under a plain
	// last-value predictor (no stride), quantifying what the stride buys.
	LrLastPct, LmLastPct float64
	// MemOverflow counts live-in locations dropped by the per-loop cap.
	MemOverflow uint64
}

// Summary aggregates the per-loop, per-path buckets into the Figure-8
// metrics.
func (c *Collector) Summary() Summary {
	var s Summary
	var mfpIters, lrA, lrC, lmA, lmC, lrL, lmL, allLr, allLm, allData uint64
	for _, la := range c.order {
		if la.iters == 0 {
			continue
		}
		s.Loops++
		s.Iters += la.iters
		s.MemOverflow += la.overflow
		// Most frequent path of this loop. Ties are broken on the lowest
		// path hash, so the winner does not depend on table order.
		var best *pathStat
		var bestHash uint64
		for i := range la.paths.entries {
			e := &la.paths.entries[i]
			if best == nil || e.val.iters > best.iters || (e.val.iters == best.iters && e.key < bestHash) {
				best, bestHash = &e.val, e.key
			}
		}
		if best == nil {
			continue
		}
		mfpIters += best.iters
		lrA += best.lrAttempt
		lrC += best.lrCorrect
		lmA += best.lmAttempt
		lmC += best.lmCorrect
		lrL += best.lrLast
		lmL += best.lmLast
		allLr += best.allLr
		allLm += best.allLm
		allData += best.allData
	}
	if s.Iters > 0 {
		s.SamePathPct = 100 * float64(mfpIters) / float64(s.Iters)
	}
	if lrA > 0 {
		s.LrPredPct = 100 * float64(lrC) / float64(lrA)
		s.LrLastPct = 100 * float64(lrL) / float64(lrA)
	}
	if lmA > 0 {
		s.LmPredPct = 100 * float64(lmC) / float64(lmA)
		s.LmLastPct = 100 * float64(lmL) / float64(lmA)
	}
	if mfpIters > 0 {
		s.AllLrPct = 100 * float64(allLr) / float64(mfpIters)
		s.AllLmPct = 100 * float64(allLm) / float64(mfpIters)
		s.AllDataPct = 100 * float64(allData) / float64(mfpIters)
	}
	return s
}
