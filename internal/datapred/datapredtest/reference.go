// Package datapredtest holds the oracle for datapred.Collector — a
// straightforward per-instruction Figure-8 collector that walks every
// active iteration for every event — and Diff, the harness that runs the
// two side by side. It is a package rather than a test file so that the
// repository's fuzz targets can reach it too; only tests import it.
package datapredtest

import (
	"dynloop/internal/datapred"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/predict"
	"dynloop/internal/trace"
)

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
	regPred  [isa.NumRegs]predict.Stride
	memPred  map[uint64]*predict.Stride
	paths    map[uint64]*pathStat
	iters    uint64
	overflow uint64
	// spare is the frame of the loop's last ended execution, reused by
	// its next one. The CLS holds at most one execution per loop, so one
	// spare per loop suffices, and a reused frame's maps keep the
	// capacity this same loop grew them to.
	spare *frame
}

// frame tracks the current iteration of one active loop execution.
// Frames are recycled when their execution ends (see loopAcc.spare),
// keeping their slices' and maps' storage.
type frame struct {
	loop *loopAcc
	id   uint64 // the execution's loopdet.Exec.ID
	gen  uint32
	// regState is 0 (unseen this iteration), gen<<1 (read first) or
	// gen<<1|1 (written first).
	regState [isa.NumRegs]uint32
	regFirst [isa.NumRegs]int64
	regLive  []isa.Reg
	memFirst map[uint64]int64
	memSeen  map[uint64]bool // true = written before read
	// memOrder records first-touched addresses in stream order, so that
	// live-in evaluation (and, crucially, the MaxMemPerLoop cap
	// admission) is deterministic — iterating memSeen directly would let
	// Go's randomised map order pick which locations get predictors.
	memOrder []uint64
	pathHash uint64
	started  bool
}

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

func (f *frame) reset() {
	f.gen++
	f.regLive = f.regLive[:0]
	f.memOrder = f.memOrder[:0]
	clear(f.memFirst)
	clear(f.memSeen)
	f.pathHash = fnvOffset
	f.started = true
}

func (f *frame) noteRegRead(r isa.Reg, v int64) {
	if f.regState[r]>>1 == f.gen {
		return // already seen this iteration
	}
	f.regState[r] = f.gen << 1
	f.regFirst[r] = v
	f.regLive = append(f.regLive, r)
}

func (f *frame) noteRegWrite(r isa.Reg) {
	if f.regState[r]>>1 == f.gen {
		return
	}
	f.regState[r] = f.gen<<1 | 1
}

func (f *frame) noteMemRead(addr uint64, v int64) {
	if f.memSeen == nil {
		f.memSeen = make(map[uint64]bool)
		f.memFirst = make(map[uint64]int64)
	}
	if _, ok := f.memSeen[addr]; ok {
		return
	}
	f.memSeen[addr] = false
	f.memFirst[addr] = v
	f.memOrder = append(f.memOrder, addr)
}

func (f *frame) noteMemWrite(addr uint64) {
	if f.memSeen == nil {
		f.memSeen = make(map[uint64]bool)
		f.memFirst = make(map[uint64]int64)
	}
	if _, ok := f.memSeen[addr]; ok {
		return
	}
	f.memSeen[addr] = true
}

// Collector is the per-instruction Figure-8 collector: for every event
// it walks every active frame and notes each register and memory access
// one by one.
type Collector struct {
	cfg    datapred.Config
	shadow [isa.NumRegs]int64
	frames []*frame // active executions, outermost first
	loops  map[isa.Addr]*loopAcc
	reads  []isa.Reg
}

// NewCollector returns a collector with the given configuration.
func NewCollector(cfg datapred.Config) *Collector {
	if cfg.MaxMemPerLoop == 0 {
		cfg.MaxMemPerLoop = 4096
	}
	if cfg.MaxPathsPerLoop == 0 {
		cfg.MaxPathsPerLoop = 4096
	}
	return &Collector{
		cfg:   cfg,
		loops: make(map[isa.Addr]*loopAcc),
	}
}

// Instr implements loopdet.StreamObserver: classify reads/writes into
// every active iteration frame and maintain the register shadow.
func (c *Collector) Instr(ev *trace.Event) {
	in := ev.Instr
	if len(c.frames) > 0 {
		c.reads = in.Reads(c.reads[:0])
		for _, fr := range c.frames {
			if !fr.started {
				continue
			}
			fr.pathHash = (fr.pathHash ^ uint64(ev.PC)) * fnvPrime
			for _, r := range c.reads {
				fr.noteRegRead(r, c.shadow[r])
			}
			switch in.Kind {
			case isa.KindLoad:
				fr.noteMemRead(ev.MemAddr, ev.MemVal)
			case isa.KindStore:
				fr.noteMemWrite(ev.MemAddr)
			}
			if ev.WroteReg {
				fr.noteRegWrite(ev.WrittenReg)
			}
		}
	}
	if ev.WroteReg {
		c.shadow[ev.WrittenReg] = ev.WrittenVal
	}
}

// InstrBatch implements loopdet.BatchStreamObserver. Outside any loop —
// the common case between executions — the run reduces to replaying
// register writes into the shadow file with no per-event dispatch;
// inside loops the per-event classification is inherently per
// instruction, but the method-call loop still beats one interface call
// per event.
func (c *Collector) InstrBatch(evs []trace.Event) {
	if len(c.frames) == 0 {
		for i := range evs {
			if ev := &evs[i]; ev.WroteReg {
				c.shadow[ev.WrittenReg] = ev.WrittenVal
			}
		}
		return
	}
	for i := range evs {
		c.Instr(&evs[i])
	}
}

// ExecStart implements loopdet.Observer.
func (c *Collector) ExecStart(x *loopdet.Exec) {
	la := c.loops[x.T]
	if la == nil {
		la = &loopAcc{
			memPred: make(map[uint64]*predict.Stride),
			paths:   make(map[uint64]*pathStat),
		}
		c.loops[x.T] = la
	}
	fr := la.spare
	if fr != nil {
		la.spare = nil
		// A fresh frame but for the storage: the register tables restart
		// from generation 0 exactly as a new frame's would.
		*fr = frame{regLive: fr.regLive[:0], memFirst: fr.memFirst,
			memSeen: fr.memSeen, memOrder: fr.memOrder[:0]}
	} else {
		fr = &frame{}
	}
	fr.loop, fr.id = la, x.ID
	fr.reset()
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
	fr.reset()
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
	fr.loop.spare = fr
}

// OneShot implements loopdet.Observer; one-shot executions have no
// detected iterations.
func (c *Collector) OneShot(t, b isa.Addr, index uint64) {}

// finishIteration evaluates the just-completed iteration of fr against
// the loop's predictors, then trains them with the observed live-ins.
func (c *Collector) finishIteration(fr *frame) {
	la := fr.loop
	la.iters++
	ps := la.paths[fr.pathHash]
	if ps == nil {
		if len(la.paths) >= c.cfg.MaxPathsPerLoop {
			// Bucket overflow paths together; they are by construction
			// rare paths.
			ps = la.paths[0]
			if ps == nil {
				ps = &pathStat{}
				la.paths[0] = ps
			}
		} else {
			ps = &pathStat{}
			la.paths[fr.pathHash] = ps
		}
	}
	ps.iters++

	allReg, allMem := true, true
	for _, r := range fr.regLive {
		v := fr.regFirst[r]
		pr := &la.regPred[r]
		if pr.Samples() >= 2 {
			pred, _ := pr.Predict()
			ps.lrAttempt++
			if pred == v {
				ps.lrCorrect++
			} else {
				allReg = false
			}
			if last, ok := pr.HaveLast(); ok && last == v {
				ps.lrLast++
			}
		} else {
			allReg = false
		}
		pr.Observe(v)
	}
	// memOrder holds exactly the read-before-write addresses (write-first
	// locations never enter it), in first-read stream order.
	for _, addr := range fr.memOrder {
		v := fr.memFirst[addr]
		pr := la.memPred[addr]
		if pr == nil {
			if len(la.memPred) >= c.cfg.MaxMemPerLoop {
				la.overflow++
				allMem = false
				continue
			}
			pr = &predict.Stride{}
			la.memPred[addr] = pr
		}
		if pr.Samples() >= 2 {
			pred, _ := pr.Predict()
			ps.lmAttempt++
			if pred == v {
				ps.lmCorrect++
			} else {
				allMem = false
			}
			if last, ok := pr.HaveLast(); ok && last == v {
				ps.lmLast++
			}
		} else {
			allMem = false
		}
		pr.Observe(v)
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

// Summary aggregates the per-loop, per-path buckets into the Figure-8
// metrics.
func (c *Collector) Summary() datapred.Summary {
	var s datapred.Summary
	var sameIters uint64
	var lrA, lrC, lmA, lmC, lrL, lmL, allLr, allLm, allData, mfpIters uint64
	for _, la := range c.loops {
		if la.iters == 0 {
			continue
		}
		s.Loops++
		s.Iters += la.iters
		s.MemOverflow += la.overflow
		// Most frequent path of this loop. Ties are broken on the lowest
		// path hash — without a deterministic tie-break, randomised map
		// order would pick the winner and the report would differ from
		// run to run.
		var best *pathStat
		var bestHash uint64
		for h, ps := range la.paths {
			if best == nil || ps.iters > best.iters || (ps.iters == best.iters && h < bestHash) {
				best, bestHash = ps, h
			}
		}
		if best == nil {
			continue
		}
		sameIters += best.iters
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
		s.SamePathPct = 100 * float64(sameIters) / float64(s.Iters)
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
