package datapred

import (
	"math"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/harness"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/trace"
)

// runPred executes a unit with a collector attached and returns the
// summary.
func runPred(t *testing.T, u *builder.Unit, cfg Config) Summary {
	t.Helper()
	c := NewCollector(cfg)
	res, err := harness.Run(u, harness.Config{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	return c.Summary()
}

// TestAffineLiveInsPredicted: a loop whose live-in register advances by a
// constant stride per iteration must be near-perfectly predictable.
func TestAffineLiveInsPredicted(t *testing.T) {
	b := builder.New("t", 1)
	b.MovI(12, 100)
	b.CountedLoop(builder.TripImm(200), builder.LoopOpt{}, func() {
		// Read r12 (live-in), then advance it by 3.
		b.Emit(isa.AddI(13, 12, 1))
		b.Advance(12, 3)
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{})
	if s.Loops != 1 {
		t.Fatalf("loops = %d", s.Loops)
	}
	if s.SamePathPct != 100 {
		t.Fatalf("same path = %v%%, want 100 (no branches in body)", s.SamePathPct)
	}
	if s.LrPredPct < 95 {
		t.Fatalf("lr pred = %.1f%%, want ~100 on affine live-ins", s.LrPredPct)
	}
	if s.AllDataPct < 90 {
		t.Fatalf("all data = %.1f%%, want high", s.AllDataPct)
	}
}

// TestChaoticLiveInsUnpredictable: live-ins drawn fresh from a random
// sequence every iteration defeat the stride predictor.
func TestChaoticLiveInsUnpredictable(t *testing.T) {
	b := builder.New("t", 2)
	noise := b.UniformSeq(0, 1<<30)
	b.CountedLoop(builder.TripImm(200), builder.LoopOpt{}, func() {
		b.Emit(isa.AddI(13, 23, 1)) // read r23: live-in, random each iteration
		b.SetSeq(23, noise)         // rewrite r23 with a fresh random draw
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{})
	if s.LrPredPct > 50 {
		t.Fatalf("lr pred = %.1f%%, want low on random live-ins", s.LrPredPct)
	}
	if s.AllDataPct > 50 {
		t.Fatalf("all data = %.1f%%, want low", s.AllDataPct)
	}
}

// TestMemoryLiveInStride: a memory cell advanced by a constant stride per
// iteration is a predictable live-in memory location.
func TestMemoryLiveInStride(t *testing.T) {
	b := builder.New("t", 3)
	b.MovI(24, builder.HeapBase)
	b.StoreAt(24, 0, 0) // mem[heap] = 0
	b.CountedLoop(builder.TripImm(150), builder.LoopOpt{}, func() {
		b.LoadAt(13, 24, 0) // live-in memory read
		b.Emit(isa.AddI(13, 13, 7))
		b.StoreAt(24, 0, 13) // cell grows by 7 per iteration
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{})
	if s.LmPredPct < 90 {
		t.Fatalf("lm pred = %.1f%%, want ~100 on strided memory cell", s.LmPredPct)
	}
}

// TestWrittenFirstIsNotLiveIn: a register written before being read in
// the iteration must not count as a live-in.
func TestWrittenFirstIsNotLiveIn(t *testing.T) {
	b := builder.New("t", 4)
	noise := b.UniformSeq(0, 1<<30)
	b.CountedLoop(builder.TripImm(100), builder.LoopOpt{}, func() {
		b.SetSeq(23, noise)         // write r23 FIRST (random)
		b.Emit(isa.AddI(13, 23, 1)) // then read it: not a live-in
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{})
	// The only live-ins left are the loop bookkeeping (counter slot via
	// memory, which is stride-predictable), so prediction must stay high
	// even though r23 itself is random.
	if s.LrPredPct != 0 && s.LrPredPct < 90 {
		t.Fatalf("lr pred = %.1f%%: random written-first register leaked into live-ins", s.LrPredPct)
	}
}

// TestPathSplit: a body with a 50/50 branch has a most-frequent path
// around 50%, and iterations are bucketed by path.
func TestPathSplit(t *testing.T) {
	b := builder.New("t", 5)
	coin := b.BernoulliSeq(0.5)
	b.CountedLoop(builder.TripImm(400), builder.LoopOpt{}, func() {
		b.IfSeq(coin, func() { b.Work(4) }, func() { b.Work(9) })
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{})
	if s.SamePathPct < 35 || s.SamePathPct > 65 {
		t.Fatalf("same path = %.1f%%, want ~50", s.SamePathPct)
	}
}

// TestDominantPath: an 85/15 branch yields the paper's ~85% same-path
// coverage shape.
func TestDominantPath(t *testing.T) {
	b := builder.New("t", 6)
	coin := b.BernoulliSeq(0.85)
	b.CountedLoop(builder.TripImm(600), builder.LoopOpt{}, func() {
		b.IfSeq(coin, func() { b.Work(4) }, func() { b.Work(9) })
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{})
	if s.SamePathPct < 75 || s.SamePathPct > 95 {
		t.Fatalf("same path = %.1f%%, want ~85", s.SamePathPct)
	}
}

// TestNestedAttribution: instructions of an inner loop belong to the
// outer iteration too; the outer loop's live-in set must include
// registers read only inside the inner loop.
func TestNestedAttribution(t *testing.T) {
	b := builder.New("t", 7)
	b.MovI(12, 5)
	b.CountedLoop(builder.TripImm(50), builder.LoopOpt{}, func() {
		b.CountedLoop(builder.TripImm(4), builder.LoopOpt{}, func() {
			b.Emit(isa.AddI(13, 12, 0)) // reads r12
		})
		b.Advance(12, 2)
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{})
	if s.Loops != 2 {
		t.Fatalf("loops = %d, want 2", s.Loops)
	}
	// r12 is a stride-2 live-in of the outer iterations and a CONSTANT
	// live-in within one outer iteration for the inner executions. Both
	// are predictable except at execution boundaries, where the inner
	// predictor sees the jump between outer iterations and mispredicts
	// once per execution — the same boundary effect that keeps the
	// paper's aggregate "lr pred" near 85% rather than 100%.
	if s.LrPredPct < 65 || s.LrPredPct > 90 {
		t.Fatalf("lr pred = %.1f%%", s.LrPredPct)
	}
}

// TestMemCap: the per-loop memory cap drops excess locations and counts
// them.
func TestMemCap(t *testing.T) {
	b := builder.New("t", 8)
	b.MovI(24, builder.HeapBase)
	b.CountedLoop(builder.TripImm(50), builder.LoopOpt{}, func() {
		b.LoadAt(13, 24, 0)
		b.LoadAt(13, 24, 1)
		b.LoadAt(13, 24, 2)
		b.LoadAt(13, 24, 3)
		b.Advance(24, 4) // new addresses every iteration
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runPred(t, u, Config{MaxMemPerLoop: 8})
	if s.MemOverflow == 0 {
		t.Fatal("expected memory-cap overflow")
	}
}

// TestWarmLoopZeroAllocs pins that a warm loop allocates nothing per
// iteration. An outer loop alternates between two control paths, loads
// and stores a fixed set of addresses, and runs an inner loop execution
// that starts and ends in every outer iteration; after warm-up, further
// outer iterations must not allocate.
func TestWarmLoopZeroAllocs(t *testing.T) {
	const base = builder.HeapBase
	code := []isa.Instr{
		isa.Load(1, 2, 0),
		isa.AddI(3, 1, 1),
		isa.Store(2, 8, 3),
		isa.AddI(2, 2, 16),
		isa.Branch(isa.CondNEZ, 3, 0),
	}
	c := NewCollector(Config{})
	outer := &loopdet.Exec{ID: 1, T: 0, Iters: 2}
	inner := &loopdet.Exec{T: 1, Iters: 2}
	run := make([]trace.Event, 0, 64)
	var idx uint64
	// emit appends one event per instruction of code[from:to] touching
	// address addr, and delivers them as one run.
	emit := func(from, to int, addr uint64, val int64) {
		run = run[:0]
		for pc := from; pc < to; pc++ {
			in := &code[pc]
			ev := trace.Event{Index: idx, PC: isa.Addr(pc), Instr: in, MemAddr: addr, MemVal: val}
			if r, ok := in.WritesReg(); ok {
				ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, r, val
			}
			run = append(run, ev)
			idx++
		}
		c.InstrBatch(run)
	}
	k := 0
	iteration := func() {
		for j := 0; j < 16; j++ {
			addr := base + uint64(16*j)
			emit(0, 3, addr, int64(k+j))
			if (k+j)%2 == 0 {
				emit(3, 5, addr, int64(k))
			}
		}
		inner.ID++
		inner.Iters = 2
		c.ExecStart(inner)
		c.IterStart(inner, idx)
		for i := 0; i < 3; i++ {
			emit(1, 5, base, int64(i))
			inner.Iters++
			c.IterStart(inner, idx)
		}
		c.ExecEnd(inner, loopdet.EndBackEdge, idx)
		k++
		outer.Iters++
		c.IterStart(outer, idx)
	}
	c.ExecStart(outer)
	c.IterStart(outer, idx)
	for i := 0; i < 200; i++ {
		iteration()
	}
	if n := testing.AllocsPerRun(200, iteration); n != 0 {
		t.Fatalf("a warm loop iteration allocates %v times, want 0", n)
	}
	if s := c.Summary(); s.Loops != 2 || s.Iters == 0 {
		t.Fatalf("summary %+v: the loop nest was not measured", s)
	}
}

// TestAddrSetGenerationWrap: emptying the set when its generation
// counter wraps to 0 must not let never-filled slots, whose generation
// is 0, read as members holding address 0.
func TestAddrSetGenerationWrap(t *testing.T) {
	var s addrSet
	s.clear()
	s.gen = math.MaxUint32
	for a := uint64(100); a < 110; a++ {
		s.add(a)
	}
	s.clear()
	for a := uint64(0); a < 20; a++ {
		if !s.add(a) {
			t.Fatalf("address %d reads as a member of a set just emptied", a)
		}
	}
}
