package builder

import (
	"strings"
	"testing"

	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/trace"
)

// runUnit executes a unit to completion against a detector and returns
// the CPU-retired count plus the recorded loop events.
type countObs struct {
	loopdet.NopObserver
	execs, iters, oneshots int
	endReasons             map[loopdet.EndReason]int
}

func newCountObs() *countObs {
	return &countObs{endReasons: make(map[loopdet.EndReason]int)}
}

func (c *countObs) ExecStart(x *loopdet.Exec)               { c.execs++ }
func (c *countObs) IterStart(x *loopdet.Exec, index uint64) { c.iters++ }
func (c *countObs) OneShot(t, b isa.Addr, index uint64)     { c.oneshots++ }
func (c *countObs) ExecEnd(x *loopdet.Exec, r loopdet.EndReason, index uint64) {
	c.endReasons[r]++
}

func runUnit(t *testing.T, u *Unit, budget uint64) (*countObs, uint64) {
	t.Helper()
	cpu := u.NewCPU()
	det := loopdet.New(loopdet.Config{Capacity: 16})
	obs := newCountObs()
	det.AddObserver(obs)
	n, err := cpu.Run(budget, det)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if budget == 0 && !cpu.Halted() {
		t.Fatalf("program did not halt")
	}
	det.Flush()
	return obs, n
}

// TestCountedLoopConstTrip checks a single loop with a constant trip
// count: one execution with exactly trip iterations.
func TestCountedLoopConstTrip(t *testing.T) {
	b := New("t", 1)
	b.CountedLoop(TripImm(5), LoopOpt{}, func() { b.Work(4) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := runUnit(t, u, 0)
	if obs.execs != 1 {
		t.Fatalf("execs = %d, want 1", obs.execs)
	}
	// Iterations started events: detection at iter 2 plus iters 3..5.
	if obs.iters != 4 {
		t.Fatalf("iter events = %d, want 4", obs.iters)
	}
	if obs.endReasons[loopdet.EndBackEdge] != 1 {
		t.Fatalf("end reasons: %v", obs.endReasons)
	}
}

// TestCountedLoopTripOne checks that a 1-trip loop is a one-shot.
func TestCountedLoopTripOne(t *testing.T) {
	b := New("t", 1)
	b.CountedLoop(TripImm(1), LoopOpt{}, func() { b.Work(2) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := runUnit(t, u, 0)
	if obs.oneshots != 1 || obs.execs != 0 {
		t.Fatalf("oneshots=%d execs=%d, want 1 0", obs.oneshots, obs.execs)
	}
}

// TestGuardedZeroTrip checks that a guarded loop with trip 0 leaves no
// trace at all.
func TestGuardedZeroTrip(t *testing.T) {
	b := New("t", 1)
	b.CountedLoop(TripImm(0), LoopOpt{Guarded: true}, func() { b.Work(2) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := runUnit(t, u, 0)
	if obs.oneshots != 0 || obs.execs != 0 || obs.iters != 0 {
		t.Fatalf("events on zero-trip: %+v", obs)
	}
}

// TestNestedLoopsGroundTruth checks executions/iterations of a 3-deep
// nest against the closed-form expectation.
func TestNestedLoopsGroundTruth(t *testing.T) {
	b := New("t", 1)
	const oT, mT, iT = 3, 4, 5
	b.CountedLoop(TripImm(oT), LoopOpt{}, func() {
		b.Work(2)
		b.CountedLoop(TripImm(mT), LoopOpt{}, func() {
			b.Work(2)
			b.CountedLoop(TripImm(iT), LoopOpt{}, func() { b.Work(2) })
		})
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Loops) != 3 {
		t.Fatalf("loop infos = %d, want 3", len(u.Loops))
	}
	obs, _ := runUnit(t, u, 0)
	wantExecs := 1 + oT + oT*mT
	if obs.execs != wantExecs {
		t.Fatalf("execs = %d, want %d", obs.execs, wantExecs)
	}
	// Detected iteration-start events per execution = trip - 1.
	wantIters := (oT - 1) + oT*(mT-1) + oT*mT*(iT-1)
	if obs.iters != wantIters {
		t.Fatalf("iter events = %d, want %d", obs.iters, wantIters)
	}
	if obs.endReasons[loopdet.EndBackEdge] != wantExecs {
		t.Fatalf("backedge ends = %d, want %d", obs.endReasons[loopdet.EndBackEdge], wantExecs)
	}
	// Depths recorded statically.
	if u.Loops[0].Depth != 0 || u.Loops[1].Depth != 1 || u.Loops[2].Depth != 2 {
		t.Fatalf("depths: %+v", u.Loops)
	}
}

// TestBreak checks that Break terminates the execution with an exit
// branch.
func TestBreak(t *testing.T) {
	b := New("t", 1)
	cnt := b.CounterSeq(1, 1) // 1, 2, 3, ... per iteration
	b.CountedLoop(TripImm(10), LoopOpt{}, func() {
		b.Work(2)
		b.SetSeq(12, cnt)
		// Break on the 4th iteration (when the draw reaches 4).
		b.emit(isa.AddI(12, 12, -4))
		b.IfReg(isa.CondEQZ, 12, func() { b.Break() }, nil)
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := runUnit(t, u, 0)
	if obs.execs != 1 || obs.endReasons[loopdet.EndExit] != 1 {
		t.Fatalf("execs=%d reasons=%v", obs.execs, obs.endReasons)
	}
}

// TestContinue checks that Continue reaches the latch (the loop still
// iterates fully).
func TestContinue(t *testing.T) {
	b := New("t", 1)
	bern := b.BernoulliSeq(1.0) // always continue
	b.CountedLoop(TripImm(6), LoopOpt{}, func() {
		b.IfSeq(bern, func() { b.Continue() }, nil)
		b.MovI(13, 999) // never reached
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	det := loopdet.New(loopdet.Config{Capacity: 16})
	obs := newCountObs()
	det.AddObserver(obs)
	if _, err := cpu.Run(0, det); err != nil {
		t.Fatal(err)
	}
	det.Flush()
	if cpu.Reg(13) == 999 {
		t.Fatal("Continue did not skip the rest of the body")
	}
	if obs.execs != 1 || obs.endReasons[loopdet.EndBackEdge] != 1 {
		t.Fatalf("execs=%d reasons=%v", obs.execs, obs.endReasons)
	}
}

// TestWhileSeq checks data-driven loops: a cycle of 3 ones then a zero
// gives 4-iteration executions.
func TestWhileSeq(t *testing.T) {
	b := New("t", 1)
	w := b.CycleSeq(1, 1, 1, 0)
	b.CountedLoop(TripImm(3), LoopOpt{}, func() {
		b.WhileSeq(w, func() { b.Work(2) })
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := runUnit(t, u, 0)
	// Outer: 1 exec; inner: 3 execs of 4 iterations.
	if obs.execs != 4 {
		t.Fatalf("execs = %d, want 4", obs.execs)
	}
	wantIters := 2 + 3*3
	if obs.iters != wantIters {
		t.Fatalf("iters = %d, want %d", obs.iters, wantIters)
	}
}

// TestFunctionsAndRecursion checks calls, early return and the
// recursion-safe loop counter: a depth-3 recursion each running a 4-trip
// loop must execute the body 12 times.
func TestFunctionsAndRecursion(t *testing.T) {
	b := New("t", 1)
	depth := b.CounterSeq(3, -1) // 3, 2, 1, 0... per call
	f := b.Declare("f")
	b.Define(f, func() {
		b.SetSeq(14, depth)
		b.IfReg(isa.CondLEZ, 14, func() { b.Return() }, nil)
		b.CountedLoop(TripImm(4), LoopOpt{RecursiveSafe: true}, func() {
			b.Advance(12, 1) // body marker
		})
		b.Call(f)
	})
	b.Call(f)
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Reg(12); got != 12 {
		t.Fatalf("body executed %d times, want 12", got)
	}
}

// TestRecursiveLoopSharedCounterWouldBreak demonstrates why RecursiveSafe
// exists: the loop nested in recursion keeps distinct counters per
// activation.
func TestRecursiveLoopReentry(t *testing.T) {
	b := New("t", 1)
	f := b.Declare("f")
	b.Define(f, func() {
		// r14 carries the remaining recursion depth.
		b.IfReg(isa.CondLEZ, 14, func() { b.Return() }, nil)
		b.CountedLoop(TripImm(3), LoopOpt{RecursiveSafe: true}, func() {
			b.Advance(12, 1)  // body marker
			b.Advance(14, -1) // recurse from INSIDE the loop body
			b.Call(f)
			b.Advance(14, 1)
		})
	})
	b.MovI(14, 2)
	b.Call(f)
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	// Depth-2 activation: 3 iterations, each re-entering the SAME static
	// loop at depth 1 for 3 more iterations: 3 + 3*3 = 12. Without the
	// software-stack counter the inner activation would clobber the
	// outer's remaining trip count.
	if got := cpu.Reg(12); got != 12 {
		t.Fatalf("body executed %d times, want 12", got)
	}
}

// TestIfElseBothArms checks both arms execute per the sequence draws.
func TestIfElseBothArms(t *testing.T) {
	b := New("t", 1)
	cond := b.CycleSeq(1, 0)
	b.CountedLoop(TripImm(4), LoopOpt{}, func() {
		b.IfSeq(cond, func() { b.Advance(12, 1) }, func() { b.Advance(13, 1) })
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(12) != 2 || cpu.Reg(13) != 2 {
		t.Fatalf("arms: then=%d else=%d, want 2 2", cpu.Reg(12), cpu.Reg(13))
	}
}

// TestBuildErrors checks the builder's error paths.
func TestBuildErrors(t *testing.T) {
	t.Run("break-outside-loop", func(t *testing.T) {
		b := New("t", 1)
		b.Break()
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("declared-not-defined", func(t *testing.T) {
		b := New("t", 1)
		f := b.Declare("ghost")
		b.Call(f)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("return-outside-function", func(t *testing.T) {
		b := New("t", 1)
		b.Return()
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("return-inside-recursive-loop", func(t *testing.T) {
		b := New("t", 1)
		b.Func("f", func() {
			b.CountedLoop(TripImm(2), LoopOpt{RecursiveSafe: true}, func() {
				b.Return()
			})
		})
		if _, err := b.Build(); err == nil {
			t.Fatal("want error")
		}
	})
}

// TestUnitDeterminism checks that two CPUs from one Unit produce
// identical traces (sequence factories, not shared state).
func TestUnitDeterminism(t *testing.T) {
	b := New("t", 42)
	trip := b.UniformSeq(1, 9)
	b.CountedLoop(TripImm(50), LoopOpt{}, func() {
		b.CountedLoop(TripSeq(trip), LoopOpt{}, func() { b.Work(3) })
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		cpu := u.NewCPU()
		h := trace.NewHash()
		if _, err := cpu.Run(0, h); err != nil {
			t.Fatal(err)
		}
		return h.Sum
	}
	if run() != run() {
		t.Fatal("two CPUs from one unit diverged")
	}
}

// TestDisassembleAndSymbols sanity-checks program output helpers.
func TestDisassembleAndSymbols(t *testing.T) {
	b := New("t", 1)
	b.Label("main_loop")
	b.CountedLoop(TripImm(2), LoopOpt{}, func() { b.Work(1) })
	f := b.Func("helper", func() { b.Work(1) })
	b.Call(f)
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := u.Prog.Disassemble()
	if !strings.Contains(d, "helper:") || !strings.Contains(d, "main_loop:") {
		t.Fatalf("disassembly missing symbols:\n%s", d)
	}
	if syms := u.Prog.SymbolList(); len(syms) < 2 {
		t.Fatalf("symbols: %v", syms)
	}
}

// TestWorkAffinity: the Work generator must keep its accumulator
// registers affine — constant per-iteration deltas — because live-in
// predictability (Figure 8) depends on it.
func TestWorkAffinity(t *testing.T) {
	b := New("affine", 1)
	b.CountedLoop(TripImm(6), LoopOpt{}, func() { b.Work(24) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	// Sample the accumulators at each iteration boundary.
	var samples [][4]int64
	grab := func() {
		samples = append(samples, [4]int64{cpu.Reg(16), cpu.Reg(17), cpu.Reg(18), cpu.Reg(19)})
	}
	// Run instruction by instruction; sample when PC returns to the loop
	// head.
	head := u.Loops[0].Head
	for !cpu.Halted() {
		if cpu.PC() == head {
			grab()
		}
		if _, err := cpu.Run(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(samples) < 4 {
		t.Fatalf("sampled %d boundaries", len(samples))
	}
	for r := 0; r < 4; r++ {
		d := samples[1][r] - samples[0][r]
		for i := 2; i < len(samples); i++ {
			if got := samples[i][r] - samples[i-1][r]; got != d {
				t.Fatalf("register r%d not affine: deltas %d then %d", 16+r, d, got)
			}
		}
	}
}

// TestWorkMemTouchesMemory: WorkMem must generate loads and stores at
// base-relative addresses.
func TestWorkMemTouchesMemory(t *testing.T) {
	b := New("mem", 1)
	b.MovI(24, HeapBase)
	b.WorkMem(16, 24, 4)
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if cpu.Mem().Footprint() == 0 {
		t.Fatal("WorkMem never touched memory")
	}
}

// TestSeedForDeterminism: derived seeds are stable and purpose-distinct.
func TestSeedForDeterminism(t *testing.T) {
	a := New("s", 7)
	b := New("s", 7)
	if a.SeedFor(1) != b.SeedFor(1) {
		t.Fatal("SeedFor not deterministic")
	}
	if a.SeedFor(1) == a.SeedFor(2) {
		t.Fatal("SeedFor does not separate purposes")
	}
	c := New("s", 8)
	if a.SeedFor(1) == c.SeedFor(1) {
		t.Fatal("SeedFor ignores the base seed")
	}
}

// TestLoopInfoLatch: recorded latch addresses point at the closing
// branch.
func TestLoopInfoLatch(t *testing.T) {
	b := New("latch", 1)
	b.CountedLoop(TripImm(3), LoopOpt{}, func() { b.Work(5) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	li := u.Loops[0]
	in := u.Prog.At(li.Latch)
	if in.Kind != isa.KindBranch || in.Target != li.Head {
		t.Fatalf("latch @%d is %s, want closing branch to @%d", li.Latch, in, li.Head)
	}
}

// TestChaosBreaksAffinity: Chaos must make downstream scratch registers
// unpredictable (it exists to model irregular codes).
func TestChaosBreaksAffinity(t *testing.T) {
	b := New("chaos", 3)
	noise := b.UniformSeq(0, 1<<20)
	b.CountedLoop(TripImm(8), LoopOpt{}, func() {
		b.Chaos(noise)
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	var vals []int64
	head := u.Loops[0].Head
	for !cpu.Halted() {
		if cpu.PC() == head {
			vals = append(vals, cpu.Reg(21))
		}
		if _, err := cpu.Run(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	affine := true
	for i := 2; i < len(vals); i++ {
		if vals[i]-vals[i-1] != vals[1]-vals[0] {
			affine = false
		}
	}
	if affine {
		t.Fatal("Chaos produced an affine series")
	}
}

// TestRandomUnitsValid: every random program builds, validates, halts
// under a modest budget or keeps running without machine errors, and its
// loop inventory is well-formed.
func TestRandomUnitsValid(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		u, err := Random(seed, RandomOpt{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := u.Prog.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, li := range u.Loops {
			if li.Latch <= li.Head && !(li.Latch == 0 && li.Head == 0) {
				if li.Latch < li.Head {
					t.Fatalf("seed %d: loop %d latch %d before head %d", seed, li.ID, li.Latch, li.Head)
				}
			}
		}
		cpu := u.NewCPU()
		if _, err := cpu.Run(30_000, nil); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
	}
}

// TestSequenceHelpers covers the remaining sequence constructors.
func TestSequenceHelpers(t *testing.T) {
	b := New("seqs", 4)
	cs := b.ConstSeq(7)
	cy := b.CycleSeq(1, 2)
	ge := b.GeometricSeq(1, 0.5, 10)
	no := b.NoisySeq(func() interp.Sequence { return interp.Const(5) }, 2, 0.5)
	b.SetSeq(12, cs)
	b.SetSeq(13, cy)
	b.SetSeq(14, ge)
	b.SetSeq(15, no)
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if cpu.Reg(12) != 7 || cpu.Reg(13) != 1 {
		t.Fatalf("const/cycle draws: %d %d", cpu.Reg(12), cpu.Reg(13))
	}
	if v := cpu.Reg(14); v < 1 || v > 10 {
		t.Fatalf("geometric draw out of range: %d", v)
	}
	if v := cpu.Reg(15); v < 1 || v > 7 {
		t.Fatalf("noisy draw out of range: %d", v)
	}
}

// drawsOf runs u's straight-line program one instruction at a time and
// returns the value each instruction leaves in register r12.
func drawsOf(t *testing.T, u *Unit) []int64 {
	t.Helper()
	cpu := u.NewCPU()
	var out []int64
	for !cpu.Halted() {
		if _, err := cpu.Run(1, nil); err != nil {
			t.Fatal(err)
		}
		out = append(out, cpu.Reg(12))
	}
	return out
}

// TestWithSeedDerivesInputs pins how a rebound unit seeds its inputs:
// each seeded helper draws from its purpose offset plus the sequence's
// id, derived from the seed the unit is bound to, exactly as SeedFor
// derives it at that seed; the seed-free helpers ignore the seed.
func TestWithSeedDerivesInputs(t *testing.T) {
	const draws = 8
	base := func() interp.Sequence { return interp.Const(1 << 30) }
	helpers := []struct {
		name string
		add  func(b *Builder) int64
		want func(seed uint64) interp.Sequence // seed as SeedFor derives it
		off  int64
	}{
		{"const", func(b *Builder) int64 { return b.ConstSeq(3) }, func(uint64) interp.Sequence { return interp.Const(3) }, -1},
		{"counter", func(b *Builder) int64 { return b.CounterSeq(5, 2) }, func(uint64) interp.Sequence { return interp.Counter(5, 2) }, -1},
		{"cycle", func(b *Builder) int64 { return b.CycleSeq(1, 9) }, func(uint64) interp.Sequence { return interp.Cycle(1, 9) }, -1},
		{"uniform", func(b *Builder) int64 { return b.UniformSeq(0, 1<<40) },
			func(s uint64) interp.Sequence { return interp.Uniform(0, 1<<40, s) }, 1000},
		{"geometric", func(b *Builder) int64 { return b.GeometricSeq(1, 0.9, 1<<20) },
			func(s uint64) interp.Sequence { return interp.Geometric(1, 0.9, 1<<20, s) }, 2000},
		{"bernoulli", func(b *Builder) int64 { return b.BernoulliSeq(0.5) },
			func(s uint64) interp.Sequence {
				return interp.Mix(s, []int64{500, 500}, interp.Const(0), interp.Const(1))
			}, 3000},
		{"noisy", func(b *Builder) int64 { return b.NoisySeq(base, 1<<20, 0.7) },
			func(s uint64) interp.Sequence { return interp.Noisy(base(), 1<<20, 0.7, s) }, 4000},
	}
	build := func(seed uint64) (*Unit, []int64) {
		b := New("seeds", seed)
		var ids []int64
		for _, h := range helpers {
			ids = append(ids, h.add(b))
		}
		for _, id := range ids {
			for range draws {
				b.SetSeq(12, id)
			}
		}
		u, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return u, ids
	}
	built, ids := build(0)
	for _, seed := range []uint64{0, 1, 1009, ^uint64(0)} {
		u, ok := built.WithSeed(seed)
		if !ok {
			t.Fatal("a unit built from seeded helpers is not reseedable")
		}
		if u.Code() != built.Code() {
			t.Fatal("a rebound unit predecoded its own code")
		}
		got := drawsOf(t, u)[2:] // after the prologue's MovI r0, r29
		for i, h := range helpers {
			s := seed
			if h.off >= 0 {
				s = New("seeds", seed).SeedFor(h.off + ids[i])
			}
			want := h.want(s)
			for k := range draws {
				if v, w := got[i*draws+k], want.Next(); v != w {
					t.Fatalf("seed %d: %s draw %d = %d, want %d", seed, h.name, k, v, w)
				}
			}
		}
	}
}

// TestWithSeedRefusesPinnedUnits: a build that registered a raw factory
// or read SeedFor is fixed to its own seed, so WithSeed refuses it.
func TestWithSeedRefusesPinnedUnits(t *testing.T) {
	for name, pin := range map[string]func(b *Builder){
		"NewSeq":  func(b *Builder) { b.NewSeq(func() interp.Sequence { return interp.Const(1) }) },
		"SeedFor": func(b *Builder) { b.SeedFor(7) },
		"none":    func(b *Builder) { b.UniformSeq(0, 9) },
	} {
		b := New(name, 5)
		pin(b)
		u, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := u.WithSeed(6); ok != (name == "none") {
			t.Fatalf("%s: WithSeed reports %v", name, ok)
		}
	}
	if u, err := Random(3, RandomOpt{}); err != nil {
		t.Fatal(err)
	} else if _, ok := u.WithSeed(4); ok {
		t.Fatal("a Random unit, whose structure is drawn from its seed, was rebound")
	}
}
