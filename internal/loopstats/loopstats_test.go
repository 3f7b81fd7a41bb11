package loopstats

import (
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/harness"
)

// runStats executes a unit with a collector attached.
func runStats(t *testing.T, u *builder.Unit) Summary {
	t.Helper()
	c := NewCollector()
	res, err := harness.Run(u, harness.Config{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	return c.Summary()
}

// TestSingleLoopRow checks every Table-1 column on one known loop.
func TestSingleLoopRow(t *testing.T) {
	b := builder.New("t", 1)
	b.CountedLoop(builder.TripImm(6), builder.LoopOpt{}, func() { b.Work(10) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runStats(t, u)
	if s.StaticLoops != 1 {
		t.Fatalf("loops = %d, want 1", s.StaticLoops)
	}
	if s.Execs != 1 || s.Iters != 6 {
		t.Fatalf("execs=%d iters=%d, want 1/6", s.Execs, s.Iters)
	}
	if s.ItersPerExec != 6 {
		t.Fatalf("iters/exec = %v", s.ItersPerExec)
	}
	// Each detected iteration is body(10) + latch(4) = 14 instructions.
	if s.InstrPerIter != 14 {
		t.Fatalf("instr/iter = %v, want 14", s.InstrPerIter)
	}
	if s.MaxNesting != 1 || s.AvgNesting != 1 {
		t.Fatalf("nesting avg=%v max=%d, want 1/1", s.AvgNesting, s.MaxNesting)
	}
}

// TestNestingDepths checks avg/max nesting on a 3-deep nest.
func TestNestingDepths(t *testing.T) {
	b := builder.New("t", 1)
	b.CountedLoop(builder.TripImm(3), builder.LoopOpt{}, func() {
		b.CountedLoop(builder.TripImm(3), builder.LoopOpt{}, func() {
			b.CountedLoop(builder.TripImm(20), builder.LoopOpt{}, func() { b.Work(10) })
		})
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runStats(t, u)
	if s.MaxNesting != 3 {
		t.Fatalf("max nesting = %d, want 3", s.MaxNesting)
	}
	// Most instructions run in the innermost loop, but every loop is only
	// *detected* from its second iteration, so first-iteration work
	// counts at a lower depth and the average sits noticeably below 3.
	if s.AvgNesting < 2.0 || s.AvgNesting > 3.0 {
		t.Fatalf("avg nesting = %v, want between 2 and 3", s.AvgNesting)
	}
	if s.StaticLoops != 3 {
		t.Fatalf("static loops = %d", s.StaticLoops)
	}
}

// TestOneShotCounting checks the CountOneShots switch (the Table-1
// ablation).
func TestOneShotCounting(t *testing.T) {
	build := func() *builder.Unit {
		b := builder.New("t", 1)
		b.CountedLoop(builder.TripImm(1), builder.LoopOpt{}, func() { b.Work(3) })
		b.CountedLoop(builder.TripImm(4), builder.LoopOpt{}, func() { b.Work(3) })
		u, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	withS := runStats(t, build())
	if withS.Execs != 2 || withS.Iters != 5 {
		t.Fatalf("with one-shots: execs=%d iters=%d, want 2/5", withS.Execs, withS.Iters)
	}
	c := NewCollector()
	c.CountOneShots = false
	if _, err := harness.Run(build(), harness.Config{}, c); err != nil {
		t.Fatal(err)
	}
	without := c.Summary()
	if without.Execs != 1 || without.Iters != 4 {
		t.Fatalf("without one-shots: execs=%d iters=%d, want 1/4", without.Execs, without.Iters)
	}
	// Static loop identity counts one-shots either way.
	if without.StaticLoops != 2 {
		t.Fatalf("static loops = %d, want 2", without.StaticLoops)
	}
	// Reset makes the collector what NewCollector returns: one-shots
	// counted again, and nothing of the last run left.
	c.Reset()
	if _, err := harness.Run(build(), harness.Config{}, c); err != nil {
		t.Fatal(err)
	}
	if again := c.Summary(); again != withS {
		t.Fatalf("after Reset: %+v, want %+v", again, withS)
	}
}

// TestFlushedExecDropped checks that a budget-truncated execution does
// not pollute the averages.
func TestFlushedExecDropped(t *testing.T) {
	b := builder.New("t", 1)
	b.CountedLoop(builder.TripImm(1000), builder.LoopOpt{}, func() { b.Work(5) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	if _, err := harness.Run(u, harness.Config{Budget: 200}, c); err != nil {
		t.Fatal(err)
	}
	s := c.Summary()
	if s.Execs != 0 {
		t.Fatalf("flushed execution counted: %+v", s)
	}
	if s.StaticLoops != 1 {
		t.Fatalf("loop identity lost: %+v", s)
	}
	if s.Instrs != 200 {
		t.Fatalf("instrs = %d, want 200", s.Instrs)
	}
}

// TestInLoopFraction checks the in-loop instruction fraction on a
// program that is half straight-line.
func TestInLoopFraction(t *testing.T) {
	b := builder.New("t", 1)
	b.Work(200)
	b.CountedLoop(builder.TripImm(20), builder.LoopOpt{}, func() { b.Work(10) })
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runStats(t, u)
	if s.InLoopFrac <= 0.4 || s.InLoopFrac >= 0.8 {
		t.Fatalf("in-loop fraction = %v", s.InLoopFrac)
	}
}
