package taskpred

import (
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/harness"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
)

// TestPerfectlyPeriodicSequence: a fixed round-robin of loop executions
// is learned exactly after one lap.
func TestPerfectlyPeriodicSequence(t *testing.T) {
	p := New(Config{HistoryLength: 2, TableBits: 8})
	// Executions cycle A, B, C, A, B, C, ...
	seq := []uint32{10, 20, 30}
	id := uint64(0)
	for lap := 0; lap < 40; lap++ {
		for _, target := range seq {
			id++
			p.ExecStart(&loopdet.Exec{ID: id, T: isaAddr(target), B: isaAddr(target + 5), Iters: 2})
		}
	}
	acc, n := p.Accuracy()
	if n == 0 {
		t.Fatal("no predictions scored")
	}
	// Everything after the first lap is predictable.
	if acc < 90 {
		t.Fatalf("accuracy = %.1f%% on a periodic sequence", acc)
	}
}

// TestResetMatchesFresh: a predictor Reset to another configuration
// after training scores a sequence exactly as a fresh one does.
func TestResetMatchesFresh(t *testing.T) {
	run := func(p *Predictor) (float64, uint64) {
		for i := uint64(1); i < 500; i++ {
			tgt := uint32(10 + i*i%13)
			p.ExecStart(&loopdet.Exec{ID: i, T: isaAddr(tgt), B: isaAddr(tgt + 3), Iters: 2})
		}
		return p.Accuracy()
	}
	cfg := Config{HistoryLength: 3, TableBits: 6}
	fresh := new(Predictor)
	fresh.Reset(cfg)
	wantAcc, wantN := run(fresh)
	p := New(Config{HistoryLength: 1, TableBits: 8})
	run(p)
	p.Reset(cfg)
	if acc, n := run(p); acc != wantAcc || n != wantN {
		t.Fatalf("after Reset: %.2f%% over %d, fresh %.2f%% over %d", acc, n, wantAcc, wantN)
	}
}

// TestRandomSequenceUnpredictable: independent random targets stay near
// chance level.
func TestRandomSequenceUnpredictable(t *testing.T) {
	p := New(Config{HistoryLength: 2, TableBits: 8})
	r := uint64(99)
	next := func() uint32 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return uint32(10 + (r % 32))
	}
	for i := uint64(1); i < 4000; i++ {
		tgt := next()
		p.ExecStart(&loopdet.Exec{ID: i, T: isaAddr(tgt), B: isaAddr(tgt + 3), Iters: 2})
	}
	acc, _ := p.Accuracy()
	if acc > 25 {
		t.Fatalf("accuracy = %.1f%% on random targets, want near 1/32", acc)
	}
}

// TestOnRealWorkloadShape: regular nests give high next-target accuracy,
// and the predictor wires into the detector pipeline.
func TestOnRealWorkloadShape(t *testing.T) {
	b := builder.New("periodic", 1)
	f := b.Func("kernel", func() {
		b.CountedLoop(builder.TripImm(4), builder.LoopOpt{}, func() { b.Work(3) })
		b.CountedLoop(builder.TripImm(5), builder.LoopOpt{}, func() { b.Work(3) })
		b.CountedLoop(builder.TripImm(6), builder.LoopOpt{}, func() { b.Work(3) })
	})
	for i := 0; i < 60; i++ {
		b.Call(f)
	}
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	if _, err := harness.Run(u, harness.Config{}, p); err != nil {
		t.Fatal(err)
	}
	acc, n := p.Accuracy()
	if n < 100 {
		t.Fatalf("scored only %d predictions", n)
	}
	if acc < 95 {
		t.Fatalf("accuracy = %.1f%% on a strictly periodic kernel", acc)
	}
}

func isaAddr(v uint32) isa.Addr { return isa.Addr(v) }

// TestExecStartZeroAllocs pins the steady-state ExecStart at zero heap
// allocations: the history window shifts in place rather than
// reslicing, which would reallocate every HistoryLength executions.
func TestExecStartZeroAllocs(t *testing.T) {
	for _, hl := range []int{1, 2, 5} {
		p := New(Config{HistoryLength: hl})
		x := &loopdet.Exec{T: 10}
		for i := range 64 {
			x.T = isaAddr(uint32(10 + i%7))
			p.ExecStart(x)
		}
		i := 0
		if avg := testing.AllocsPerRun(1000, func() {
			i++
			x.ID, x.T = uint64(i), isaAddr(uint32(10+i%7))
			p.ExecStart(x)
		}); avg != 0 {
			t.Fatalf("history length %d: ExecStart allocates %v per call, want 0", hl, avg)
		}
	}
}
