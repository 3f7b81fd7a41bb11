package interp

import (
	"errors"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// loopProg is a counted loop: r1 = trips; r1--; bnez r1 -> 1; halt.
func loopProg(trips int64) *CPU {
	return New(prog(
		isa.MovI(1, trips),
		isa.AddI(1, 1, -1),
		isa.Branch(isa.CondNEZ, 1, 1),
		isa.Halt(),
	))
}

// TestBatchSizeInvariance: the recorded event stream must be identical
// at every batch size, including across multiple Run calls that leave
// partial batches behind.
func TestBatchSizeInvariance(t *testing.T) {
	// One shared program, so Instr pointers compare equal across runs.
	p := prog(
		isa.MovI(1, 700),
		isa.AddI(1, 1, -1),
		isa.Branch(isa.CondNEZ, 1, 1),
		isa.Halt(),
	)
	ref := &trace.Recorder{}
	c := New(p)
	c.SetBatchSize(1)
	if _, err := c.Run(0, ref); err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{2, 3, 17, 4096} {
		got := &trace.Recorder{}
		c := New(p)
		c.SetBatchSize(bs)
		// Chunked budgets force partial-batch flushes at Run boundaries.
		for !c.Halted() {
			if _, err := c.Run(101, got); err != nil {
				t.Fatal(err)
			}
		}
		if len(got.Events) != len(ref.Events) {
			t.Fatalf("batch=%d: %d events, want %d", bs, len(got.Events), len(ref.Events))
		}
		for i := range ref.Events {
			if got.Events[i] != ref.Events[i] {
				t.Fatalf("batch=%d: event %d = %+v, want %+v", bs, i, got.Events[i], ref.Events[i])
			}
		}
	}
}

// TestErrorFlushesPartialBatch: when Run aborts on a machine error, the
// events already retired must still reach the sink.
func TestErrorFlushesPartialBatch(t *testing.T) {
	// Jump beyond the end of the program: the jump itself retires, then
	// the next fetch fails.
	c := New(prog(
		isa.Nop(),
		isa.Nop(),
		isa.Jump(40),
	))
	rec := &trace.Recorder{}
	n, err := c.Run(0, rec)
	if !errors.Is(err, ErrPC) {
		t.Fatalf("err = %v, want ErrPC", err)
	}
	if n != 3 {
		t.Fatalf("retired %d, want 3", n)
	}
	if len(rec.Events) != 3 {
		t.Fatalf("sink saw %d events, want 3 (partial batch not flushed)", len(rec.Events))
	}
	last := rec.Events[2]
	if last.Instr.Kind != isa.KindJump || !last.Taken || last.Target != 40 {
		t.Fatalf("last event = %+v, want the jump", last)
	}
}

// TestNilSinkNoAllocs: running without a sink must not allocate at all
// (the control-plane loop's batch is pooled and its sink is empty).
func TestNilSinkNoAllocs(t *testing.T) {
	c := loopProg(1 << 40)
	if _, err := c.Run(1024, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := c.Run(4096, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("allocs/run = %v, want 0", avg)
	}
}
