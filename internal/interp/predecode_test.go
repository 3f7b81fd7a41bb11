package interp

import (
	"errors"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// fusionProg builds a program that exercises every superinstruction
// pattern (each pair commented), plus branches both ways, call/ret,
// jump, seq, and halt. The loop body runs five times, so fused pairs
// retire repeatedly before the program falls through to the call tail.
func fusionProg() *program.Program {
	return prog(
		isa.MovI(1, 0),                  // 0
		isa.MovI(3, 1000),               // 1
		isa.AddI(1, 1, 1),               // 2: loop head (branch target)
		isa.AddI(4, 1, 2),               // 3:   addi+addi
		isa.ALU(isa.OpAdd, 5, 1, 4),     // 4
		isa.ALU(isa.OpAdd, 6, 5, 1),     // 5:   add+add
		isa.ALU(isa.OpAdd, 7, 5, 6),     // 6
		isa.AddI(7, 7, 3),               // 7:   add+addi
		isa.AddI(8, 7, 1),               // 8
		isa.ALU(isa.OpAdd, 8, 8, 1),     // 9:   addi+add
		isa.MovI(9, 7),                  // 10
		isa.Store(3, 0, 9),              // 11:  movi+st
		isa.Load(10, 3, 0),              // 12
		isa.AddI(10, 10, 1),             // 13: ld+addi
		isa.Load(11, 3, 8),              // 14
		isa.ALU(isa.OpAdd, 11, 11, 1),   // 15: ld+add
		isa.Store(3, 8, 11),             // 16
		isa.Branch(isa.CondEQZ, 12, 19), // 17: st+br, always taken
		isa.Nop(),                       // 18: skipped
		isa.Seq(13, 0),                  // 19: branch target
		isa.AddI(14, 1, -5),             // 20
		isa.Branch(isa.CondLTZ, 14, 2),  // 21: addi+br back edge
		isa.Call(25),                    // 22
		isa.Jump(26),                    // 23: return address
		isa.Nop(),                       // 24
		isa.Ret(),                       // 25
		isa.Halt(),                      // 26
	)
}

func newFusionCPU() *CPU {
	c := New(fusionProg())
	c.BindSeq(0, Counter(100, 3))
	return c
}

// TestPredecodeFusionApplied pins that the patterns in fusionProg
// actually predecode to fused micro-ops — without this the equivalence
// tests could pass vacuously against an unfused array.
func TestPredecodeFusionApplied(t *testing.T) {
	ops := predecode(fusionProg())
	want := map[uint64]uint8{
		2: opFuseAddIAddI, 4: opFuseAddAdd, 6: opFuseAddAddI,
		8: opFuseAddIAdd, 10: opFuseMovISt, 12: opFuseLoadAddI,
		14: opFuseLoadAdd, 16: opFuseStBr, 20: opFuseAddIBr,
	}
	for pc, op := range want {
		if ops[pc].op != op {
			t.Errorf("ops[%d].op = %d, want fused op %d", pc, ops[pc].op, op)
		}
		if ops[pc+1].op >= opFuseFirst {
			t.Errorf("ops[%d] fused: pairs must not overlap", pc+1)
		}
	}
}

// TestPredecodeLeadersBlockFusion pins the fusion-safety rule: a pair is
// never formed across a control-flow leader, because the second half
// must not be reachable except by falling out of the first.
func TestPredecodeLeadersBlockFusion(t *testing.T) {
	p := prog(
		isa.AddI(1, 1, 1), // 0
		isa.AddI(2, 2, 1), // 1: jump target — fusing (0,1) would be wrong
		isa.Jump(1),       // 2
	)
	ops := predecode(p)
	if ops[0].op >= opFuseFirst {
		t.Fatalf("ops[0] fused across the leader at 1 (op=%d)", ops[0].op)
	}
	// Same shape without the jump: the pair must fuse.
	p2 := prog(isa.AddI(1, 1, 1), isa.AddI(2, 2, 1), isa.Halt())
	if ops2 := predecode(p2); ops2[0].op != opFuseAddIAddI {
		t.Fatalf("unguarded pair did not fuse (op=%d)", ops2[0].op)
	}
	// A pair may START at a leader — control entering at the pair's head
	// executes it whole, so only the second slot must not be one. The
	// return address after a call is such a head here.
	p3 := prog(
		isa.Call(3),       // 0
		isa.AddI(1, 1, 1), // 1: return address, head of a legal pair
		isa.AddI(2, 2, 1), // 2
		isa.Ret(),         // 3
	)
	if ops3 := predecode(p3); ops3[1].op != opFuseAddIAddI {
		t.Fatalf("pair headed by a leader did not fuse (op=%d)", ops3[1].op)
	}
}

// runStream executes a fresh CPU to completion (or budget) on the full
// event plane — the reference interpreter — and returns the recorded
// stream.
func runStream(t *testing.T, c *CPU, budget uint64, batch int) ([]trace.Event, uint64, error) {
	t.Helper()
	c.SetBatchSize(batch)
	rec := &trace.Recorder{}
	n, err := c.Run(budget, rec)
	return rec.Events, n, err
}

// TestPredecodeReferenceEquivalence is the data tap's differential on
// the fusion program: the control-plane loop with the tap must deliver
// the reference stream's transfers, loads, stores and register
// snapshots and leave the same machine state, at every batch size (1
// ends tap batches at full buffers) and at budgets that cut runs
// mid-pair.
func TestPredecodeReferenceEquivalence(t *testing.T) {
	checkTapReference(t, newFusionCPU, []int{0, 1, 2, 3, 7, 256}, []uint64{0, 1, 3, 7, 50, 101})
}

// TestPredecodeResumeMidPair pins the budget boundary inside a fused
// pair on the tap plane: stopping with one instruction of budget left
// retires exactly the first constituent, and resuming starts the next
// tap batch at the second — the combined delivery matching an uncut
// reference run.
func TestPredecodeResumeMidPair(t *testing.T) {
	// Budget 3 stops mid-pair (instructions 0,1 are movi/movi, 2 is the
	// first constituent of the fused addi+addi at pc 2/3).
	tc := newFusionCPU()
	rec := newTapRecorder(tc)
	n, err := tc.Run(3, rec)
	if err != nil || n != 3 {
		t.Fatalf("first leg: n=%d err=%v", n, err)
	}
	if got := tc.PC(); got != 3 {
		t.Fatalf("mid-pair pc = %d, want 3 (second constituent)", got)
	}
	if _, err := tc.Run(0, rec); err != nil {
		t.Fatal(err)
	}
	ref := newFusionCPU()
	re, _, err := runStream(t, ref, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg := rec.diff(re); msg != "" {
		t.Fatalf("resumed tap delivery: %s", msg)
	}
	if err := sameState(tc, ref, re); err != nil {
		t.Fatalf("resumed tap run: %v", err)
	}
}

// TestPredecodeNilSink pins the no-sink path: Run without a sink takes
// the control-plane loop and leaves the machine state the reference
// interpreter leaves.
func TestPredecodeNilSink(t *testing.T) {
	c := newFusionCPU()
	ctl0, _, full0 := PlaneRuns()
	n, err := c.Run(0, nil)
	ctl1, _, full1 := PlaneRuns()
	if ctl1 != ctl0+1 || full1 != full0 {
		t.Fatalf("nil-sink run counted %d control-plane and %d full-plane runs, want 1 and 0", ctl1-ctl0, full1-full0)
	}
	ref := newFusionCPU()
	re, rn, rerr := runStream(t, ref, 0, 0)
	if err != nil || rerr != nil || n != rn {
		t.Fatalf("n=%d/%d err=%v/%v", n, rn, err, rerr)
	}
	if err := sameState(c, ref, re); err != nil {
		t.Fatalf("nil-sink run: %v", err)
	}
}

// TestReferenceErrorPaths mirrors the machine-check tests on the
// reference interpreter, which has its own flush-and-return error exits.
func TestReferenceErrorPaths(t *testing.T) {
	run := func(p *program.Program) error {
		_, err := New(p).Run(0, &trace.Recorder{})
		return err
	}
	if err := run(prog(isa.Nop())); !errors.Is(err, ErrPC) {
		t.Fatalf("ErrPC: got %v", err)
	}
	if err := run(prog(isa.Ret())); !errors.Is(err, ErrRetEmpty) {
		t.Fatalf("ErrRetEmpty: got %v", err)
	}
	if err := run(prog(isa.Call(0))); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("ErrCallDepth: got %v", err)
	}
}
