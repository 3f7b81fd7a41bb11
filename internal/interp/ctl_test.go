package interp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// memFusionProg exercises the memory-pair superinstructions (ld+st and
// st+st) inside a loop, with one st+st pair whose second constituent is
// the last event before a control transfer — the boundary the segment
// side channel has to get right.
func memFusionProg() *program.Program {
	return prog(
		isa.MovI(1, 0),                // 0
		isa.MovI(2, 2000),             // 1
		isa.AddI(1, 1, 1),             // 2: loop head (branch target)
		isa.Load(3, 2, 0),             // 3
		isa.Store(2, 8, 3),            // 4:   ld+st (store reads the just-loaded reg)
		isa.Store(2, 16, 3),           // 5
		isa.Store(2, 24, 3),           // 6:   st+st
		isa.AddI(4, 1, -6),            // 7
		isa.Store(2, 32, 3),           // 8
		isa.Store(2, 40, 3),           // 9:   st+st, second slot right before the branch
		isa.Branch(isa.CondLTZ, 4, 2), // 10: back edge, unfused
		isa.Halt(),                    // 11
	)
}

// TestPredecodeMemPairFusion pins that the ld+st and st+st patterns
// actually fuse, so the equivalence tests below cannot pass vacuously.
func TestPredecodeMemPairFusion(t *testing.T) {
	ops := predecode(memFusionProg(), true)
	want := map[uint64]uint8{3: opFuseLoadSt, 5: opFuseStSt, 8: opFuseStSt}
	for pc, op := range want {
		if ops[pc].op != op {
			t.Errorf("ops[%d].op = %d, want fused op %d", pc, ops[pc].op, op)
		}
		if ops[pc+1].op >= opFuseFirst {
			t.Errorf("ops[%d] fused: pairs must not overlap", pc+1)
		}
	}
	if ops[10].op >= opFuseFirst {
		t.Errorf("ops[10] fused: the pair at 8 already consumed slot 9")
	}
}

// TestMemPairReferenceEquivalence runs memFusionProg through the fused
// and reference interpreters across batch sizes and mid-pair budgets;
// streams and machine state must match exactly (the ld+st arm must read
// the store's registers AFTER the load wrote its destination).
func TestMemPairReferenceEquivalence(t *testing.T) {
	for _, batch := range []int{0, 1, 2, 3, 7, 256} {
		for _, budget := range []uint64{0, 1, 4, 5, 9, 10, 23} {
			fused := New(memFusionProg())
			ref := New(memFusionProg())
			ref.SetReference(true)
			fe, fn, ferr := runStream(t, fused, budget, batch)
			re, rn, rerr := runStream(t, ref, budget, batch)
			if (ferr == nil) != (rerr == nil) || fn != rn {
				t.Fatalf("batch=%d budget=%d: n %d/%d err %v/%v", batch, budget, fn, rn, ferr, rerr)
			}
			if !reflect.DeepEqual(fe, re) {
				t.Fatalf("batch=%d budget=%d: streams differ (%d vs %d events)", batch, budget, len(fe), len(re))
			}
			if fused.regs != ref.regs || fused.PC() != ref.PC() || fused.Halted() != ref.Halted() {
				t.Fatalf("batch=%d budget=%d: machine state diverged", batch, budget)
			}
		}
	}
}

// ctlRecorder accepts only control-plane delivery: ConsumeBatch panics,
// proving Run dispatched to the control-plane loop. It checks the batch
// contract as it goes — every batch covers at least one instruction,
// batches cover the stream contiguously, events lie inside their
// batch's span, and a batch holds at most max events and ends at its
// last transfer when full — and keeps the first violation in err.
type ctlRecorder struct {
	events  []trace.CtlEvent
	max     int
	batches int
	next    uint64 // index one past the last covered instruction
	covered uint64
	err     string
}

func (r *ctlRecorder) ConsumeBatch([]trace.Event) {
	panic("full-plane delivery to a control-only sink")
}

func (r *ctlRecorder) ConsumeCtlBatch(evs []trace.CtlEvent, first, n uint64) {
	bad := func(format string, args ...any) {
		if r.err == "" {
			r.err = fmt.Sprintf("batch %d: ", r.batches) + fmt.Sprintf(format, args...)
		}
	}
	switch {
	case n == 0:
		bad("covers no instruction")
	case r.batches > 0 && first != r.next:
		bad("starts at %d, previous batch ended before %d", first, r.next)
	case r.max > 0 && len(evs) > r.max:
		bad("%d events, batch size %d", len(evs), r.max)
	case r.max > 0 && len(evs) == r.max && evs[len(evs)-1].Index != first+n-1:
		bad("full batch does not end at its last transfer")
	}
	for _, ev := range evs {
		if ev.Index < first || ev.Index >= first+n {
			bad("event %d outside span [%d, %d)", ev.Index, first, first+n)
		}
	}
	r.batches++
	r.next = first + n
	r.covered += n
	r.events = append(r.events, evs...)
}

// transfers projects a full event stream onto the control plane: its
// branch/jump/ret events, field for field.
func transfers(evs []trace.Event) []trace.CtlEvent {
	var out []trace.CtlEvent
	for _, ev := range evs {
		if trace.IsTransfer(ev.Instr.Kind) {
			out = append(out, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
				Taken: ev.Taken, Target: ev.Target})
		}
	}
	return out
}

// runCtlStream executes a fresh CPU against a control-only sink.
func runCtlStream(t *testing.T, c *CPU, budget uint64, batch int) (*ctlRecorder, uint64, error) {
	t.Helper()
	c.SetBatchSize(batch)
	rec := &ctlRecorder{max: c.BatchSize()}
	n, err := c.Run(budget, rec)
	if rec.err != "" {
		t.Fatalf("batch=%d budget=%d: %s", batch, budget, rec.err)
	}
	return rec, n, err
}

// TestRunCtlReferenceEquivalence is the control-plane differential: the
// ctl loop must emit exactly the reference stream filtered to
// branch/jump/ret, field for field, with covered counts adding up to the
// reference stream's length and the same machine state — at batch sizes
// that cut fused pairs and budgets that stop mid-pair, over both the
// ALU-heavy fusion program and the memory-pair one.
func TestRunCtlReferenceEquivalence(t *testing.T) {
	mk := map[string]func(reference bool) *CPU{
		"fusion": newFusionCPU,
		"mem": func(reference bool) *CPU {
			c := New(memFusionProg())
			c.SetReference(reference)
			return c
		},
	}
	for name, newCPU := range mk {
		for _, batch := range []int{0, 1, 2, 3, 7, 256} {
			for _, budget := range []uint64{0, 1, 3, 7, 50, 101} {
				cc := newCPU(false)
				ref := newCPU(true)
				crec, cn, cerr := runCtlStream(t, cc, budget, batch)
				re, rn, rerr := runStream(t, ref, budget, batch)
				if (cerr == nil) != (rerr == nil) || cn != rn {
					t.Fatalf("%s batch=%d budget=%d: n %d/%d err %v/%v", name, batch, budget, cn, rn, cerr, rerr)
				}
				if want := transfers(re); !reflect.DeepEqual(crec.events, want) {
					for i := range crec.events {
						if i < len(want) && !reflect.DeepEqual(crec.events[i], want[i]) {
							t.Fatalf("%s batch=%d budget=%d: event %d differs:\nctl %+v\nref %+v",
								name, batch, budget, i, crec.events[i], want[i])
						}
					}
					t.Fatalf("%s batch=%d budget=%d: stream lengths %d vs %d",
						name, batch, budget, len(crec.events), len(want))
				}
				if crec.covered != uint64(len(re)) || crec.covered != cn {
					t.Fatalf("%s batch=%d budget=%d: batches cover %d instructions, stream has %d, Run retired %d",
						name, batch, budget, crec.covered, len(re), cn)
				}
				if cc.regs != ref.regs || cc.PC() != ref.PC() || cc.Halted() != ref.Halted() {
					t.Fatalf("%s batch=%d budget=%d: machine state diverged", name, batch, budget)
				}
			}
		}
	}
}

// TestRunCtlResumeMidPair pins the budget boundary inside a fused pair
// on the control plane: one instruction of budget left retires exactly
// the first constituent, and resuming completes the stream.
func TestRunCtlResumeMidPair(t *testing.T) {
	cc := newFusionCPU(false)
	rec := &ctlRecorder{max: cc.BatchSize()}
	n, err := cc.Run(3, rec)
	if err != nil || n != 3 {
		t.Fatalf("first leg: n=%d err=%v", n, err)
	}
	if got := cc.PC(); got != 3 {
		t.Fatalf("mid-pair pc = %d, want 3 (second constituent)", got)
	}
	if _, err := cc.Run(0, rec); err != nil {
		t.Fatal(err)
	}
	ref := newFusionCPU(true)
	rrec := &trace.Recorder{}
	if _, err := ref.Run(0, rrec); err != nil {
		t.Fatal(err)
	}
	if want := transfers(rrec.Events); !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("resumed ctl stream differs from reference (%d vs %d events)", len(rec.events), len(want))
	}
	if rec.err != "" || rec.covered != uint64(len(rrec.Events)) {
		t.Fatalf("resumed ctl batches cover %d of %d instructions (%s)", rec.covered, len(rrec.Events), rec.err)
	}
}

// TestRunCtlErrorPaths: machine errors on the control plane flush the
// retired instructions before returning, exactly like the full path.
func TestRunCtlErrorPaths(t *testing.T) {
	run := func(p *program.Program) (*ctlRecorder, error) {
		c := New(p)
		rec := &ctlRecorder{}
		_, err := c.Run(0, rec)
		return rec, err
	}
	if rec, err := run(prog(isa.Nop())); !errors.Is(err, ErrPC) || rec.covered != 1 || len(rec.events) != 0 {
		t.Fatalf("ErrPC: got %v, %d instructions, %d events", err, rec.covered, len(rec.events))
	}
	if rec, err := run(prog(isa.Jump(2), isa.Nop())); !errors.Is(err, ErrPC) || rec.covered != 1 || len(rec.events) != 1 {
		t.Fatalf("ErrPC after a jump: got %v, %d instructions, %d events", err, rec.covered, len(rec.events))
	}
	if _, err := run(prog(isa.Ret())); !errors.Is(err, ErrRetEmpty) {
		t.Fatalf("ErrRetEmpty: got %v", err)
	}
	if _, err := run(prog(isa.Call(0))); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("ErrCallDepth: got %v", err)
	}
}

// TestRunCtlForcedFull: wrapping the same control-only sink in
// ForceFullPlane must push Run back onto full-Event delivery (the
// wrapper's ConsumeBatch, not the sink's panicking one).
func TestRunCtlForcedFull(t *testing.T) {
	var got []trace.Event
	sink := trace.BatchConsumerFunc(func(evs []trace.Event) { got = append(got, evs...) })
	c := New(memFusionProg())
	if _, err := c.Run(0, trace.ForceFullPlane(sink)); err != nil {
		t.Fatal(err)
	}
	ref := New(memFusionProg())
	ref.SetReference(true)
	rrec := &trace.Recorder{}
	if _, err := ref.Run(0, rrec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rrec.Events) {
		t.Fatalf("forced-full stream differs (%d vs %d events)", len(got), len(rrec.Events))
	}
}

// TestSegmentBoundaryPairBeforeTransfer pins satellite boundaries of the
// segment side channel and of control-plane batches: a fused pair whose
// second constituent is the last event before a control transfer, with
// batch sizes that flush between the pair and the transfer and budgets
// that cut inside the pair. The full plane's ctl indices must always be
// exactly the branch/jump/ret positions of the equivalent reference
// stream, and the control plane must deliver exactly those events.
func TestSegmentBoundaryPairBeforeTransfer(t *testing.T) {
	for _, batch := range []int{1, 2, 3, 5, 8, 9, 1024} {
		for _, budget := range []uint64{0, 5, 8, 9, 10, 11, 17} {
			ref := New(memFusionProg())
			ref.SetReference(true)
			re, _, err := runStream(t, ref, budget, batch)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for i := range re {
				switch re[i].Instr.Kind {
				case isa.KindBranch, isa.KindJump, isa.KindRet:
					want = append(want, i)
				}
			}

			seg := &segRecorder{}
			c := New(memFusionProg())
			c.SetBatchSize(batch)
			if _, err := c.Run(budget, seg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seg.events, re) {
				t.Fatalf("batch=%d budget=%d: segmented events differ from reference", batch, budget)
			}
			if !reflect.DeepEqual(seg.ctl, append([]int(nil), want...)) {
				t.Fatalf("batch=%d budget=%d: full-plane ctl = %v, want %v", batch, budget, seg.ctl, want)
			}

			crec, _, err := runCtlStream(t, New(memFusionProg()), budget, batch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(crec.events, transfers(re)) || crec.covered != uint64(len(re)) {
				t.Fatalf("batch=%d budget=%d: ctl plane delivered %d events over %d instructions, want %d over %d",
					batch, budget, len(crec.events), crec.covered, len(transfers(re)), len(re))
			}
		}
	}
}
